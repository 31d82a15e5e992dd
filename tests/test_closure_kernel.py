"""The public closure against a plain breadth-first search over LinearForm.

`reference_closure` is the textbook loop: apply S' (or S-hat') at every
single index r <= horizon, keep what stays within one period past the
certified window, and split the result at the window.  `closure` must
return exactly its certified and frontier sets, whatever representation
it runs on internally."""

import pytest

from wallcrystal.affine_data import AffineType, Family
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import (
    ConstantPresent, DominantWeight, LinearForm, beta_at, beta_signed,
    closure, lambda_form, r_minus, support_bound, x,
)

SETTINGS = [
    ("D2 rank 3", AffineType(Family.D2, 3), (3, 2, 1), (1, 1, 1)),
    ("C1 rank 3", AffineType(Family.C1, 3), (3, 2, 1), (2, 0, 1)),
    ("B1 rank 4", AffineType(Family.B1, 4), (2, 4, 3, 1), (1, 0, 1, 2)),
    ("A2odd rank 4", AffineType(Family.A2ODD, 4), (2, 4, 3, 1), (0, 1, 1, 0)),
    ("D1 rank 6", AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1),
     (1, 0, 0, 1, 0, 1)),
]


def reference_closure(seq, seeds, horizon, op="S'", lam=None, margin=1):
    n = seq.n
    hatted = op == "Shat'"
    steps = []
    for r in range(1, horizon + 1):
        if hatted:
            plus, minus = (beta_signed(seq, r, "+", lam),
                           beta_signed(seq, r, "-", lam))
        else:
            plus, minus = beta_at(seq, r), beta_at(seq, r_minus(seq, r))
        steps.append((seq.reindex(r), plus, minus))
    cutoff = horizon - margin * n
    seen = set(seeds)
    queue = list(seen)
    while queue:
        phi = queue.pop()
        for d, plus, minus in steps:
            c = phi.coeff(d)
            if c == 0:
                continue
            nxt = phi - plus if c > 0 else phi + minus
            if nxt not in seen and support_bound(seq, nxt) <= cutoff + n:
                seen.add(nxt)
                queue.append(nxt)
    certified = {f for f in seen if support_bound(seq, f) <= cutoff}
    return certified, seen - certified


def horizons(n, margin):
    return [h for h in (3 * n, 4 * n, 5 * n) if h >= (margin + 1) * n]


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_s_prime_matches_reference(name, g, order, lam_values):
    seq = from_permutation(g, order)
    n = seq.n
    for margin in (1, 2):
        for horizon in horizons(n, margin):
            seeds = [x(s, k) for s in (1, 2) for k in seq.base_type.index_set]
            got = closure(seq, seeds, horizon, margin=margin)
            want = reference_closure(seq, seeds, horizon, margin=margin)
            assert got == want, (name, margin, horizon)


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_s_hat_matches_reference(name, g, order, lam_values):
    seq = from_permutation(g, order)
    n = seq.n
    lam = DominantWeight(lam_values)
    seeds = [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
    for margin in (1, 2):
        for horizon in horizons(n, margin):
            got = closure(seq, seeds, horizon, op="Shat'", lam=lam,
                          margin=margin)
            want = reference_closure(seq, seeds, horizon, op="Shat'",
                                     lam=lam, margin=margin)
            assert got == want, (name, margin, horizon)


def test_far_seed_lands_in_frontier():
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    cert, frontier = closure(seq, [x(20, 1)], 15)
    assert cert == set()
    assert frontier == {x(20, 1)}


def test_s_prime_rejects_constants():
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    with pytest.raises(ConstantPresent):
        closure(seq, [x(1, 1), LinearForm(1, x(1, 3).terms)], 12)
