"""The public closure against a plain breadth-first search over LinearForm.

`reference_closure` is the textbook loop with one bound, `cap`: apply
S' (or S-hat') at every single index r <= cap, keep the forms supported
within the cap, and split the result at the certified window.  On the
same window `closure` must return exactly its certified and frontier
sets, whatever representation it runs on internally, and the certified
set must not change when the reference searches further out."""

import pytest

from wallcrystal import linear_forms
from wallcrystal.affine_data import AffineType, Family
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import (
    ConstantPresent, DominantWeight, LinearForm, beta_at, beta_minus,
    _forms, closure, lambda_form, support_bound, x,
)

SETTINGS = [
    ("D2 rank 3", AffineType(Family.D2, 3), (3, 2, 1), (1, 1, 1)),
    ("C1 rank 3", AffineType(Family.C1, 3), (3, 2, 1), (2, 0, 1)),
    ("B1 rank 4", AffineType(Family.B1, 4), (2, 4, 3, 1), (1, 0, 1, 2)),
    ("A2odd rank 4", AffineType(Family.A2ODD, 4), (2, 4, 3, 1), (0, 1, 1, 0)),
    ("D1 rank 6", AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1),
     (1, 0, 0, 1, 0, 1)),
]


def reference_closure(seq, seeds, window, cap, lam=None):
    steps = [(seq.reindex(r), beta_at(seq, r), beta_minus(seq, r, lam))
             for r in range(1, cap + 1)]
    seen = set(seeds)
    queue = list(seen)
    while queue:
        phi = queue.pop()
        for d, plus, minus in steps:
            c = phi.coeff(d)
            if c == 0:
                continue
            nxt = phi - plus if c > 0 else phi + minus
            if nxt not in seen and support_bound(seq, nxt) <= cap:
                seen.add(nxt)
                queue.append(nxt)
    certified = {f for f in seen if support_bound(seq, f) <= window}
    return certified, seen - certified


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_s_prime_matches_reference(name, g, order, lam_values):
    seq = from_permutation(g, order)
    n = seq.n
    seeds = [x(s, k) for s in (1, 2) for k in seq.base_type.index_set]
    for window in (n, 2 * n, 3 * n, 4 * n):
        got = tuple(_forms(seq, v) for v in closure(seq, seeds, window))
        want = reference_closure(seq, seeds, window, window)
        assert got == want, (name, window)


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_s_hat_matches_reference(name, g, order, lam_values):
    seq = from_permutation(g, order)
    n = seq.n
    lam = DominantWeight(lam_values)
    seeds = [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
    for window in (n, 2 * n, 3 * n, 4 * n):
        got = tuple(_forms(seq, v)
                    for v in closure(seq, seeds, window, lam=lam))
        want = reference_closure(seq, seeds, window, window, lam=lam)
        assert got == want, (name, window)


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_wider_search_certifies_the_same_forms(name, g, order, lam_values):
    # the forms certified on W are the same whether the reference applies
    # the operators and keeps forms up to W or two periods further out
    seq = from_permutation(g, order)
    n = seq.n
    lam = DominantWeight(lam_values)
    colours = seq.base_type.index_set
    for window in (n, 2 * n + 1, 3 * n):
        seeds = [x(s, k) for s in range(1, window // n + 2) for k in colours]
        hat_seeds = seeds + [lambda_form(seq, k, lam) for k in colours]
        for op, op_seeds, op_lam in (("S'", seeds, None),
                                     ("Shat'", hat_seeds, lam)):
            narrow, _ = reference_closure(seq, op_seeds, window, window,
                                          lam=op_lam)
            wide, _ = reference_closure(seq, op_seeds, window, window + 2 * n,
                                        lam=op_lam)
            assert narrow == wide, (name, op, window)


def test_far_seed_lands_in_frontier():
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    cert, frontier = closure(seq, [x(20, 1)], 12)
    assert _forms(seq, cert) == set()
    assert _forms(seq, frontier) == {x(20, 1)}


def test_s_prime_rejects_constants():
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    with pytest.raises(ConstantPresent):
        closure(seq, [x(1, 1), LinearForm(1, x(1, 3).terms)], 9)


@pytest.mark.parametrize("name,g,order,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_seed_inside_and_past_the_cap(name, g, order, lam_values):
    # one seed with a coefficient within the window and one more than a
    # period past it: every successor keeps the far one and is dropped
    seq = from_permutation(g, order)
    n = seq.n
    window = 2 * n
    seed = x(1, 1) + x(window // n + 3, 1)
    got = tuple(_forms(seq, v) for v in closure(seq, [seed], window))
    assert got == reference_closure(seq, [seed], window, window)
    assert got[1] and not got[0]


def test_wide_coefficients():
    # a coefficient of 2**20 at the last index the search keeps, and
    # pairings of 2**20 in the S-hat' constants
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    n = seq.n
    window = 3 * n
    far = LinearForm(0, {seq.reindex(window): 1 << 20})
    seeds = [x(1, 1) + far, x(1, 2)]
    got = tuple(_forms(seq, v) for v in closure(seq, seeds, window))
    assert got == reference_closure(seq, seeds, window, window)
    lam = DominantWeight((1 << 20, 1, 1 << 20))
    seeds = [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
    got = tuple(_forms(seq, v)
                for v in closure(seq, seeds, window, lam=lam))
    assert got == reference_closure(seq, seeds, window, window, lam=lam)


def test_constants_outgrow_the_seeds(monkeypatch):
    # every seed and step coefficient fits a quarter of a 16-bit lane,
    # but each S-hat' step at a negative first-period coefficient takes
    # a pairing off the constant, which ends past it: the search starts
    # again with 32-bit lanes
    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    n = seq.n
    lam = DominantWeight((6000, 6000, 6000))
    seeds = [-(x(1, 1) + x(1, 2) + x(1, 3))]
    widths = []
    search = linear_forms._keyed_search

    def spy(*args):
        widths.append(args[-1])
        return search(*args)

    monkeypatch.setattr(linear_forms, "_keyed_search", spy)
    got = tuple(_forms(seq, v)
                for v in closure(seq, seeds, 2 * n, lam=lam))
    assert got == reference_closure(seq, seeds, 2 * n, 2 * n, lam=lam)
    assert min(f.constant for f in got[0] | got[1]) <= -(1 << 14)
    assert widths == [16, 32]
