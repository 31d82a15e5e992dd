import io
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import wallcrystal.cli as cli
from wallcrystal import linear_forms
from wallcrystal.affine_data import AffineType, Family, cartan_entry
from wallcrystal.adapted_sequence import (
    AdaptedSequence, DoubleIndex as D, from_permutation,
)
from wallcrystal.linear_forms import (
    ConstantPresent, DominantWeight, LinearForm, beta, beta_at, beta_minus,
    _forms, closure, lambda_form, parse_form, positivity_report, r_minus, render_form,
    s_hat, s_prime, support_bound, x, xi_form,
)


def ex1_seq():
    return from_permutation(AffineType(Family.D2, 3), (3, 2, 1))


def ex2_seq():
    return from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1))


@st.composite
def small_forms(draw):
    n_terms = draw(st.integers(min_value=0, max_value=5))
    acc = {}
    for _ in range(n_terms):
        d = D(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
        acc[d] = draw(st.integers(-3, 3))
    return LinearForm(draw(st.integers(-2, 2)), acc)


def test_form_canonicalization():
    f = LinearForm(0, {D(1, 1): 1, D(2, 2): 0})
    assert f.terms == ((D(1, 1), 1),)
    g = LinearForm(0, [(D(1, 1), 2), (D(1, 1), -2)])
    assert g.is_zero()
    assert x(0, 1).is_zero()  # x_{s,k} = 0 for s < 1


def test_render_and_parse():
    f = LinearForm(3, {D(2, 2): 2, D(2, 1): -1})
    assert render_form(f) == "2 x[2,2] - x[2,1] + 3"
    assert parse_form(render_form(f)) == f
    assert render_form(LinearForm(0, {})) == "0"
    assert parse_form("x[1,3]") == x(1, 3)
    assert parse_form("- x[1,3] + 1") == LinearForm(1, {D(1, 3): -1})


@given(f=small_forms())
def test_render_round_trip(f):
    assert parse_form(render_form(f)) == f


def test_beta_ex1():
    seq = ex1_seq()
    assert beta(seq, D(1, 1)) == parse_form("x[1,1] + x[2,1] - 2 x[2,2]")
    for s in range(1, 4):
        b = beta(seq, D(s, 2))
        assert b.coeff(D(s, 2)) == 1 and b.coeff(D(s + 1, 2)) == 1


def test_beta_a1():
    seq = from_permutation(AffineType(Family.A1, 3), (3, 1, 2))
    # single index of (1,2) is 3; beta_3 = x_3 - x_4 - x_5 + x_6
    b = beta(seq, D(1, 2))
    assert b == parse_form("x[1,2] + x[2,2] - x[2,1] - x[2,3]")


def test_r_minus():
    seq = ex1_seq()
    assert r_minus(seq, 2) == 0
    assert r_minus(seq, 5) == 2
    assert beta_at(seq, 0).is_zero()


def test_beta_minus():
    seq = ex1_seq()
    lam = DominantWeight((0, 0, 1))
    # r = 1 carries colour 3 and is a first occurrence
    bm = beta_minus(seq, 1, lam)
    assert bm.constant == -1
    assert bm.coeff(D(1, 3)) == 1
    # deeper occurrences agree with plain beta
    assert beta_minus(seq, 5, lam) == beta_at(seq, 2)
    # without lambda: zero in the first period, beta_{r - n} after it
    for r in range(1, 4 * seq.n + 1):
        want = beta_at(seq, r - seq.n) if r > seq.n else LinearForm(0, {})
        assert beta_minus(seq, r) == want, r


# every family at the ranks of the goldens: every order up to rank 4, and
# the D1 orders of tests/test_comb_golden.py
BASIS_SETTINGS = (
    [(AffineType(fam, n), order)
     for fam, n in ((Family.A1, 3), (Family.A2EVEN, 3),
                    (Family.A2EVEN_DAGGER, 3), (Family.D2, 3), (Family.C1, 3),
                    (Family.B1, 4), (Family.A2ODD, 4))
     for order in itertools.permutations(range(1, n + 1))]
    + [(AffineType(Family.D1, 5), order) for order in
       ((3, 1, 2, 4, 5), (1, 3, 2, 4, 5), (1, 2, 3, 4, 5), (1, 2, 4, 3, 5),
        (1, 2, 4, 5, 3))]
    + [(AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1))])


@pytest.mark.parametrize("g,order", BASIS_SETTINGS, ids=[
    f"{g.family.value}{g.n} {','.join(map(str, order))}"
    for g, order in BASIS_SETTINGS])
def test_beta_moves_up_one_period_per_period(g, order):
    # on single indices beta_{r+n} is beta_r moved up by n, and beta_r
    # ends at r + n with coefficient 1, so one period of rows gives every
    # beta the closure steps by
    seq = from_permutation(g, order)
    n = seq.n

    def row(r):
        return {seq.single_index(d): c for d, c in beta_at(seq, r).terms}

    for r in range(1, 4 * n + 1):
        assert row(r + n) == {i + n: c for i, c in row(r).items()}, r
        assert max(row(r)) == r + n and row(r)[r + n] == 1, r


@pytest.mark.parametrize("g,order", BASIS_SETTINGS[::7], ids=[
    f"{g.family.value}{g.n} {','.join(map(str, order))}"
    for g, order in BASIS_SETTINGS[::7]])
def test_beta_rows_give_every_beta(g, order):
    # `closure` and `verify props` read beta_r from one period of rows
    # moved up (`beta_row`): it is beta_r's pairs, constant included, for
    # every r, so no beta past the first period differs
    seq = from_permutation(g, order)
    for r in range(1, 4 * seq.n + 1):
        assert linear_forms.beta_row(seq, r) \
            == linear_forms._pairs(seq, beta_at(seq, r)), r


@pytest.mark.parametrize("g,order", [
    (AffineType(Family.D2, 3), (3, 2, 1)),
    (AffineType(Family.C1, 3), (3, 2, 1)),
    (AffineType(Family.B1, 4), (2, 4, 3, 1)),
    (AffineType(Family.A2ODD, 4), (2, 4, 3, 1)),
    (AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1)),
])
def test_beta_signed_minus_at_a_first_occurrence_is_minus_lambda_form(g, order):
    # for r <= n, beta^-_r = x[1,k] + sum_{j<r} a_{k,i_j} x[1,i_j] - <h_k,lam>
    # with k = i_r, which is -lambda^(k)
    seq = from_permutation(g, order)
    n = seq.n
    for lam in (DominantWeight.zero(n), DominantWeight(tuple(range(n)))):
        for r in range(1, n + 1):
            k = seq.entry(r)
            want = {D(1, k): 1}
            for j in range(1, r):
                c = cartan_entry(g, k, seq.entry(j))
                if c:
                    want[D(1, seq.entry(j))] = c
            got = beta_minus(seq, r, lam)
            assert got == -lambda_form(seq, k, lam), (lam, r)
            assert got == LinearForm(-lam.pairing(k), want), (lam, r)


def test_s_prime_ex1():
    seq = ex1_seq()
    # S'_{(s,1)} x_{s,1} = 2 x_{s+1,2} - x_{s+1,1}
    got = s_prime(seq, seq.single_index(D(1, 1)), x(1, 1))
    assert got == parse_form("2 x[2,2] - x[2,1]")
    assert s_prime(seq, 2, x(1, 1)) == x(1, 1)  # zero coefficient
    with pytest.raises(ConstantPresent):
        s_prime(seq, 1, LinearForm(1, {D(1, 3): 1}))


def test_s_hat_relation_to_s_prime():
    # S-hat(phi) = S'(phi - c) + c whenever the coefficient is not negative
    # at a first occurrence
    seq = ex1_seq()
    lam = DominantWeight((1, 0, 2))
    rng = random.Random(3)
    checked = 0
    while checked < 50:
        acc = {D(rng.randint(1, 3), rng.randint(1, 3)): rng.randint(-2, 2)
               for _ in range(3)}
        c = rng.randint(-2, 2)
        phi = LinearForm(c, acc)
        r = rng.randint(1, 9)
        cr = phi.coeff(seq.reindex(r))
        if cr < 0 and r_minus(seq, r) == 0:
            continue
        lhs = s_hat(seq, r, phi, lam)
        rhs = s_prime(seq, r, phi.drop_constant()).shift_constant(c)
        assert lhs == rhs
        checked += 1


def test_lambda_and_xi_forms():
    seq = ex1_seq()
    lam = DominantWeight((2, 1, 1))
    # iota^(3) = 1: empty sum
    assert lambda_form(seq, 3, lam) == LinearForm(1, {D(1, 3): -1})
    lf2 = lambda_form(seq, 2, lam)
    # iota^(2) = 2, <h_2, alpha_3> = -1
    assert lf2 == LinearForm(1, {D(1, 2): -1, D(1, 3): 1})
    assert xi_form(seq, 2) == lf2.drop_constant()
    # s_hat at the first occurrence kills lambda^(k)
    got = s_hat(seq, 1, lambda_form(seq, 3, lam), lam)
    assert got.is_zero()


def test_closure_ex1_contains_printed_forms():
    seq = ex1_seq()
    cert, frontier = closure(seq, [x(1, 1)], 12)
    for text in ["x[1,1]", "2 x[2,2] - x[2,1]", "x[2,2] + x[3,3] - x[3,2]",
                 "x[2,1] + 2 x[3,3] - 2 x[3,2]", "x[2,1] + x[3,3] - x[4,3]"]:
        assert parse_form(text) in _forms(seq, cert)


def test_closure_certified_stable_under_growth():
    seq = ex1_seq()
    cert_small, _ = closure(seq, [x(1, 1)], 9)
    cert_big, _ = closure(seq, [x(1, 1)], 12)
    window = {f for f in _forms(seq, cert_big) if support_bound(seq, f) <= 9}
    assert _forms(seq, cert_small) == window


@pytest.mark.parametrize("g,order", [
    (AffineType(Family.D2, 3), (3, 2, 1)),
    (AffineType(Family.B1, 4), (2, 4, 3, 1)),
])
def test_beta_rows_are_built_once_per_sequence(monkeypatch, g, order):
    # verify closure takes one closure per colour and positivity_report
    # n + 2 closures; all of them read the n rows of beta the sequence
    # built on the first
    built = []

    def spy(seq, d):
        built.append((id(seq), d))
        return beta(seq, d)

    monkeypatch.setattr(linear_forms, "beta", spy)
    out = io.StringIO()
    assert cli.main(["verify", "closure", "--type", g.family.value,
                     "--rank", str(g.n), "--order", ",".join(map(str, order))],
                    out=out) == 0
    assert out.getvalue().count(" ok ") == g.n
    seq = from_permutation(g, order)
    rows = [seq.reindex(r) for r in range(1, g.n + 1)]
    assert built == [(id(seq), d) for d in rows]
    built.clear()
    fresh = AdaptedSequence(g, order)
    positivity_report(fresh, DominantWeight((1,) * g.n), 4 * g.n)
    assert built == [(id(fresh), d) for d in rows]


def test_closure_idempotent_on_certified():
    seq = ex1_seq()
    cert, _ = closure(seq, [x(1, 1)], 9)
    cert2, _ = closure(seq, _forms(seq, cert), 9)
    assert {f for f in _forms(seq, cert2) if support_bound(seq, f) <= 9} \
        == _forms(seq, cert)


def test_positivity_ex1():
    seq = ex1_seq()
    report = positivity_report(seq, DominantWeight((1, 1, 1)), 9)
    assert report == {"xi_positive": True, "strict_positive": True, "ample": True}


def test_evaluate():
    f = parse_form("2 x[2,2] - x[2,1]")
    assert f.evaluate({D(2, 2): 1, D(2, 1): 1}) == 1
    assert parse_form("- x[1,3] + 1").evaluate({}) == 1
    assert parse_form("x[1,2] - x[2,3]").evaluate({D(1, 2): 2, D(2, 3): 1}) == 1


@given(f=small_forms(), g=small_forms())
@settings(max_examples=50)
def test_form_algebra(f, g):
    assert (f + g) - g == f
    assert (f - f).is_zero()
    assert (-f) + f == LinearForm(0, {})


def test_closure_rejects_indices_before_one():
    # x[0,k] has no single index; the closure refuses it instead of
    # running on a misplaced coefficient
    seq = ex1_seq()
    with pytest.raises(ValueError):
        closure(seq, [parse_form("x[0,1]")], 9)


def test_closure_window_needs_a_period():
    seq = ex1_seq()
    assert closure(seq, [x(1, 1)], seq.n)[0]
    with pytest.raises(ValueError):
        closure(seq, [x(1, 1)], seq.n - 1)


@pytest.mark.parametrize("values", [(1, 1), (1, 1, 1, 5)])
def test_weights_of_the_wrong_rank_are_rejected(values):
    seq = ex1_seq()
    lam = DominantWeight(values)
    message = f"lambda has {len(values)} entries, not 3"
    with pytest.raises(ValueError, match=message):
        lambda_form(seq, 1, lam)
    with pytest.raises(ValueError, match=message):
        closure(seq, [x(1, 1)], 6, lam=lam)
    with pytest.raises(ValueError, match=message):
        positivity_report(seq, lam, 6)


def test_weights_need_integer_pairings():
    with pytest.raises(ValueError, match="integer pairings"):
        DominantWeight((0.5, 1, 1))
