import random

import pytest
from hypothesis import given, settings, strategies as st

from wallcrystal.affine_data import AffineType, Family
from wallcrystal.adapted_sequence import DoubleIndex as D, from_permutation
from wallcrystal.linear_forms import (
    ConstantPresent, DominantWeight, LinearForm, beta, beta_at, beta_signed,
    closure, lambda_form, parse_form, positivity_report, r_minus, render_form,
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


def test_beta_signed():
    seq = ex1_seq()
    lam = DominantWeight((0, 0, 1))
    # r = 1 carries colour 3 and is a first occurrence
    bm = beta_signed(seq, 1, "-", lam)
    assert bm.constant == -1
    assert bm.coeff(D(1, 3)) == 1
    # deeper occurrences agree with plain beta
    assert beta_signed(seq, 5, "-", lam) == beta_at(seq, 2)
    assert beta_signed(seq, 4, "+", lam) == beta_at(seq, 4)


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
    cert, frontier = closure(seq, [x(1, 1)], 15)
    for text in ["x[1,1]", "2 x[2,2] - x[2,1]", "x[2,2] + x[3,3] - x[3,2]",
                 "x[2,1] + 2 x[3,3] - 2 x[3,2]", "x[2,1] + x[3,3] - x[4,3]"]:
        assert parse_form(text) in cert


def test_closure_certified_stable_under_growth():
    seq = ex1_seq()
    cert_small, _ = closure(seq, [x(1, 1)], 12)
    cert_big, _ = closure(seq, [x(1, 1)], 15)
    window = {f for f in cert_big if support_bound(seq, f) <= 12 - seq.n}
    assert cert_small == window


def test_closure_idempotent_on_certified():
    seq = ex1_seq()
    cert, _ = closure(seq, [x(1, 1)], 12)
    cert2, _ = closure(seq, cert, 12)
    assert {f for f in cert2 if support_bound(seq, f) <= 12 - seq.n} == cert


def test_positivity_ex1():
    seq = ex1_seq()
    report = positivity_report(seq, DominantWeight((1, 1, 1)), 12)
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
        closure(seq, [parse_form("x[0,1]")], 12)
