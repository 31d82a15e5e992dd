import random

import pytest
from hypothesis import given, settings, strategies as st

from wallcrystal.affine_data import AffineType, Family, cartan_entry
from wallcrystal.adapted_sequence import DoubleIndex as D, from_permutation
from wallcrystal.linear_forms import DominantWeight
from wallcrystal.zcrystal import (
    ZElement, e_tilde, epsilon, f_tilde, f_tilde_lambda, generate,
    parse_element, phi, render_element, sigma, verify_equivalence, wt_pairing,
)


def ex1_seq():
    return from_permutation(AffineType(Family.D2, 3), (3, 2, 1))


def ex2_seq():
    return from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1))


def random_element(seq, rng, steps=6):
    a = ZElement()
    for _ in range(rng.randint(0, steps)):
        a = f_tilde(seq, a, rng.choice(list(seq.base_type.index_set)))
    return a


def test_element_basics():
    a = ZElement({3: 2, 5: 0})
    assert a.support == [3]
    assert a.get(5) == 0 and a.get(3) == 2
    assert a.bump(3, -2) == ZElement()
    assert a.total() == 2
    with pytest.raises(ValueError):
        ZElement({0: 1})
    with pytest.raises(AttributeError):
        a._entries = {}


def test_element_literal_round_trip():
    seq = ex1_seq()
    a = parse_element(seq, "a[1,3]=1;a[2,2]=4")
    assert a.as_double(seq) == {D(1, 3): 1, D(2, 2): 4}
    assert parse_element(seq, render_element(seq, a)) == a
    assert parse_element(seq, "") == ZElement()
    assert render_element(seq, ZElement()) == "0"
    with pytest.raises(ValueError):
        parse_element(seq, "b[1,1]=2")


def test_zero_element_values():
    seq = ex1_seq()
    lam = DominantWeight((2, 0, 1))
    zero = ZElement()
    for j in range(1, 10):
        assert sigma(seq, zero, j) == 0
    for k in (1, 2, 3):
        assert epsilon(seq, zero, k) == 0
        assert phi(seq, zero, k, lam) == lam.pairing(k)


def test_sigma_first_entry():
    # the first index carries colour 3 here, so a single unit there gives
    # sigma_1 = 1 and epsilon_3 = 1
    seq = ex1_seq()
    a = parse_element(seq, "a[1,3]=1")
    assert sigma(seq, a, 1) == 1
    assert epsilon(seq, a, 3) == 1
    assert epsilon(seq, a, 1) == 0


def test_f_tilde_first_step():
    seq = ex1_seq()
    assert f_tilde(seq, ZElement(), 3) == parse_element(seq, "a[1,3]=1")
    assert e_tilde(seq, ZElement(), 3) is None


def test_e_tilde_inverts_f_tilde():
    rng = random.Random(5)
    for seq in (ex1_seq(), ex2_seq()):
        for _ in range(60):
            a = random_element(seq, rng)
            k = rng.choice(list(seq.base_type.index_set))
            b = f_tilde(seq, a, k)
            assert e_tilde(seq, b, k) == a


def test_phi_is_epsilon_plus_weight():
    seq = ex2_seq()
    lam = DominantWeight((1, 0, 2, 0))
    rng = random.Random(9)
    for _ in range(50):
        a = random_element(seq, rng)
        for k in seq.base_type.index_set:
            assert phi(seq, a, k, lam) == \
                epsilon(seq, a, k) + wt_pairing(seq, a, k, lam)


def test_operator_shifts_match_axioms():
    seq = ex1_seq()
    rng = random.Random(3)
    for _ in range(40):
        a = random_element(seq, rng)
        for k in (1, 2, 3):
            b = f_tilde(seq, a, k)
            assert epsilon(seq, b, k) == epsilon(seq, a, k) + 1
            assert phi(seq, b, k) == phi(seq, a, k) - 1
            for j in (1, 2, 3):
                delta = wt_pairing(seq, a, j) - wt_pairing(seq, b, j)
                assert delta == cartan_entry(seq.base_type, j, k)


def test_highest_weight_rule():
    seq = ex1_seq()
    zero = ZElement()
    # zero weight kills every direction at the highest weight
    for k in (1, 2, 3):
        assert f_tilde_lambda(seq, zero, k, DominantWeight.zero(3)) is None
    # pairing one on colour 3: one step down the 3-string, then it dies
    lam = DominantWeight((0, 0, 1))
    a = f_tilde_lambda(seq, zero, 3, lam)
    assert a == parse_element(seq, "a[1,3]=1")
    assert f_tilde_lambda(seq, a, 3, lam) is None


def test_lambda_action_agrees_with_plain_action():
    seq = ex2_seq()
    lam = DominantWeight((1, 1, 1, 1))
    rng = random.Random(17)
    count = 0
    for a in sorted(generate(seq, 4, lam), key=lambda e: e.items()):
        for k in seq.base_type.index_set:
            b = f_tilde_lambda(seq, a, k, lam)
            if b is not None:
                assert b == f_tilde(seq, a, k)
                count += 1
    assert count > 0


def test_generate_small():
    seq = ex1_seq()
    assert generate(seq, 0) == {ZElement()}
    depth1 = generate(seq, 1)
    assert depth1 == {ZElement()} | {f_tilde(seq, ZElement(), k)
                                     for k in (1, 2, 3)}
    assert len(depth1) == 4
    sizes = [len(generate(seq, d)) for d in range(5)]
    assert sizes == sorted(sizes)


def test_generate_closed_under_raising():
    seq = ex2_seq()
    gen = generate(seq, 5)
    for a in gen:
        for k in seq.base_type.index_set:
            b = e_tilde(seq, a, k)
            if b is not None:
                assert b in gen


def test_highest_weight_generation_is_smaller():
    seq = ex1_seq()
    lam = DominantWeight((1, 0, 0))
    free = generate(seq, 4)
    bound = generate(seq, 4, lam)
    assert bound < free


def test_verify_equivalence_small():
    seq = ex1_seq()
    rep = verify_equivalence(seq, 5)
    assert rep["ok"]
    assert rep["generated"] == rep["cut"]
    rep = verify_equivalence(seq, 4, lam=DominantWeight((1, 1, 1)))
    assert rep["ok"]
    # B(0) is {0}: nothing to cut, and the window is empty
    rep = verify_equivalence(seq, 4, lam=DominantWeight.zero(3))
    assert rep["ok"] and rep["generated"] == rep["cut"] == 1


def test_verify_equivalence_explicit_box():
    # a box past the generated support widens the window of forms and of
    # lattice points; the counts are those of the fitted box
    seq = ex1_seq()
    rep = verify_equivalence(seq, 5, box=12)
    assert rep["ok"] and rep["generated"] == rep["cut"] == 155
    rep = verify_equivalence(seq, 4, lam=DominantWeight((1, 1, 1)), box=12)
    assert rep["ok"] and rep["generated"] == rep["cut"] == 37


def test_verify_equivalence_box_must_cover():
    seq = ex1_seq()
    with pytest.raises(ValueError):
        verify_equivalence(seq, 5, box=2)


@st.composite
def words(draw):
    return draw(st.lists(st.integers(1, 3), max_size=7))


@given(w=words())
@settings(max_examples=40, deadline=None)
def test_word_reversal(w):
    seq = ex1_seq()
    a = ZElement()
    for k in w:
        a = f_tilde(seq, a, k)
    for k in reversed(w):
        a = e_tilde(seq, a, k)
    assert a == ZElement()


def test_violations_are_the_extra_points(monkeypatch):
    # -a_1 >= 0 cuts every generated element with a_1 > 0; the report
    # names exactly those elements, and the sweep leaves exactly them out
    import wallcrystal.zcrystal as zc

    window_forms = zc._window_forms

    def with_cut(seq, support_cap, *rest):
        cut = (0, -1) + (0,) * (support_cap - 1)
        return window_forms(seq, support_cap, *rest) | {cut}

    monkeypatch.setattr(zc, "_window_forms", with_cut)
    seq = ex1_seq()
    box = 12
    rep = zc.verify_equivalence(seq, 5, box=box)
    assert not rep["ok"]
    assert rep["violations"] and not rep["missing"]
    vectors = sorted(tuple(a.get(r) for r in range(1, box + 1))
                     for a in rep["violations"])
    assert vectors == rep["extra"]
