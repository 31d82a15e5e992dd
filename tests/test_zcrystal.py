import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from wallcrystal.affine_data import AffineType, Family, cartan_entry
from wallcrystal.adapted_sequence import DoubleIndex as D, from_permutation
from wallcrystal.linear_forms import DominantWeight
from wallcrystal.zcrystal import (
    ZElement, _profile, check_in_binf, e_tilde, epsilon, f_tilde,
    f_tilde_lambda, generate, parse_element, phi, render_element, sigma,
    star_length, verify_equivalence, weight_pairings, wt_pairing,
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


_PAIRS = st.lists(st.tuples(st.integers(-1, 12), st.integers(-3, 3)),
                  max_size=8)


@given(pairs=_PAIRS, as_dict=st.booleans(),
       bumps=st.lists(st.tuples(st.integers(-1, 14), st.integers(-3, 3)),
                      max_size=12),
       shuffle=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_element_matches_a_dict_model(pairs, as_dict, bumps, shuffle):
    # a dict keeps the last value of an index, a pair list adds them up;
    # either way a nonzero value below index 1 is refused
    given_pairs = list(dict(pairs).items()) if as_dict else pairs
    model = {}
    for r, v in given_pairs:
        model[r] = model.get(r, 0) + v
    if any(r < 1 and v for r, v in given_pairs):
        with pytest.raises(ValueError, match="below 1"):
            ZElement(dict(pairs) if as_dict else pairs)
        return
    a = ZElement(dict(pairs) if as_dict else pairs)
    model = {r: v for r, v in model.items() if v}

    def check(a):
        items = a.items()
        assert items == tuple(sorted(model.items()))
        assert all(v for _, v in items) and all(r >= 1 for r, _ in items)
        assert all(a.get(r) == model.get(r, 0) for r in range(-1, 16))
        assert a.total() == sum(model.values())
        assert a.support == sorted(model)
        # built in any order, from a dict or from pairs, it is the same
        # element with the same hash
        listed = list(model.items())
        shuffle.shuffle(listed)
        for b in (ZElement(listed), ZElement(dict(listed))):
            assert b == a and hash(b) == hash(a)

    check(a)
    for r, d in bumps:
        if r < 1 and d:
            with pytest.raises(ValueError, match="below 1"):
                a.bump(r, d)
            continue
        a = a.bump(r, d)
        model[r] = model.get(r, 0) + d
        if not model[r]:
            del model[r]
            assert r not in a.support  # a bump to 0 drops the pair
        check(a)


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


def test_phi_and_lambda_action_read_one_sigma_profile(monkeypatch):
    # each reads epsilon, the weight and the first position from one
    # profile, and gives what the one-value readers give
    import wallcrystal.zcrystal as zcrystal

    seq = ex1_seq()
    lam = DominantWeight((1, 1, 1))
    elements = sorted(generate(seq, 4, lam), key=lambda e: e.items())
    calls = []
    profile = zcrystal._profile

    def counted(*args):
        calls.append(args)
        return profile(*args)

    monkeypatch.setattr(zcrystal, "_profile", counted)
    moves = 0
    for a in elements:
        for k in seq.base_type.index_set:
            want = epsilon(seq, a, k) + wt_pairing(seq, a, k, lam)
            step = f_tilde(seq, a, k) if want > 0 else None
            calls.clear()
            assert phi(seq, a, k, lam) == want
            assert len(calls) == 1
            calls.clear()
            assert f_tilde_lambda(seq, a, k, lam) == step
            assert len(calls) == 1
            moves += step is not None
    assert len(elements) > 20 and moves > 0


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


@pytest.mark.parametrize("g,order", [
    (AffineType(Family.D2, 3), (3, 2, 1)),
    (AffineType(Family.C1, 3), (3, 2, 1)),
    (AffineType(Family.B1, 4), (2, 4, 3, 1)),
    (AffineType(Family.A2ODD, 4), (2, 4, 3, 1)),
    (AffineType(Family.A1, 3), (3, 1, 2)),
    (AffineType(Family.D1, 5), (1, 2, 3, 4, 5)),
], ids=str)
def test_binf_check_matches_generate(g, order):
    # generate(seq, 4) is every element of B(infinity) with total <= 4
    seq = from_permutation(g, order)
    n = seq.n
    gen = generate(seq, 4)
    for v in itertools.product(range(3), repeat=2 * n):
        if sum(v) > 4:
            continue
        a = ZElement({r + 1: c for r, c in enumerate(v)})
        try:
            check_in_binf(seq, a)
            inside = True
        except ValueError:
            inside = False
        assert inside == (a in gen), v


def test_star_length_in_the_sequence_own_chart():
    # when the period starts with k the chart is the sequence itself:
    # replaying the descent rebuilds a, and its first entry is read
    for g, order in [(AffineType(Family.D2, 3), (3, 2, 1)),
                     (AffineType(Family.B1, 4), (2, 4, 3, 1))]:
        seq = from_permutation(g, order)
        for a in generate(seq, 5):
            assert star_length(seq, order[0], a) == a.get(1), a


def test_star_length_matches_criterion_4():
    # criterion 4's printed formulas: colour 3 reads a[1,3], colour 2 is a
    # max of four differences while the support stays within (2,1)
    seq = ex1_seq()
    cap = seq.single_index(D(2, 1))
    for a in generate(seq, 6):
        v = lambda s, k: a.get(seq.single_index(D(s, k)))
        assert star_length(seq, 3, a) == v(1, 3)
        if all(r <= cap for r in a.support):
            assert star_length(seq, 2, a) == max(
                v(1, 2) - v(1, 3), v(2, 3) - v(1, 2), v(2, 2) - v(1, 1),
                v(2, 1) - v(2, 2), 0), a


def test_star_length_rejects_what_check_in_binf_rejects():
    seq = ex1_seq()
    for text in ("a[2,3]=1", "a[2,1]=1", "a[1,1]=-1"):
        a = parse_element(seq, text)
        with pytest.raises(ValueError) as caught:
            check_in_binf(seq, a)
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="not in B") as got:
                star_length(seq, k, a)
            assert str(got.value) == str(caught.value)
    with pytest.raises(ValueError, match="colour 4"):
        star_length(seq, 4, ZElement())


def test_weight_pairings_match_the_sum_and_the_profile():
    seq = ex2_seq()
    lam = DominantWeight((0, 1, 1, 0))
    colours = seq.base_type.index_set
    for a in generate(seq, 4):
        want = [lam.pairing(k) - sum(cartan_entry(seq.base_type, k, seq.entry(r)) * v
                                     for r, v in a.items()) for k in colours]
        assert weight_pairings(seq, a, lam) == want
        assert [wt_pairing(seq, a, k, lam) for k in colours] == want
        # the profile's running sums, computed in its own downward pass
        assert [-w for w in _profile(seq, a.items())[3]] == weight_pairings(seq, a)


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
    # violations[i] is the element whose dense vector is extra[i]
    vectors = [tuple(a.get(r) for r in range(1, box + 1))
               for a in rep["violations"]]
    assert vectors == rep["extra"]


# --- pins for the lattice sweep and the sigma profile -----------------

ACCEPTANCE = [
    ("D2 rank 3", AffineType(Family.D2, 3), (3, 2, 1), (1, 1, 1)),
    ("C1 rank 3", AffineType(Family.C1, 3), (3, 2, 1), (2, 0, 1)),
    ("B1 rank 4", AffineType(Family.B1, 4), (2, 4, 3, 1), (1, 0, 1, 2)),
    ("A2odd rank 4", AffineType(Family.A2ODD, 4), (2, 4, 3, 1), (0, 1, 1, 0)),
    ("D1 rank 6", AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1),
     (1, 0, 0, 1, 0, 1)),
]


def _reference_report(seq, depth, lam, forms, box):
    """The verifier's report by brute force: every nonnegative vector with
    coordinate sum <= depth, checked against every form in pure Python."""
    cut = set()
    for total in range(depth + 1):
        for cell in itertools.combinations_with_replacement(range(box), total):
            vec = [0] * box
            for r in cell:
                vec[r] += 1
            if all(v[0] + sum(c * e for c, e in zip(v[1:], vec)) >= 0
                   for v in forms):
                cut.add(tuple(vec))
    if not box:
        cut = {()}
    vectors = {a: tuple(a.get(r) for r in range(1, box + 1))
               for a in generate(seq, depth, lam)}
    gen_vecs = set(vectors.values())
    extra = gen_vecs - cut
    return {"cut": len(cut), "missing": sorted(cut - gen_vecs),
            "extra": sorted(extra),
            "violations": {a for a, v in vectors.items() if v in extra}}


@pytest.mark.parametrize("change", ["unchanged", "drop every third", "cut a_1"])
@pytest.mark.parametrize("name,g,order,lam_values", ACCEPTANCE[:4],
                         ids=[s[0] for s in ACCEPTANCE[:4]])
def test_sweep_matches_brute_force(monkeypatch, name, g, order, lam_values,
                                   change):
    import wallcrystal.zcrystal as zc

    window_forms, seen = zc._window_forms, []

    def changed(seq, support_cap, *rest):
        forms = window_forms(seq, support_cap, *rest)
        if change == "drop every third":
            forms = forms - set(sorted(forms)[2::3])  # the third, sixth, ...
        elif change == "cut a_1":
            # -a_r >= 0 at the smallest index r that a generated element
            # uses: r = 1 but on B1's B(lambda), as B1's order starts with
            # colour 2, where its lambda is 0
            forms = forms | {(0,) * low + (-1,) + (0,) * (support_cap - low)}
        seen.append((support_cap, forms))
        return forms

    monkeypatch.setattr(zc, "_window_forms", changed)
    seq = from_permutation(g, order)
    for depth, lam in ((5, None), (4, DominantWeight(lam_values))):
        seen.clear()
        low = min(r for a in generate(seq, depth, lam) for r in a.support)
        if name in ("D2 rank 3", "C1 rank 3"):
            assert low == 1
        rep = zc.verify_equivalence(seq, depth, lam=lam)
        (box, forms), = seen
        want = _reference_report(seq, depth, lam, forms, box)
        assert rep["cut"] == want["cut"]
        assert rep["missing"] == want["missing"]
        assert rep["extra"] == want["extra"]
        assert set(rep["violations"]) == want["violations"]
        assert rep["ok"] == (not want["missing"] and not want["extra"])
        if change == "drop every third":
            assert want["missing"], (name, depth)
        if change == "cut a_1":
            assert want["extra"], (name, depth)


def _sigma_reference(seq, a, k):
    """(epsilon_k, first and last argmax) from the public sigma, scanning
    the positions of colour k up to one period past the support."""
    top = max(a.support, default=0) + seq.n
    cols = [j for j in range(1, top + 1) if seq.entry(j) == k]
    values = [sigma(seq, a, j) for j in cols]
    eps = max([0] + values)
    arg = [j for j, s in zip(cols, values) if s == eps]
    return eps, arg[0], arg[-1]


def _charts(order):
    """The orders of the charts `star_length` builds: for each colour k,
    the period starting with k and the rest of it in this order."""
    return [(k,) + tuple(c for c in order if c != k) for k in order]


# every order once per case, so that tables kept per type and not per
# sequence would give a later order the tables of an earlier one
PROFILE_CASES = [(name, g, [order] + [c for c in _charts(order) if c != order],
                  lam_values) for name, g, order, lam_values in ACCEPTANCE]
PROFILE_CASES.append(("D1 rank 5 orders", AffineType(Family.D1, 5),
                      list(itertools.permutations(range(1, 6)))[::13],
                      (1, 0, 1, 0, 1)))


@pytest.mark.parametrize("name,g,orders,lam_values", PROFILE_CASES,
                         ids=[s[0] for s in PROFILE_CASES])
def test_sigma_profile_matches_sigma(name, g, orders, lam_values):
    for order in orders:
        _check_sigma_profile(from_permutation(g, order), lam_values)


def _check_sigma_profile(seq, lam_values):
    colours = list(seq.base_type.index_set)
    for a in generate(seq, 5):
        for k in colours:
            eps, first, last = _sigma_reference(seq, a, k)
            assert epsilon(seq, a, k) == eps
            assert f_tilde(seq, a, k) == a.bump(first, 1)
            assert e_tilde(seq, a, k) == (a.bump(last, -1) if eps > 0 else None)
        assert weight_pairings(seq, a) == [
            -sum(cartan_entry(seq.base_type, k, seq.entry(r)) * v
                 for r, v in a.items()) for k in colours]

    def reference_generate(depth, lam):
        seen = {ZElement()}
        frontier = [ZElement()]
        for _ in range(depth):
            nxt = []
            for a in frontier:
                for k in colours:
                    eps, first, _ = _sigma_reference(seq, a, k)
                    if lam is not None and eps + wt_pairing(seq, a, k, lam) <= 0:
                        continue
                    b = a.bump(first, 1)
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return seen

    for lam in (None, DominantWeight(lam_values)):
        for depth in range(6):
            assert generate(seq, depth, lam) == reference_generate(depth, lam)


def test_profile_tables_are_built_once_per_sequence(monkeypatch):
    import wallcrystal.adapted_sequence as adapted_sequence

    built = []
    real = adapted_sequence.cartan_matrix
    monkeypatch.setattr(adapted_sequence, "cartan_matrix",
                        lambda X: built.append(X) or real(X))
    seq = ex2_seq()
    tables = seq.profile_tables
    assert built == [seq.base_type]
    for a in generate(seq, 4, DominantWeight((1, 1, 1, 1))):
        for k in seq.base_type.index_set:
            epsilon(seq, a, k)
            e_tilde(seq, a, k)
            phi(seq, a, k)
    assert built == [seq.base_type] and seq.profile_tables is tables
    # another order of the same type has tables of its own
    other = from_permutation(seq.base_type, (1, 2, 3, 4))
    assert other.profile_tables[:2] != tables[:2]
    assert other.profile_tables[2] == tables[2] and len(built) == 2


def test_negative_depth_and_box_are_rejected():
    seq = ex1_seq()
    with pytest.raises(ValueError, match="depth"):
        generate(seq, -1)
    with pytest.raises(ValueError, match="depth"):
        verify_equivalence(seq, -1, box=4)
    with pytest.raises(ValueError, match="box"):
        verify_equivalence(seq, 0, box=-1)
    assert verify_equivalence(seq, 0, box=0)["ok"]


@pytest.mark.parametrize("head", [(0, 2 ** 61 - 1), (0, 2 ** 61), (0, 2 ** 100),
                                  (-2 ** 70, 2 ** 70)],
                         ids=["2^61-1", "2^61", "2^100", "constant -2^70"])
def test_sweep_is_exact_for_values_of_any_size(monkeypatch, head):
    # at depth 2 the form c_0 + c x_1 reaches |c_0| + 2 c in size, so the
    # sweep's lanes run 64 and 128 bits wide
    import wallcrystal.zcrystal as zc

    window_forms, seen = zc._window_forms, []

    def with_big(seq, support_cap, *rest):
        forms = window_forms(seq, support_cap, *rest)
        forms = forms | {head + (0,) * (support_cap - 1)}
        seen.append((support_cap, forms))
        return forms

    monkeypatch.setattr(zc, "_window_forms", with_big)
    seq = ex1_seq()
    rep = zc.verify_equivalence(seq, 2)
    (box, forms), = seen
    want = _reference_report(seq, 2, None, forms, box)
    assert rep["cut"] == want["cut"]
    assert rep["missing"] == want["missing"]
    assert rep["extra"] == want["extra"]
    assert set(rep["violations"]) == want["violations"]
    assert rep["ok"] == (head[0] == 0)


def _brute_cut(forms, box, depth):
    return {vec for vec in itertools.product(range(depth + 1), repeat=box)
            if sum(vec) <= depth
            and all(v[0] + sum(c * e for c, e in zip(v[1:], vec)) >= 0
                    for v in forms)}


def test_cut_points_match_brute_force_on_random_forms():
    from wallcrystal.zcrystal import _cut_points

    rng = random.Random(19)
    compared = wide = inconsistent = 0
    for trial in range(200):
        box, depth = rng.randint(0, 5), rng.randint(0, 4)
        scale = 40 if trial % 4 == 0 else 1  # values past the 8-bit lanes
        forms = {(rng.randint(0, 2),) + (0,) * box}  # a constant-only form
        for _ in range(rng.randint(0, 8)):
            forms.add((rng.randint(-2, 2),)
                      + tuple(scale * rng.randint(-3, 3) for _ in range(box)))
        if trial % 10 == 0:
            forms.add((-1,) + (0,) * box)
        if any(v[0] < 0 and not any(v[1:]) for v in forms):
            with pytest.raises(ValueError, match="inconsistent constant inequality"):
                _cut_points(forms, box, depth)
            inconsistent += 1
            continue
        got = _cut_points(forms, box, depth)
        assert len(got) == len(set(got))
        assert set(got) == _brute_cut(forms, box, depth), (forms, box, depth)
        compared += 1
        wide += max(abs(v[0]) + depth * max(map(abs, v[1:]), default=0)
                    for v in forms) >= 128
    assert compared >= 100 and wide >= 10 and inconsistent >= 20
    # at depth 0 a coefficient still needs a lane that holds it
    assert _cut_points({(0, 200)}, 1, 0) == [(0,)]


def test_verify_equivalence_imports_no_numpy():
    import wallcrystal

    code = ("import sys\n"
            "from wallcrystal.adapted_sequence import from_permutation\n"
            "from wallcrystal.affine_data import AffineType, Family\n"
            "from wallcrystal.zcrystal import verify_equivalence\n"
            "seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))\n"
            "assert verify_equivalence(seq, 4)['ok']\n"
            "assert 'numpy' not in sys.modules\n")
    src = os.path.dirname(os.path.dirname(wallcrystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("values", [(1, 1), (1, 1, 1, 5)])
def test_weights_of_the_wrong_rank_are_rejected(values):
    seq = ex1_seq()
    lam = DominantWeight(values)
    message = f"lambda has {len(values)} entries, not 3"
    with pytest.raises(ValueError, match=message):
        generate(seq, 3, lam)
    with pytest.raises(ValueError, match=message):
        verify_equivalence(seq, 3, lam)


@pytest.mark.parametrize("k", [0, -1, 4])
def test_crystal_operators_reject_a_colour_outside_the_index_set(k):
    # colour k sits at list index k - 1, where 0 and -1 would read colour 3
    seq = ex1_seq()
    a = ZElement({1: 1})
    lam = DominantWeight((1, 1, 1))
    calls = [lambda: epsilon(seq, a, k), lambda: f_tilde(seq, a, k),
             lambda: e_tilde(seq, a, k), lambda: phi(seq, a, k),
             lambda: phi(seq, a, k, lam), lambda: wt_pairing(seq, a, k),
             lambda: f_tilde_lambda(seq, a, k, lam),
             lambda: star_length(seq, k, a)]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == f"colour {k} is not in the index set 1..3"


@pytest.mark.parametrize("values", [(1, 1), (1, 1, 1, 5)])
def test_weight_pairings_rejects_a_weight_of_the_wrong_rank(values):
    lam = DominantWeight(values)
    with pytest.raises(ValueError) as info:
        weight_pairings(ex1_seq(), ZElement({1: 1}), lam)
    assert str(info.value) == f"lambda has {len(values)} entries, not 3"
