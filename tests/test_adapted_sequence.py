import itertools
import random

import pytest
from hypothesis import given, strategies as st

from wallcrystal.affine_data import AffineType, DomainError, Family, HalfInt
from wallcrystal.adapted_sequence import (
    AdaptedSequence, DoubleIndex, NotAPermutation, ShiftTable, UndefinedPair,
    from_permutation,
)


def ex1_seq():
    # g of type D2 rank 3, iota = (..., 1, 2, 3)
    return from_permutation(AffineType(Family.D2, 3), (3, 2, 1))


def ex2_seq():
    # g of type A2odd rank 4, iota = (..., 1, 3, 4, 2)
    return from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1))


@st.composite
def sequences(draw):
    fam, n = draw(st.sampled_from([
        (Family.D2, 3), (Family.C1, 3), (Family.A2ODD, 4),
        (Family.B1, 4), (Family.A1, 3), (Family.D1, 6),
    ]))
    perm = draw(st.permutations(range(1, n + 1)))
    return from_permutation(AffineType(fam, n), tuple(perm))


def test_not_a_permutation():
    with pytest.raises(NotAPermutation):
        from_permutation(AffineType(Family.A1, 3), (1, 1, 2))


def test_from_permutation_interns_each_order():
    g = AffineType(Family.D2, 3)
    seq = from_permutation(g, (3, 2, 1))
    assert from_permutation(g, [3, 2, 1]) is seq
    assert from_permutation(g, iter((3, 2, 1))) is seq
    other = from_permutation(g, (1, 2, 3))
    assert other is not seq and other != seq
    assert from_permutation(AffineType(Family.C1, 3), (3, 2, 1)) is not seq
    # a sequence built directly is equal, but not the interned one
    direct = AdaptedSequence(g, (3, 2, 1))
    assert direct == seq and direct is not seq


def test_shift_tables_share_their_values():
    # every table of one sequence and origin reads the values the others
    # found; the sequence keeps only those values
    seq = ex1_seq()
    first = seq.shift_table(2)
    assert first(HalfInt.of(40)) == seq.shift_table(2)(HalfInt.of(40))
    assert seq.shift_table(2)._values is first._values
    assert ShiftTable(seq, HalfInt.of(2))._values == {HalfInt.of(2): 0}


def test_entries_read_right_to_left():
    seq = ex1_seq()
    assert [seq.entry(r) for r in range(1, 7)] == [3, 2, 1, 3, 2, 1]
    seq = ex2_seq()
    assert [seq.entry(r) for r in range(1, 9)] == [2, 4, 3, 1, 2, 4, 3, 1]


def test_p_bits():
    seq = ex1_seq()
    assert seq.p(2, 1) == 1 and seq.p(1, 2) == 0
    seq = ex2_seq()
    assert seq.p(2, 3) == 1
    assert seq.p(3, 1) == 1 and seq.p(1, 3) == 0
    with pytest.raises(UndefinedPair):
        seq.p(1, 2)  # a_{1,2} = 0 in A2odd rank 4
    assert seq.p(4, 4) == 0


@given(seq=sequences())
def test_p_complementary(seq):
    from wallcrystal.affine_data import cartan_entry
    for i, j in itertools.combinations(seq.base_type.index_set, 2):
        if cartan_entry(seq.base_type, i, j) < 0:
            assert seq.p(i, j) + seq.p(j, i) == 1


# every order of these settings: p against the order of first occurrences
P_SETTINGS = [(Family.A1, 3), (Family.D2, 3), (Family.C1, 3), (Family.B1, 4),
              (Family.A2ODD, 4), (Family.D1, 5)]


@pytest.mark.parametrize("fam,n", P_SETTINGS,
                         ids=[f"{fam.value}{n}" for fam, n in P_SETTINGS])
def test_p_is_the_order_of_first_occurrences(fam, n):
    from wallcrystal.affine_data import cartan_entry
    g = AffineType(fam, n)
    for perm in itertools.permutations(range(1, n + 1)):
        seq = from_permutation(g, perm)
        for i, j in itertools.product(g.index_set, repeat=2):
            if cartan_entry(g, i, j) == 0:
                with pytest.raises(UndefinedPair):
                    seq.p(i, j)
            else:
                want = int(seq.first_occurrence(i) < seq.first_occurrence(j))
                assert seq.p(i, j) == want, (perm, i, j)


def test_reindex_printed_example():
    # iota = (..., 2, 1, 3): single indices 1..6 are (1,3),(1,1),(1,2),(2,3),(2,1),(2,2)
    seq = from_permutation(AffineType(Family.A1, 3), (3, 1, 2))
    got = [seq.reindex(r) for r in range(1, 7)]
    want = [DoubleIndex(1, 3), DoubleIndex(1, 1), DoubleIndex(1, 2),
            DoubleIndex(2, 3), DoubleIndex(2, 1), DoubleIndex(2, 2)]
    assert got == want


@given(seq=sequences(), r=st.integers(min_value=1, max_value=40))
def test_reindex_round_trip(seq, r):
    assert seq.single_index(seq.reindex(r)) == r


def test_order():
    seq = from_permutation(AffineType(Family.A1, 3), (3, 1, 2))
    assert seq.lt(DoubleIndex(1, 3), DoubleIndex(1, 1))
    assert seq.lt(DoubleIndex(1, 1), DoubleIndex(1, 2))
    assert seq.lt(DoubleIndex(1, 2), DoubleIndex(2, 3))
    assert seq.lt(DoubleIndex(1, 2), DoubleIndex(2, 2))


@given(seq=sequences())
def test_order_total(seq):
    rng = random.Random(7)
    for _ in range(50):
        d1 = DoubleIndex(rng.randint(1, 5), rng.randint(1, seq.n))
        d2 = DoubleIndex(rng.randint(1, 5), rng.randint(1, seq.n))
        c = seq.compare(d1, d2)
        assert c in (-1, 0, 1)
        assert (c == 0) == (d1 == d2)
        assert seq.compare(d2, d1) == -c


def test_shift_table_ex1():
    P1 = ex1_seq().shift_table(1)
    assert [P1(t) for t in range(1, 7)] == [0, 1, 2, 2, 2, 3]
    P5 = ex1_seq().shift_table(5)
    assert [P5(t) for t in range(5, 11)] == [0, 1, 2, 2, 2, 3]


def test_shift_table_ex2():
    seq = ex2_seq()
    P2 = seq.shift_table(2)
    assert [P2(t) for t in [2, 3, 4, 5]] == [0, 1, 1, 1]
    assert P2(HalfInt(11)) == 2
    P4 = seq.shift_table(4)
    assert (P4(4), P4(5), P4(HalfInt(11)), P4(6), P4(7)) == (0, 0, 1, 1, 2)


def test_shift_table_half_seed():
    seq = ex2_seq()
    P1 = seq.shift_table(1)
    assert P1(1) == 0
    assert P1(HalfInt(3)) == 1   # p_{3,1} - p_{3,2} = 1 - 0
    assert P1(2) == 1
    assert P1(3) == 2
    # reversed seed may be negative; this is the sole allowed exception
    Ph = seq.shift_table(HalfInt(3))
    assert Ph(1) == -1


def test_shift_table_a1():
    seq = from_permutation(AffineType(Family.A1, 3), (3, 1, 2))
    P2 = seq.shift_table(2)
    assert P2(2) == 0
    for t in range(3, 8):
        assert P2(t) - P2(t - 1) in (0, 1)
    for t in range(1, -5, -1):
        assert P2(t) - P2(t + 1) in (0, 1)


def test_shift_table_domain_error():
    seq = ex1_seq()
    with pytest.raises(DomainError):
        seq.shift_table(1)(HalfInt(3))
    with pytest.raises(DomainError):
        seq.shift_table(HalfInt(3))


def test_shift_table_deep_point_cold():
    # a long chain is filled without recursion: a cold table agrees with
    # one warmed in steps of 100
    warm = ex1_seq().shift_table(HalfInt.of(2))
    for t in range(100, 1501, 100):
        warm(HalfInt.of(t))
    cold = ShiftTable(ex1_seq(), HalfInt.of(2))
    assert cold(HalfInt.of(1500)) == warm(HalfInt.of(1500))


@given(seq=sequences())
def test_shift_table_nonnegative_increasing(seq):
    from wallcrystal.affine_data import domain_points, period
    X = seq.wall_type
    if X.family is Family.A1:
        return
    n = X.n
    exceptional = [{HalfInt.of(1), HalfInt(3)}, {HalfInt.of(n - 2), HalfInt(2 * n - 3)}]
    pts = domain_points(X, 1, 1 + period(X) + period(X))
    for ell in pts[:4]:
        P = seq.shift_table(ell)
        prev = None
        for t in pts:
            if t < ell:
                continue
            v = P(t)
            if {ell, t} not in exceptional:
                assert v >= 0
            if prev is not None:
                assert v >= prev - 1  # the seeded exceptions dip by at most 1
            prev = v
