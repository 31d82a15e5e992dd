import itertools

import pytest
from hypothesis import given, strategies as st

from wallcrystal.affine_data import (
    AffineType, DomainError, Family, HalfInt, cartan_matrix, cell_atoms,
    domain_points, half_height_colors, in_domain, index_class, langlands_dual,
    next_domain_point, parse_type, period, periodic_map, split_cell_pairs,
    thresholds,
)

ALL_FAMILIES = list(Family)

MIN_N = {
    Family.A1: 2, Family.B1: 4, Family.C1: 3, Family.D1: 5,
    Family.A2EVEN: 3, Family.A2EVEN_DAGGER: 3, Family.A2ODD: 4, Family.D2: 3,
}


@st.composite
def affine_types(draw, max_n=8):
    fam = draw(st.sampled_from(ALL_FAMILIES))
    n = draw(st.integers(min_value=MIN_N[fam], max_value=max_n))
    return AffineType(fam, n)


def test_rank_bounds_rejected():
    with pytest.raises(ValueError):
        AffineType(Family.C1, 2)
    with pytest.raises(ValueError):
        AffineType(Family.D1, 4)
    AffineType(Family.A1, 2)


def test_cartan_a1_rank2_and_3():
    a = cartan_matrix(AffineType(Family.A1, 2))
    assert a == ((2, -2), (-2, 2))
    a = cartan_matrix(AffineType(Family.A1, 3))
    for i, j in itertools.product(range(3), range(3)):
        assert a[i][j] == (2 if i == j else -1)


def test_cartan_d2_rank3():
    # reconstructed from beta_{s,1} = x_{s,1} + x_{s+1,1} - 2 x_{s+1,2}
    a = cartan_matrix(AffineType(Family.D2, 3))
    assert a[0][1] == -2 and a[1][0] == -1
    assert a[2][1] == -2 and a[1][2] == -1
    assert a[0][1] * a[1][0] == 2 and a[1][2] * a[2][1] == 2


def test_cartan_dagger_transposes_a2even():
    X = AffineType(Family.A2EVEN, 4)
    Y = AffineType(Family.A2EVEN_DAGGER, 4)
    a, b = cartan_matrix(X), cartan_matrix(Y)
    for i, j in itertools.product(range(4), range(4)):
        assert a[i][j] == b[j][i]


@given(X=affine_types())
def test_cartan_diagonal_and_sign(X):
    a = cartan_matrix(X)
    for i in range(X.n):
        assert a[i][i] == 2
        for j in range(X.n):
            if i != j:
                assert a[i][j] <= 0
                assert (a[i][j] < 0) == (a[j][i] < 0)


def test_langlands_dual_table():
    assert langlands_dual(AffineType(Family.C1, 4)).family is Family.D2
    assert langlands_dual(AffineType(Family.A1, 3)).family is Family.A1
    assert langlands_dual(AffineType(Family.A2ODD, 4)).family is Family.B1
    assert langlands_dual(AffineType(Family.A2EVEN, 5)).family is Family.A2EVEN_DAGGER


@given(X=affine_types())
def test_langlands_dual_involution(X):
    assert langlands_dual(langlands_dual(X)) == X


def test_periodic_map_c1():
    X = AffineType(Family.C1, 3)
    assert [periodic_map(X, t) for t in range(1, 7)] == [1, 2, 3, 2, 1, 2]


def test_periodic_map_b1():
    X = AffineType(Family.B1, 4)
    assert periodic_map(X, 1) == 1
    assert periodic_map(X, HalfInt(3)) == 2          # t = 3/2
    assert periodic_map(X, 2) == 3
    assert periodic_map(X, 3) == 4
    assert periodic_map(X, 4) == 3
    assert periodic_map(X, 5) == 1
    assert periodic_map(X, HalfInt(11)) == 2         # t = 11/2


def test_periodic_map_a1_all_integers():
    X = AffineType(Family.A1, 3)
    assert periodic_map(X, 0) == 3
    assert periodic_map(X, -1) == 2
    assert periodic_map(X, 4) == 1


def test_periodic_map_d1():
    X = AffineType(Family.D1, 6)
    vals = [(t, periodic_map(X, t)) for t in domain_points(X, 1, HalfInt(17))]
    assert vals == [
        (HalfInt(2), 1), (HalfInt(3), 2), (HalfInt(4), 3), (HalfInt(6), 4),
        (HalfInt(8), 5), (HalfInt(9), 6), (HalfInt(10), 4), (HalfInt(12), 3),
        (HalfInt(14), 1), (HalfInt(15), 2), (HalfInt(16), 3),
    ]


def test_domain_errors():
    X = AffineType(Family.C1, 3)
    with pytest.raises(DomainError):
        periodic_map(X, HalfInt(3))
    with pytest.raises(DomainError):
        periodic_map(X, 0)
    with pytest.raises(DomainError):
        periodic_map(AffineType(Family.A1, 3), HalfInt(3))


@given(X=affine_types())
def test_periodicity_over_two_periods(X):
    per = period(X)
    for t in domain_points(X, 1, 1 + per + per):
        assert in_domain(X, t + per)
        assert periodic_map(X, t) == periodic_map(X, t + per)


def test_index_class_tables():
    assert index_class(AffineType(Family.B1, 5), 5) == 1
    assert index_class(AffineType(Family.B1, 5), 3) == 2
    assert all(index_class(AffineType(Family.C1, 4), k) == 2 for k in range(1, 5))
    assert index_class(AffineType(Family.D2, 4), 2) == 2
    assert index_class(AffineType(Family.D2, 4), 1) == 1
    assert index_class(AffineType(Family.D2, 4), 4) == 1
    assert all(index_class(AffineType(Family.A1, 4), k) == 1 for k in range(1, 5))
    assert index_class(AffineType(Family.D1, 6), 5) == 1
    assert index_class(AffineType(Family.D1, 6), 3) == 2
    assert index_class(AffineType(Family.A2EVEN_DAGGER, 3), 1) == 1
    assert index_class(AffineType(Family.A2EVEN_DAGGER, 3), 3) == 2
    assert index_class(AffineType(Family.A2ODD, 4), 2) == 1
    assert index_class(AffineType(Family.A2ODD, 4), 4) == 2
    for _ in range(2):  # an out-of-range colour raises on every call
        with pytest.raises(ValueError):
            index_class(AffineType(Family.D2, 3), 0)


def test_thresholds_examples():
    X = AffineType(Family.C1, 3)
    assert thresholds(X, 1) == (None, HalfInt.of(1), HalfInt.of(5))
    X = AffineType(Family.B1, 4)
    assert thresholds(X, 3) == (None, HalfInt.of(2), HalfInt.of(4))
    assert thresholds(X, 1) == (1, HalfInt.of(1), HalfInt.of(5))
    assert thresholds(X, 2) == (1, HalfInt(3), HalfInt(11))
    for _ in range(2):  # an out-of-range colour raises on every call
        with pytest.raises(ValueError):
            thresholds(AffineType(Family.D2, 3), 9)


@given(X=affine_types())
def test_thresholds_are_preimages(X):
    for k in X.index_set:
        tk, tbar, tbarbar = thresholds(X, k)
        assert tbar < tbarbar
        assert periodic_map(X, tbar) == k
        assert periodic_map(X, tbarbar) == k
        if index_class(X, k) == 1:
            assert tk == tbar.floor()
        else:
            assert tk is None


def _half_step_scan(X, stop):
    """The D_X points t with 0 <= t < stop, found one half step at a time."""
    return [HalfInt(tw) for tw in range(0, stop.twice) if in_domain(X, HalfInt(tw))]


@pytest.mark.parametrize("X", [AffineType(fam, n) for fam in ALL_FAMILIES
                               for n in range(MIN_N[fam], 9)], ids=str)
def test_domain_readers_agree_with_a_half_step_scan(X):
    # domain_points, next_domain_point and thresholds against one scan
    # over three periods, from every start in it
    span = period(X) + period(X) + period(X)
    scan = _half_step_scan(X, span + period(X))
    for tw in range(0, span.twice):
        t = HalfInt(tw)
        assert domain_points(X, t, t + period(X)) == \
            [u for u in scan if t <= u < t + period(X)], t
        assert next_domain_point(X, t) == next(u for u in scan if u > t), t
    assert domain_points(X, 0, span) == [u for u in scan if u < span]
    for k in X.index_set:
        tbar, tbarbar = [u for u in scan if u >= 1 and periodic_map(X, u) == k][:2]
        tk = tbar.floor() if index_class(X, k) == 1 else None
        assert thresholds(X, k) == (tk, tbar, tbarbar), k


def test_half_height_and_split_tables():
    assert half_height_colors(AffineType(Family.B1, 4)) == {4}
    assert half_height_colors(AffineType(Family.D2, 3)) == {1, 3}
    assert half_height_colors(AffineType(Family.A2EVEN_DAGGER, 3)) == {1}
    assert half_height_colors(AffineType(Family.C1, 3)) == frozenset()
    assert split_cell_pairs(AffineType(Family.B1, 4)) == ((1, 2),)
    assert split_cell_pairs(AffineType(Family.D1, 6)) == ((1, 2), (5, 6))
    assert split_cell_pairs(AffineType(Family.C1, 3)) == ()


def test_cell_atoms():
    B = AffineType(Family.B1, 4)
    # the split cell at 1 holds 1 and the half point 3/2 of colour 2
    assert cell_atoms(B, 1) == cell_atoms(B, HalfInt(3)) == (1, HalfInt(3))
    assert cell_atoms(B, 2) == (2,)
    assert cell_atoms(B, 3) == (3, 3)  # colour 4, doubled
    D = AffineType(Family.D1, 6)
    assert cell_atoms(D, HalfInt(9)) == (4, HalfInt(9))  # colours 5 and 6
    assert cell_atoms(AffineType(Family.A1, 3), 0) == (0,)
    for X, t in [(B, HalfInt(5)), (B, 0), (AffineType(Family.A1, 3), HalfInt(1))]:
        with pytest.raises(DomainError):
            cell_atoms(X, t)


def test_cells_tile_the_domain():
    # over two periods, each domain point lies in exactly one cell; a
    # doubled cell's colour is half height and a split cell's colours are
    # a split pair, the half-point colour second.  The cells of a period
    # follow the Cartan matrix: cyclic neighbours hold linked colours, a
    # split cell's two colours are unlinked, and every colour occurs
    for X in (AffineType(f, n) for f in ALL_FAMILIES
              for n in range(MIN_N[f], 13)):
        pairs = set(split_cell_pairs(X))
        per = period(X).floor()
        points = domain_points(X, 1, 1 + 2 * per)
        cells = {cell_atoms(X, t) for t in points}
        assert sorted(t for c in cells for t in set(c)) == points, X
        for c in cells:
            colours = tuple(periodic_map(X, t) for t in c)
            if len(c) == 2 and c[0] == c[1]:
                assert colours[0] in half_height_colors(X), (X, c)
            elif len(c) == 2:
                assert colours in pairs and c[1] - c[0] == HalfInt(1), (X, c)
        a = cartan_matrix(X)
        row = [tuple(periodic_map(X, t) for t in dict.fromkeys(cell_atoms(X, p)))
               for p in range(1, per + 1)]
        for here, above in zip(row, row[1:] + row[:1]):
            assert all(c != d and a[c - 1][d - 1] < 0
                       for c in here for d in above), (X, here, above)
            if len(here) == 2:
                assert a[here[0] - 1][here[1] - 1] == 0, (X, here)
        assert sorted({c for cell in row for c in cell}) == list(X.index_set), X


def test_parse_type():
    assert parse_type("D2", 3) == AffineType(Family.D2, 3)
    assert parse_type("a2evendagger", 4).family is Family.A2EVEN_DAGGER
    with pytest.raises(ValueError):
        parse_type("E8", 9)


def test_two_parses_of_one_type_are_one_dict_key():
    # a family hashes by identity, as its members are singletons
    a, b = parse_type("D2", 3), parse_type("d2", 3)
    assert a is not b and a.family is b.family
    table = {a: "first"}
    table[b] = "second"
    assert table == {a: "second"} and hash(a) == hash(b)
    assert len({f: None for f in list(Family) + list(Family)}) == len(Family)


def test_halfint_hashes_as_the_number_it_stands_for():
    # equal objects hash alike: an integral HalfInt finds its int in a set
    # or dict and back, and the hash does not depend on the hash seed
    assert HalfInt.of(1) == 1 and 1 in {HalfInt.of(1)}
    assert {HalfInt.of(2): "x"}.get(2) == "x" and HalfInt.of(-3) in {-3}
    assert hash(HalfInt.of(5)) == hash(5) and hash(HalfInt(-7)) == hash(-3.5)
    assert len({HalfInt(3), HalfInt(3), 1, HalfInt(2)}) == 2


def test_halfint_arithmetic():
    t = HalfInt(3)
    assert t + 1 == HalfInt(5)
    assert (t + t).is_integer
    assert t.floor() == 1
    assert str(t) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert sorted([HalfInt(4), HalfInt(3), HalfInt(1)]) == [HalfInt(1), HalfInt(3), HalfInt(4)]
