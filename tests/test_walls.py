import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import wallcrystal.walls as walls
from wallcrystal.affine_data import (
    AffineType, Family, HalfInt, half_height_colors, in_domain, index_class,
    next_domain_point, period, periodic_map, thresholds,
)
from wallcrystal.walls import (
    COVERING, LEVEL1, SUPPORTING, Cell, ClassMismatch, NotProper, Site,
    SiteNotPresent, Wall, WallPair, apply, column_pattern, enumerate_walls,
    ground_state, is_proper, parse_wall, render, sites, transitions,
    wall_literal, _back_assignment,
)


def add(w, **kw):
    """Apply the unique transition matching the given site attributes."""
    cands = [(s, nxt) for s, nxt in transitions(w)
             if all(getattr(s, a) == v for a, v in kw.items())]
    assert len(cands) == 1
    return cands[0][1]


def site(action, grade, color, column, level, arg, host):
    return Site(action, grade, color, column, HalfInt.of(level),
                HalfInt.of(arg), host)


ENUM_CASES = [
    (AffineType(Family.C1, 3), 1), (AffineType(Family.C1, 3), 2),
    (AffineType(Family.D2, 3), 1), (AffineType(Family.D2, 3), 2),
    (AffineType(Family.B1, 4), 1), (AffineType(Family.B1, 4), 3),
    (AffineType(Family.B1, 4), 4), (AffineType(Family.A2ODD, 4), 2),
    (AffineType(Family.A2ODD, 4), 3), (AffineType(Family.A1, 3), 2),
    (AffineType(Family.D1, 6), 1), (AffineType(Family.D1, 6), 4),
]


def test_ground_pair_has_unique_site():
    g = ground_state(AffineType(Family.C1, 3), 1)
    assert sites(g) == [site("add", "pair", 1, 0, 1, 1, "pair")]


def test_pair_sites_first_steps():
    # the colour-1 wall pair over C1 rank 3: one pair of base blocks, then
    # single blocks climbing each truncated wall independently
    g = ground_state(AffineType(Family.C1, 3), 1)
    y1 = add(g, grade="pair", action="add")
    assert wall_literal(y1) == "ground=pair:C1:k=1;sup=[1];cov=[1]"
    assert sites(y1) == [
        site("add", "single", 2, 0, 2, 2, "supporting"),
        site("add", "single", 2, 0, 6, 6, "covering"),
        site("remove", "pair", 1, 0, 1, 1, "pair"),
    ]
    y2 = add(y1, host="supporting", level=HalfInt.of(2))
    assert sites(y2) == [
        site("add", "single", 3, 0, 3, 3, "supporting"),
        site("remove", "single", 2, 0, 2, 2, "supporting"),
        site("add", "single", 2, 0, 6, 6, "covering"),
    ]
    y3 = add(y2, host="covering", level=HalfInt.of(6))
    assert sites(y3) == [
        site("add", "single", 3, 0, 3, 3, "supporting"),
        site("remove", "single", 2, 0, 2, 2, "supporting"),
        site("add", "single", 3, 0, 7, 7, "covering"),
        site("remove", "single", 2, 0, 6, 6, "covering"),
        site("add", "pair", 1, 1, 1, 1, "pair"),
    ]
    y4 = add(y3, host="supporting", level=HalfInt.of(3))
    assert wall_literal(y4) == "ground=pair:C1:k=1;sup=[3];cov=[2]"
    assert sites(y4) == [
        site("add", "single", 2, 0, 4, 4, "supporting"),
        site("remove", "single", 3, 0, 3, 3, "supporting"),
        site("add", "single", 3, 0, 7, 7, "covering"),
        site("remove", "single", 2, 0, 6, 6, "covering"),
        site("add", "pair", 1, 1, 1, 1, "pair"),
    ]


def test_pair_sites_with_half_arguments():
    # colour 3 over B1 rank 4: the cell above the covering base splits into
    # front/back halves with arguments 5 and 11/2
    g = ground_state(AffineType(Family.B1, 4), 3)
    assert sites(g) == [site("add", "pair", 3, 0, 2, 2, "pair")]
    y1 = add(g, grade="pair", action="add")
    assert sites(y1) == [
        site("add", "double", 4, 0, 3, 3, "supporting"),
        site("add", "single", 2, 0, 5, HalfInt(11), "covering"),
        site("add", "single", 1, 0, 5, 5, "covering"),
        site("remove", "pair", 3, 0, 2, 2, "pair"),
    ]


def test_level1_split_ground_sites():
    # colour 1 over B1 rank 4: the ground keeps its front base atom; the
    # first admissible slot is the back atom of the base cell
    X = AffineType(Family.B1, 4)
    g = ground_state(X, 1)
    assert isinstance(g, Wall)
    first = sites(g)
    assert all(s.action == "add" for s in first)
    x1 = add(g, column=0, level=HalfInt.of(1))
    assert site("remove", "single", 1, 0, 1, 1, "wall") in sites(x1)
    # the front ground atom of column 0 is never removable
    assert all(not (s.action == "remove" and s.column == 0 and s.color == 2)
               for s in sites(x1))


def test_doubled_ground_lower_not_removable():
    # colour 1 over D2 rank 3 has a doubled ground: only the upper half of
    # the base cell ever moves
    X = AffineType(Family.D2, 3)
    g = ground_state(X, 1)
    assert all(s.action == "add" for s in sites(g))
    y = add(g, column=0, level=HalfInt.of(1))
    rem = [s for s in sites(y) if s.action == "remove"]
    assert rem == [site("remove", "single", 1, 0, 1, 1, "wall")]


def test_a1_counts_are_partition_counts():
    X = AffineType(Family.A1, 3)
    got = [len(enumerate_walls(X, 2, b)) for b in range(5)]
    assert got == [1, 2, 4, 7, 12]  # cumulative partition counts


def test_a1_block_colors():
    X = AffineType(Family.A1, 3)
    cells = column_pattern(X, 2, LEVEL1, 0, 3)
    assert [c.colors[0] for c in cells] == [2, 3, 1]
    cells = column_pattern(X, 2, LEVEL1, 1, 3)
    assert [c.colors[0] for c in cells] == [1, 2, 3]


def test_column_pattern_reads_are_prefixes():
    # a column read at every length from 1 to 300 has that many cells,
    # and every read is a prefix of the longest
    X = AffineType(Family.B1, 4)
    got = [column_pattern(X, 1, LEVEL1, 0, count) for count in range(1, 301)]
    assert [len(cells) for cells in got] == list(range(1, 301))
    assert all(cells == got[-1][:len(cells)] for cells in got)


def test_column_pattern_rejects_a_negative_count():
    for X in (AffineType(Family.B1, 4), AffineType(Family.A1, 3)):
        assert column_pattern(X, 1, LEVEL1, 0, 0) == ()
        for count in (-1, -3):
            with pytest.raises(ValueError):
                column_pattern(X, 1, LEVEL1, 0, count)


def test_only_affine_data_decides_the_cells():
    # walls and wall_forms read a cell's atoms from affine_data.cell_atoms;
    # neither keeps its own half-height test or split partner.  Past
    # affine_data no module names a family but A1, so a family's cells
    # and seeds come only from its row there; cli may refuse A2evenDagger
    import ast
    from pathlib import Path

    src = Path(__file__).parent.parent / "src" / "wallcrystal"
    for name in ("walls.py", "wall_forms.py"):
        tree = ast.parse((src / name).read_text())
        names = {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
        assert "cell_atoms" in names, name
        assert not names & {"half_height_colors", "_partner"}, name
    allowed = dict.fromkeys(
        ("walls.py", "wall_forms.py", "adapted_sequence.py",
         "linear_forms.py", "zcrystal.py"), {"A1"})
    allowed["cli.py"] = {"A1", "A2EVEN_DAGGER"}
    for name, members in allowed.items():
        tree = ast.parse((src / name).read_text())
        named = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name)
                 and node.value.id == "Family"}
        assert named <= members, (name, named - members)


def _reference_pattern(X, k, ground, parity, count):
    """The column pattern built cell by cell with a scan for the next
    domain point, as before it was tiled by period."""
    halfs = half_height_colors(X)
    backs = _back_assignment(X, k, parity)
    _, tbar, tbarbar = thresholds(X, k)
    cells = []
    if ground == LEVEL1:
        t = tbar if tbar.is_integer else tbar - HalfInt(1)
    else:
        t = tbar if ground == SUPPORTING else tbarbar
        cells.append(Cell("double", t, (k,), (t,)))
        t = next_domain_point(X, t)
    while len(cells) < count:
        c = periodic_map(X, t)
        nxt = t + HalfInt(1)
        if t.is_integer and in_domain(X, nxt):
            c2 = periodic_map(X, nxt)
            back = backs[frozenset({c, c2})]
            if back == c:
                cells.append(Cell("split", t, (c, c2), (t, nxt)))
            else:
                cells.append(Cell("split", t, (c2, c), (nxt, t)))
            t = next_domain_point(X, nxt)
        elif c in halfs:
            cells.append(Cell("double", t, (c,), (t,)))
            t = next_domain_point(X, t)
        else:
            cells.append(Cell("full", t, (c,), (t,)))
            t = next_domain_point(X, t)
    return tuple(cells)


PATTERN_TYPES = [
    AffineType(Family.C1, 3), AffineType(Family.C1, 4),
    AffineType(Family.D2, 3), AffineType(Family.D2, 5),
    AffineType(Family.B1, 4), AffineType(Family.B1, 5),
    AffineType(Family.A2ODD, 4), AffineType(Family.A2ODD, 5),
    AffineType(Family.D1, 5), AffineType(Family.D1, 6),
    AffineType(Family.D1, 7), AffineType(Family.A2EVEN, 3),
    AffineType(Family.A2EVEN, 4), AffineType(Family.A2EVEN_DAGGER, 3),
    AffineType(Family.A2EVEN_DAGGER, 4),
]


@pytest.mark.parametrize("X", PATTERN_TYPES, ids=str)
def test_tiled_pattern_matches_cell_by_cell_scan(X):
    # every colour, ground and parity, over five periods: a period holds
    # at most one cell per half step, so 5 * per.twice cells reach past
    # the fifth
    count = 5 * period(X).twice
    for k in X.index_set:
        grounds = [LEVEL1] if index_class(X, k) == 1 else [SUPPORTING, COVERING]
        for ground in grounds:
            for parity in (0, 1):
                want = _reference_pattern(X, k, ground, parity, count)
                assert column_pattern(X, k, ground, parity, count) == want, \
                    (k, ground, parity)


def _lift(cell, by):
    """cell one whole number of periods higher."""
    return Cell(cell.kind, cell.level + by, cell.colors,
                tuple([a + by for a in cell.args]))


@pytest.mark.parametrize("X", PATTERN_TYPES + [AffineType(Family.A1, 3)],
                         ids=str)
def test_cell_reads_lift_the_cycle_by_one_period(X):
    # past the head, cell m + L is cell m a period higher, L the cells per
    # period, out to 40 periods: every colour, ground and parity, and A1
    # columns 0..3 (no head, one cell per integer level)
    per = period(X)
    for k in X.index_set:
        grounds = [LEVEL1] if index_class(X, k) == 1 else [SUPPORTING, COVERING]
        for ground in grounds:
            table = walls._column(X, k, ground)
            for column in range(4) if X.family is Family.A1 else (0, 1):
                if X.family is Family.A1:
                    head, cells = 0, per.floor()
                else:
                    h, cycle = walls._pattern_period(X, k, ground, column)
                    head, cells = len(h), len(cycle)
                for m in range(head, head + 40 * cells):
                    assert table.cell(column, m + cells) == \
                        _lift(table.cell(column, m), per), (k, ground, column, m)


@pytest.mark.parametrize("X", PATTERN_TYPES + [AffineType(Family.A1, 3)],
                         ids=str)
def test_column_pattern_rejects_a_ground_outside_the_class(X):
    # a class-1 colour stands on level 1 only, a class-2 colour on a
    # supporting or covering ground only
    for k in X.index_set:
        wrong = [SUPPORTING, COVERING] if index_class(X, k) == 1 else [LEVEL1]
        for ground in wrong:
            for parity in (0, 1):
                with pytest.raises(ClassMismatch):
                    column_pattern(X, k, ground, parity, 3)
        with pytest.raises(ValueError, match="unknown ground"):
            column_pattern(X, k, "ground", 0, 3)


def test_split_cell_colours_golden():
    # the (back, front) colours of every split cell over five periods of
    # every colour, ground and parity, recorded while each family still
    # spelled out its own back colours; the reference scan above reads
    # the very back rule it checks
    lines = []
    for X in PATTERN_TYPES:
        count = 5 * period(X).twice
        for k in X.index_set:
            grounds = [LEVEL1] if index_class(X, k) == 1 else [SUPPORTING, COVERING]
            for ground in grounds:
                for parity in (0, 1):
                    cells = column_pattern(X, k, ground, parity, count)
                    colours = [c.colors for c in cells if c.kind == "split"]
                    lines.append(f"{X} {k} {ground} {parity} {colours}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "f4c417c0b364c264e979a740eeeeb4d88b7bf334f799a38b8481b0ea588f0d68")


def test_class_mismatch():
    X = AffineType(Family.C1, 3)
    with pytest.raises(ClassMismatch):
        Wall(X, 1, LEVEL1, ())  # colour 1 needs a wall pair over C1
    B = AffineType(Family.B1, 4)
    with pytest.raises(ClassMismatch):
        Wall(B, 1, SUPPORTING, ())
    with pytest.raises(ClassMismatch):
        WallPair(Wall(X, 1, SUPPORTING, ()), Wall(X, 2, COVERING, ()))


def test_parse_wall_checks_the_class_before_any_pattern(monkeypatch):
    def no_pattern(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(walls, "_pattern_period", no_pattern)
    for text in ("ground=sup:D2:k=1;cols=[99999]",
                 "ground=yw:C1:k=1;cols=[99999]",
                 "ground=pair:D2:k=1;sup=[99999];cov=[1]"):
        with pytest.raises(ClassMismatch):
            parse_wall(text, 3)


def test_parse_wall_refuses_a_tall_column_before_any_pattern(monkeypatch):
    def no_pattern(*args):
        raise AssertionError("a pattern was built")

    monkeypatch.setattr(walls, "_pattern_period", no_pattern)
    too_tall = walls.MAX_COLUMN_ATOMS + 1
    for text in (f"ground=yw:D2:k=1;cols=[{too_tall}]",
                 f"ground=sup:D2:k=2;cols=[1,{too_tall}f]",
                 f"ground=pair:C1:k=1;sup=[{too_tall}];cov=[1]",
                 f"ground=pair:C1:k=1;sup=[1];cov=[{too_tall}]"):
        with pytest.raises(ValueError, match="at most 10000 atoms"):
            parse_wall(text, 3)


def test_pair_sync_enforced():
    X = AffineType(Family.C1, 3)
    sup = Wall(X, 1, SUPPORTING, ((1, "none"),))
    cov = Wall(X, 1, COVERING, ())
    with pytest.raises(ValueError):
        WallPair(sup, cov)


def test_improper_two_equal_full_columns():
    X = AffineType(Family.B1, 4)
    w = Wall(X, 1, LEVEL1, ((1, "none"), (1, "none")))
    assert not is_proper(w)
    with pytest.raises(NotProper):
        transitions(w)


def test_free_space_rejected():
    X = AffineType(Family.B1, 4)
    with pytest.raises(ValueError):
        Wall(X, 1, LEVEL1, ((0, "front"), (1, "none")))


def test_unknown_partial_code_rejected():
    # no column takes a state whose partial-top code is not one of the four
    X = AffineType(Family.B1, 4)
    with pytest.raises(ValueError):
        Wall(X, 1, LEVEL1, ((2, "garbage"),))


def test_site_not_present():
    g = ground_state(AffineType(Family.C1, 3), 1)
    with pytest.raises(SiteNotPresent):
        apply(g, site("add", "single", 2, 0, 2, 2, "supporting"))


@pytest.mark.parametrize("X,k", ENUM_CASES)
def test_enumeration_invariants(X, k):
    small = enumerate_walls(X, k, 4)
    big = enumerate_walls(X, k, 6)
    assert small <= big
    for w in small:
        assert is_proper(w)
        assert w.atoms <= 4
    assert {w for w in big if w.atoms <= 4} == small


@pytest.mark.parametrize("X,k", ENUM_CASES)
def test_enumeration_closed_under_mutation(X, k):
    # site mutations stay within the enumeration at a slightly larger
    # budget, and admissible additions never leave the budget + 2 window
    big = enumerate_walls(X, k, 7)
    for w in enumerate_walls(X, k, 5):
        for s, nxt in transitions(w):
            assert nxt in big


@pytest.mark.parametrize("X,k", ENUM_CASES)
def test_add_remove_inverse(X, k):
    # a mutation is undone by the opposite action of the same grade at the
    # same position, except when the step touched a lone half-height atom
    # of a doubled cell: there the two-block test passes afterwards and
    # the opposite site is promoted to a double one
    other = {"add": "remove", "remove": "add"}
    for w in enumerate_walls(X, k, 4):
        for s, nxt in transitions(w):
            back = [t for t, prv in transitions(nxt)
                    if prv == w and t.action == other[s.action]]
            if back:
                assert len(back) == 1 and back[0].grade == s.grade
                assert apply(nxt, back[0]) == w
            else:
                promoted = [t for t, _ in transitions(nxt)
                            if t.action == other[s.action]
                            and t.grade == "double"
                            and t.position == s.position]
                assert s.grade == "single" and len(promoted) == 1


@pytest.mark.parametrize("X,k", ENUM_CASES)
def test_literal_round_trip(X, k):
    n = X.n
    for w in enumerate_walls(X, k, 5):
        assert parse_wall(wall_literal(w), n) == w


@pytest.mark.parametrize("X,k", ENUM_CASES)
def test_render_injective(X, k):
    walls = enumerate_walls(X, k, 4)
    pictures = {render(w) for w in walls}
    assert len(pictures) == len(walls)


def test_parse_wall_errors():
    with pytest.raises(ValueError):
        parse_wall("cols=[1]", 3)
    with pytest.raises(ValueError):
        parse_wall("ground=yw:C1:k=1;cols=[x]", 3)


def test_render_shows_baseline():
    g = ground_state(AffineType(Family.C1, 3), 1)
    pic = render(g)
    assert "supporting:" in pic and "covering:" in pic
    assert "(0,1)" in pic and "(0,5)" in pic


@st.composite
def wall_cases(draw):
    X, k = draw(st.sampled_from(ENUM_CASES))
    blocks = draw(st.integers(0, 6))
    return X, k, blocks


@given(case=wall_cases())
@settings(max_examples=25, deadline=None)
def test_atoms_additive_along_transitions(case):
    X, k, blocks = case
    for w in enumerate_walls(X, k, blocks):
        for s, nxt in transitions(w):
            delta = 2 if s.grade in ("double", "pair") else 1
            if s.action == "add":
                assert nxt.atoms == w.atoms + delta
            else:
                assert nxt.atoms == w.atoms - delta


# --- a golden of the enumeration --------------------------------------

# the wall types of tests/test_site_kernel.py
GOLDEN_TYPES = [
    AffineType(Family.A1, 3), AffineType(Family.C1, 3),
    AffineType(Family.D2, 3), AffineType(Family.B1, 4),
    AffineType(Family.A2ODD, 4), AffineType(Family.D1, 6),
    AffineType(Family.A2EVEN, 3), AffineType(Family.A2EVEN_DAGGER, 3),
]

# (family, rank, colour) -> (walls at budgets 0..8, sha256 of the sorted
# literals of the walls at budget 8, one per line)
ENUMERATION_GOLDEN = {
    ("A1", 3, 1): ([1, 2, 4, 7, 12, 19, 30, 45, 67],
        "c97b7c39ae437ba8e094574fffb9c5beaabb2246b9f02a0b0a3564c754617cf3"),
    ("A1", 3, 2): ([1, 2, 4, 7, 12, 19, 30, 45, 67],
        "46b4a4e638c53ada97fb02ee42695c8040277050d7178b9ace35408ce3fa0986"),
    ("A1", 3, 3): ([1, 2, 4, 7, 12, 19, 30, 45, 67],
        "9722cd8ae2245e6418947bd73b8f3ec754930753bce4851c415ad3e17c20371b"),
    ("C1", 3, 1): ([1, 1, 2, 4, 7, 11, 17, 25, 37],
        "5c61d9ef381b6466ddebc980a5eabf5d05333ae01ca6a990d6c301231659d86f"),
    ("C1", 3, 2): ([1, 1, 2, 4, 7, 11, 17, 25, 37],
        "f6e3edfe13d76f43fb6068f1daf305c5fdebd6000b925aca6bc3c3b6a0641a21"),
    ("C1", 3, 3): ([1, 1, 2, 4, 7, 11, 17, 25, 37],
        "1f033adcf09f971e04443c95d409fb47aa863dd9dbaedda63cc38942b5f7e162"),
    ("D2", 3, 1): ([1, 2, 3, 5, 7, 10, 15, 21, 28],
        "dffa9bf2144bd2c6d891d4fb4a5cb9675051d25cb8dc5bede66a2388025e5abe"),
    ("D2", 3, 2): ([1, 1, 2, 4, 7, 11, 17, 27, 42],
        "ead73963cdf3fe92cf4bdfb14af7ffd1d1da73c78cacb7a6588334a0fa14c166"),
    ("D2", 3, 3): ([1, 2, 3, 5, 7, 10, 15, 21, 28],
        "508ee679d86abbdaa70a01a7c88c7606d45ddb90ad2c50114c13b2d0169e949c"),
    ("B1", 4, 1): ([1, 2, 3, 5, 7, 10, 16, 23, 31],
        "8710fb034f76ce1d9471fd40cf9e9715d9098988321a1b4c5032a42109ec1cc0"),
    ("B1", 4, 2): ([1, 2, 3, 5, 7, 10, 16, 23, 31],
        "c2a611f0fa9d80ad9ff1ce3ee82c9f45140713ef2d458a648508af0b06cad7ee"),
    ("B1", 4, 3): ([1, 1, 2, 5, 9, 14, 23, 39, 61],
        "7e4739ff4a59b4bf4dc884146a62978b43579ae4b6a1da1a05166b00b960023f"),
    ("B1", 4, 4): ([1, 2, 3, 6, 9, 13, 20, 28, 38],
        "e9c754f1af61330cc552ca2cf5b35d5ae082ebc2fad7e13bdb257f65e1f4bf9d"),
    ("A2odd", 4, 1): ([1, 2, 3, 5, 7, 11, 16, 22, 30],
        "2639c1e3ec4d50a9fee32f7836f9499296d1a234392bc4341fd3670e399c7342"),
    ("A2odd", 4, 2): ([1, 2, 3, 5, 7, 11, 16, 22, 30],
        "001980106e773725f915d0a8ccc28a0ec6841311a78e855dc46ca7319d192f96"),
    ("A2odd", 4, 3): ([1, 1, 2, 5, 9, 15, 25, 38, 60],
        "3b3312180fd54cdb5d7df9d78dfea6227c10dcabdf1dfd144302ceeede74aeae"),
    ("A2odd", 4, 4): ([1, 1, 2, 4, 9, 15, 24, 36, 55],
        "7dd41555cd8cd2339baffab1c4acdfeb96f7c6b2aff6fec72270a76a9d9a04bd"),
    ("D1", 6, 1): ([1, 2, 3, 5, 8, 12, 17, 24, 34],
        "2b5ecca4d1022e1779705d668de1f59e6fe63afea031883963c1cb66e20b017c"),
    ("D1", 6, 2): ([1, 2, 3, 5, 8, 12, 17, 24, 34],
        "fa35d77e0bfa682182d5dca913ca30b1eff1372ce4b2038b4d16619b5265db05"),
    ("D1", 6, 3): ([1, 1, 2, 5, 10, 17, 26, 42, 68],
        "49c18d3958d788cc837bd4a002d28e070ecea3dcb97043e3acd304f5738f0bd4"),
    ("D1", 6, 4): ([1, 1, 2, 5, 10, 17, 26, 42, 68],
        "5ca0bfe3e1cc60e05d93103899fc06f26db55256c92d43ea8dafcbff1aa89bd7"),
    ("D1", 6, 5): ([1, 2, 3, 5, 8, 12, 17, 24, 34],
        "3847bc5100e786ca2f6c6b798e0db7234086cf460ed92c7ff9fd592fac59f6ca"),
    ("D1", 6, 6): ([1, 2, 3, 5, 8, 12, 17, 24, 34],
        "54d2e1c10433edae9d1e54492e03ea4d9b58894bac0b407804ed69ea00a4a497"),
    ("A2even", 3, 1): ([1, 2, 3, 5, 7, 10, 14, 19, 25],
        "84f83d4589e77b4e43e0a5bcd49a5f0172b690eeabec8f735e089303fa614cf1"),
    ("A2even", 3, 2): ([1, 1, 2, 4, 7, 11, 17, 26, 39],
        "10c9942ee249651563f097c7cc4294d37ecf03814c2b26a944b9a38426b06e86"),
    ("A2even", 3, 3): ([1, 1, 2, 4, 7, 11, 17, 25, 37],
        "cc7bc2b46ba961c64072fcc07f9663e7769f8f4d0349fdbc8a0e83a4a9bb79cc"),
    ("A2evenDagger", 3, 1): ([1, 2, 3, 5, 7, 10, 14, 19, 25],
        "ed6195cc400e20ad361f21b38a2649ef14c4abeb539b48487541fad50a05c03d"),
    ("A2evenDagger", 3, 2): ([1, 1, 2, 4, 7, 11, 17, 26, 39],
        "2b3d76511810fbd0a29e96a7acadd6d9d38a3af9f06a05e8cada3437ba5165f0"),
    ("A2evenDagger", 3, 3): ([1, 1, 2, 4, 7, 11, 17, 25, 37],
        "ae2818e0776e25771308de1dc4eea7ef3effb9d71b70e43117877ffec871ef0e"),
}


@pytest.mark.parametrize("X", GOLDEN_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_enumeration_golden(X):
    # the counts and walls recorded from the enumeration, which also pin
    # its completeness: no other test compares it with an independent one
    for k in X.index_set:
        counts, digest = ENUMERATION_GOLDEN[(X.family.value, X.n, k)]
        assert [len(enumerate_walls(X, k, b)) for b in range(9)] == counts, k
        literals = sorted(wall_literal(w) for w in enumerate_walls(X, k, 8))
        got = hashlib.sha256("\n".join(literals).encode()).hexdigest()
        assert got == digest, k


# --- a golden of the column states -------------------------------------

_TOPS = ("none", "front", "back", "lower")
_KINDS = {LEVEL1: "yw", SUPPORTING: "sup", COVERING: "cov"}


def _outcome(make):
    """repr of what make() returns, or the name of the error it raises."""
    try:
        return repr(make())
    except ValueError as e:
        return type(e).__name__


def _column_lines(X, k):
    """Everything a wall layer says about the columns of colour k: for
    each wall at budget 8, its sites, atoms, picture and literal round
    trip; for each ground, which one-column walls construct and what
    each one-column literal parses to."""
    walls = sorted(enumerate_walls(X, k, 8), key=wall_literal)
    for w in walls:
        yield (f"{wall_literal(w)} atoms={w.atoms} sites={sites(w)!r} "
               f"round_trip={parse_wall(wall_literal(w), X.n) == w}")
        yield render(w)
    grounds = [LEVEL1] if index_class(X, k) == 1 else [SUPPORTING, COVERING]
    for ground in grounds:
        for m in range(-1, 14):
            for top in _TOPS:
                yield f"{ground} state ({m}, {top}): " + _outcome(
                    lambda: Wall(X, k, ground, ((m, top),)).states)
        for c in range(12):
            for code in ("", "f", "b", "l"):
                text = (f"ground={_KINDS[ground]}:{X.family.value}:k={k};"
                        f"cols=[{c}{code}]")
                yield f"{text}: " + _outcome(lambda: parse_wall(text, X.n).states)


# (family, rank, colour) -> sha256 of _column_lines, one per line
COLUMN_GOLDEN = {
    ("A1", 3, 1):
        "5233e432abed09f6a6d9baa4985210d2e93ddc4beaa9598a3bf32826b2e68b7e",
    ("A1", 3, 2):
        "2489cc830e5eabad3862f33514d11651c246a71ab9c9217d0c500f9b573b5b2a",
    ("A1", 3, 3):
        "88e76d26ffb1b600240f260ddf7f465db749765235575586546a33a4a6e7cd0d",
    ("C1", 3, 1):
        "6db750d981a8ed3226693d3fc5ff612f165d59d3c4888eee5b37c228b2f5a687",
    ("C1", 3, 2):
        "fd415f13bd854cb9eee20c68fb2d6e3976faa4bb551a164781c1cf3098868805",
    ("C1", 3, 3):
        "1a0f22c01f366a603482b8aaa4a2a9cd4a254cf33e61b8f7800c94e9f51389d2",
    ("D2", 3, 1):
        "ee77a121c9cebabe1f651ae99d4257f949712f5f6bf48079c853235f3787e519",
    ("D2", 3, 2):
        "a51305bd9012a69073d097cbe1d2e1eb4f18906c8ad1dcc3057024e321f8ad69",
    ("D2", 3, 3):
        "d2f204dab93d5153a23fb688c854a3b6112cbc28bf418f12ae7e4af570732bcb",
    ("B1", 4, 1):
        "5eec77d6d3d0b076b1481e4a2cfb482c6a8802466d568ade8035f60ff4c1c927",
    ("B1", 4, 2):
        "3fbf3d9451f6ec8d72006dc8a10557bc81e22d1f2417abf97b152bac7cf66661",
    ("B1", 4, 3):
        "e1d23568e88c9ee9649a6736796434358a250880f0c562d2fb832d88ba62351f",
    ("B1", 4, 4):
        "8865f8d309ca2c603d69d6358cf1b0ba63b56632579c087242e0a2f9e816f708",
    ("A2odd", 4, 1):
        "16b23c31a58cc8bba2199b4985c367af0ca9f44446fc89a7b8fe27ac926b6ccf",
    ("A2odd", 4, 2):
        "f0cf5df1f0af8e7bb158fc42575f576f6c41aca9774a4655102dcf508c82d251",
    ("A2odd", 4, 3):
        "e2d868dfe1a8808f914ab02f270275ba009e434656ab0dfd37c7dacf03d84781",
    ("A2odd", 4, 4):
        "aa706f21ff05f57aeb94a11c3ee837dd93c4209ad6ac753c28b165de3b1c993f",
    ("D1", 6, 1):
        "93441fe4d3749b3d2057bb4f0798a8eee2492a2f8ce9d5bfb2f1151546ef7fe0",
    ("D1", 6, 2):
        "d2af8cc49e7a3a6a235c7b51c143e7fd708da34354d16c1fa3237496907c610e",
    ("D1", 6, 3):
        "3b2661a026de8136a39cc928453a5f7f2698a1b08767305ef152642d5faea875",
    ("D1", 6, 4):
        "3bbeb4c4e23bfbed9f38942049e830426accafa68cae038dfad7cb7e7c7cff32",
    ("D1", 6, 5):
        "0d84cee77a2124e8f48431d0c806afcbc6af7c16f6ecc3ae99705459db64679d",
    ("D1", 6, 6):
        "bc48fdf7ad171f8e5db015235536c158a0e3400b0692dadd4fb32ca26dbd4c8b",
    ("A2even", 3, 1):
        "a24f3e57ac2031449c968f032a293d1b5768b25e71a6a12144667c0f94c71000",
    ("A2even", 3, 2):
        "8650374eaff1d72c381e4d0cfbaf2e6f929826b4f4e0dfc95c56c8c43ba10daa",
    ("A2even", 3, 3):
        "7100a2fe7e53529a5e1f314aee5dd62204805400ab6cb5e15d9f49574633c25e",
    ("A2evenDagger", 3, 1):
        "4fb1646b2d6450df15016815ea92d5067c0dd7c2242915f4114b7fdf6df242e7",
    ("A2evenDagger", 3, 2):
        "e842bfceebb324f0d96178cf0a426725ef359e5b36719c6a172c631288820bc3",
    ("A2evenDagger", 3, 3):
        "4c2ea95325a3dbdc41a7f25bbc51e643b1aa93d1b7ba08d56ba1ce630f27b0d6",
}


@pytest.mark.parametrize("X", GOLDEN_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_column_golden(X):
    # sites, atoms, pictures, literals and the accepted column states and
    # literals, recorded: the enumeration golden pins only counts and
    # literals, and the site kernel test only compares its paths
    for k in X.index_set:
        text = "\n".join(_column_lines(X, k))
        got = hashlib.sha256(text.encode()).hexdigest()
        assert got == COLUMN_GOLDEN[(X.family.value, X.n, k)], k


# a walk far deeper than a recursion limit of 400 allows: D2's and B1's
# walks fix about one column per four walls, A1's one per wall; A1 stops
# at 2,000 walls, since each wall's states tuple is as long as its path
DEEP_WALKS = [("D2", 3, 20_000), ("B1", 4, 20_000), ("A1", 3, 2_000)]


@pytest.mark.parametrize("family,rank,walls_cap", DEEP_WALKS,
                         ids=[f"{f}{n}" for f, n, _ in DEEP_WALKS])
def test_walk_runs_past_the_recursion_limit(family, rank, walls_cap):
    code = (
        "import sys\n"
        "from wallcrystal.affine_data import AffineType, Family\n"
        "from wallcrystal.walls import WallPair, search_walls\n"
        "sys.setrecursionlimit(400)\n"
        "seen, columns = [0], [0]\n"
        "def keep(w, atoms):\n"
        "    seen[0] += 1\n"
        "    m = w.supporting if isinstance(w, WallPair) else w\n"
        "    columns[0] = max(columns[0], len(m.states))\n"
        f"    return seen[0] <= {walls_cap}\n"
        f"search_walls(AffineType(Family({family!r}), {rank}), 1, keep)\n"
        "print(seen[0], columns[0])\n")
    src = os.path.dirname(os.path.dirname(walls.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    seen, columns = map(int, proc.stdout.split())
    assert seen > walls_cap  # every later wall was offered and rejected
    assert columns > 1_000, columns


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS from /proc/self/status")
def test_deep_walk_keeps_one_path_of_states():
    # A1's walk fixes one column per wall, so 6,000 walls open a path of
    # 6,000 columns.  Open nodes share that path, so memory grows with d,
    # not d^2 / 2: when each node held its own states tuple the child
    # peaked at 164 MB, and it peaks near 20 MB now.  VmHWM is read, not
    # ru_maxrss, which a child inherits from the test process.
    code = (
        "import re\n"
        "from wallcrystal.affine_data import AffineType, Family\n"
        "from wallcrystal.walls import search_walls\n"
        "seen = [0]\n"
        "def keep(w, atoms):\n"
        "    seen[0] += 1\n"
        "    return seen[0] <= 6_000\n"
        "search_walls(AffineType(Family.A1, 3), 1, keep)\n"
        "with open('/proc/self/status') as f:\n"
        "    peak = re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)\n"
        "print(seen[0], peak)\n")
    src = os.path.dirname(os.path.dirname(walls.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    seen, peak_kb = map(int, proc.stdout.split())
    assert seen > 6_000
    assert peak_kb < 50 * 1024, peak_kb
