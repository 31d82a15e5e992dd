"""Pins for site detection read from the move table.

The kernel below rebuilds every column's moves from the whole wall, as
site detection did before it read a table: each column's pattern cells,
the steps out of and back into its state, and a fit check that reads
the two neighbouring columns and the heights of the full columns.  The
table must give the same moves in the same order on every wall up to
budget 8 of every colour of eight wall types.  The wall-to-form map keeps
its per-sequence values per map, so running two orders of one wall type
in turn must give each the family a fresh map gives; and it keeps no
value per table entry, so a map that outlives the tables' entries must
still give the terms a fresh map gives."""

import gc
import re

import pytest

from wallcrystal.affine_data import AffineType, Family, thresholds
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal import walls
from wallcrystal.walls import (
    BACK, FRONT, LEVEL1, LOWER, NONE, Site, WallPair, column_pattern,
    enumerate_walls, move_entries, parse_wall, wall_literal,
)
from wallcrystal.wall_forms import WallFormMap, comb_infinity, site_form

BLOCKS = 8

# the wall types of tests/test_site_kernel.py
WALL_TYPES = [
    AffineType(Family.A1, 3), AffineType(Family.C1, 3),
    AffineType(Family.D2, 3), AffineType(Family.B1, 4),
    AffineType(Family.A2ODD, 4), AffineType(Family.D1, 6),
    AffineType(Family.A2EVEN, 3), AffineType(Family.A2EVEN_DAGGER, 3),
]

# --- the whole-wall kernel ---------------------------------------------

# (kind, top before, rows up, top after, grade, atom) for each step a
# column takes on a cell; a doubled cell's double step comes first
STEPS = (
    ("full", NONE, 1, NONE, "single", 0),
    ("split", NONE, 0, BACK, "single", 0),
    ("split", NONE, 0, FRONT, "single", 1),
    ("split", FRONT, 1, NONE, "single", 0),
    ("split", BACK, 1, NONE, "single", 1),
    ("double", NONE, 1, NONE, "double", 0),
    ("double", NONE, 0, LOWER, "single", 0),
    ("double", LOWER, 1, NONE, "single", 0),
)
OUT = [(k, b, (r, a, "add", g, i)) for k, b, r, a, g, i in STEPS]
INTO = [(k, a, (-r, b, "remove", g, i)) for k, b, r, a, g, i in STEPS]
PAIR_STEP = ((0, LOWER), (1, NONE))


def covers(left, right):
    (ml, tl), (mr, tr) = left, right
    return mr < ml or (mr == ml and (tr == NONE or tr == tl))


def view(w):
    """(state, fits) read from the whole wall w."""
    states, column = w.states, w.column_table
    heights = {m for m, top in states if top == NONE and m >= 1
               and w.wall_type.family is not Family.A1}

    def state(i):
        return states[i] if i < len(states) else column.base

    def fits(i, st):
        m, top = st
        if column.atoms(st) is None:
            return False
        if i > 0 and not covers(state(i - 1), st):
            return False
        if not covers(st, state(i + 1)):
            return False
        if top == NONE and m >= 1 and m in heights:
            return state(i) == (m, NONE)
        return True

    return state, fits


def wall_moves(w, host):
    X, k, ground = w.wall_type, w.k, w.ground
    state, fits = view(w)
    out = []
    for i in range(len(w.states) + 1):
        m, top = old = state(i)
        cells = column_pattern(X, k, ground, i, m + 1)
        pair = ground != LEVEL1 and old in PAIR_STEP
        looks = [(cells[m], OUT)]
        if i < len(w.states):
            looks.append((cells[m - 1] if top == NONE else cells[m], INTO))
        for cell, steps in looks:
            for rows, other, action, grade, atom in [
                    s for kind, before, s in steps
                    if kind == cell.kind and before == top]:
                st = (m + rows, other)
                if (pair and st in PAIR_STEP) or not fits(i, st):
                    continue
                out.append((Site(action, grade, cell.colors[atom], i,
                                 cell.level, cell.args[atom], host), st))
                if grade == "double":
                    break
    return out


def pair_moves(p):
    tbar = thresholds(p.wall_type, p.k)[1]
    state_sup, fits_sup = view(p.supporting)
    state_cov, fits_cov = view(p.covering)
    out = []
    low, high = PAIR_STEP
    for i in range(max(len(p.supporting.states), len(p.covering.states)) + 1):
        st = state_sup(i)
        if st != state_cov(i):
            continue
        for action, old, new in (("add", low, high), ("remove", high, low)):
            if st == old and fits_sup(i, new) and fits_cov(i, new):
                out.append((Site(action, "pair", p.k, i, tbar, tbar, "pair"), new))
    return out


def kernel_moves(w):
    """The kernel's moves of w: a pair's supporting member, then its
    covering member, then its k-pair sites.  Each site names its host,
    so a move listed under the wrong member does not compare equal."""
    if isinstance(w, WallPair):
        return (wall_moves(w.supporting, "supporting")
                + wall_moves(w.covering, "covering") + pair_moves(w))
    return wall_moves(w, "wall")


def table_moves(w):
    return [mv for moves in move_entries(w) for mv in moves]


@pytest.mark.parametrize("X", WALL_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_table_moves_match_the_whole_wall_kernel(X):
    for k in X.index_set:
        walls = enumerate_walls(X, k, BLOCKS)
        assert len(walls) > 1
        for w in walls:
            assert table_moves(w) == kernel_moves(w)


# --- no per-sequence value is shared through the table ----------------

def _fresh_forms(seq, k, family):
    """Each form of family rebuilt from its witness by a fresh map, and
    by summing the site forms of the witness's sites."""
    rebuilt = set()
    for phi, witness in family.provenance.items():
        m = re.fullmatch(r"L\[(\d+),(\d+)\]\((.*)\)", witness)
        s, w = int(m.group(1)), parse_wall(m.group(3), seq.n)
        assert int(m.group(2)) == k
        fmap = WallFormMap(seq)
        form = fmap.form(fmap.terms(w), s)
        acc = {}
        for mv, _ in table_moves(w):
            sf = site_form(seq, s, k, mv)
            if sf.coordinate.s >= 1:
                acc[sf.coordinate] = acc.get(sf.coordinate, 0) + sf.direction * sf.weight
        assert dict(form.terms) == {d: c for d, c in acc.items() if c}, witness
        rebuilt.add(form)
    return rebuilt


def test_two_orders_of_one_type_in_turn():
    g = AffineType(Family.D2, 3)
    seqs = [from_permutation(g, (3, 2, 1)), from_permutation(g, (1, 2, 3))]
    first = {}
    for _ in range(2):
        for seq in seqs:
            for k in g.index_set:
                got = comb_infinity(seq, 2, k=k, support_max=2 * g.n)
                assert got.forms == _fresh_forms(seq, k, got)
                key = (seq.period_perm, k)
                assert first.setdefault(key, got.provenance) == got.provenance
    # the two orders read the same walls differently
    assert any(first[(seqs[0].period_perm, k)] != first[(seqs[1].period_perm, k)]
               for k in g.index_set)


# four of the binf_window settings: (type, order)
OUTLIVED = [(AffineType(Family.C1, 3), (3, 2, 1)),
            (AffineType(Family.D2, 3), (3, 2, 1)),
            (AffineType(Family.B1, 4), (2, 4, 3, 1)),
            (AffineType(Family.A2ODD, 4), (2, 4, 3, 1))]


def test_a_map_that_outlives_the_move_tables_gives_fresh_terms():
    # each map meets every wall within budget 3, then the tables are
    # dropped (the column cache refills lazily) and their entries freed;
    # a map that held values by an entry's id would read a freed id
    # again under a new entry and give it the old entry's terms
    seqs = [from_permutation(g, order) for g, order in OUTLIVED]
    maps = [WallFormMap(seq) for seq in seqs]
    for seq, fmap in zip(seqs, maps):
        for k in seq.base_type.index_set:
            for w in enumerate_walls(seq.wall_type, k, 3):
                fmap.terms(w)
    walls._column.cache_clear()
    gc.collect()
    met = 0
    for seq, fmap in zip(seqs, maps):
        fresh = WallFormMap(seq)
        for k in seq.base_type.index_set:
            for w in enumerate_walls(seq.wall_type, k, 6):
                assert fmap.terms(w) == fresh.terms(w), wall_literal(w)
                met += 1
    assert met == 254
