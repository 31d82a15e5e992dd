import io
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from wallcrystal.affine_data import (
    _ROWS, AffineType, Family, HalfInt, cartan_entry, index_class,
    langlands_dual, parse_type,
)
from wallcrystal.adapted_sequence import DoubleIndex as D, from_permutation
from wallcrystal.linear_forms import (
    DominantWeight, LinearForm, _forms, beta, closure, lambda_form,
    parse_form, support_bound, x,
)
from wallcrystal.walls import (
    Site, Wall, WallPair, apply, enumerate_walls, ground_state, move_entries,
    parse_wall, search_walls, sites, transitions, wall_literal,
)
from wallcrystal.wall_forms import (
    HostMismatch, NotStabilized, OutOfRange, WallFormMap, _beside_cells,
    box_form, comb_infinity, comb_lambda, epsilon_star, site_form, wall_form,
)
from wallcrystal.zcrystal import ZElement, check_in_binf, generate


def ex1_seq():
    return from_permutation(AffineType(Family.D2, 3), (3, 2, 1))


def ex2_seq():
    return from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1))


SETTINGS = [
    (AffineType(Family.D2, 3), (3, 2, 1)),
    (AffineType(Family.C1, 3), (3, 2, 1)),
    (AffineType(Family.B1, 4), (2, 4, 3, 1)),
    (AffineType(Family.A2ODD, 4), (2, 4, 3, 1)),
    (AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1)),
]


# --- site and wall forms ---------------------------------------------


def test_site_form_pair_wall_first_steps():
    seq = ex1_seq()
    y1 = parse_wall("ground=pair:C1:k=1;sup=[1];cov=[1]", 3)
    by_host = {st.host: st for st in sites(y1)}
    sup = site_form(seq, 1, 1, by_host["supporting"])
    assert sup.coordinate == D(2, 2)
    assert sup.direction == 1 and sup.weight == 1
    cov = site_form(seq, 1, 1, by_host["covering"])
    assert cov.coordinate == D(2, 2)
    pair = site_form(seq, 1, 1, by_host["pair"])
    assert pair.coordinate == D(2, 1)
    assert pair.direction == -1


def test_site_form_double_slot_weight():
    seq = ex2_seq()
    y1 = parse_wall("ground=pair:B1:k=3;sup=[1];cov=[1]", 4)
    doubles = [st for st in sites(y1) if st.grade == "double"]
    assert len(doubles) == 1
    sf = site_form(seq, 1, 3, doubles[0])
    assert sf.coordinate == D(2, 4)
    assert sf.weight == 2 and sf.direction == 1


def test_site_form_host_mismatch():
    seq = ex1_seq()
    bad = Site("add", "single", 2, 0, HalfInt.of(2), HalfInt.of(2), "wall")
    with pytest.raises(HostMismatch):
        site_form(seq, 1, 1, bad)


def test_wall_form_printed_values_first_setting():
    seq = ex1_seq()
    g = ground_state(seq.wall_type, 1)
    for s in (1, 2, 5):
        assert wall_form(seq, s, 1, g) == x(s, 1)
    cases = {
        "ground=pair:C1:k=1;sup=[1];cov=[1]": "2 x[{a},2] - x[{a},1]",
        "ground=pair:C1:k=1;sup=[2];cov=[1]": "x[{a},2] + x[{b},3] - x[{b},2]",
        "ground=pair:C1:k=1;sup=[2];cov=[2]": "x[{a},1] + 2 x[{b},3] - 2 x[{b},2]",
        "ground=pair:C1:k=1;sup=[3];cov=[2]": "x[{a},1] + x[{b},3] - x[{c},3]",
    }
    for literal, pattern in cases.items():
        w = parse_wall(literal, 3)
        for s in (1, 3):
            want = parse_form(pattern.format(a=s + 1, b=s + 2, c=s + 3))
            assert wall_form(seq, s, 1, w) == want


def test_wall_form_printed_values_second_setting():
    seq = ex2_seq()
    g = ground_state(seq.wall_type, 3)
    assert wall_form(seq, 2, 3, g) == x(2, 3)
    cases = {
        "ground=pair:B1:k=3;sup=[1];cov=[1]":
            "2 x[{a},4] + x[{s},1] + x[{a},2] - x[{a},3]",
        "ground=pair:B1:k=3;sup=[2];cov=[1]":
            "x[{a},4] + x[{s},1] + x[{a},2] - x[{b},4]",
        "ground=pair:B1:k=3;sup=[1];cov=[2f]":
            "2 x[{a},4] + x[{a},2] - x[{a},1]",
        "ground=pair:B1:k=3;sup=[2];cov=[2f]":
            "x[{a},4] + x[{a},3] + x[{a},2] - x[{a},1] - x[{b},4]",
    }
    for literal, pattern in cases.items():
        w = parse_wall(literal, 4)
        for s in (1, 2):
            want = parse_form(pattern.format(s=s, a=s + 1, b=s + 2))
            assert wall_form(seq, s, 3, w) == want


def test_wall_form_reads_the_colour_from_the_wall():
    # one map serves walls of every colour, each read by its own colour;
    # a colour the wall does not have is refused, not formed
    seq = ex1_seq()
    w = parse_wall("ground=pair:C1:k=1;sup=[1];cov=[1]", 3)
    with pytest.raises(ValueError, match="colour 3 given for a wall of colour 1"):
        wall_form(seq, 1, 3, w)
    fmap = WallFormMap(seq)
    for v in (w, ground_state(seq.wall_type, 3), w):
        assert fmap.form(fmap.terms(v), 1) == wall_form(seq, 1, v.k, v)
    assert fmap.form(fmap.terms(w), 1) == parse_form("2 x[2,2] - x[2,1]")


@pytest.mark.parametrize("g,order", SETTINGS)
def test_site_form_index_lower_bounds(g, order):
    # admissible coordinates sit at index >= s, removable ones at >= s+1
    seq = from_permutation(g, order)
    X = seq.wall_type
    for k in X.index_set:
        for w in enumerate_walls(X, k, 4):
            for st in sites(w):
                sf = site_form(seq, 2, k, st)
                if sf.direction == 1:
                    assert sf.coordinate.s >= 2
                else:
                    assert sf.coordinate.s >= 3


@pytest.mark.parametrize("g,order", SETTINGS)
def test_adding_a_block_subtracts_beta(g, order):
    # every admissible slot with positive coordinate index: filling it
    # lowers the wall form by beta there, twice for double slots
    seq = from_permutation(g, order)
    X = seq.wall_type
    for s in (0, 1, 4):
        for k in X.index_set:
            for w in enumerate_walls(X, k, 4):
                base = wall_form(seq, s, k, w)
                for st, nxt in transitions(w):
                    if st.action != "add":
                        continue
                    sf = site_form(seq, s, k, st)
                    if sf.coordinate.s < 1:
                        continue
                    b = beta(seq, sf.coordinate)
                    want = b + b if sf.weight == 2 else b
                    assert base - wall_form(seq, s, k, nxt) == want


# --- COMB[infinity] ---------------------------------------------------


def fam_ex1(s):
    return {x(s, 1),
            parse_form(f"2 x[{s+1},2] - x[{s+1},1]"),
            parse_form(f"x[{s+1},2] + x[{s+2},3] - x[{s+2},2]"),
            parse_form(f"x[{s+1},1] + 2 x[{s+2},3] - 2 x[{s+2},2]"),
            parse_form(f"x[{s+1},1] + x[{s+2},3] - x[{s+3},3]")}


def fam_ex2(s):
    return {x(s, 3),
            parse_form(f"2 x[{s+1},4] + x[{s},1] + x[{s+1},2] - x[{s+1},3]"),
            parse_form(f"x[{s+1},4] + x[{s},1] + x[{s+1},2] - x[{s+2},4]"),
            parse_form(f"2 x[{s+1},4] + x[{s+1},2] - x[{s+1},1]"),
            parse_form(f"x[{s+1},4] + x[{s+1},3] + x[{s+1},2] - x[{s+1},1] - x[{s+2},4]")}


def test_comb_infinity_contains_first_family():
    seq = ex1_seq()
    got = comb_infinity(seq, 2, k=1, budget=6)
    for s in (1, 2):
        assert fam_ex1(s) <= got.forms
    assert all(phi in got for phi in fam_ex1(1))


def test_comb_infinity_contains_second_family():
    seq = ex2_seq()
    got = comb_infinity(seq, 1, k=3, budget=6)
    assert fam_ex2(1) <= got.forms


def test_comb_infinity_ground_only():
    seq = ex1_seq()
    got = comb_infinity(seq, 2, budget=0)
    assert got.forms == frozenset(x(s, k) for s in (1, 2) for k in (1, 2, 3))


def test_comb_infinity_rejects_a_window_below_one():
    seq = ex1_seq()
    for W in (0, -5):
        with pytest.raises(ValueError, match=f"support_max {W} is below 1"):
            comb_infinity(seq, 2, support_max=W)


@pytest.mark.parametrize("s_max,cuts,message", [
    (2, dict(budget=4, support_max=6), "exactly one of budget and support_max"),
    (2, {}, "exactly one of budget and support_max"),
    (2, dict(budget=-1), "budget -1 is negative"),
    (0, dict(budget=4), "s_max 0 is below 1"),
    (0, dict(support_max=6), "s_max 0 is below 1"),
], ids=["both cuts", "no cut", "negative budget", "s_max 0, budget",
        "s_max 0, window"])
def test_comb_infinity_takes_exactly_one_cut(s_max, cuts, message):
    with pytest.raises(ValueError, match=message):
        comb_infinity(ex1_seq(), s_max, **cuts)


def test_comb_infinity_provenance_and_export():
    seq = ex1_seq()
    got = comb_infinity(seq, 1, k=1, budget=2)
    doc = got.to_json_doc()
    assert list(doc)[:3] == ["type", "rank", "order"]
    assert doc["type"] == "D2" and doc["rank"] == 3 and doc["order"] == [3, 2, 1]
    assert doc["k"] == 1
    for entry in doc["forms"]:
        assert set(entry) == {"constant", "terms", "provenance"}
        assert entry["provenance"].startswith("L[")
    assert json.loads(got.to_json()) == doc
    lines = got.to_text().splitlines()
    assert lines == sorted(lines)
    assert len(lines) == len(got)


def test_comb_infinity_windowed_matches_closure():
    # the stabilized windowed family equals the certified operator closure
    seq = ex1_seq()
    cap = 9
    cert, _ = closure(seq, [x(1, 1)], 9)
    got = comb_infinity(seq, 1, k=1, support_max=cap)
    assert set(got.forms) == {f for f in _forms(seq, cert)
                              if support_bound(seq, f) <= cap}


def test_a1_windowed_matches_closure():
    seq = from_permutation(AffineType(Family.A1, 3), (3, 1, 2))
    for k in (1, 3):
        cert, _ = closure(seq, [x(1, k)], 9)
        got = comb_infinity(seq, 1, k=k, support_max=9)
        assert set(got.forms) == {f for f in _forms(seq, cert)
                                  if support_bound(seq, f) <= 9}


def reference_windowed(seq, s_max, block_max, k, support_max):
    """The support_max grow loop spelled out: re-enumerate and re-form every
    wall at every budget, window, and stop after a step that adds nothing."""
    def windowed(budget):
        out = set()
        for w in enumerate_walls(seq.wall_type, k, budget):
            for s in range(1, s_max + 1):
                phi = wall_form(seq, s, k, w)
                if all(seq.single_index(d) <= support_max for d in phi.support):
                    out.add(phi)
        return out

    budget = max(block_max, 1)
    current = windowed(budget)
    while True:
        budget += seq.n
        grown = windowed(budget)
        if grown == current:
            return current
        current = grown
        assert budget <= 20 * seq.n


@pytest.mark.parametrize("g,order", SETTINGS)
def test_windowed_grow_loop_matches_reference(g, order):
    seq = from_permutation(g, order)
    for k in seq.base_type.index_set:
        got = comb_infinity(seq, 2, k=k, support_max=2 * seq.n)
        assert got.forms == reference_windowed(seq, 2, 2, k, 2 * seq.n), k


@pytest.mark.parametrize("g,order", SETTINGS)
def test_windowed_provenance_reproduces_each_form(g, order):
    # every provenance L[s,k](literal) names a wall whose form is the form
    seq = from_permutation(g, order)
    for k in seq.base_type.index_set:
        got = comb_infinity(seq, 2, k=k, support_max=2 * seq.n)
        for phi in got:
            m = re.fullmatch(r"L\[(\d+),(\d+)\]\((.*)\)", got.provenance[phi])
            s, kk, w = int(m.group(1)), int(m.group(2)), parse_wall(m.group(3), seq.n)
            assert kk == k and 1 <= s <= 2
            assert wall_form(seq, s, k, w) == phi


def _shared_terms_are_fresh(seq):
    """The shared map's terms equal a fresh map's on every wall of
    `walls enum --blocks 4`, for each colour."""
    shared, fresh = WallFormMap.of(seq), WallFormMap(seq)
    for k in seq.base_type.index_set:
        for w in enumerate_walls(seq.wall_type, k, 4):
            assert shared.terms(w) == fresh.terms(w), (k, wall_literal(w))


@pytest.mark.parametrize("g,order", SETTINGS, ids=lambda v: str(v))
def test_shared_map_gives_fresh_terms(g, order):
    from wallcrystal import adapted_sequence
    from wallcrystal.cli import main

    config = ["--type", g.family.value, "--rank", str(g.n),
              "--order", ",".join(map(str, order))]

    def commands():
        # each fills the shared map its own way: a window, a budget, the
        # props walk over successors, and the epsilon-star budget loop
        for command, options in (
                (["verify", "closure"], ["--periods", "4"]),
                (["ineq", "binf"], ["--blocks", "3"]),
                (["ineq", "blam"], ["--k", "1", "--lambda", ",".join("0" * g.n)]),
                (["verify", "props"], ["--blocks", "2"]),
                (["epsstar"], ["--k", "1", "--elem", "a[1,1]=2"])):
            assert main(command + config + options, out=io.StringIO()) == 0

    seq = from_permutation(g, order)
    commands()
    assert WallFormMap.of(seq)._members
    _shared_terms_are_fresh(seq)
    # evicted by more distinct sequences than the bound, then rebuilt
    other = AffineType(Family.D1, 6)
    for perm in itertools.islice(itertools.permutations(range(1, 7)),
                                 adapted_sequence._SEQUENCES):
        from_permutation(other, perm)
    again = from_permutation(g, order)
    assert again is not seq and not WallFormMap.of(again)._members
    commands()
    _shared_terms_are_fresh(again)


def test_grow_loop_forms_each_wall_once(monkeypatch):
    # the windowed search forms every pair it visits (each colour of D2
    # is class 2), but builds each member's views and entries once per
    # map, so a pair reuses the members earlier pairs built, and fewer
    # members are built than pairs visited
    import wallcrystal.wall_forms as wall_forms

    built, visited = [], []
    member = wall_forms.member_entries
    walk = wall_forms.search_walls

    def counted(w):
        built.append((w.ground, w.states))
        return member(w)

    def walked(X, k, keep):
        def keep_counted(w, atoms):
            visited.append(w)
            return keep(w, atoms)
        walk(X, k, keep_counted)

    monkeypatch.setattr(wall_forms, "member_entries", counted)
    monkeypatch.setattr(wall_forms, "search_walls", walked)
    seq = ex1_seq()
    for k in seq.base_type.index_set:
        built.clear()
        visited.clear()
        comb_infinity(seq, 2, k=k, support_max=4 * seq.n)
        assert len(built) == len(set(built)), k
        assert all(isinstance(w, WallPair) for w in visited), k
        assert {(m.ground, m.states) for w in visited
                for m in (w.supporting, w.covering)} == set(built), k
        assert len(built) < len(visited), k


# --- the column-state tree the windowed search walks ------------------

TREE_BLOCKS = 8

# the wall types of tests/test_site_kernel.py
TREE_TYPES = [
    AffineType(Family.A1, 3), AffineType(Family.C1, 3),
    AffineType(Family.D2, 3), AffineType(Family.B1, 4),
    AffineType(Family.A2ODD, 4), AffineType(Family.D1, 6),
    AffineType(Family.A2EVEN, 3), AffineType(Family.A2EVEN_DAGGER, 3),
]


@pytest.mark.parametrize("X", TREE_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_walls_of_no_and_one_added_atom(X):
    # comb_lambda skips the ground and, for a fork colour (class 1), the
    # one-block wall by their added atoms: the ground is the only wall of
    # none, and a class-1 colour has one wall of one, the ground with its
    # lowest column-0 block added
    for k in X.index_set:
        g = ground_state(X, k)
        by_atoms = {}
        for w in enumerate_walls(X, k, 1):
            by_atoms.setdefault(w.atoms, []).append(w)
        assert by_atoms[0] == [g], k
        if index_class(X, k) == 1:
            first = [s for s in sites(g) if s.action == "add" and s.column == 0]
            lowest = min(s.level for s in first)
            (site,) = [s for s in first if s.level == lowest]
            assert by_atoms[1] == [apply(g, site)], k


def _tree_parent(w):
    """The node one column shorter; a pair drops a column of both members."""
    if isinstance(w, WallPair):
        return WallPair(_tree_parent(w.supporting), _tree_parent(w.covering))
    return Wall(w.wall_type, w.k, w.ground, w.states[:-1])


@pytest.mark.parametrize("X", TREE_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_column_state_tree_support_bound_never_drops(X):
    # a wall's children fix one more column (of both members, for a pair);
    # along every edge the largest support index of L_{1,k} never drops,
    # and among one node's children, grouped by added atoms, the least
    # bound of each group is at least the least bound of the group before
    # it: so a cut node cuts its subtree, and a wholly cut group every
    # later group
    g = langlands_dual(X)
    seq = from_permutation(g, tuple(range(g.n, 0, -1)))
    for k in X.index_set:
        root = ground_state(X, k)
        walls = list(enumerate_walls(X, k, TREE_BLOCKS))
        bound = {w: support_bound(seq, wall_form(seq, 1, k, w)) for w in walls}
        children = {}
        for w in walls:
            if w == root:
                continue
            p = _tree_parent(w)
            assert bound[w] >= bound[p], (wall_literal(p), wall_literal(w))
            children.setdefault(p, {}).setdefault(
                w.atoms - p.atoms, []).append(bound[w])
        # every child group is complete: the budget holds the whole group
        for p, by_cost in children.items():
            least = [min(by_cost[c]) for c in sorted(by_cost)]
            assert least == sorted(least), (k, wall_literal(p), least)


@pytest.mark.parametrize("X", TREE_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_member_terms_equal_the_entry_sum_in_search_order(X):
    # one map meets every wall in the search's order, so a pair's members
    # are mostly kept from earlier pairs; its terms must still be the sum
    # of its move-table entries' pairs, zeros dropped, by r
    g = langlands_dual(X)
    seq = from_permutation(g, tuple(range(g.n, 0, -1)))
    fmap = WallFormMap(seq)
    for k in X.index_set:
        met = []

        def keep(w, atoms):
            if atoms > TREE_BLOCKS:
                return False
            acc = {}
            for entry in move_entries(w):
                fmap._add_entries(k, [entry], acc)
            want = tuple(sorted(it for it in acc.items() if it[1]))
            assert fmap.terms(w) == want, wall_literal(w)
            met.append(w)
            return True

        search_walls(X, k, keep)
        assert len(met) > 1, k


# the windows of the lattice_cut settings on which the wall families are
# checked against the closure: (type, rank, order, W)
CUT_WINDOWS = [("C1", 3, (3, 2, 1), 14), ("A2odd", 4, (2, 4, 3, 1), 18),
               ("D2", 3, (3, 2, 1), 15)]


@pytest.mark.parametrize("name,rank,order,W", CUT_WINDOWS,
                         ids=[f"{c[0]} W={c[3]}" for c in CUT_WINDOWS])
def test_every_colour_within_a_window_equals_the_closure(name, rank, order, W):
    # the forms of every colour's walls supported within W, s up to one
    # period past W, are the S' closure of the x(s, k) certified on W
    seq = from_permutation(parse_type(name, rank), order)
    s_max = W // seq.n + 1
    walls = comb_infinity(seq, s_max, support_max=W)
    seeds = [x(s, k) for s in range(1, s_max + 1)
             for k in seq.base_type.index_set]
    cert, _ = closure(seq, seeds, W)
    assert walls.forms == _forms(seq, cert)


# a budget per setting well past the deepest wall whose forms lie in the
# window 3n, for which every wall up to the budget is formed
FIXED_BUDGET = {Family.D2: 20, Family.C1: 20, Family.B1: 22,
                Family.A2ODD: 18, Family.D1: 23}


@pytest.mark.parametrize("g,order", SETTINGS)
def test_windowed_forms_equal_all_forms_at_a_fixed_budget(g, order):
    seq = from_permutation(g, order)
    budget = FIXED_BUDGET[g.family]
    windows = (2 * seq.n, 3 * seq.n)
    for k in seq.base_type.index_set:
        within = {W: set() for W in windows}
        for w in enumerate_walls(seq.wall_type, k, budget):
            for s in (1, 2):
                phi = wall_form(seq, s, k, w)
                bound = support_bound(seq, phi)
                if bound > windows[-1]:
                    break  # L_{2,k} reaches a period past L_{1,k}
                for W in windows:
                    if bound <= W:
                        within[W].add(phi)
        for W in windows:
            got = comb_infinity(seq, 2, k=k, support_max=W)
            assert got.forms == within[W], (k, W)
            deepest = max(
                parse_wall(re.fullmatch(r"L\[\d+,\d+\]\((.*)\)", p).group(1),
                           seq.n).atoms
                for p in got.provenance.values())
            assert deepest + seq.n <= budget, (k, W, deepest)


@pytest.mark.parametrize("g,order", SETTINGS)
def test_block_and_window_modes_give_one_provenance(g, order, monkeypatch):
    # both modes cut one depth-first walk, so a form both keep has one
    # first witness whenever the window's witness is within the budget;
    # and the atoms the walk hands to keep are the wall's added atoms
    import wallcrystal.wall_forms as wall_forms

    walk = wall_forms.search_walls

    def checked(X, k, keep):
        def keep_checked(w, atoms):
            assert atoms == w.atoms, wall_literal(w)
            return keep(w, atoms)
        walk(X, k, keep_checked)

    monkeypatch.setattr(wall_forms, "search_walls", checked)
    seq = from_permutation(g, order)
    budget = 8
    for k in seq.base_type.index_set:
        blocks = comb_infinity(seq, 3, k=k, budget=budget)
        window = comb_infinity(seq, 3, k=k, support_max=3 * seq.n)
        shared = 0
        for phi in blocks.forms & window.forms:
            witness = window.provenance[phi]
            literal = re.fullmatch(r"L\[\d+,\d+\]\((.*)\)", witness).group(1)
            if parse_wall(literal, seq.n).atoms <= budget:
                shared += 1
                assert blocks.provenance[phi] == witness, (k, witness)
        assert shared > 0, k


# --- box forms --------------------------------------------------------


def test_box_values_first_setting():
    seq = ex1_seq()
    assert box_form(seq, 2, 3) == parse_form("x[1,3] - x[1,2]")
    assert box_form(seq, 2, 4) == parse_form("x[1,2] - x[2,3]")
    assert box_form(seq, 2, 5) == parse_form("x[1,1] - x[2,2]")
    assert box_form(seq, 2, 6) == parse_form("x[2,2] - x[2,1]")


def test_box_out_of_range():
    seq = ex1_seq()
    with pytest.raises(OutOfRange):
        box_form(seq, 2, 2)  # plain boxes start above the baseline
    with pytest.raises(OutOfRange):
        box_form(seq, 2, 4, "half")  # no half-height colours here
    with pytest.raises(OutOfRange):
        box_form(seq, 2, 4, "upside")


def test_plain_box_leading_term_positive():
    from wallcrystal.affine_data import next_domain_point, periodic_map, thresholds

    for g, order in SETTINGS:
        seq = from_permutation(g, order)
        X = seq.wall_type
        _, tbar, tbarbar = thresholds(X, 2)
        for ell in (tbar, tbarbar):
            P = seq.shift_table(ell)
            r = HalfInt.of(ell)
            for _ in range(6):
                r = next_domain_point(X, r)
                if r < HalfInt.of(ell) + 1:
                    continue
                phi = box_form(seq, ell, r)
                if P(r) >= 1:
                    assert phi.coeff(D(P(r), periodic_map(X, r))) >= 1


# --- COMB[lambda] -----------------------------------------------------


def test_comb_lambda_first_setting_all_colours():
    seq = ex1_seq()
    lam = DominantWeight((1, 1, 1))
    c3 = comb_lambda(seq, 3, lam, 4)
    assert set(c3.forms) == {parse_form("- x[1,3] + 1")}
    c2 = comb_lambda(seq, 2, lam, 4)
    assert set(c2.forms) == {
        parse_form("x[1,3] - x[1,2] + 1"), parse_form("x[1,2] - x[2,3] + 1"),
        parse_form("x[1,1] - x[2,2] + 1"), parse_form("x[2,2] - x[2,1] + 1")}
    c1 = comb_lambda(seq, 1, lam, 6)
    for text in ["2 x[1,2] - x[1,1] + 1", "x[1,2] + x[2,3] - x[2,2] + 1",
                 "x[1,1] + 2 x[2,3] - 2 x[2,2] + 1",
                 "x[1,1] + x[2,3] - x[3,3] + 1"]:
        assert parse_form(text) in c1
    assert parse_form("x[1,1] + 1") not in c1  # the ground wall is excluded


def test_comb_lambda_second_setting_all_colours():
    seq = ex2_seq()
    lam = DominantWeight((1, 1, 1, 1))
    assert set(comb_lambda(seq, 2, lam, 4).forms) == {parse_form("- x[1,2] + 1")}
    assert set(comb_lambda(seq, 4, lam, 4).forms) == {parse_form("- x[1,4] + 1")}
    c1 = comb_lambda(seq, 1, lam, 6)
    for text in ["x[1,3] - x[1,1] + 1", "x[2,2] + 2 x[2,4] - x[2,3] + 1",
                 "2 x[2,4] - x[3,2] + 1",
                 "x[2,4] + x[2,3] - x[3,2] - x[3,4] + 1"]:
        assert parse_form(text) in c1
    c3 = comb_lambda(seq, 3, lam, 6)
    for text in ["x[1,2] + 2 x[1,4] - x[1,3] + 1", "2 x[1,4] - x[2,2] + 1",
                 "x[1,4] + x[1,3] - x[2,2] - x[2,4] + 1"]:
        assert parse_form(text) in c3


def test_comb_lambda_zero_weight_zero_constants():
    seq = ex1_seq()
    lam = DominantWeight.zero(3)
    for k in (1, 2, 3):
        assert all(phi.constant == 0 for phi in comb_lambda(seq, k, lam, 4))


def test_comb_lambda_matches_operator_closure():
    # the closure of the seed lambda form reproduces the family plus zero
    seq = ex1_seq()
    lam = DominantWeight((1, 1, 1))
    for k, budget in [(2, 12), (3, 12), (1, 18)]:
        seed = lambda_form(seq, k, lam)
        cert, _ = closure(seq, [seed], 9, lam=lam)
        comb = comb_lambda(seq, k, lam, budget)
        windowed = {f for f in comb.forms if support_bound(seq, f) <= 9}
        windowed.add(LinearForm(0, {}))
        assert {f for f in _forms(seq, cert) if support_bound(seq, f) <= 9} == windowed


def test_comb_lambda_rejects_bad_input():
    # a negative budget, a colour outside 1..n and a weight of the wrong
    # rank each raise one ValueError, whatever the colour's case
    seq = ex1_seq()
    lam = DominantWeight((1, 1, 1))
    for k in (1, 2, 3):
        with pytest.raises(ValueError, match="budget -1 is negative"):
            comb_lambda(seq, k, lam, -1)
        with pytest.raises(ValueError, match="lambda has 2 entries, not 3"):
            comb_lambda(seq, k, DominantWeight((1, 1)), 4)
    for k in (0, 4):
        with pytest.raises(ValueError, match=f"colour {k} is not in"):
            comb_lambda(seq, k, lam, 4)


EVERY_TYPE = [AffineType(family, n) for family in Family
              for n in range(_ROWS[family].min_rank, 10)]


@pytest.mark.parametrize("X", EVERY_TYPE, ids=str)
def test_cells_beside_tbar_are_neighbours_and_split_only_next_to_a_fork(X):
    # comb_lambda decides colour k by the two cells beside T-bar_k's
    # cell.  Their colours are Cartan neighbours of k; a cell of two
    # colours holds {1, 2} or {n-1, n} and lies beside colour 3 or n-2
    # of B1, A2odd and D1; both cells hold two colours only for colour 3
    # of D1 at rank 5
    n = X.n
    split_at = {Family.B1: {3}, Family.A2ODD: {3},
                Family.D1: {3, n - 2}}.get(X.family, set())
    for k in X.index_set:
        cells = _beside_cells(X, k)
        assert all(cartan_entry(X, k, c) < 0 for cell in cells for c in cell), k
        split = [cell for cell in cells if len(cell) == 2]
        assert all(cell in ({1, 2}, {n - 1, n}) for cell in split), k
        assert bool(split) == (k in split_at), k
        assert (len(split) == 2) == (X == AffineType(Family.D1, 5) and k == 3), k


def test_comb_lambda_d1_middle_rank():
    seq = from_permutation(AffineType(Family.D1, 5), (1, 2, 3, 4, 5))
    lam = DominantWeight((1, 0, 2, 0, 1))
    got = comb_lambda(seq, 3, lam, 3)
    # two colours sit below (1,3): the four-form chains over both fork pairs
    assert len(got) > 4
    for phi in got:
        assert phi.constant == 2


# --- epsilon star -----------------------------------------------------


def _wall_formula(seq, k, a, budget=6):
    """max(0, -phi(a)) over COMB_k[0] at a fixed budget, for any vector a."""
    forms = comb_lambda(seq, k, DominantWeight.zero(seq.n), budget).forms
    return max([0] + [-phi.evaluate(a) for phi in forms])


def _printed(a):
    """Criterion 4's formulas for colours 3 and 2 of D2 rank 3, order 3,2,1."""
    g = lambda s, k: a.get(D(s, k), 0)
    return g(1, 3), max(g(1, 2) - g(1, 3), g(2, 3) - g(1, 2),
                        g(2, 2) - g(1, 1), g(2, 1) - g(2, 2), 0)


def test_epsilon_star_printed_formulas():
    # the wall formula matches the printed formulas on arbitrary vectors,
    # most of them outside B(infinity), where epsilon_star is not defined
    seq = ex1_seq()
    rng = random.Random(11)
    cap = seq.single_index(D(2, 1))
    for _ in range(40):
        a = {}
        for m in (1, 2):
            for j in (1, 2, 3):
                if seq.single_index(D(m, j)) <= cap:
                    a[D(m, j)] = rng.randint(0, 4)
        assert (_wall_formula(seq, 3, a), _wall_formula(seq, 2, a)) == _printed(a)
    # and epsilon_star matches them on members of B(infinity)
    members = sorted((b for b in generate(seq, 7)
                      if all(r <= cap for r in b.support)), key=lambda b: b.items())
    for b in rng.sample(members, 40):
        a = b.as_double(seq)
        assert (epsilon_star(seq, 3, b), epsilon_star(seq, 2, b)) == _printed(a)


def test_epsilon_star_zero_vector():
    seq = ex1_seq()
    for k in (1, 2, 3):
        assert epsilon_star(seq, k, ZElement()) == 0


def test_epsilon_star_budget_cap(monkeypatch):
    # the chart gives 1 and the formula reaches it; with the chart raised
    # to 2 the formula stays at 1 up to the cap 2|a| = 2, then gives up
    import wallcrystal.wall_forms as wall_forms

    seq = ex1_seq()
    a = ZElement({seq.single_index(D(1, 1)): 1})
    assert epsilon_star(seq, 1, a) == 1
    real = wall_forms.star_length
    monkeypatch.setattr(wall_forms, "star_length",
                        lambda seq, k, a: real(seq, k, a) + 1)
    with pytest.raises(NotStabilized, match="gives 1 at budget 2, the chart 2"):
        epsilon_star(seq, 1, a)


def test_epsilon_star_rejects_non_members():
    seq = ex1_seq()
    for k, a in ((3, {D(2, 3): 1}), (2, {D(2, 1): 1}), (1, {D(1, 1): -1})):
        a = ZElement({seq.single_index(d): v for d, v in a.items()})
        with pytest.raises(ValueError, match="not in B\\(infinity\\)"):
            epsilon_star(seq, k, a)


@st.composite
def supported_vectors(draw):
    seq = ex1_seq()
    a = {}
    for _ in range(draw(st.integers(0, 5))):
        d = D(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
        a[d] = draw(st.integers(0, 3))
    return a


@given(a=supported_vectors())
@settings(max_examples=30, deadline=None)
def test_epsilon_star_nonnegative(a):
    # on B(infinity) the value is nonnegative and at least the wall
    # formula at a fixed budget; off it, epsilon_star raises ValueError
    seq = ex1_seq()
    elem = ZElement({seq.single_index(d): v for d, v in a.items()})
    try:
        check_in_binf(seq, elem)
    except ValueError:
        for k in (2, 3):
            with pytest.raises(ValueError, match="not in B"):
                epsilon_star(seq, k, elem)
        return
    for k in (2, 3):
        assert epsilon_star(seq, k, elem) >= _wall_formula(seq, k, a) >= 0
