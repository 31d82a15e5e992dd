"""End-to-end acceptance checks.  Each test prints a single pass/fail
line for its criterion, and the timed ones enforce their wall-clock
budget."""

import random
import time
from contextlib import contextmanager

from wallcrystal.affine_data import AffineType, Family, HalfInt, cartan_entry
from wallcrystal.adapted_sequence import DoubleIndex as D, from_permutation
from wallcrystal.linear_forms import (
    DominantWeight, _forms, closure, beta, lambda_form, parse_form,
    positivity_report, render_form, support_bound, x,
)
from wallcrystal.walls import enumerate_walls, ground_state, parse_wall, transitions
from wallcrystal.wall_forms import (
    box_form, comb_infinity, comb_lambda, epsilon_star, site_form, wall_form,
)
from wallcrystal.zcrystal import (
    ZElement, e_tilde, epsilon, f_tilde, generate, phi, verify_equivalence,
    wt_pairing,
)


SETTINGS = [
    ("D2 rank 3", AffineType(Family.D2, 3), (3, 2, 1), (1, 1, 1)),
    ("C1 rank 3", AffineType(Family.C1, 3), (3, 2, 1), (2, 0, 1)),
    ("B1 rank 4", AffineType(Family.B1, 4), (2, 4, 3, 1), (1, 0, 1, 2)),
    ("A2odd rank 4", AffineType(Family.A2ODD, 4), (2, 4, 3, 1), (0, 1, 1, 0)),
    ("D1 rank 6", AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1),
     (1, 0, 0, 1, 0, 1)),
]

# smallest block budgets whose windowed wall image fills the certified
# closure window of three periods
WALL_BUDGETS = {
    "D2 rank 3": {1: 9, 2: 12, 3: 15},
    "C1 rank 3": {1: 9, 2: 15, 3: 9},
    "B1 rank 4": {1: 12, 2: 12, 3: 12, 4: 16},
    "A2odd rank 4": {1: 12, 2: 12, 3: 12, 4: 12},
    "D1 rank 6": {1: 18, 2: 18, 3: 18, 4: 18, 5: 18, 6: 18},
}


@contextmanager
def criterion(capsys, num, label):
    start = time.monotonic()
    try:
        yield start
    except BaseException:
        with capsys.disabled():
            print(f"criterion {num} ({label}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {num} ({label}): PASS")


def ex1_seq():
    return from_permutation(AffineType(Family.D2, 3), (3, 2, 1))


def ex2_seq():
    return from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1))


FAM1_WALLS = [
    None,  # ground
    "ground=pair:C1:k=1;sup=[1];cov=[1]",
    "ground=pair:C1:k=1;sup=[2];cov=[1]",
    "ground=pair:C1:k=1;sup=[2];cov=[2]",
    "ground=pair:C1:k=1;sup=[3];cov=[2]",
]
FAM1 = [
    "x[{s},1]",
    "2 x[{a},2] - x[{a},1]",
    "x[{a},2] + x[{b},3] - x[{b},2]",
    "x[{a},1] + 2 x[{b},3] - 2 x[{b},2]",
    "x[{a},1] + x[{b},3] - x[{c},3]",
]

FAM2_WALLS = [
    None,
    "ground=pair:B1:k=3;sup=[1];cov=[1]",
    "ground=pair:B1:k=3;sup=[2];cov=[1]",
    "ground=pair:B1:k=3;sup=[1];cov=[2f]",
    "ground=pair:B1:k=3;sup=[2];cov=[2f]",
]
FAM2 = [
    "x[{s},3]",
    "2 x[{a},4] + x[{s},1] + x[{a},2] - x[{a},3]",
    "x[{a},4] + x[{s},1] + x[{a},2] - x[{b},4]",
    "2 x[{a},4] + x[{a},2] - x[{a},1]",
    "x[{a},4] + x[{a},3] + x[{a},2] - x[{a},1] - x[{b},4]",
]


def _golden_family(capsys, num, label, seq, k, wall_lits, patterns):
    with criterion(capsys, num, label) as start:
        walls = [ground_state(seq.wall_type, k) if lit is None
                 else parse_wall(lit, seq.n) for lit in wall_lits]
        produced = set()
        for s in (1, 2, 3):
            got = [render_form(wall_form(seq, s, k, w)) for w in walls]
            want = [render_form(parse_form(
                p.format(s=s, a=s + 1, b=s + 2, c=s + 3))) for p in patterns]
            assert got == want
            produced |= {parse_form(t) for t in got}
        system = comb_infinity(seq, 3, k=k, budget=6)
        assert produced <= system.forms
        assert time.monotonic() - start < 5.0


def test_criterion_1_first_golden_family(capsys):
    _golden_family(capsys, 1, "first-setting golden families",
                   ex1_seq(), 1, FAM1_WALLS, FAM1)


def test_criterion_2_second_golden_family(capsys):
    seq = ex2_seq()
    with criterion(capsys, 2, "second-setting golden families") as start:
        walls = [ground_state(seq.wall_type, 3) if lit is None
                 else parse_wall(lit, 4) for lit in FAM2_WALLS]
        produced = set()
        for s in (1, 2, 3):
            got = [render_form(wall_form(seq, s, 3, w)) for w in walls]
            want = [render_form(parse_form(p.format(s=s, a=s + 1, b=s + 2)))
                    for p in FAM2]
            assert got == want
            produced |= {parse_form(t) for t in got}
        assert produced <= comb_infinity(seq, 3, k=3, budget=6).forms
        # spot values of the shift tables at the two thresholds
        assert seq.shift_table(2)(HalfInt(11)) == 2
        assert seq.shift_table(4)(HalfInt.of(7)) == 2
        assert time.monotonic() - start < 5.0


def test_criterion_3_highest_weight_goldens(capsys):
    with criterion(capsys, 3, "highest-weight golden systems"):
        seq = ex1_seq()
        lam = DominantWeight((1, 1, 1))
        assert set(comb_lambda(seq, 3, lam, 4).forms) == \
            {parse_form("- x[1,3] + 1")}
        assert set(comb_lambda(seq, 2, lam, 4).forms) == {
            parse_form("x[1,3] - x[1,2] + 1"),
            parse_form("x[1,2] - x[2,3] + 1"),
            parse_form("x[1,1] - x[2,2] + 1"),
            parse_form("x[2,2] - x[2,1] + 1")}
        assert box_form(seq, 2, 3) == parse_form("x[1,3] - x[1,2]")
        assert box_form(seq, 2, 4) == parse_form("x[1,2] - x[2,3]")
        assert box_form(seq, 2, 5) == parse_form("x[1,1] - x[2,2]")
        c1 = comb_lambda(seq, 1, lam, 6)
        for text in ["2 x[1,2] - x[1,1] + 1",
                     "x[1,2] + x[2,3] - x[2,2] + 1",
                     "x[1,1] + 2 x[2,3] - 2 x[2,2] + 1",
                     "x[1,1] + x[2,3] - x[3,3] + 1"]:
            assert parse_form(text) in c1
        assert parse_form("x[1,1] + 1") not in c1

        seq = ex2_seq()
        lam = DominantWeight((1, 1, 1, 1))
        assert set(comb_lambda(seq, 2, lam, 4).forms) == \
            {parse_form("- x[1,2] + 1")}
        assert set(comb_lambda(seq, 4, lam, 4).forms) == \
            {parse_form("- x[1,4] + 1")}
        c1 = comb_lambda(seq, 1, lam, 6)
        # the wall family entering one period below the window edge
        for text in ["x[1,3] - x[1,1] + 1",
                     "x[2,2] + 2 x[2,4] - x[2,3] + 1",
                     "2 x[2,4] - x[3,2] + 1",
                     "x[2,4] + x[2,3] - x[3,2] - x[3,4] + 1"]:
            assert parse_form(text) in c1
        c3 = comb_lambda(seq, 3, lam, 6)
        for text in ["x[1,2] + 2 x[1,4] - x[1,3] + 1",
                     "2 x[1,4] - x[2,2] + 1",
                     "x[1,4] + x[1,3] - x[2,2] - x[2,4] + 1"]:
            assert parse_form(text) in c3


def test_criterion_4_star_string_lengths(capsys):
    with criterion(capsys, 4, "star string length formulas"):
        seq = ex1_seq()
        rng = random.Random(44)
        pool = sorted(generate(seq, 8), key=lambda e: e.items())
        for a in rng.sample(pool, 100):
            v = a.as_double(seq)
            assert epsilon_star(seq, 3, a) == v.get(D(1, 3), 0)
        cap = seq.single_index(D(2, 1))
        small = [a for a in pool if all(r <= cap for r in a.support)]
        assert len(small) >= 100
        for a in rng.sample(small, 100):
            v = a.as_double(seq)
            want = max(v.get(D(1, 2), 0) - v.get(D(1, 3), 0),
                       v.get(D(2, 3), 0) - v.get(D(1, 2), 0),
                       v.get(D(2, 2), 0) - v.get(D(1, 1), 0),
                       v.get(D(2, 1), 0) - v.get(D(2, 2), 0), 0)
            assert epsilon_star(seq, 2, a) == want


def test_criterion_5_block_addition_law(capsys):
    with criterion(capsys, 5, "block addition subtracts a root") as start:
        checked = 0
        for _, g, order, _ in SETTINGS:
            seq = from_permutation(g, order)
            X = seq.wall_type
            for s in (0, 1, 3):
                for k in X.index_set:
                    for w in enumerate_walls(X, k, 6):
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
                            checked += 1
        assert checked > 2000
        assert time.monotonic() - start < 60.0


def test_criterion_6_closure_equals_wall_image(capsys):
    with criterion(capsys, 6, "operator closure equals wall image"):
        for name, g, order, _ in SETTINGS:
            seq = from_permutation(g, order)
            X = seq.wall_type
            n = seq.n
            cutoff = 3 * n
            start = time.monotonic()
            for k in X.index_set:
                certs = {}
                for s in (1, 2):
                    cert, _ = closure(seq, [x(s, k)], cutoff)
                    certs[s] = {f for f in _forms(seq, cert)
                                if support_bound(seq, f) <= cutoff}
                images = {1: set(), 2: set()}
                for w in enumerate_walls(X, k, WALL_BUDGETS[name][k]):
                    for s in (1, 2):
                        f = wall_form(seq, s, k, w)
                        if support_bound(seq, f) <= cutoff:
                            images[s].add(f)
                for s in (1, 2):
                    assert images[s] == certs[s], (name, k, s)
            assert time.monotonic() - start < 60.0, name


def test_criterion_7_highest_weight_closure(capsys):
    with criterion(capsys, 7, "highest-weight closure equals system"):
        rng = random.Random(77)

        def check(seq, k, lam, budget=18):
            n = seq.n
            cutoff = 3 * n
            want = {f for f in comb_lambda(seq, k, lam, budget).forms
                    if support_bound(seq, f) <= cutoff}
            cert, _ = closure(seq, [lambda_form(seq, k, lam)], cutoff, lam=lam)
            got = {f for f in _forms(seq, cert)
                   if not f.is_zero() and support_bound(seq, f) <= cutoff}
            assert got == want, (seq.base_type, k, lam.values)

        for _, g, order, _ in SETTINGS:
            seq = from_permutation(g, order)
            rand = DominantWeight(tuple(rng.randint(0, 2)
                                        for _ in range(seq.n)))
            for lam in (DominantWeight.zero(seq.n), rand):
                for k in seq.base_type.index_set:
                    check(seq, k, lam)
        # the forked-tail chain generators in the even orthogonal middle
        seq = from_permutation(AffineType(Family.D1, 5), (1, 2, 3, 4, 5))
        for lam in (DominantWeight.zero(5), DominantWeight((1, 0, 2, 0, 1))):
            check(seq, 3, lam)


def test_criterion_8_generation_equals_cut(capsys):
    with criterion(capsys, 8, "generation equals inequality cut"):
        for name, g, order, lam_values in SETTINGS:
            seq = from_permutation(g, order)
            start = time.monotonic()
            rep = verify_equivalence(seq, 8)
            assert rep["ok"], (name, rep)
            assert time.monotonic() - start < 120.0, name
            start = time.monotonic()
            rep = verify_equivalence(seq, 6, lam=DominantWeight(lam_values))
            assert rep["ok"], (name, rep)
            assert time.monotonic() - start < 120.0, name


def test_criterion_9_positivity(capsys):
    with criterion(capsys, 9, "positivity reports"):
        for _, g, order, lam_values in SETTINGS:
            seq = from_permutation(g, order)
            for lam in (DominantWeight(lam_values),
                        DominantWeight((1,) * seq.n)):
                report = positivity_report(seq, lam, 3 * seq.n)
                assert report == {"xi_positive": True,
                                  "strict_positive": True,
                                  "ample": True}, (g, lam.values)


def test_criterion_10_crystal_axioms(capsys):
    with criterion(capsys, 10, "crystal axiom sweep"):
        for _, g, order, _ in SETTINGS:
            seq = from_permutation(g, order)
            rng = random.Random(1010)
            colours = list(seq.base_type.index_set)
            for _ in range(1000):
                a = ZElement()
                for _ in range(rng.randint(0, 8)):
                    a = f_tilde(seq, a, rng.choice(colours))
                for k in colours:
                    b = f_tilde(seq, a, k)
                    assert e_tilde(seq, b, k) == a
                    assert epsilon(seq, b, k) == epsilon(seq, a, k) + 1
                    assert phi(seq, b, k) == phi(seq, a, k) - 1
                    for j in colours:
                        delta = wt_pairing(seq, a, j) - wt_pairing(seq, b, j)
                        assert delta == cartan_entry(seq.base_type, j, k)
