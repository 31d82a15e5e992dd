"""Goldens of the small verifier and epsstar queries, mutation checks
showing that `verify crystal` and `verify props` catch a broken operator,
and the single-index `verify props` check pinned to its LinearForm
reference."""

import io

import pytest

import wallcrystal.cli as cli
from profile_faults import (
    SETTINGS, _epsilon_one_up, _last_one_up, _patch_profile, _weight_one_up,
)
from wallcrystal.linear_forms import x
from wallcrystal.wall_forms import WallFormMap
from wallcrystal.walls import enumerate_walls, wall_literal

# `verify props --blocks 1, 2, 3`: the number of block additions checked
PROPS_CHECKED = {
    "D2": [6, 21, 52], "C1": [11, 27, 53], "B1": [13, 36, 86],
    "A2odd": [15, 42, 94], "D1": [22, 59, 141],
}

# (colour, element, printed value) of epsstar on the elements the benchmark
# draws, recorded where the query finished within 2 s
EPSSTAR = {
    "D2": [
        (1, "a[1,3]=2", 0),
        (2, "a[1,1]=2", 0),
        (2, "a[1,2]=1", 1),
        (2, "a[1,1]=1;a[2,2]=1", 0),
        (2, "a[1,2]=1;a[1,1]=1", 1),
        (2, "a[1,3]=1;a[1,2]=1", 0),
        (2, "a[1,3]=2", 0),
        (2, "a[1,2]=1;a[1,1]=2", 1),
        (2, "a[1,2]=1;a[1,1]=1;a[2,2]=1", 1),
        (3, "a[1,1]=2", 0),
        (3, "a[1,2]=1", 0),
        (3, "a[1,1]=1;a[2,2]=1", 0),
        (3, "a[1,2]=1;a[1,1]=1", 0),
        (3, "a[1,3]=1;a[1,2]=1", 1),
        (3, "a[1,3]=2", 2),
        (3, "a[1,2]=1;a[1,1]=2", 0),
        (3, "a[1,2]=1;a[1,1]=1;a[2,2]=1", 0),
    ],
    "C1": [
        (1, "a[1,2]=2", 0),
        (1, "a[1,3]=2", 0),
        (1, "a[1,2]=3", 0),
        (2, "a[1,1]=1;a[2,2]=1", 0),
        (2, "a[1,3]=1;a[1,2]=1;a[2,3]=1", 1),
        (2, "a[1,2]=2", 2),
        (2, "a[1,1]=1;a[2,2]=1;a[3,3]=1", 0),
        (2, "a[1,3]=2", 0),
        (2, "a[1,2]=1;a[2,3]=1", 1),
        (2, "a[1,2]=3", 3),
        (2, "a[1,1]=2", 0),
        (3, "a[1,1]=1;a[2,2]=1", 0),
        (3, "a[1,3]=1;a[1,2]=1;a[2,3]=1", 1),
        (3, "a[1,2]=2", 0),
        (3, "a[1,1]=1;a[2,2]=1;a[3,3]=1", 0),
        (3, "a[1,3]=2", 2),
        (3, "a[1,2]=1;a[2,3]=1", 0),
        (3, "a[1,2]=3", 0),
        (3, "a[1,1]=2", 0),
    ],
    "B1": [
        (1, "a[1,4]=2", 0),
        (1, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 0),
        (1, "a[1,3]=1;a[2,4]=1", 0),
        (1, "a[1,3]=1;a[2,4]=2", 0),
        (1, "a[1,2]=2", 0),
        (1, "a[1,4]=3", 0),
        (1, "a[1,4]=2;a[1,3]=1", 0),
        (2, "a[1,4]=2", 0),
        (2, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 0),
        (2, "a[1,3]=1;a[2,4]=1", 0),
        (2, "a[1,3]=1;a[2,4]=2", 0),
        (2, "a[1,2]=2", 2),
        (2, "a[1,3]=1;a[1,1]=1;a[2,3]=1", 0),
        (2, "a[1,4]=3", 0),
        (2, "a[1,4]=2;a[1,3]=1", 0),
        (3, "a[1,4]=2", 0),
        (3, "a[1,4]=3", 0),
        (4, "a[1,4]=2", 2),
        (4, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 1),
        (4, "a[1,3]=1;a[2,4]=1", 0),
        (4, "a[1,3]=1;a[2,4]=2", 0),
        (4, "a[1,2]=2", 0),
        (4, "a[1,3]=1;a[1,1]=1;a[2,3]=1", 0),
        (4, "a[1,4]=3", 3),
        (4, "a[1,4]=2;a[1,3]=1", 2),
    ],
    "A2odd": [
        (1, "a[1,1]=1", 1),
        (1, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 0),
        (1, "a[1,3]=3", 0),
        (1, "a[1,2]=1;a[1,4]=2", 0),
        (1, "a[1,2]=1;a[1,1]=2", 2),
        (1, "a[1,3]=1;a[1,1]=2", 1),
        (1, "a[1,2]=2;a[1,4]=1", 0),
        (1, "a[1,2]=2;a[1,3]=1", 0),
        (2, "a[1,1]=1", 0),
        (2, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 0),
        (2, "a[1,3]=3", 0),
        (2, "a[1,2]=1;a[1,4]=2", 1),
        (2, "a[1,2]=1;a[1,1]=2", 1),
        (2, "a[1,3]=1;a[1,1]=2", 0),
        (2, "a[1,2]=2;a[1,4]=1", 2),
        (2, "a[1,2]=2;a[1,3]=1", 2),
        (3, "a[1,1]=1", 0),
        (4, "a[1,1]=1", 0),
        (4, "a[1,4]=1;a[1,3]=1;a[1,1]=1", 1),
        (4, "a[1,3]=3", 0),
        (4, "a[1,2]=1;a[1,4]=2", 2),
        (4, "a[1,2]=1;a[1,1]=2", 0),
        (4, "a[1,3]=1;a[1,1]=2", 0),
        (4, "a[1,2]=2;a[1,4]=1", 1),
        (4, "a[1,2]=2;a[1,3]=1", 0),
    ],
    "D1": [
        (1, "a[1,3]=2;a[2,4]=1", 0),
        (1, "a[1,6]=2", 0),
        (1, "a[1,1]=3", 3),
        (2, "a[1,4]=1;a[1,2]=1;a[2,5]=1", 1),
        (2, "a[1,5]=1;a[1,3]=1;a[1,2]=1", 0),
        (2, "a[1,3]=2;a[2,4]=1", 0),
        (2, "a[1,4]=1;a[1,2]=1;a[2,6]=1", 1),
        (2, "a[1,6]=2", 0),
        (2, "a[1,3]=2;a[1,2]=1", 0),
        (3, "a[1,4]=1;a[1,2]=1;a[2,5]=1", 0),
        (3, "a[1,5]=1;a[1,3]=1;a[1,2]=1", 1),
        (3, "a[1,3]=2;a[2,4]=1", 2),
        (3, "a[1,1]=1;a[2,3]=1", 0),
        (3, "a[1,4]=1;a[1,2]=1;a[2,6]=1", 0),
        (3, "a[1,6]=2", 0),
        (3, "a[1,1]=3", 0),
        (3, "a[1,3]=2;a[1,2]=1", 2),
        (4, "a[1,4]=1;a[1,2]=1;a[2,5]=1", 1),
        (4, "a[1,5]=1;a[1,3]=1;a[1,2]=1", 0),
        (4, "a[1,3]=2;a[2,4]=1", 0),
        (4, "a[1,1]=1;a[2,3]=1", 0),
        (4, "a[1,4]=1;a[1,2]=1;a[2,6]=1", 1),
        (4, "a[1,6]=2", 0),
        (4, "a[1,1]=3", 0),
        (4, "a[1,3]=2;a[1,2]=1", 0),
        (5, "a[1,4]=1;a[1,2]=1;a[2,5]=1", 0),
        (5, "a[1,5]=1;a[1,3]=1;a[1,2]=1", 1),
        (5, "a[1,3]=2;a[2,4]=1", 0),
        (5, "a[1,1]=1;a[2,3]=1", 0),
        (5, "a[1,4]=1;a[1,2]=1;a[2,6]=1", 0),
        (5, "a[1,6]=2", 0),
        (5, "a[1,1]=3", 0),
        (5, "a[1,3]=2;a[1,2]=1", 0),
        (6, "a[1,4]=1;a[1,2]=1;a[2,5]=1", 0),
        (6, "a[1,5]=1;a[1,3]=1;a[1,2]=1", 0),
        (6, "a[1,3]=2;a[2,4]=1", 0),
        (6, "a[1,1]=1;a[2,3]=1", 0),
        (6, "a[1,4]=1;a[1,2]=1;a[2,6]=1", 0),
        (6, "a[1,6]=2", 2),
        (6, "a[1,1]=3", 0),
        (6, "a[1,3]=2;a[1,2]=1", 0),
    ],
}


def run(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_verify_crystal_golden(name):
    for seed in range(4):
        assert run("verify", "crystal", *SETTINGS[name], "--samples", "50",
                   "--seed", str(seed)) == (0, "crystal samples=50 violations=0\n")


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_verify_props_golden(name):
    for blocks, checked in zip((1, 2, 3), PROPS_CHECKED[name]):
        assert run("verify", "props", *SETTINGS[name], "--blocks", str(blocks)) \
            == (0, f"props checked={checked} violations=0\n")


@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_epsstar_golden(name):
    for k, elem, value in EPSSTAR[name]:
        assert run("epsstar", *SETTINGS[name], "--k", str(k), "--elem", elem) \
            == (0, f"{value}\n"), (k, elem)


@pytest.mark.parametrize("change", [_last_one_up, _epsilon_one_up, _weight_one_up])
@pytest.mark.parametrize("name", ["D2", "B1"])
def test_verify_crystal_catches_a_wrong_operator(monkeypatch, name, change):
    _patch_profile(monkeypatch, change)
    code, text = run("verify", "crystal", *SETTINGS[name], "--samples", "20")
    assert code == 2
    assert text.startswith("crystal samples=20 violations=")
    assert int(text.splitlines()[0].split("violations=")[1]) > 0


@pytest.mark.parametrize("name", ["D2", "B1"])
def test_verify_props_catches_a_wrong_root(monkeypatch, name):
    real = cli.beta
    monkeypatch.setattr(cli, "beta", lambda seq, d: real(seq, d) + x(d.s, d.k))
    code, text = run("verify", "props", *SETTINGS[name], "--blocks", "2")
    assert code == 2
    first = text.splitlines()[0]
    assert first.startswith("props checked=") and not first.endswith(" violations=0")
    assert text.splitlines()[1].startswith("  violation: (0, ")


def _props_reference(seq, blocks):
    """(checked, violations) of `verify props` on LinearForms: at each
    shift, the wall form less its successor's form against `beta`
    (doubled at a double site), with `beta` and `transitions` looked up
    on cli, as the check itself reads them."""
    X = seq.wall_type
    shifts = (0, 1, 3)
    bad = {s: [] for s in shifts}
    total = 0
    fmap = WallFormMap(seq)
    for k in X.index_set:
        for w in enumerate_walls(X, k, blocks):
            here = fmap.terms(w)
            adds = [(st, fmap.index(k, st), fmap.terms(nxt))
                    for st, nxt in cli.transitions(w) if st.action == "add"]
            for s in shifts:
                base = fmap.form(here, s)
                for st, r, there in adds:
                    r += s * seq.n
                    if r < 1:
                        continue
                    b = cli.beta(seq, seq.reindex(r))
                    want = b + b if st.grade == "double" else b
                    total += 1
                    if base - fmap.form(there, s) != want:
                        bad[s].append((s, k, wall_literal(w), st))
    return total, [item for s in shifts for item in bad[s]]


def _no_patch(monkeypatch):
    pass


def _root_off_on_odd_colours(monkeypatch):
    real = cli.beta
    monkeypatch.setattr(cli, "beta", lambda seq, d: real(seq, d) + x(d.s, d.k)
                        if d.k % 2 else real(seq, d))


def _root_with_a_constant(monkeypatch):
    real = cli.beta
    monkeypatch.setattr(cli, "beta", lambda seq, d: real(seq, d).shift_constant(
        1 if d.s == 2 else 0))


def _successors_rotated(monkeypatch):
    real = cli.transitions

    def transitions(w):
        steps = list(real(w))
        return [(st, steps[i - 1][1]) for i, (st, _) in enumerate(steps)]

    monkeypatch.setattr(cli, "transitions", transitions)


@pytest.mark.parametrize("patch", [_no_patch, _root_off_on_odd_colours,
                                   _root_with_a_constant, _successors_rotated])
@pytest.mark.parametrize("name", sorted(SETTINGS))
def test_verify_props_matches_the_linear_form_reference(monkeypatch, name, patch):
    patch(monkeypatch)
    found = 0
    for blocks in (1, 2, 3):
        args = cli._parser().parse_args(
            ["verify", "props", *SETTINGS[name], "--blocks", str(blocks)])
        seq = cli._sequence(args)
        out = io.StringIO()
        bad = cli._verify_props(args, seq, out)
        total, want = _props_reference(seq, blocks)
        assert out.getvalue().startswith(
            f"props checked={total} violations={len(want)}\n")
        assert bad == want
        found += len(bad)
    # the patched checks find violations, so the comparison has teeth
    assert (found > 0) == (patch is not _no_patch)
