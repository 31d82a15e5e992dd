"""A golden of the order in which the wall walk accepts its walls.

For every colour of each type below, it records the exact sequence of
(wall literal, added atoms) that `keep` accepts in `walls.search_walls`,
under two cuts: a `keep` that accepts every wall of at most 6 added
atoms, and the window cut of `comb_infinity(seq, 2, k=k,
support_max=3n)`.  One sha256 per type and cut covers the colour, the
literal and the atoms of every accepted wall, in walk order.  The
enumeration golden hashes sorted literals and the COMB goldens see only
first witnesses, so this is the test that pins the depth-first order
itself."""

import hashlib

import pytest

import wallcrystal.wall_forms as wall_forms
import wallcrystal.walls as walls
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import AffineType, Family, langlands_dual
from wallcrystal.walls import NONE, WallPair, search_walls, wall_literal

BUDGET = 6

TYPES = [
    AffineType(Family.A1, 3), AffineType(Family.C1, 3),
    AffineType(Family.D2, 3), AffineType(Family.B1, 4),
    AffineType(Family.A2ODD, 4), AffineType(Family.A2EVEN, 3),
    AffineType(Family.D1, 5),
]

ORDER_GOLDEN = {
    ("A1 3", "budget"):
        "c368bc3b9040a7f6561d6ae597bb0bd49e6a85101166ffe77a1744cbaadd43e8",
    ("A1 3", "window"):
        "d0feb67e484ded1885f17461eaa8977b4426d01611d1dbda1d747ca8371df6d0",
    ("C1 3", "budget"):
        "64e0dcfc8920b70c6bb70afe38a4f24d24478c7dc7417103617386d8b90c5f02",
    ("C1 3", "window"):
        "94e55b40558d2dc885797ecb81ffaf756c7c6124d88cba172e3302638699314c",
    ("D2 3", "budget"):
        "c9d1a0fd463621f0a4838a4580a92e7d13214259c381f8a256b5ed5b4476b14f",
    ("D2 3", "window"):
        "b84531439c52d9a4adc6ea4b9d511b315e26eff7140c7917183ad0b223e918f4",
    ("B1 4", "budget"):
        "eb85c98898d991f64fb5c4a3f3478aa98b507561b9cc79e083c8785ba47d0180",
    ("B1 4", "window"):
        "964e01a8dcfe94f565e9008c8559d37645f1de8281a4a267b6d785f0c815fb39",
    ("A2odd 4", "budget"):
        "e59c682da189429e2fe66f2d4a1f6e58bbfdad5be5bc068bf2d6097efd99dc98",
    ("A2odd 4", "window"):
        "60617788d3ecaba9f277a60c3981cb672c43d877bf044d7670b03f4c3c93c0a9",
    ("A2even 3", "budget"):
        "4a4ae33ab92ab9ca85b7514c93122a24c3db47c6c5b3baaf0eb92ae056210daf",
    ("A2even 3", "window"):
        "94a22e5b35692365df988d2538f465ff7af8c209aba57707b3ccea33fadf72db",
    ("D1 5", "budget"):
        "42340955a4e54a74042814ced080483dbc4b6be7983ebf915a154fa493297e7a",
    ("D1 5", "window"):
        "3bb9e69d9eaf1f61c0c8792f9b33e0c302aa105cc98f6a8bada60caeec9031c3",
}


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _budget_lines(X):
    lines = []
    for k in X.index_set:
        def keep(w, atoms):
            if atoms > BUDGET:
                return False
            lines.append(f"{k} {wall_literal(w)} {atoms}")
            return True

        search_walls(X, k, keep)
    return lines


def _window_lines(X, monkeypatch):
    # the walls comb_infinity's own keep accepts, in the order it meets them
    lines = []
    walk = wall_forms.search_walls

    def recorded(X, k, keep, **cut):
        def keep_recorded(w, atoms):
            accepted = keep(w, atoms)
            if accepted:
                lines.append(f"{k} {wall_literal(w)} {atoms}")
            return accepted
        walk(X, k, keep_recorded, **cut)

    monkeypatch.setattr(wall_forms, "search_walls", recorded)
    g = langlands_dual(X)
    seq = from_permutation(g, tuple(range(g.n, 0, -1)))
    assert seq.wall_type == X
    for k in X.index_set:
        wall_forms.comb_infinity(seq, 2, k=k, support_max=3 * seq.n)
    return lines


@pytest.mark.parametrize("X", TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_walk_order_golden(X, monkeypatch):
    name = f"{X.family.value} {X.n}"
    budget = _budget_lines(X)
    window = _window_lines(X, monkeypatch)
    assert budget and window
    assert _digest(budget) == ORDER_GOLDEN[(name, "budget")]
    assert _digest(window) == ORDER_GOLDEN[(name, "window")]


def _step_key(w):
    """The (prev, last_full) a wall's children are listed under: per
    member, its leftmost column state (None if it has none) and the row
    of its leftmost full state (0 if it has none)."""
    members = (w.supporting, w.covering) if isinstance(w, WallPair) else (w,)
    prev = tuple([m.states[-1] if m.states else None for m in members])
    full = tuple([next((row for row, top in reversed(m.states)
                        if top == NONE), 0) for m in members])
    return prev, full


@pytest.mark.parametrize("X", TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_each_column_step_is_merged_once_per_walk(X, monkeypatch):
    # search_walls merges the members' cost groups (_by_total) once per
    # distinct (prev, last_full) of the walls keep accepts, under both
    # cuts of the order golden, and so less often than it opens a node
    merge, calls = walls._by_total, [0]

    def counted(streams):
        calls[0] += 1
        return merge(streams)

    walk, log = wall_forms.search_walls, []

    def recorded(X, k, keep):
        keys, accepted = set(), [0]

        def keep_recorded(w, atoms):
            if not keep(w, atoms):
                return False
            keys.add(_step_key(w))
            accepted[0] += 1
            return True
        calls[0] = 0
        walk(X, k, keep_recorded)
        log.append((calls[0], len(keys), accepted[0]))

    monkeypatch.setattr(walls, "_by_total", counted)
    monkeypatch.setattr(wall_forms, "search_walls", recorded)
    for k in X.index_set:
        recorded(X, k, lambda w, atoms: atoms <= BUDGET)
    g = langlands_dual(X)
    seq = from_permutation(g, tuple(range(g.n, 0, -1)))
    for k in X.index_set:
        wall_forms.comb_infinity(seq, 2, k=k, support_max=3 * seq.n)
    assert len(log) == 2 * X.n
    assert all(merged == distinct for merged, distinct, _ in log), log
    assert sum(merged for merged, _, _ in log) < sum(n for _, _, n in log)
