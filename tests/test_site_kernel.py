"""Differential checks pinning the agreements between site detection,
transitions, wall literals and the wall-to-form map: every wall with at
most seven added blocks over every colour of eight wall families."""

import pytest

from wallcrystal.affine_data import AffineType, Family, langlands_dual
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.walls import (
    enumerate_walls, is_proper, parse_wall, sites, transitions, wall_literal,
)
from wallcrystal.wall_forms import site_form, wall_form

BLOCKS = 7

WALL_TYPES = [
    AffineType(Family.A1, 3), AffineType(Family.C1, 3),
    AffineType(Family.D2, 3), AffineType(Family.B1, 4),
    AffineType(Family.A2ODD, 4), AffineType(Family.D1, 6),
    AffineType(Family.A2EVEN, 3), AffineType(Family.A2EVEN_DAGGER, 3),
]

# the acceptance settings, keyed by the type their walls live in
SEQUENCES = {
    langlands_dual(seq.base_type): seq for seq in (
        from_permutation(AffineType(Family.D2, 3), (3, 2, 1)),
        from_permutation(AffineType(Family.C1, 3), (3, 2, 1)),
        from_permutation(AffineType(Family.B1, 4), (2, 4, 3, 1)),
        from_permutation(AffineType(Family.A2ODD, 4), (2, 4, 3, 1)),
        from_permutation(AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1)),
    )
}


def _summed_site_forms(seq, s, k, w):
    acc = {}
    for st in sites(w):
        sf = site_form(seq, s, k, st)
        if sf.coordinate.s >= 1:
            acc[sf.coordinate] = (acc.get(sf.coordinate, 0)
                                  + sf.direction * sf.weight)
    return {d: c for d, c in acc.items() if c}


@pytest.mark.parametrize("X", WALL_TYPES, ids=lambda X: f"{X.family.value}{X.n}")
def test_sites_transitions_literals_and_forms_agree(X):
    seq = SEQUENCES.get(X)
    for k in X.index_set:
        for w in enumerate_walls(X, k, BLOCKS):
            moves = transitions(w)
            assert sites(w) == [s for s, _ in moves]
            for _, nxt in moves:
                assert is_proper(nxt)
                assert parse_wall(wall_literal(nxt), X.n) == nxt
            if seq is None:
                continue
            for s in (-1, 1):
                phi = wall_form(seq, s, k, w)
                assert dict(phi.terms) == _summed_site_forms(seq, s, k, w)
                assert phi.constant == 0
