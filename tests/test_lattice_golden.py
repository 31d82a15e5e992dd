"""Golden for the two sides of `verify_equivalence`: the sorted dense
vectors of `generate` and the sorted lattice points of `_cut_points`, both
in the box of the generated support.  The two sides agree on every
setting here (the equivalence the paper proves), so one sha256 per
setting pins both."""

import hashlib

import pytest

from wallcrystal.affine_data import AffineType, Family
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import DominantWeight
from wallcrystal.zcrystal import _cut_points, _window_forms, generate

# (type, order, the acceptance weight or None)
FAMILIES = {
    "D2": (AffineType(Family.D2, 3), (3, 2, 1), (1, 1, 1)),
    "C1": (AffineType(Family.C1, 3), (3, 2, 1), (2, 0, 1)),
    "B1": (AffineType(Family.B1, 4), (2, 4, 3, 1), (1, 0, 1, 2)),
    "A2odd": (AffineType(Family.A2ODD, 4), (2, 4, 3, 1), (0, 1, 1, 0)),
    "A1": (AffineType(Family.A1, 3), (3, 2, 1), None),
    "A2even": (AffineType(Family.A2EVEN, 3), (3, 2, 1), None),
    "D1": (AffineType(Family.D1, 6), (6, 5, 4, 3, 2, 1), None),
}


def _settings():
    """(id, family, depth, weight): B(infinity) at depth 8 and B(lambda) at
    depth 6 for lambda = (1, ..., 1) and the acceptance weight (D2's is
    (1, 1, 1)) on the four acceptance families, B(infinity) at depth 6 on
    the others."""
    for name, (g, _, lam) in FAMILIES.items():
        if lam is None:
            yield f"{name} binf 6", name, 6, None
            continue
        yield f"{name} binf 8", name, 8, None
        yield f"{name} ones 6", name, 6, (1,) * g.n
        if lam != (1,) * g.n:
            yield f"{name} lam 6", name, 6, lam


SETTINGS = list(_settings())


def _sha(points) -> str:
    return hashlib.sha256(repr(sorted(points)).encode()).hexdigest()


def lattice_digests(name, depth, lam_values):
    """(sha256 of the generated vectors, sha256 of the cut points)."""
    g, order, _ = FAMILIES[name]
    seq = from_permutation(g, order)
    lam = None if lam_values is None else DominantWeight(lam_values)
    gen = generate(seq, depth, lam)
    box = max((r for a in gen for r in a.support), default=0)
    vectors = [tuple(a.get(r) for r in range(1, box + 1)) for a in gen]
    forms = _window_forms(seq, box, lam)
    return _sha(vectors), _sha(_cut_points(forms, box, depth))


# setting -> sha256 of both sides
LATTICE_GOLDEN = {
    'D2 binf 8':
        'f7dea826d7454058385878fca245d5e3dc399e2d6d638405e8bf05cec0615435',
    'D2 ones 6':
        '235013669a7d541db4310564950157aedf2cb4ca69a9c894b5c15623dd43cb89',
    'C1 binf 8':
        '9d06a84f1eeb78d881b6e474ffa82d785fa77cb9dbe630cc5d7844562aafb858',
    'C1 ones 6':
        '8e1385bed8c830a75dc75bb9976c7775af80ee8cb099332bcaecdc87ec7f01d4',
    'C1 lam 6':
        '4d7d8d66e8a60a773adcfa23e4ca7a0c25a8193a1418a3c78bfc3703725c9609',
    'B1 binf 8':
        'ceacd3140593cebd3096c6e8121437c7d3bf5e82d34cb7a5e151929e7c0eb48b',
    'B1 ones 6':
        'f931e265a7ea92913f240b0e2eae2ba6111f44b21d7e9cd2ae7406b870d2f14f',
    'B1 lam 6':
        'ea958ff74adf5078eb998f57a3c6f5c7f44e2beca2751bb382a9f8418bc859e0',
    'A2odd binf 8':
        '477d695ffe3d7d985dd13899c3100de45bbfa32e57ef21ea6c4aafb5d7b7cf20',
    'A2odd ones 6':
        '0b3728d2a9de49d64e5e7f6a507948328ce57474854ce22b0907b84f2339ddb9',
    'A2odd lam 6':
        'fdd83872d067ebfb7eafa1204b898ae398fa0431d0910fb3af632f5eb9da33ed',
    'A1 binf 6':
        'a434fbda0e46f9df42914597f3f45cdbc3ad5d4acede864ba6e12ff49f145036',
    'A2even binf 6':
        'c924fa2200fe6e3ad34a755904957f5c5193502d6da622b2182319ff7f673a40',
    'D1 binf 6':
        '9d7e96bdd83ab45c7a1e203745f2df74074e0581bdb718653ed48a42509ce7b2',
}


@pytest.mark.parametrize("setting,name,depth,lam_values", SETTINGS,
                         ids=[s[0] for s in SETTINGS])
def test_generated_and_cut_points_match_golden(setting, name, depth, lam_values):
    want = LATTICE_GOLDEN[setting]
    assert lattice_digests(name, depth, lam_values) == (want, want)


if __name__ == "__main__":
    for setting, *args in SETTINGS:
        gen, cut = lattice_digests(*args)
        assert gen == cut, setting
        print(f"    {setting!r}:\n        {gen!r},")
