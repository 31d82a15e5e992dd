"""The paper's theorems on every adapted order of the small settings:
`verify closure --periods 5` and `verify star --depth 3` exit 0 on every
order of A1, A2even, D2 and C1 at rank 3 and of B1 and A2odd at rank 4,
and `verify star --depth 3` on five orders of D1 at rank 5."""

import io
import itertools

import pytest

import wallcrystal.cli as cli

SWEEP = [(family, rank, ",".join(map(str, order)))
         for family, rank in [("A1", 3), ("A2even", 3), ("D2", 3), ("C1", 3),
                              ("B1", 4), ("A2odd", 4)]
         for order in itertools.permutations(range(1, rank + 1))]

# 0 to 4 of colour 3's neighbours come before it
D1_RANK5 = [("D1", 5, order) for order in
            ("3,1,2,4,5", "1,3,2,4,5", "1,2,3,4,5", "1,2,4,3,5", "1,2,4,5,3")]


def _verify(mode, family, rank, order, *extra):
    out = io.StringIO()
    argv = ["verify", mode, "--type", family, "--rank", str(rank),
            "--order", order, *extra]
    return cli.main(argv, out=out), out.getvalue()


@pytest.mark.parametrize("family,rank,order", SWEEP)
def test_closure_matches_the_walls_on_every_order(family, rank, order):
    code, text = _verify("closure", family, rank, order, "--periods", "5")
    assert code == 0, text


@pytest.mark.parametrize("family,rank,order", SWEEP + D1_RANK5)
def test_star_decides_on_every_order(family, rank, order):
    code, text = _verify("star", family, rank, order, "--depth", "3")
    assert code == 0, text
