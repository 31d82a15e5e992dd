"""A golden of `verify crystal`'s whole stdout, with and without a forced
fault in the sigma profile: every witness line, not only the count, is
pinned by its sha256 on the five settings of `test_query_golden`."""

import hashlib
import io

import pytest

import wallcrystal.cli as cli
from profile_faults import (
    SETTINGS, _epsilon_one_up, _last_one_up, _patch_profile, _total,
    _weight_one_up,
)


def _none(items, eps, first, last, w):
    pass


def _weight_grows_by_total(items, eps, first, last, w):
    w[0] += _total(items)  # the weight at colour 1 moves by one too many


FAULTS = {f.__name__: f for f in (_none, _last_one_up, _epsilon_one_up,
                                  _weight_one_up, _weight_grows_by_total)}

# (fault, setting) -> (exit code, sha256 of stdout) for --seed 0 and 1,
# `verify crystal --samples 50` at the default depth
GOLDEN = {
    ('_epsilon_one_up', 'A2odd'): [
        (2, "705026e0acc8e2dc234421db6b1b8a3406885a38e826d29cf3caba2a62206e89"),
        (2, "a59edf93d41e64bcb545066aff14a7b6cfb2502fd457e007040dc55114bd6aca"),
    ],
    ('_epsilon_one_up', 'B1'): [
        (2, "705026e0acc8e2dc234421db6b1b8a3406885a38e826d29cf3caba2a62206e89"),
        (2, "a59edf93d41e64bcb545066aff14a7b6cfb2502fd457e007040dc55114bd6aca"),
    ],
    ('_epsilon_one_up', 'C1'): [
        (2, "f91865f3357cd0c32e00206331f9ba38445d20fc8ac49e4aaee6393a9cb7b6e4"),
        (2, "705026e0acc8e2dc234421db6b1b8a3406885a38e826d29cf3caba2a62206e89"),
    ],
    ('_epsilon_one_up', 'D1'): [
        (2, "f91865f3357cd0c32e00206331f9ba38445d20fc8ac49e4aaee6393a9cb7b6e4"),
        (2, "705026e0acc8e2dc234421db6b1b8a3406885a38e826d29cf3caba2a62206e89"),
    ],
    ('_epsilon_one_up', 'D2'): [
        (2, "f91865f3357cd0c32e00206331f9ba38445d20fc8ac49e4aaee6393a9cb7b6e4"),
        (2, "705026e0acc8e2dc234421db6b1b8a3406885a38e826d29cf3caba2a62206e89"),
    ],
    ('_last_one_up', 'A2odd'): [
        (2, "ab5085cc69e7eadc8d5d1891807f3eb1b701a73251ad1392f139b67261365539"),
        (2, "064e5a11ccac4d44cb9dfb46d94b15bc4e0df13521a0ddc5cb9ae05f9015ed6c"),
    ],
    ('_last_one_up', 'B1'): [
        (2, "73cccb4ba015c8293b942fa6b034f41f51922d87354c2e6d1ccbbebc46a3c57e"),
        (2, "db601bf67aa35985d2d6181485c6f786ab106161947ca38697a7c402ec73f2b4"),
    ],
    ('_last_one_up', 'C1'): [
        (2, "32c043696275f241cf58b0d4c0407d1e2627cb4e10c827f64d11558078e77786"),
        (2, "cab2613bef782f63648653fdc2ea5f2cf1328a9fdbf2a1b064e0993fb7ebdb57"),
    ],
    ('_last_one_up', 'D1'): [
        (2, "64abfc01c77f954f806eed1b205e796ed6641695058c7e9e2b35e1d64b9b7254"),
        (2, "5b5026d919a6fc4e23dc35621fdc7e13c10da262e2b5ac30230f5ed7933295ff"),
    ],
    ('_last_one_up', 'D2'): [
        (2, "519ae59118e45044f7ea7fa23ead3b7e5b98f678556017c987d47fbeffe27696"),
        (2, "ef97520d0996576ca683b1eb3181cd5163addad1679f9120a4b2f6790b7a9409"),
    ],
    ('_none', 'A2odd'): [
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
    ],
    ('_none', 'B1'): [
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
    ],
    ('_none', 'C1'): [
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
    ],
    ('_none', 'D1'): [
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
    ],
    ('_none', 'D2'): [
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
        (0, "a88f3b3b58118537a5eccbd140554e1902ffc95e3ec613ea6343fac4820befb0"),
    ],
    ('_weight_grows_by_total', 'A2odd'): [
        (2, "6b07a3c92f1dd48cae909ce46fb4959c9ce9955c4a41158784763f7b8521a727"),
        (2, "c94ada4320d1840df4e51166b68f35bea4a1ae3ed6b3747fdf6258e2dd82ad58"),
    ],
    ('_weight_grows_by_total', 'B1'): [
        (2, "e15f141038638fff8933cebe7c0c2995e813dd19b988ce0aaf55ad3b8573120f"),
        (2, "c94ada4320d1840df4e51166b68f35bea4a1ae3ed6b3747fdf6258e2dd82ad58"),
    ],
    ('_weight_grows_by_total', 'C1'): [
        (2, "98df7ddb216db3ffb9baf59b0ea7672718cf1a7c0eed573b0e4815d8606d5145"),
        (2, "c40f30b9fcec1b50a1991a1616474cc127324377c4d8ab8fe537ce6c1111420c"),
    ],
    ('_weight_grows_by_total', 'D1'): [
        (2, "e8a2ef730771da4e659d9e3820a3f2a8051a6dc1f00bd8973fa10d8c160d86a3"),
        (2, "c0b9d065b8c25dd2a0af9d349316220c2081e0d1df21bab9b4674a7de0ff944f"),
    ],
    ('_weight_grows_by_total', 'D2'): [
        (2, "59454db35fc453fab462f01dbed2747b99434254ee4658c39373921b72cf5b4e"),
        (2, "014792af95ffd38cd6063d88a99981faa08d45812f27f16552feefe526c2449d"),
    ],
    ('_weight_one_up', 'A2odd'): [
        (2, "5e135e75577ddabfcec3483d796945860677d71e90d207ea2a52a580caf4ee4d"),
        (2, "d87ff97228a16290e040472cc46b1c4dcbb15234fd9d5abf3c4bf82daf07de08"),
    ],
    ('_weight_one_up', 'B1'): [
        (2, "5e135e75577ddabfcec3483d796945860677d71e90d207ea2a52a580caf4ee4d"),
        (2, "d87ff97228a16290e040472cc46b1c4dcbb15234fd9d5abf3c4bf82daf07de08"),
    ],
    ('_weight_one_up', 'C1'): [
        (2, "d48d22a46837d4f9fd7997050cd086a43e36097f2eff4c8e5c7de7e0adcca17e"),
        (2, "f39e59a09799467e7894e532c8b80d9433dbd0c98365eed411641c55b539bdb5"),
    ],
    ('_weight_one_up', 'D1'): [
        (2, "8fe12f6771167125db95a2efff5387b4d19a186f2384fed7b6a5b3dc818e71f5"),
        (2, "83a4696c8e526e6a4520fe15e6fdfffc50d991e98c3dc941424d2a62af35eea1"),
    ],
    ('_weight_one_up', 'D2'): [
        (2, "d48d22a46837d4f9fd7997050cd086a43e36097f2eff4c8e5c7de7e0adcca17e"),
        (2, "f39e59a09799467e7894e532c8b80d9433dbd0c98365eed411641c55b539bdb5"),
    ],
}


def _run(name, seed):
    out = io.StringIO()
    code = cli.main(["verify", "crystal", *SETTINGS[name], "--samples", "50",
                     "--seed", str(seed)], out=out)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(SETTINGS))
@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_verify_crystal_stdout_golden(monkeypatch, fault, name):
    _patch_profile(monkeypatch, FAULTS[fault])
    got = [_run(name, seed) for seed in (0, 1)]
    assert got == GOLDEN[fault, name]
