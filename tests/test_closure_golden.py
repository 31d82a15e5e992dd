"""A golden of the S' and S-hat' closures, and of two answers that need
wide keys.

For each setting of tests/test_closure_kernel.py and each window W, the
S' closure takes the seeds x(s, k), s <= W // n + 1, and the S-hat'
closure takes those plus lambda_form(seq, k, lam) at the setting's
acceptance weight.  One digest per (setting, W) covers the sorted
certified and the sorted frontier vectors of both.  D2 at 10, 11 and
15, C1 at 11 and 14, B1 at 10 and 15 and A2odd at 13 and 18 are the
windows of the lattice_cut benchmark."""

import hashlib
import io

import pytest

import wallcrystal.cli as cli
from test_closure_kernel import SETTINGS
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import AffineType, Family
from wallcrystal.linear_forms import DominantWeight, closure, lambda_form, x
from wallcrystal.zcrystal import verify_equivalence

BY_NAME = {name: (g, order, lam) for name, g, order, lam in SETTINGS}


def closure_digest(name, window):
    g, order, lam_values = BY_NAME[name]
    seq = from_permutation(g, order)
    lam = DominantWeight(lam_values)
    seeds = [x(s, k) for s in range(1, window // seq.n + 2)
             for k in seq.base_type.index_set]
    hat_seeds = seeds + [lambda_form(seq, k, lam)
                         for k in seq.base_type.index_set]
    lines = []
    for op, op_seeds in (("S'", seeds), ("Shat'", hat_seeds)):
        cert, frontier = closure(seq, op_seeds, window, op=op, lam=lam)
        for part, vectors in (("certified", cert), ("frontier", frontier)):
            lines.append(f"{op} {part} {len(vectors)}")
            lines.extend(" ".join(map(str, v)) for v in sorted(vectors))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (setting, window) -> closure_digest, recorded before the closure keyed
# its vectors by one integer each
CLOSURE_GOLDEN = {
    ("D2 rank 3", 10):
        "b2638aaf0c99b7be9f6dbd5b08641360eca02ccbf3b8b5332a6353acf8d7249b",
    ("D2 rank 3", 11):
        "d85913051175ad60cc9788add2a2cbd7c46afb49ffdcef2e487d7908de82c35d",
    ("D2 rank 3", 15):
        "8fcfb1ebafc8437b6439d813d32f9a2e840f3e7a8528a0d72a1994ad783d2cc7",
    ("C1 rank 3", 11):
        "2142db99cc519c3fd1bb4e062f1410b067e815f4ca1dd6ee4715f8bd71ca59c0",
    ("C1 rank 3", 14):
        "a92135c9c8f416f4c0e8f5c67511404edcd661467a9cc17e88254dba7bc293b4",
    ("B1 rank 4", 10):
        "e98f42cbd6eb99edf6b2d34b2022661149f83bdc703118e9e0932a929fe93ae6",
    ("B1 rank 4", 15):
        "6f3ffba0a21539a737b96797553f9c0f463702315b76ec955e96a71bb6cfba31",
    ("A2odd rank 4", 13):
        "cddf866037a09a691b84818905790b77695e883a208200208d8da58abece29e6",
    ("A2odd rank 4", 18):
        "b0c39693785f0d5a31ae83ccd5c1bc65d4d433c419c3ff8dcc61eea5da3adfbd",
    ("D1 rank 6", 12):
        "2a2deb37688579e8e673a51e2155f0191fc5bdfa3c96b0193c56673259d4c3a8",
}


@pytest.mark.parametrize("name,window", list(CLOSURE_GOLDEN),
                         ids=[f"{name} W={w}" for name, w in CLOSURE_GOLDEN])
def test_closure_golden(name, window):
    assert closure_digest(name, window) == CLOSURE_GOLDEN[name, window]


def test_positivity_with_a_wide_weight():
    # lambda pairings past 2**14 put the S-hat' constants past a 16-bit lane
    out = io.StringIO()
    code = cli.main(["verify", "positivity", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--lambda", "20000,1,70000"], out=out)
    text = out.getvalue()
    assert code == 0
    assert text.count("true") == 3
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "9468b8ba5acb92443c48f2717a3dec61a4d55e09d28c8de84129a532e22a7648"


def test_equivalence_with_a_wide_weight():
    seq = from_permutation(AffineType(Family.C1, 3), (3, 2, 1))
    report = verify_equivalence(seq, 5, DominantWeight((40000, 0, 3)))
    assert report["ok"]
    assert report["cut"] == 79
