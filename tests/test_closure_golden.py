"""A golden of the S' and S-hat' closures, and of two answers that need
wide keys.

For each setting of tests/test_closure_kernel.py and each window W, the
S' closure takes the seeds x(s, k), s <= W // n + 1, and the S-hat'
closure takes those plus lambda_form(seq, k, lam) at the setting's
acceptance weight.  One digest per (setting, W) covers the sorted
`render_form` lines of the certified forms of both, which do not depend
on the width of the vectors.  D2 at 10, 11 and 15, C1 at 11 and 14, B1
at 10 and 15 and A2odd at 13 and 18 are the windows of the lattice_cut
benchmark."""

import hashlib
import io

import pytest

import wallcrystal.cli as cli
from test_closure_kernel import SETTINGS
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import AffineType, Family
from wallcrystal.linear_forms import (
    DominantWeight, _forms, closure, lambda_form, render_form, x,
)
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
    for op, op_seeds, op_lam in (("S'", seeds, None), ("Shat'", hat_seeds, lam)):
        cert, _ = closure(seq, op_seeds, window, lam=op_lam)
        forms = sorted(map(render_form, _forms(seq, cert)))
        lines.append(f"{op} certified {len(forms)}")
        lines.extend(forms)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (setting, window) -> closure_digest, recorded while the closure still
# searched one period past the window
CLOSURE_GOLDEN = {
    ("D2 rank 3", 10):
        "e1dc6b7ab1d0168578dbe0ec2824e2a902191b3afe891568b525f90e6a1071bd",
    ("D2 rank 3", 11):
        "1f146a1fda620d943776a4f8e5420e6636407b1df454c190e37191fc6a77beab",
    ("D2 rank 3", 15):
        "b5c4c86bed4692ed52d309d219e2c838250782993731ff388ccd8177958f3f55",
    ("C1 rank 3", 11):
        "a137abdfd6608a25e4f564f4375854cb57b24ab50f8bc413ca2277016a423153",
    ("C1 rank 3", 14):
        "d04b310bb164802d70694a6aafdd019bb564ba0ad1cf9c52c20fd5925c738816",
    ("B1 rank 4", 10):
        "abcd2c4777587ec1f0e0bc6b0d2eb2a97ac00f5685414e92bb7c417651ebedd7",
    ("B1 rank 4", 15):
        "c6b872d14a5ffdada2bc9331a2caa393ab1e46109827c4448711fee9bec155f2",
    ("A2odd rank 4", 13):
        "4b45a5c3793f624ca440e0ed85d30f526075e8699dca8d29af5979e0da7233fd",
    ("A2odd rank 4", 18):
        "a3c284aa998fa4dcc6eb72935d83ca92a3ae7fd7bbc340c9cdd98418c3f2092f",
    ("D1 rank 6", 12):
        "89524e332028defca6fd20a211c206358c9005a76743b4985dd3152d15fdb071",
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
