"""A golden of the dense vectors `closure` returns, widths included.

tests/test_closure_golden.py hashes `render_form` lines, which do not
show how wide the vectors are; `positivity_report` (`len(cert[0])`) and
`zcrystal._window_forms` (`v[:width]`) read that width.  Here one digest
per (setting, W) covers the sorted certified and frontier vectors of the
S' and S-hat' closures on the seeds and windows of that golden, and one
digest covers every closure `verify positivity` takes on D2 rank 3 at
--periods 6, in the order it takes them."""

import hashlib
import io

import pytest

import wallcrystal.cli as cli
from test_closure_golden import BY_NAME, CLOSURE_GOLDEN
from wallcrystal import linear_forms
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import DominantWeight, closure, lambda_form, x


def _lines(op, certified, frontier):
    lines = [f"{op} certified {len(certified)}"]
    lines.extend(map(repr, sorted(certified)))
    lines.append(f"{op} frontier {len(frontier)}")
    lines.extend(map(repr, sorted(frontier)))
    return lines


def vectors_digest(name, window):
    g, order, lam_values = BY_NAME[name]
    seq = from_permutation(g, order)
    lam = DominantWeight(lam_values)
    seeds = [x(s, k) for s in range(1, window // seq.n + 2)
             for k in seq.base_type.index_set]
    hat_seeds = seeds + [lambda_form(seq, k, lam)
                         for k in seq.base_type.index_set]
    lines = []
    for op, op_seeds, op_lam in (("S'", seeds, None), ("Shat'", hat_seeds, lam)):
        lines += _lines(op, *closure(seq, op_seeds, window, lam=op_lam))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (setting, window) -> vectors_digest, recorded while the closure built
# its steps from beta_at and beta_minus on every call
VECTORS_GOLDEN = {
    ("D2 rank 3", 10):
        "f17e02332d81e4c7b81ca8c8e796d134a708ff3754b9a640986a5642b74a766d",
    ("D2 rank 3", 11):
        "0bf59da25734fc515ad7b25b68113e48ea3accec68ad0a8f5afc20c6c33453ff",
    ("D2 rank 3", 15):
        "fda4d093c73c0a14bada0869c0ca7d8649d6449a4bf61ac65261ed146f8dd447",
    ("C1 rank 3", 11):
        "0c3cac0569a0d6dd3cc8761337f76e4eabbfd6c665853c62c27c748b2709c2c1",
    ("C1 rank 3", 14):
        "0ddd63dafea9a6f4ad28f9d0917aa651a59f2fb1d8b5958d67bf2cdf32d12bdb",
    ("B1 rank 4", 10):
        "65983cea318c815e9cd23b2971991f9b0102df1f01b97fcbb760bd1b86985cb3",
    ("B1 rank 4", 15):
        "7bdcd0079c760aa606f7d5f742c4a6700d163fc73fb6d44e3e6e13d53c86455a",
    ("A2odd rank 4", 13):
        "04b799d5dacfa0b6b182652ea737a089907189925cabe758714cd49962658e1e",
    ("A2odd rank 4", 18):
        "29f130538a7a4acc9e86a515ed8c34a2766e2a0fdec492613701b817f20b8716",
    ("D1 rank 6", 12):
        "e8e4207c6f4ac28d972089a1d6c6a9578ac1f23b3352e33a25f53caad51d5579",
}


@pytest.mark.parametrize("name,window", list(CLOSURE_GOLDEN),
                         ids=[f"{name} W={w}" for name, w in CLOSURE_GOLDEN])
def test_closure_vectors_golden(name, window):
    assert vectors_digest(name, window) == VECTORS_GOLDEN[name, window]


def test_positivity_closure_vectors_golden(monkeypatch):
    lines = []

    def spy(seq, seeds, window, lam=None):
        got = closure(seq, seeds, window, lam=lam)
        lines.extend(_lines("S'" if lam is None else "Shat'", *got))
        return got

    monkeypatch.setattr(linear_forms, "closure", spy)
    out = io.StringIO()
    assert cli.main(["verify", "positivity", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--lambda", "1,1,1",
                     "--periods", "6"], out=out) == 0
    # xi's closure, one per colour for strict positivity, then S-hat'
    assert [line.split()[0] for line in lines if " certified " in line] \
        == ["S'", "S'", "S'", "S'", "Shat'"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
        "9f635520fa5dba38894756b638e7a133614b368fa4acfa81074d096178a6a895"
