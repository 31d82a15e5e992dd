"""A golden of the lattice verifier's window forms.

For each acceptance setting, without lambda and with the setting's
lambda, one digest covers `zcrystal._window_forms(seq, box, lam)` at
every box from 1 to 3n: per box, the count and the sorted dense vectors.
Below one period the closure still certifies a window of n, and the
forms kept are those within the box, so boxes below n pin what the
seeds handed to that wider window leave in the box."""

import hashlib

import pytest

from test_acceptance import SETTINGS
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import DominantWeight
from wallcrystal.zcrystal import _window_forms

BY_NAME = {name: (g, order, lam) for name, g, order, lam in SETTINGS}


def window_forms_digest(name, with_lambda):
    g, order, lam_values = BY_NAME[name]
    seq = from_permutation(g, order)
    lam = DominantWeight(lam_values) if with_lambda else None
    lines = []
    for box in range(1, 3 * seq.n + 1):
        forms = sorted(_window_forms(seq, box, lam))
        lines.append(f"box {box} forms {len(forms)}")
        lines.extend(" ".join(map(str, v)) for v in forms)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# (setting, with lambda) -> window_forms_digest
WINDOW_FORMS_GOLDEN = {
    ("D2 rank 3", False):
        "8229e8827a1b6ce7cdb3ec8a4a72ff5fb593981ce7c6c0e6984aa178367ea4d5",
    ("D2 rank 3", True):
        "7e0ac281824d96d3f33c16ac1e75e0d6871c688e6465e11e685c848d4990c095",
    ("C1 rank 3", False):
        "8db8c9c09f14594c8c9be3668d479e2b70abe9dd9989358ec729553c92ca1f13",
    ("C1 rank 3", True):
        "40fa5141eda37e93431e9c9226084cbbbdb4cd66e23d5846903b139e7fa87f6c",
    ("B1 rank 4", False):
        "3ca39ab1a52409d5acad1ea0ba18285edba3ac62092d732a94d94ae0810cb439",
    ("B1 rank 4", True):
        "585b17ebf987f70826fb63f71d6c30ff48fb147e5be7b51c1b791eac63957124",
    ("A2odd rank 4", False):
        "d93b201e9a5657f147c16711684a71028763ec253d527681f0e88ca2d0f3ae03",
    ("A2odd rank 4", True):
        "aa492199b7e181dd2ee46c86008ca2326d35eaf725adcf229ae697b612db2dee",
    ("D1 rank 6", False):
        "a619e8673fe51bc010f9bbca4259b203a9116659cf254f11099541e911a6ae19",
    ("D1 rank 6", True):
        "b716f72e2248d8af472a7116bf783f7b8db0029ce719b0fdd4ddb231174349af",
}


@pytest.mark.parametrize(
    "name,with_lambda", list(WINDOW_FORMS_GOLDEN),
    ids=[f"{name} {'lambda' if lam else 'infinity'}"
         for name, lam in WINDOW_FORMS_GOLDEN])
def test_window_forms_golden(name, with_lambda):
    assert window_forms_digest(name, with_lambda) == \
        WINDOW_FORMS_GOLDEN[name, with_lambda]
