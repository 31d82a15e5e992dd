"""The layers the benchmark's tracer sees on each workload, pinned.

`test_tracing_names.py` checks that every traced name resolves; a
function that still exists but is no longer called passes it.  Here one
small operation of each workload runs in a fresh interpreter under
`perfbench/tracing.py`, loaded unchanged and installed as the benchmark
installs it, and the traced layers it enters are compared with the ones
it entered when this pin was recorded.  Every traced layer is either
reached or blind on a workload, and both lists are spelled out by name:
a change that makes a layer blind, or gives a blind one back its view,
has to edit them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

D2 = ["--type", "D2", "--rank", "3", "--order", "3,2,1"]

# one small operation of each workload: a CLI argv, or the (depth,) of a
# direct verify_equivalence call on D2, as perfbench/worker.py runs them
OPS = {
    "binf_window": [["verify", "closure", *D2, "--periods", "4"]],
    "lattice_cut": [[3], ["verify", "positivity", *D2, "--lambda", "1,1,1",
                          "--periods", "3"]],
    "query_mix": [
        ["ineq", "binf", *D2, "--k", "1", "--s", "1", "--blocks", "2"],
        ["ineq", "blam", *D2, "--k", "1", "--lambda", "0,0,0", "--blocks", "4"],
        ["ineq", "blam", *D2, "--k", "2", "--lambda", "1,1,1", "--blocks", "4",
         "--format", "json"],
        ["walls", "enum", *D2, "--k", "1", "--blocks", "1"],
        ["walls", "render", "--rank", "3", "--wall",
         "ground=pair:C1:k=1;sup=[];cov=[]"],
        ["verify", "props", *D2, "--blocks", "1"],
        ["verify", "crystal", *D2, "--samples", "5", "--seed", "0"],
        ["epsstar", *D2, "--k", "2", "--elem", "a[1,2]=1"],
    ],
}

REACHED = {
    "binf_window": [
        "affine_data.periodic_map", "affine_data.thresholds",
        "adapted_sequence.shift_table", "cli.main", "linear_forms.closure",
    ],
    "lattice_cut": [
        "cli.main", "linear_forms.closure", "linear_forms.positivity_report",
        "zcrystal.verify_equivalence",
    ],
    "query_mix": [
        "affine_data.periodic_map", "affine_data.thresholds",
        "adapted_sequence.shift_table", "cli.main",
        "walls.enumerate_walls", "walls.transitions",
        "wall_forms.comb_infinity", "wall_forms.comb_lambda",
        "wall_forms.epsilon_star",
    ],
}

BLIND = {
    "binf_window": [
        "linear_forms.positivity_report", "walls.enumerate_walls",
        "walls.sites", "walls.transitions", "wall_forms.comb_infinity",
        "wall_forms.comb_lambda", "wall_forms.epsilon_star",
        "wall_forms.wall_form", "zcrystal.crystal_ops", "zcrystal.generate",
        "zcrystal.verify_equivalence",
    ],
    "lattice_cut": [
        "affine_data.periodic_map", "affine_data.thresholds",
        "adapted_sequence.shift_table", "walls.enumerate_walls",
        "walls.sites", "walls.transitions", "wall_forms.comb_infinity",
        "wall_forms.comb_lambda", "wall_forms.epsilon_star",
        "wall_forms.wall_form", "zcrystal.crystal_ops", "zcrystal.generate",
    ],
    "query_mix": [
        "linear_forms.closure", "linear_forms.positivity_report",
        "walls.sites", "wall_forms.wall_form", "zcrystal.crystal_ops",
        "zcrystal.generate", "zcrystal.verify_equivalence",
    ],
}

# run in the child: argv[1] is tracing.py, argv[2] the operations as JSON;
# prints the layers entered, as JSON
CHILD = """
import importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
import wallcrystal.cli as cli
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import parse_type
import wallcrystal.zcrystal as zc
tracer = tracing.Tracer()
tracer.install()
seq = from_permutation(parse_type("D2", 3), (3, 2, 1))
for i, op in enumerate(json.loads(sys.argv[2])):
    if len(op) == 1:
        tracer.span(i, lambda: zc.verify_equivalence(seq, op[0]))
    else:
        tracer.span(i, lambda: cli.main(op, io.StringIO()))
print(json.dumps(sorted(layer for layer, (calls, _, _) in tracer.stats.items()
                        if calls and layer != tracing.ROOT)))
"""


def _reached(ops):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", CHILD, str(TRACING),
                           json.dumps(ops)], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _layer_names():
    import importlib.util
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYER_NAMES


@pytest.mark.parametrize("workload", sorted(OPS))
def test_each_workload_reaches_the_pinned_layers(workload):
    assert sorted(REACHED[workload] + BLIND[workload]) == sorted(_layer_names())
    assert _reached(OPS[workload]) == sorted(REACHED[workload])
