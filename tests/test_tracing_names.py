"""The names the benchmark's tracer wraps must exist: a deleted or
renamed function would otherwise surface only when
`perfbench/run.py --trace 1` fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize("layer,module,attribute,keep", tracing.LAYERS,
                         ids=[layer for layer, *_ in tracing.LAYERS])
def test_traced_layer_resolves(layer, module, attribute, keep):
    owner = importlib.import_module(module)
    for name in attribute.split("."):
        owner = getattr(owner, name)
    assert callable(owner), layer


@pytest.mark.parametrize("name", tracing.CRYSTAL_OPS)
def test_traced_crystal_op_resolves_on_the_cli(name):
    cli = importlib.import_module("wallcrystal.cli")
    assert callable(getattr(cli, name))


def test_lattice_results_keep_the_shape_the_benchmark_reads():
    # tracing.py counts len(generate(...)) and report["cut"]; checks.py
    # reads every key of the verify_equivalence report
    from wallcrystal.adapted_sequence import from_permutation
    from wallcrystal.affine_data import AffineType, Family
    from wallcrystal.zcrystal import ZElement, generate, verify_equivalence

    seq = from_permutation(AffineType(Family.D2, 3), (3, 2, 1))
    gen = generate(seq, 3)
    assert isinstance(gen, set) and len(gen) > 1
    assert all(isinstance(a, ZElement) for a in gen)
    report = verify_equivalence(seq, 3)
    assert set(report) == {"generated", "cut", "violations", "missing",
                           "extra", "ok"}
    assert report["generated"] == report["cut"] == len(gen)
    assert report["ok"] is True
    assert report["violations"] == report["missing"] == report["extra"] == []
