import argparse
import contextlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import find, given, settings, strategies as st

import wallcrystal
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.affine_data import parse_type
from wallcrystal.cli import _int_list, build_parser, main
from wallcrystal.linear_forms import _forms, parse_form, render_form
from wallcrystal.zcrystal import generate, render_element


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_ineq_binf_golden_families():
    code, text = run("ineq", "binf", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "1", "--s", "1",
                     "--blocks", "6")
    assert code == 0
    lines = text.splitlines()
    assert lines == sorted(lines)
    got = {parse_form(line) for line in lines}
    for want in ["x[1,1]", "2 x[2,2] - x[2,1]", "x[2,2] + x[3,3] - x[3,2]",
                 "x[2,1] + 2 x[3,3] - 2 x[3,2]", "x[2,1] + x[3,3] - x[4,3]"]:
        assert parse_form(want) in got


def test_ineq_output_is_deterministic():
    args = ("ineq", "binf", "--type", "A2odd", "--rank", "4",
            "--order", "2,4,3,1", "--k", "3", "--blocks", "4")
    assert run(*args) == run(*args)
    # provenance names the first wall giving each form, so it must not
    # depend on the interpreter's string hashing
    argv = ["ineq", "binf", "--type", "D2", "--rank", "3", "--order", "3,2,1",
            "--k", "1", "--s", "3", "--blocks", "6", "--format", "json"]
    src = os.path.dirname(os.path.dirname(wallcrystal.__file__))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "wallcrystal.cli", *argv],
                              env=env, capture_output=True, text=True,
                              check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == run(*argv)[1]


def test_ineq_blam_json():
    code, text = run("ineq", "blam", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "3", "--lambda", "1,1,1",
                     "--format", "json")
    assert code == 0
    doc = json.loads(text)
    assert doc["type"] == "D2" and doc["k"] == 3 and doc["lambda"] == [1, 1, 1]
    assert doc["forms"] == [{"constant": 1, "terms": [[1, 3, -1]],
                             "provenance": "singleton"}]
    code, text = run("ineq", "blam", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "3", "--lambda", "1,1,1",
                     "--format", "json", "--bare")
    assert "provenance" not in text


def test_epsstar():
    code, text = run("epsstar", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "3", "--elem", "a[1,3]=2")
    assert (code, text) == (0, "2\n")
    code, text = run("epsstar", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "2", "--elem", "")
    assert (code, text) == (0, "0\n")


def test_epsstar_decides_where_the_quiet_step_rule_stalled():
    # the stop rule this replaced ran past 10 s on this element
    start = time.monotonic()
    code, text = run("epsstar", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "1",
                     "--elem", "a[1,1]=1;a[2,2]=1")
    assert (code, text) == (0, "1\n")
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("setting", ["D2 3 3,2,1", "C1 3 3,2,1", "B1 4 2,4,3,1",
                                     "A2odd 4 2,4,3,1", "D1 6 6,5,4,3,2,1"])
def test_verify_star(setting):
    family, rank, order = setting.split()
    code, text = run("verify", "star", "--type", family, "--rank", rank,
                     "--order", order, "--depth", "4")
    assert code == 0
    (line,) = text.splitlines()
    assert line.startswith("star checked=") and line.endswith(" violations=0")
    assert int(line.split()[1].split("=")[1]) > 0


def test_verify_star_prints_witnesses(monkeypatch):
    # a chart value one too low is exceeded by the wall formula wherever
    # the value is 0
    import wallcrystal.wall_forms as wall_forms

    real = wall_forms.star_length
    monkeypatch.setattr(wall_forms, "star_length",
                        lambda seq, k, a: real(seq, k, a) - 1)
    code, text = run("verify", "star", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--depth", "1")
    assert code == 2
    lines = text.splitlines()
    assert lines[0] == "star checked=12 violations=10"
    assert lines[1] == ("  violation: epsilon*_1 of 0: the wall formula gives "
                        "0 at budget 0, the chart -1")
    assert len(lines) == 11


def test_verify_crystal_prints_witnesses(monkeypatch):
    # a weight that grows by one more than the Cartan column at colour 1
    # fails every (element, colour) pair: 10 samples of 3 colours give 30
    # violations, of which the first 20 are printed in sample order
    import wallcrystal.cli as cli
    import wallcrystal.zcrystal as zcrystal
    from wallcrystal.zcrystal import check_in_binf, parse_element

    real = zcrystal._profile

    def profile(seq, items):
        eps, first, last, w = real(seq, items)
        return eps, first, last, [w[0] + sum(v for _, v in items)] + w[1:]

    for module in (zcrystal, cli):
        if hasattr(module, "_profile"):
            monkeypatch.setattr(module, "_profile", profile)
    code, text = run("verify", "crystal", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--samples", "10", "--depth", "4")
    assert code == 2
    lines = text.splitlines()
    assert lines[0] == "crystal samples=10 violations=30"
    assert len(lines) == 21
    seq = from_permutation(parse_type("D2", 3), (3, 2, 1))
    for i, line in enumerate(lines[1:]):
        m = re.fullmatch(r"  violation: colour (\d) at (.+)", line)
        assert m and int(m.group(1)) == i % 3 + 1, line
        a = parse_element(seq, "" if m.group(2) == "0" else m.group(2))
        assert render_element(seq, a) == m.group(2)
        check_in_binf(seq, a)
    # the three colours of one sample name one element
    assert len({line.split(" at ")[1] for line in lines[1:4]}) == 1


def test_verify_crystal_profiles_each_element_once(monkeypatch):
    # each sample reads 1 + |word| + n profiles: the word's elements, a
    # and its n successors.  The words revisit the same small elements,
    # and each distinct one is profiled once per command.
    import random

    import wallcrystal.cli as cli
    import wallcrystal.zcrystal as zcrystal

    real, seen = zcrystal._profile, []

    def profile(seq, items):
        seen.append(items)
        return real(seq, items)

    for module in (zcrystal, cli):
        if hasattr(module, "_profile"):
            monkeypatch.setattr(module, "_profile", profile)
    assert run("verify", "crystal", "--type", "D1", "--rank", "6", "--order",
               "6,5,4,3,2,1", "--samples", "50", "--seed", "3") \
        == (0, "crystal samples=50 violations=0\n")
    rng, lookups = random.Random(3), 0
    for _ in range(50):
        length = rng.randint(0, 6)
        for _ in range(length):
            rng.choice(range(6))
        lookups += 1 + length + 6
    assert len(seen) == len(set(seen)) < lookups, (len(seen), lookups)
    assert seen[0] == ()


def test_verify_crystal_memory_stays_flat():
    # 4,000 words of up to 60 steps meet about 100,000 distinct elements.
    # The profile cache is bounded, so the child peaks near 18 MB; with
    # one profile kept per element it peaked at 77 MB.  VmHWM is read,
    # not ru_maxrss, which a child inherits from the test process.
    code = (
        "import io, re\n"
        "from wallcrystal.cli import main\n"
        "out = io.StringIO()\n"
        "main(['verify', 'crystal', '--type', 'D2', '--rank', '3',\n"
        "      '--order', '3,2,1', '--samples', '4000', '--depth', '60'],\n"
        "     out=out)\n"
        "with open('/proc/self/status') as f:\n"
        "    peak = re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)\n"
        "print(out.getvalue().strip(), peak, sep=';')\n")
    src = os.path.dirname(os.path.dirname(wallcrystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    text, peak_kb = proc.stdout.strip().split(";")
    assert text == "crystal samples=4000 violations=0"
    assert int(peak_kb) < 40 * 1024, peak_kb


def test_interned_sequences_keep_memory_flat():
    # `verify closure --periods 5` on every rank-4 order of four families
    # builds 96 sequences, six times the interning bound.  Each keeps its
    # wall-to-form tables while interned, so the child peaks near 21 MB,
    # against 28 MB with every sequence kept and 19 MB with none.  VmHWM
    # is read, not ru_maxrss, which a child inherits from the test process.
    code = (
        "import io, itertools, re\n"
        "from wallcrystal import adapted_sequence\n"
        "from wallcrystal.cli import main\n"
        "out = io.StringIO()\n"
        "for family in ('B1', 'C1', 'A2odd', 'D2'):\n"
        "    for order in itertools.permutations('1234'):\n"
        "        main(['verify', 'closure', '--type', family, '--rank', '4',\n"
        "              '--order', ','.join(order), '--periods', '5'], out=out)\n"
        "with open('/proc/self/status') as f:\n"
        "    peak = re.search(r'VmHWM:\\s+(\\d+) kB', f.read()).group(1)\n"
        "kept = adapted_sequence._interned.cache_info().currsize\n"
        "print(out.getvalue().count('MISMATCH'), kept,\n"
        "      adapted_sequence._SEQUENCES, peak, sep=';')\n")
    src = os.path.dirname(os.path.dirname(wallcrystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-500:]
    mismatches, kept, bound, peak_kb = map(int, proc.stdout.strip().split(";"))
    assert mismatches == 0
    assert kept == bound < 96
    assert peak_kb < 25 * 1024, peak_kb


def test_a_dropped_sequence_is_freed_without_the_collector():
    # what a sequence keeps (shift-table values, profile tables, wall-to-
    # form tables) holds no reference back to it, so once the interning
    # drops it, reference counting alone frees it, after every command
    # that fills those tables
    import gc
    import weakref

    from wallcrystal import adapted_sequence

    d2 = ("--type", "D2", "--rank", "3", "--order", "3,2,1")
    gc.disable()
    try:
        for argv in (("verify", "closure", *d2), ("verify", "props", *d2),
                     ("ineq", "blam", *d2, "--k", "1", "--lambda", "1,1,1"),
                     ("ineq", "binf", *d2, "--support-max", "6"),
                     ("epsstar", *d2, "--k", "2", "--elem", "a[1,2]=1;a[1,3]=1"),
                     ("verify", "crystal", *d2)):
            assert run(*argv)[0] == 0, argv
        seq = from_permutation(parse_type("D2", 3), (3, 2, 1))
        ref = weakref.ref(seq)
        del seq
        adapted_sequence._interned.cache_clear()
        assert ref() is None
    finally:
        gc.enable()


def test_epsstar_rejects_elements_outside_binf(capsys):
    # both are nonnegative, yet e_tilde does not lead them down to 0
    d2 = ("--type", "D2", "--rank", "3", "--order", "3,2,1")
    for k, elem in (("3", "a[2,3]=1"), ("2", "a[2,1]=1")):
        assert run("epsstar", *d2, "--k", k, "--elem", elem) == (1, "")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert err[0].endswith("is not in B(infinity)"), err


def test_walls_enum_and_render():
    code, text = run("walls", "enum", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--k", "1", "--blocks", "2")
    assert code == 0
    lits = text.splitlines()
    assert "ground=pair:C1:k=1;sup=[];cov=[]" in lits
    code, pic = run("walls", "render", "--rank", "3",
                    "--wall", lits[0])
    assert code == 0
    assert "supporting:" in pic and "covering:" in pic


def test_walls_render_tall_column():
    # 5000 rows of cells, each read by index from the column table
    start = time.monotonic()
    code, pic = run("walls", "render", "--rank", "3",
                    "--wall", "ground=yw:D2:k=1;cols=[5000]")
    assert code == 0 and pic
    assert time.monotonic() - start < 5.0


def test_walls_render_refuses_a_column_past_the_bound():
    # one line and exit 1 at once, where drawing it would take minutes
    src = os.path.dirname(os.path.dirname(wallcrystal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "wallcrystal.cli", "walls", "render",
         "--rank", "3", "--wall", "ground=yw:D2:k=1;cols=[99999999]"],
        env=env, capture_output=True, text=True, timeout=10)
    assert time.monotonic() - start < 2.0
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == \
        "error: a column adds at most 10000 atoms, not 99999999\n"
    code, pic = run("walls", "render", "--rank", "3",
                    "--wall", "ground=yw:D2:k=1;cols=[10000]")
    assert code == 0 and pic.count("\n") == 13335


def test_verify_props_and_crystal():
    code, text = run("verify", "props", "--type", "C1", "--rank", "3",
                     "--order", "3,2,1", "--blocks", "4")
    assert code == 0 and "violations=0" in text
    code, text = run("verify", "crystal", "--type", "B1", "--rank", "4",
                     "--order", "2,4,3,1", "--samples", "40", "--depth", "5")
    assert code == 0 and "violations=0" in text


def test_verify_closure_small():
    code, text = run("verify", "closure", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--s-max", "1", "--periods", "4")
    assert code == 0
    assert text.count("ok") == 3 and "MISMATCH" not in text
    # the fewest periods that certify a window
    code, text = run("verify", "closure", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--s-max", "1", "--periods", "3")
    assert code == 0 and text.count("ok") == 3


def test_verify_closure_readme_b1():
    # the README's B1 command at the default --periods 6
    code, text = run("verify", "closure", "--type", "B1", "--rank", "4",
                     "--order", "2,4,3,1")
    assert code == 0
    assert text.splitlines() == [
        "closure k=1 ok cert=16 walls=16",
        "closure k=2 ok cert=62 walls=62",
        "closure k=3 ok cert=324 walls=324",
        "closure k=4 ok cert=804 walls=804",
    ]


def test_verify_closure_prints_witnesses(monkeypatch):
    # drop one certified form: the MISMATCH names it with its wall witness
    import wallcrystal.cli as cli

    real, dropped = cli.closure, []

    def closure(seq, *args, **kwargs):
        certs, frontier = real(seq, *args, **kwargs)
        if not dropped:
            v = min(certs, key=lambda v: render_form(*_forms(seq, [v])))
            dropped.append(*_forms(seq, [v]))
            certs = [u for u in certs if u != v]
        return certs, frontier

    monkeypatch.setattr(cli, "closure", closure)
    code, text = run("verify", "closure", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--periods", "4")
    assert code == 2
    lines = text.splitlines()
    assert lines[0].startswith("closure k=1 MISMATCH")
    prefix = f"  walls only: {render_form(dropped[0])} "
    assert lines[1].startswith(prefix + "L[")
    assert not lines[2].startswith("  ")  # the only witness


def test_verify_closure_caps_the_seeds_at_the_window(monkeypatch):
    # seeds past s = W // n + 1 lie past the window: a huge --s-max hands
    # the closure no more seeds than the window holds, and prints what
    # --s-max 5 (= W // n + 1 on D2 rank 3, W = 12) prints
    import wallcrystal.cli as cli

    real, seeds = cli.closure, []

    def closure(seq, given, *args, **kwargs):
        seeds.extend(given)
        return real(seq, given, *args, **kwargs)

    monkeypatch.setattr(cli, "closure", closure)
    d2 = ("verify", "closure", "--type", "D2", "--rank", "3",
          "--order", "3,2,1", "--periods", "6")
    big = run(*d2, "--s-max", "1000")
    n, W = 3, 12
    assert len(seeds) <= n * (W // n + 1)
    assert big[0] == 0 and big == run(*d2, "--s-max", "5")


def test_thread_cap_env(monkeypatch):
    # the program runs on one thread; a WALLCRYSTAL_THREADS left in the
    # environment, valid or not, must not change what it prints or exits with
    argv = ("verify", "closure", "--type", "D2", "--rank", "3",
            "--order", "3,2,1", "--s-max", "1", "--periods", "4")
    monkeypatch.delenv("WALLCRYSTAL_THREADS", raising=False)
    expected = run(*argv)
    assert expected[0] == 0 and "MISMATCH" not in expected[1]
    for value in ("2", "abc"):
        monkeypatch.setenv("WALLCRYSTAL_THREADS", value)
        assert run(*argv) == expected, value


def test_verify_positivity():
    code, text = run("verify", "positivity", "--type", "D2", "--rank", "3",
                     "--order", "3,2,1", "--lambda", "1,1,1", "--periods", "4")
    assert code == 0
    assert text == "xi_positive: true\nstrict_positive: true\nample: true\n"
    # the fewest periods that certify a window
    code, _ = run("verify", "positivity", "--type", "D2", "--rank", "3",
                  "--order", "3,2,1", "--lambda", "1,1,1", "--periods", "2")
    assert code == 0


def test_cli_imports_no_private_wall_forms_name():
    # the CLI reads walls' forms through the public wall-to-form map
    import ast
    from pathlib import Path

    source = Path(__file__).parent.parent / "src" / "wallcrystal" / "cli.py"
    tree = ast.parse(source.read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom)
             and node.module == "wallcrystal.wall_forms"
             for alias in node.names]
    assert names, "cli.py imports nothing from wallcrystal.wall_forms"
    assert not [name for name in names if name.startswith("_")], names


def test_usage_errors_exit_one(capsys):
    d2 = ("--type", "D2", "--rank", "3", "--order", "3,2,1")
    cases = [
        ("ineq", "binf", "--type", "nope", "--rank", "3", "--order", "3,2,1"),
        ("ineq", "blam", *d2, "--k", "1"),
        ("epsstar", *d2, "--k", "2", "--elem", "nonsense"),
        ("walls", "render", "--rank", "3"),
        ("ineq", "binf", "--type", "D2", "--rank", "3", "--order", "3,2,2"),
        ("ineq", "binf", *d2, "--k", "9"),
        ("ineq", "blam", *d2, "--k", "9", "--lambda", "1,1,1"),
        ("ineq", "binf", *d2, "--s", "0"),
        ("ineq", "binf", *d2, "--blocks", "-1"),
        ("ineq", "binf", *d2, "--support-max", "-5"),
        # the window replaces the block budget: the two are refused together
        ("ineq", "binf", *d2, "--k", "1", "--support-max", "9", "--blocks", "4"),
        # options another mode takes are refused, not ignored
        ("ineq", "blam", *d2, "--k", "1", "--lambda", "1,1,1", "--support-max", "9"),
        ("ineq", "blam", *d2, "--k", "1", "--lambda", "1,1,1", "--s", "2"),
        ("ineq", "binf", *d2, "--k", "1", "--lambda", "1,1,1"),
        ("verify", "crystal", *d2, "--lambda", "1,1,1"),
        ("verify", "closure", *d2, "--depth", "99"),
        ("verify", "props", *d2, "--periods", "0"),
        ("verify", "star", *d2, "--samples", "200"),
        ("walls", "enum", *d2, "--k", "1", "--wall", "x"),
        ("walls", "render", "--rank", "3", "--blocks", "4",
         "--wall", "ground=pair:C1:k=1;sup=[1];cov=[1]"),
        ("walls", "enum", *d2, "--k", "1", "--blocks", "-1"),
        ("verify", "props", *d2, "--blocks", "-1"),
        ("verify", "closure", *d2, "--periods", "1"),
        ("verify", "closure", *d2, "--periods", "2"),
        ("verify", "positivity", *d2, "--lambda", "1,1,1", "--periods", "1"),
        # the mode comes before any option
        ("ineq", *d2, "binf"),
        # options are spelled in full, not abbreviated
        ("verify", "closure", *d2, "--s", "1"),
        ("ineq", "binf", *d2, "--k", "1", "--supp", "3"),
        ("verify", "crystal", *d2, "--depth", "-1"),
        ("walls", "render", "--rank", "3", "--wall", "ground=yw:D2:k=9;cols=[1]"),
        # a code must name the lone atom of the state its count picks
        ("walls", "render", "--rank", "4", "--wall", "ground=yw:B1:k=1;cols=[1l]"),
        ("walls", "render", "--rank", "4", "--wall", "ground=cov:B1:k=3;cols=[8l]"),
        ("verify", "closure", "--type", "A2evenDagger", "--rank", "3",
         "--order", "1,2,3", "--periods", "5"),
        ("walls", "enum", "--type", "A2dagger", "--rank", "3",
         "--order", "1,2,3", "--k", "1"),
        ("epsstar", *d2, "--k", "1", "--elem", "a[1,1]=-1"),
        ("epsstar", *d2, "--k", "1", "--elem", "a[1,7]=1"),
    ]
    for argv in cases:
        assert run(*argv)[0] == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
        if "--type" in argv and "dagger" in argv[argv.index("--type") + 1].lower():
            assert "A1, B1, C1, D1, A2even, A2odd, D2" in err[0], err
    assert "colour 7" in err[0]


@pytest.mark.parametrize("argv, message", [
    (("ineq", "blam", "--k", "1", "--lambda", "1,1,1", "--s", "2"),
     "unrecognized arguments: --s 2"),
    (("ineq", "blam"), "the following arguments are required: --k, --lambda"),
    (("verify", "closure", "--periods", "2"),
     "argument --periods: must be at least 3, got 2"),
    (("verify", "positivity", "--lambda", "1,1,1", "--periods", "1"),
     "argument --periods: must be at least 2, got 1"),
])
def test_usage_errors_name_the_option(capsys, argv, message):
    d2 = ("--type", "D2", "--rank", "3", "--order", "3,2,1")
    assert run(*argv[:2], *d2, *argv[2:])[0] == 1
    assert capsys.readouterr().err == f"error: {message}\n"


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
CONFIG = {"--type": None, "--rank": None, "--order": None}


def readme_options():
    """The README's per-mode option list under "## Command line": mode ->
    {option: its default in brackets, or None}, with the configuration
    unless the entry ends in "only"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    section = section.split("with defaults in brackets", 1)[1].replace("\n  ", " ")
    modes = {}
    for mode, body in re.findall(r"^- `([a-z ]+)`: (.*)[;.]$", section, re.M):
        options = {flag: default or None for flag, default in
                   re.findall(r"`(--[a-z-]+)`(?: \(([^)]*)\))?", body)}
        modes[mode] = options if body.endswith(" only") else {**CONFIG, **options}
    return modes


def parser_options():
    """The same, read from each mode's subparser: an option's default is
    None where it must be given, has none or is a flag."""
    modes = {}

    def walk(parser, name):
        subs = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
        if subs:
            for mode, sub in subs[0].choices.items():
                walk(sub, f"{name} {mode}".strip())
            return
        modes[name] = {
            a.option_strings[-1]: None if a.required or a.default is None
            or a.nargs == 0 else str(a.default)
            for a in parser._actions if a.option_strings and a.dest != "help"}

    walk(build_parser(), "")
    return modes


def test_readme_option_list_matches_the_parser():
    documented = readme_options()
    assert len(documented) == 10
    assert documented == parser_options()


# --- fuzzing the command line ------------------------------------------

FUZZ_SETTINGS = [("D2", "3", "3,2,1"), ("C1", "3", "3,2,1"),
                 ("B1", "4", "2,4,3,1"), ("A2odd", "4", "2,4,3,1"),
                 ("D1", "6", "6,5,4,3,2,1")]
# each command with the options it needs and the options it takes
FUZZ_COMMANDS = {
    ("ineq", "binf"): ([], ["--k", "--s", "--support-max", "--format", "--bare"]),
    ("ineq", "blam"): (["--k", "--lambda"], ["--format", "--bare"]),
    ("epsstar",): (["--k", "--elem"], []),
    ("walls", "enum"): (["--k"], []),
    ("walls", "render"): (["--wall"], []),
    ("verify", "closure"): ([], ["--s-max"]),
    ("verify", "crystal"): ([], ["--seed"]),
    ("verify", "props"): ([], []),
    ("verify", "star"): ([], []),
    ("verify", "positivity"): (["--lambda"], []),
}
# the size options each command reads; a command refuses the others
FUZZ_SIZES = {
    ("ineq", "binf"): ["--blocks"], ("ineq", "blam"): ["--blocks"],
    ("walls", "enum"): ["--blocks"], ("verify", "props"): ["--blocks"],
    ("verify", "closure"): ["--periods"], ("verify", "positivity"): ["--periods"],
    ("verify", "crystal"): ["--depth", "--samples"], ("verify", "star"): ["--depth"],
}
SIZE_RANGE = {"--blocks": (0, 3), "--depth": (0, 3), "--periods": (1, 4),
              "--samples": (0, 5)}


def _member(family, rank, order):
    """An element of B(infinity) of total 3 with the most entries, as a
    literal."""
    seq = from_permutation(parse_type(family, int(rank)), _int_list(order))
    return render_element(seq, max(generate(seq, 3), key=lambda a: (
        len(a.support), a.items())))


# elements epsstar must answer; the bad ones are literals it rejects
FUZZ_ELEMENTS = {family: ["", _member(family, rank, order)]
                 for family, rank, order in FUZZ_SETTINGS}
FUZZ_BAD_ELEMENTS = ["a[1,1]=-1", "a[1,9]=1", "a[0,1]=1", "a[1,1]=", "nonsense",
                     "a[1,1]=1;;", "a[2,1]=1"]
FUZZ_WALLS = ["ground=pair:C1:k=1;sup=[1];cov=[1]", "ground=yw:D2:k=1;cols=[2]",
              "ground=pair:C1:k=1;sup=[];cov=[]"]
FUZZ_BAD_WALLS = ["ground=yw:D2:k=9;cols=[1]", "ground=yw:D2:k=1;cols=[-1]",
                  "nonsense", ""]
FUZZ_JUNK = ["--bogus", "zz", "-5", "", "1,2", "--bare", "--format", "json",
             "--k", "--type", "--help", "a[1,1]=1", "9" * 30, "-"]


@st.composite
def fuzz_argv(draw):
    odd = st.sampled_from([False] * 5 + [True])  # true one time in six

    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(odd) else list(good)))

    def small(low, high):
        return pick(map(str, range(low, high + 1)), [str(low - 1), "x"])

    command = draw(st.sampled_from(sorted(FUZZ_COMMANDS)))
    needed, taken = FUZZ_COMMANDS[command]
    family, rank, order = draw(st.sampled_from(FUZZ_SETTINGS))
    n = int(rank)
    values = {
        "--k": lambda: small(1, n), "--s": lambda: small(1, 3),
        "--s-max": lambda: small(1, 2), "--support-max": lambda: small(1, 2 * n),
        "--seed": lambda: small(0, 3),
        "--format": lambda: pick(["text", "json"], ["xml"]),
        "--elem": lambda: pick(FUZZ_ELEMENTS[family], FUZZ_BAD_ELEMENTS),
        "--wall": lambda: pick(FUZZ_WALLS, FUZZ_BAD_WALLS),
        "--lambda": lambda: ",".join(draw(st.lists(
            st.sampled_from("012"), min_size=n, max_size=n))
            if not draw(odd) else ["1"] * (n - 1) + [draw(st.sampled_from(["-1", ""]))]),
    }
    argv = list(command)
    if command == ("walls", "render"):
        argv += ["--rank", rank]
    elif not draw(odd):
        argv += ["--type", pick([family], ["E8"]), "--rank", pick([rank], ["0", "99"]),
                 "--order", pick([order], ["1,1,2", "a,b"])]
    flags = [f for f in needed if not draw(odd)]
    flags += draw(st.lists(st.sampled_from(taken or needed or ["--k"]), max_size=2))
    if draw(odd):
        flags.append(draw(st.sampled_from(sorted(values) + ["--bare"])))
    for flag in flags:
        argv += [flag] if flag == "--bare" else [flag, values[flag]()]
    if draw(odd):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(FUZZ_JUNK)))
    # the sizes the command reads last, so that they bound every run
    # whatever came before; a window excludes the block budget and bounds
    # a windowed `ineq binf` itself, so that draw takes its --support-max
    # last instead
    for flag in FUZZ_SIZES.get(command, ()):
        if command == ("ineq", "binf") and "--support-max" in argv:
            argv += ["--support-max", values["--support-max"]()]
        else:
            argv += [flag, small(*SIZE_RANGE[flag])]
    return argv


def test_fuzz_draws_windowed_binf_runs():
    # a windowed `ineq binf` draw is bounded by its window, not refused
    # for an appended --blocks
    argv = find(fuzz_argv(), lambda argv: argv[:2] == ["ineq", "binf"]
                and "--support-max" in argv and "--blocks" not in argv)
    assert argv[-2] == "--support-max"


@given(argv=fuzz_argv())
@settings(max_examples=60, deadline=None)
def test_cli_fuzz(argv):
    # any argv exits 0, 1 or 2 with at most one error line and no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            code = main(argv, out=out)
        except SystemExit as e:  # --help
            code = e.code or 0
    assert code in (0, 1, 2), (argv, code)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    assert sum(line.startswith("error:") for line in lines) <= 1, (argv, lines)
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
