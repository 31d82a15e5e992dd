import io
import json
import os
import subprocess
import sys

import pytest

import wallcrystal
from wallcrystal.cli import main
from wallcrystal.linear_forms import parse_form


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
        ("walls", "enum", *d2, "--k", "1", "--blocks", "-1"),
        ("verify", "props", *d2, "--blocks", "-1"),
        ("verify", "closure", *d2, "--periods", "1"),
        ("verify", "crystal", *d2, "--depth", "-1"),
        ("walls", "render", "--rank", "3", "--wall", "ground=yw:D2:k=9;cols=[1]"),
    ]
    for argv in cases:
        assert run(*argv)[0] == 1, argv
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), (argv, err)
