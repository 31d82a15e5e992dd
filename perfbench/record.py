"""Record the reference outputs the benchmark compares against.

    python3 perfbench/record.py

Builds the query_mix pool (epsstar elements drawn from `generate`, wall
literals from `enumerate_walls`), runs every pool query and every
binf_window / positivity command, and writes perfbench/reference.json
with the sha256 digest of each stdout.  Queries are run in several
interpreters with different PYTHONHASHSEED values; a query whose stdout
differs between them is recorded as "unstable" rather than given a
digest.  A query that misses its deadline in the first interpreter is
recorded as "undecided".  Run it only at a commit whose output is the
reference.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402

HASH_SEEDS = 12
ELEMENTS_PER_SETTING = 8
LITERALS_PER_COLOUR = 3


def build_pool():
    from wallcrystal.adapted_sequence import from_permutation
    from wallcrystal.affine_data import parse_type
    from wallcrystal.walls import enumerate_walls, wall_literal
    from wallcrystal.zcrystal import generate, render_element

    rng = random.Random(0)
    elements, literals = {}, {}
    for name, (family, rank, order, _) in inputs.SETTINGS.items():
        seq = from_permutation(parse_type(family, rank), order)
        pool = sorted((a for a in generate(seq, 3) if a.support),
                      key=lambda a: a.items())
        picked = [render_element(seq, a)
                  for a in rng.sample(pool, ELEMENTS_PER_SETTING)]
        elements[name] = {str(k): picked for k in range(1, rank + 1)}
        literals[name] = {}
        for k in range(1, rank + 1):
            lits = sorted(wall_literal(w)
                          for w in enumerate_walls(seq.wall_type, k, 3))
            literals[name][str(k)] = rng.sample(lits, min(LITERALS_PER_COLOUR,
                                                          len(lits)))
    return inputs.query_pool(elements, literals)


def commands():
    ops = inputs.binf_window(0) + [op for op in inputs.lattice_cut(0)
                                   if "argv" in op]
    return [op["argv"] for op in ops]


def child(path, deadline):
    """Run the argv lists in `path`; print {key: digest or null}."""
    import worker

    worker.install_alarm()
    with open(path) as fh:
        argvs = json.load(fh)
    out = {}
    for argv in argvs:
        status, result, _, _ = worker.run_with_deadline(worker.cli_call(argv),
                                                        deadline)
        if status == "undecided":
            out[" ".join(argv)] = None
        elif status == "error" or result[0] != 0:
            raise SystemExit(f"reference query failed: {argv}: {result}")
        else:
            out[" ".join(argv)] = worker.digest(result[1])
    print(json.dumps(out))


def run_children(argvs, deadline, seeds, scratch):
    path = scratch / "record-argv.json"
    path.write_text(json.dumps(argvs))
    runs = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("WALLCRYSTAL_THREADS", None)
    for hs in seeds:
        env["PYTHONHASHSEED"] = str(hs)
        proc = subprocess.run(
            [sys.executable, str(HERE / "record.py"), "--child", str(path),
             str(deadline)], env=env, capture_output=True, text=True,
            check=True, timeout=1800)
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    return runs


def write_reference(recorded, pool):
    """One pool entry per line, so that a re-recording diffs readably."""
    with open(inputs.REFERENCE, "w") as fh:
        fh.write('{"commands": ' + json.dumps(recorded, indent=1) + ',\n')
        fh.write(' "query_mix": [\n')
        fh.write(",\n".join(json.dumps(e) for e in pool))
        fh.write("\n]}\n")


def main():
    scratch = HERE / "out"
    scratch.mkdir(exist_ok=True)
    pool = build_pool()
    argvs = [e["argv"] for e in pool]
    first = run_children(argvs, inputs.DEADLINE["query_mix"], [1], scratch)[0]
    decided = [a for a in argvs if first[" ".join(a)] is not None]
    others = run_children(decided, inputs.DEADLINE["query_mix"],
                          range(2, HASH_SEEDS + 1), scratch)
    for entry in pool:
        key = " ".join(entry["argv"])
        digest = first[key]
        if digest is None:
            entry.update(outcome="undecided", digest=None)
        elif any(run.get(key) not in (None, digest) for run in others):
            entry.update(outcome="unstable", digest=None)
        else:
            entry.update(outcome="decided", digest=digest)

    cmd_argvs = commands()
    cmd_runs = run_children(cmd_argvs, inputs.DEADLINE["binf_window"], [1, 2],
                            scratch)
    recorded = {}
    for argv in cmd_argvs:
        key = " ".join(argv)
        got = {run[key] for run in cmd_runs}
        if len(got) != 1 or None in got:
            raise SystemExit(f"command output not reproducible: {key}")
        recorded[key] = got.pop()

    write_reference(recorded, pool)
    counts = {}
    for entry in pool:
        counts[(entry["kind"], entry["outcome"])] = \
            counts.get((entry["kind"], entry["outcome"]), 0) + 1
    for (kind, outcome), n in sorted(counts.items()):
        print(f"{kind:16s} {outcome:10s} {n}")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--child":
        child(sys.argv[2], float(sys.argv[3]))
    else:
        main()
