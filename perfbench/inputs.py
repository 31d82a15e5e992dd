"""Seeded inputs of the three workloads.

Every workload is a list of operations.  An operation is a dict with a
`kind`, a `label` and either a CLI `argv` (run through
`wallcrystal.cli.main(argv, out)`) or the arguments of a direct library
call.  The same seed gives the same list; the library only ever sees the
generated inputs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# The five acceptance settings: (type, rank, one period of the order,
# the dominant weight the acceptance suite pairs with the setting).
SETTINGS = {
    "D2": ("D2", 3, (3, 2, 1), (1, 1, 1)),
    "C1": ("C1", 3, (3, 2, 1), (2, 0, 1)),
    "B1": ("B1", 4, (2, 4, 3, 1), (1, 0, 1, 2)),
    "A2odd": ("A2odd", 4, (2, 4, 3, 1), (0, 1, 1, 0)),
    "D1": ("D1", 6, (6, 5, 4, 3, 2, 1), (1, 0, 0, 1, 0, 1)),
}

# Per-operation deadlines in seconds.
DEADLINE = {"binf_window": 60.0, "lattice_cut": 60.0, "query_mix": 2.0}

# Passes a run makes before --seconds is consulted.  A binf_window pass
# (~25 s on a 2-core machine) is too short to average out the minute-scale
# drift of a shared host's CPU speed; two passes halve that drift's share.
MIN_PASSES = {"binf_window": 2}

# The kinds of one query_mix round.  Every round uses one setting; each
# setting gets ROUNDS // 5 rounds per pass.
ROUND = ("ineq_binf", "ineq_blam_text", "ineq_blam_json", "walls_enum",
         "walls_render", "verify_props", "verify_crystal", "epsstar")
ROUNDS = 30


def config_args(name):
    family, rank, order, _ = SETTINGS[name]
    return ["--type", family, "--rank", str(rank),
            "--order", ",".join(map(str, order))]


def _csv(values):
    return ",".join(map(str, values))


def binf_window(seed):
    """`verify closure` on the five families, in a seeded order.

    D2 keeps the README's default window; the others use smaller windows
    so that the whole pass stays near 25 s on a 2-core machine.
    """
    periods = {"D2": [], "C1": ["--periods", "5"], "B1": ["--periods", "5"],
               "A2odd": ["--periods", "5"], "D1": ["--periods", "4"]}
    ops = [{"kind": "verify_closure", "label": f"verify closure {name}",
            "argv": ["verify", "closure"] + config_args(name) + extra}
           for name, extra in periods.items()]
    random.Random(seed).shuffle(ops)
    return ops


def lattice_cut(seed):
    """verify_equivalence at depth 8 for B(infinity) and depth 6 for a
    seeded B(lambda), plus the README's `verify positivity` on D2."""
    rng = random.Random(seed)
    ops = []
    for name in ("D2", "C1", "B1", "A2odd"):
        rank = SETTINGS[name][1]
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        ops.append({"kind": "equivalence", "label": f"equivalence {name} depth 8",
                    "setting": name, "depth": 8, "lam": None})
        ops.append({"kind": "equivalence",
                    "label": f"equivalence {name} depth 6 lambda {_csv(lam)}",
                    "setting": name, "depth": 6, "lam": list(lam)})
    ops.append({"kind": "verify_positivity", "label": "verify positivity D2",
                "argv": ["verify", "positivity"] + config_args("D2")
                + ["--lambda", "1,1,1"]})
    rng.shuffle(ops)
    return ops


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def query_mix(seed, pool):
    """ROUNDS rounds of one query of every ROUND kind, in a seeded order.

    Each (kind, setting) pool is sampled systematically: ROUNDS // 5
    evenly spaced entries from a seeded offset, in the pool's order of
    colour, shift, budget and weight.  Every pass then covers each pool
    evenly, so that the seed moves the inputs but not the cost mix.
    """
    pools = {}
    for entry in pool:
        pools.setdefault((entry["kind"], entry["setting"]), []).append(entry)
    rng = random.Random(seed)
    per_setting = ROUNDS // len(SETTINGS)
    picks = {}
    for key in sorted(pools):
        entries, u = pools[key], rng.random()
        picks[key] = [entries[int((u + i) * len(entries) / per_setting)]
                      for i in range(per_setting)]
        rng.shuffle(picks[key])
    names = [name for name in SETTINGS for _ in range(per_setting)]
    rng.shuffle(names)
    ops = []
    for name in names:
        batch = [picks[(kind, name)].pop() for kind in ROUND]
        rng.shuffle(batch)
        ops.extend({"kind": e["kind"], "label": " ".join(e["argv"]),
                    "argv": list(e["argv"])} for e in batch)
    return ops


WORKLOADS = {"binf_window": binf_window, "lattice_cut": lattice_cut,
             "query_mix": query_mix}


def query_pool(elements, literals):
    """Every query the query_mix stream can draw.

    `elements[name][k]` are epsstar element literals and
    `literals[name][k]` wall literals, both fixed at recording time.
    """
    pool = []

    for name, (_, rank, _, lam_values) in SETTINGS.items():
        def add(kind, argv, name=name):
            pool.append({"kind": kind, "setting": name, "argv": argv})

        base = config_args(name)
        weights = sorted({_csv([1] * rank), _csv([0] * rank), _csv(lam_values)})
        for k in range(1, rank + 1):
            kk = ["--k", str(k)]
            for s in (1, 2, 3):
                for blocks in (2, 4, 6):
                    add("ineq_binf", ["ineq", "binf"] + base + kk
                        + ["--s", str(s), "--blocks", str(blocks)])
            for lam in weights:
                for blocks in (4, 6):
                    q = ["ineq", "blam"] + base + kk + ["--lambda", lam,
                                                        "--blocks", str(blocks)]
                    add("ineq_blam_text", q)
                    add("ineq_blam_json", q + ["--format", "json"])
                    add("ineq_blam_json", q + ["--format", "json", "--bare"])
            for blocks in (1, 2, 3, 4):
                add("walls_enum", ["walls", "enum"] + base + kk
                    + ["--blocks", str(blocks)])
            for lit in literals[name][str(k)]:
                add("walls_render", ["walls", "render", "--rank", str(rank),
                                     "--wall", lit])
            for elem in elements[name][str(k)]:
                add("epsstar", ["epsstar"] + base + kk + ["--elem", elem])
        for blocks in (1, 2, 3):
            add("verify_props", ["verify", "props"] + base
                + ["--blocks", str(blocks)])
        for seed in range(4):
            add("verify_crystal", ["verify", "crystal"] + base
                + ["--samples", "50", "--seed", str(seed)])
    return pool
