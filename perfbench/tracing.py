"""Per-layer tracing from outside the library.

Each traced function is replaced at every name callers look it up by:
module globals of the `wallcrystal` package (which also covers local
`from ... import` statements executed at call time) and, for
`ShiftTable.__call__`, the class attribute.  A wrapper records a span
with its parent.  Coarse layers keep every span; the hot leaf layers
(root-system tables, shift tables, site detection) are called millions of
times, so their spans are folded into (parent, child) edges with call
counts and durations.  Everything stays in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, module, attribute, keep every span)
LAYERS = (
    ("affine_data.thresholds", "wallcrystal.affine_data", "thresholds", False),
    ("affine_data.periodic_map", "wallcrystal.affine_data", "periodic_map", False),
    ("adapted_sequence.shift_table", "wallcrystal.adapted_sequence",
     "ShiftTable.__call__", False),
    ("walls.enumerate_walls", "wallcrystal.walls", "enumerate_walls", True),
    ("walls.sites", "wallcrystal.walls", "sites", False),
    ("walls.transitions", "wallcrystal.walls", "transitions", False),
    ("wall_forms.wall_form", "wallcrystal.wall_forms", "wall_form", False),
    ("wall_forms.comb_infinity", "wallcrystal.wall_forms", "comb_infinity", True),
    ("wall_forms.comb_lambda", "wallcrystal.wall_forms", "comb_lambda", True),
    ("wall_forms.epsilon_star", "wallcrystal.wall_forms", "epsilon_star", True),
    ("linear_forms.closure", "wallcrystal.linear_forms", "closure", True),
    ("linear_forms.positivity_report", "wallcrystal.linear_forms",
     "positivity_report", True),
    ("zcrystal.generate", "wallcrystal.zcrystal", "generate", True),
    ("zcrystal.verify_equivalence", "wallcrystal.zcrystal",
     "verify_equivalence", True),
    ("cli.main", "wallcrystal.cli", "main", True),
)

# the crystal operators `verify crystal` calls, wrapped only where the
# CLI looks them up, so that cli.main's self time is parsing and rendering
CRYSTAL_OPS = ("f_tilde", "e_tilde", "epsilon", "phi", "wt_pairing")
CRYSTAL_LAYER = "zcrystal.crystal_ops"

LAYER_NAMES = tuple(layer for layer, _, _, _ in LAYERS) + (CRYSTAL_LAYER,)

# counters derived at the layer boundaries: (name, unit, better)
COUNTERS = (
    ("walls.enumerated", "count", "lower"),
    ("walls.sites.returned", "count", "lower"),
    ("wall_forms.comb_infinity.budgets", "count", "lower"),
    ("wall_forms.comb_infinity.walls_per_form", "walls/form", "lower"),
    ("wall_forms.epsilon_star.budgets", "count", "lower"),
    ("linear_forms.closure.certified", "count", "higher"),
    ("linear_forms.closure.frontier", "count", "lower"),
    ("linear_forms.closure.kept_ratio", "ratio", "higher"),
    ("zcrystal.cut_points", "count", "lower"),
    ("zcrystal.generated", "count", "lower"),
)

ROOT = "op"


class Tracer:
    def __init__(self):
        self.stack = []        # frames: [layer, span id, child seconds]
        self.stats = {}        # layer -> [calls, total seconds, self seconds]
        self.edges = {}        # (parent layer, layer) -> [calls, seconds]
        self.spans = []        # (id, parent id, op id, layer, start, end)
        self.counters = {}
        self.budget_keys = set()
        self.next_id = 0
        self.op_id = None

    def count(self, key, value=1):
        self.counters[key] = self.counters.get(key, 0) + value

    def wrap(self, layer, fn, keep, hook=None):
        stack, clock = self.stack, time.perf_counter
        stats = self.stats.setdefault(layer, [0, 0.0, 0.0])
        edges, spans = self.edges, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            self.next_id += 1
            frame = [layer, self.next_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dt = end - start
                stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - frame[2]
                pname = parent[0] if parent else None
                if parent is not None:
                    parent[2] += dt
                edge = edges.get((pname, layer))
                if edge is None:
                    edge = edges[(pname, layer)] = [0, 0.0]
                edge[0] += 1
                edge[1] += dt
                if keep:
                    spans.append((frame[1], parent[1] if parent else None,
                                  self.op_id, layer, start, end))
            if hook is not None:
                hook(self, parent, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span(self, op_id, fn):
        """Run one benchmark operation as a root span."""
        # a deadline can interrupt a wrapper before it pops its frame
        self.stack.clear()
        self.op_id = op_id
        return self.wrap(ROOT, fn, True)()

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "wallcrystal" or name.startswith("wallcrystal.")}
        for layer, modname, attr, keep in LAYERS:
            owner = modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(layer, getattr(cls, meth), keep,
                                             HOOKS.get(layer)))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, original, keep, HOOKS.get(layer))
            for mod in modules.values():
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        cli = modules["wallcrystal.cli"]
        for name in CRYSTAL_OPS:
            setattr(cli, name, self.wrap(CRYSTAL_LAYER, getattr(cli, name), False))

    def metrics(self):
        """Per-layer calls and self seconds, and the COUNTERS."""
        out = {}
        for layer in LAYER_NAMES:
            calls, _, self_s = self.stats.get(layer, (0, 0.0, 0.0))
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        c = self.counters
        out.update((name, c.get(name, 0)) for name, _, _ in COUNTERS)
        out["wall_forms.comb_infinity.budgets"] = len(self.budget_keys)
        forms = c.get("comb_infinity.forms", 0)
        out["wall_forms.comb_infinity.walls_per_form"] = (
            c.get("comb_infinity.walls", 0) / forms if forms else 0.0)
        cert = out["linear_forms.closure.certified"]
        front = out["linear_forms.closure.frontier"]
        out["linear_forms.closure.kept_ratio"] = (
            cert / (cert + front) if cert + front else 0.0)
        return out

    def dump(self, path, extra):
        doc = dict(extra)
        doc["layers"] = {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                         for k, v in sorted(self.stats.items())}
        doc["edges"] = [{"parent": p, "child": ch, "calls": n, "total_s": t}
                        for (p, ch), (n, t) in sorted(
                            self.edges.items(), key=lambda kv: str(kv[0]))]
        doc["spans"] = [dict(zip(("id", "parent", "op", "layer", "start", "end"),
                                 s)) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _enumerate_hook(tr, parent, args, kwargs, result):
    tr.count("walls.enumerated", len(result))
    if parent is not None and parent[0] == "wall_forms.comb_infinity":
        tr.count("comb_infinity.walls", len(result))
        blocks = args[2] if len(args) > 2 else kwargs["max_blocks"]
        tr.budget_keys.add((parent[1], blocks))


def _comb_lambda_hook(tr, parent, args, kwargs, result):
    if parent is not None and parent[0] == "wall_forms.epsilon_star":
        tr.count("wall_forms.epsilon_star.budgets")


def _closure_hook(tr, parent, args, kwargs, result):
    tr.count("linear_forms.closure.certified", len(result[0]))
    tr.count("linear_forms.closure.frontier", len(result[1]))


HOOKS = {
    "walls.enumerate_walls": _enumerate_hook,
    "walls.sites": lambda tr, p, a, kw, r: tr.count("walls.sites.returned", len(r)),
    "wall_forms.comb_infinity":
        lambda tr, p, a, kw, r: tr.count("comb_infinity.forms", len(r)),
    "wall_forms.comb_lambda": _comb_lambda_hook,
    "linear_forms.closure": _closure_hook,
    "zcrystal.generate": lambda tr, p, a, kw, r: tr.count("zcrystal.generated", len(r)),
    "zcrystal.verify_equivalence":
        lambda tr, p, a, kw, r: tr.count("zcrystal.cut_points", r["cut"]),
}
