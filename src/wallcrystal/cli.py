"""Command-line surface: inequality generation, star string lengths,
wall enumeration and rendering, and the verification suites."""

from __future__ import annotations

import argparse
import json
import sys

from wallcrystal.affine_data import parse_type
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import (
    DominantWeight, beta, closure, lambda_form, positivity_report, render_form,
    support_bound, x,
)
from wallcrystal.walls import (
    enumerate_walls, parse_wall, render, transitions, wall_literal,
)
from wallcrystal.wall_forms import (
    NotStabilized, comb_infinity, comb_lambda, epsilon_star, site_form,
)
from wallcrystal.zcrystal import (
    ZElement, e_tilde, epsilon, f_tilde, parse_element, phi, verify_equivalence,
    wt_pairing,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _at_least(low):
    """An argparse type: an integer no smaller than low."""
    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in its messages
    return parse


def _int_list(text):
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}")


def _sequence(args):
    try:
        g = parse_type(args.type, args.rank)
    except Exception as e:
        raise UsageError(str(e))
    order = _int_list(args.order)
    try:
        return from_permutation(g, order)
    except Exception as e:
        raise UsageError(str(e))


def _colour(seq, k):
    if k not in seq.base_type.index_set:
        raise UsageError(f"colour {k} outside the index set")


def _weight(seq, text):
    values = _int_list(text)
    if len(values) != seq.n:
        raise UsageError(f"lambda needs {seq.n} entries, got {len(values)}")
    try:
        return DominantWeight(values)
    except ValueError as e:
        raise UsageError(str(e))


def _emit_ineqs(ineqs, args, out):
    if args.format == "json":
        doc = ineqs.to_json_doc()
        if args.bare:
            for entry in doc["forms"]:
                entry.pop("provenance", None)
        out.write(json.dumps(doc) + "\n")
    else:
        text = ineqs.to_text()
        if text:
            out.write(text + "\n")


def _cmd_ineq(args, out):
    seq = _sequence(args)
    if args.k is not None:
        _colour(seq, args.k)
    if args.mode == "binf":
        ineqs = comb_infinity(seq, (args.s, args.blocks), k=args.k,
                              support_max=args.support_max)
    else:
        if args.k is None:
            raise UsageError("ineq blam needs --k")
        lam = _weight(seq, args.lam)
        ineqs = comb_lambda(seq, args.k, lam, args.blocks)
    _emit_ineqs(ineqs, args, out)
    return 0


def _cmd_epsstar(args, out):
    seq = _sequence(args)
    _colour(seq, args.k)
    try:
        a = parse_element(seq, args.elem)
    except ValueError as e:
        raise UsageError(str(e))
    out.write(f"{epsilon_star(seq, args.k, a.as_double(seq))}\n")
    return 0


def _cmd_walls(args, out):
    if args.mode == "render":
        try:
            w = parse_wall(args.wall, args.rank)
        except ValueError as e:
            raise UsageError(str(e))
        out.write(render(w) + "\n")
        return 0
    seq = _sequence(args)
    _colour(seq, args.k)
    X = seq.wall_type
    for lit in sorted(wall_literal(w) for w in enumerate_walls(X, args.k, args.blocks)):
        out.write(lit + "\n")
    return 0


def _verify_closure(args, seq, out):
    n = seq.n
    horizon = args.periods * n
    cutoff = horizon - 2 * n
    failures = []
    for k in seq.base_type.index_set:
        certs = set()
        for s in range(1, args.s_max + 1):
            cert, _ = closure(seq, [x(s, k)], horizon, margin=2)
            certs |= {f for f in cert if support_bound(seq, f) <= cutoff}
        windowed = set(comb_infinity(seq, (args.s_max, 2), k=k,
                                     support_max=cutoff).forms)
        ok = windowed == certs
        out.write(f"closure k={k} {'ok' if ok else 'MISMATCH'} "
                  f"cert={len(certs)} walls={len(windowed)}\n")
        if not ok:
            failures.append(k)
    return failures


def _verify_props(args, seq, out):
    X = seq.wall_type
    bad = []
    total = 0
    for s in (0, 1, 3):
        for k in X.index_set:
            for w in enumerate_walls(X, k, args.blocks):
                from wallcrystal.wall_forms import wall_form
                base = wall_form(seq, s, k, w)
                for st, nxt in transitions(w):
                    if st.action != "add":
                        continue
                    sf = site_form(seq, s, k, st)
                    if sf.coordinate.s < 1:
                        continue
                    b = beta(seq, sf.coordinate)
                    want = b + b if sf.weight == 2 else b
                    total += 1
                    if base - wall_form(seq, s, k, nxt) != want:
                        bad.append((s, k, wall_literal(w), st))
    out.write(f"props checked={total} violations={len(bad)}\n")
    for item in bad[:20]:
        out.write(f"  violation: {item}\n")
    return bad


def _verify_crystal(args, seq, out):
    import random
    from wallcrystal.affine_data import cartan_entry

    rng = random.Random(args.seed)
    colours = list(seq.base_type.index_set)
    bad = 0
    for _ in range(args.samples):
        a = ZElement()
        for _ in range(rng.randint(0, args.depth)):
            a = f_tilde(seq, a, rng.choice(colours))
        for k in colours:
            b = f_tilde(seq, a, k)
            ok = (e_tilde(seq, b, k) == a
                  and epsilon(seq, b, k) == epsilon(seq, a, k) + 1
                  and phi(seq, b, k) == phi(seq, a, k) - 1)
            if ok:
                for j in colours:
                    if wt_pairing(seq, a, j) - wt_pairing(seq, b, j) != \
                            cartan_entry(seq.base_type, j, k):
                        ok = False
            if not ok:
                bad += 1
    out.write(f"crystal samples={args.samples} violations={bad}\n")
    return bad


# the closure certificates keep a margin of two periods (one for positivity)
# and need one period more than that
_LEAST_PERIODS = {"closure": 3, "positivity": 2}


def _cmd_verify(args, out):
    seq = _sequence(args)
    least = _LEAST_PERIODS.get(args.mode, 1)
    if args.periods < least:
        raise UsageError(f"verify {args.mode} needs --periods of at least {least}")
    if args.mode == "closure":
        failures = _verify_closure(args, seq, out)
        return 2 if failures else 0
    if args.mode == "props":
        return 2 if _verify_props(args, seq, out) else 0
    if args.mode == "crystal":
        return 2 if _verify_crystal(args, seq, out) else 0
    lam = _weight(seq, args.lam)
    report = positivity_report(seq, lam, args.periods * seq.n)
    for key, val in report.items():
        out.write(f"{key}: {str(val).lower()}\n")
    return 0 if all(report.values()) else 2


def build_parser():
    parser = _Parser(prog="wallcrystal")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--type", required=True)
        p.add_argument("--rank", type=int, required=True)
        p.add_argument("--order", required=True,
                       help="one period of the adapted order, e.g. 3,2,1")

    p = sub.add_parser("ineq")
    p.add_argument("mode", choices=["binf", "blam"])
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=_at_least(1), default=1)
    p.add_argument("--blocks", type=_at_least(0), default=4)
    p.add_argument("--support-max", type=_at_least(1), dest="support_max")
    p.add_argument("--lambda", dest="lam", default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--bare", action="store_true")
    p.set_defaults(run=_cmd_ineq)

    p = sub.add_parser("epsstar")
    common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--elem", required=True)
    p.set_defaults(run=_cmd_epsstar)

    p = sub.add_parser("walls")
    p.add_argument("mode", choices=["enum", "render"])
    p.add_argument("--type")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--order")
    p.add_argument("--k", type=int)
    p.add_argument("--blocks", type=_at_least(0), default=4)
    p.add_argument("--wall")
    p.set_defaults(run=_cmd_walls)

    p = sub.add_parser("verify")
    p.add_argument("mode", choices=["closure", "crystal", "props", "positivity"])
    common(p)
    p.add_argument("--s-max", type=_at_least(1), default=2, dest="s_max")
    p.add_argument("--periods", type=int, default=6)
    p.add_argument("--blocks", type=_at_least(0), default=5)
    p.add_argument("--depth", type=_at_least(0), default=6)
    p.add_argument("--samples", type=_at_least(0), default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", default=None)
    p.set_defaults(run=_cmd_verify)

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "walls":
            if args.mode == "enum" and (not args.type or not args.order
                                        or args.k is None):
                raise UsageError("walls enum needs --type, --order and --k")
            if args.mode == "render" and not args.wall:
                raise UsageError("walls render needs --wall")
        if args.command == "ineq" and args.mode == "blam" and args.lam is None:
            raise UsageError("ineq blam needs --lambda")
        if args.command == "verify" and args.mode == "positivity" \
                and args.lam is None:
            raise UsageError("verify positivity needs --lambda")
        return args.run(args, out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NotStabilized as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
