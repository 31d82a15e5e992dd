"""Command-line surface: inequality generation, star string lengths,
wall enumeration and rendering, and the verification suites."""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from wallcrystal.affine_data import Family, parse_type
from wallcrystal.adapted_sequence import from_permutation
from wallcrystal.linear_forms import (
    DominantWeight, _keys, beta, closure, positivity_report,
    render_form, seed_shifts, x,
)
from wallcrystal.walls import (
    enumerate_walls, parse_wall, render, transitions, wall_literal,
)
from wallcrystal.wall_forms import (
    NotStabilized, WallFormMap, comb_infinity, comb_lambda, epsilon_star,
    found_forms, shifted, wall_walk,
)
from wallcrystal.zcrystal import (
    ZElement, _bumped, _profile, generate, parse_element, render_element,
)
# the crystal operators, bound here under their names for callers and
# tracers that look them up on this module
from wallcrystal.zcrystal import (  # noqa: F401
    e_tilde, epsilon, f_tilde, phi, wt_pairing,
)

# the sigma profiles `verify crystal` keeps, most recently used first: as
# fast as keeping every one, and a flat peak RSS on long runs
_PROFILES = 1024


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises UsageError, and takes options only as spelled in full (the
    subparsers are built from this class too, so they inherit both)."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

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
    if g.family is Family.A2EVEN_DAGGER:  # A2even's wall type, not a paper g
        raise UsageError(f"type {args.type!r} is not one of the seven families "
                         "A1, B1, C1, D1, A2even, A2odd, D2")
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
    try:
        return DominantWeight(values).check_rank(seq.n)
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


def _cmd_binf(args, out):
    seq = _sequence(args)
    if args.k is not None:
        _colour(seq, args.k)
    # argparse fills in --blocks' default even with --support-max
    budget = args.blocks if args.support_max is None else None
    _emit_ineqs(comb_infinity(seq, args.s, k=args.k, budget=budget,
                              support_max=args.support_max), args, out)
    return 0


def _cmd_blam(args, out):
    seq = _sequence(args)
    _colour(seq, args.k)
    lam = _weight(seq, args.lam)
    _emit_ineqs(comb_lambda(seq, args.k, lam, args.blocks), args, out)
    return 0


def _cmd_epsstar(args, out):
    seq = _sequence(args)
    _colour(seq, args.k)
    try:
        value = epsilon_star(seq, args.k, parse_element(seq, args.elem))
    except ValueError as e:
        raise UsageError(str(e))
    out.write(f"{value}\n")
    return 0


def _cmd_render(args, out):
    try:
        w = parse_wall(args.wall, args.rank)
    except ValueError as e:
        raise UsageError(str(e))
    out.write(render(w) + "\n")
    return 0


def _cmd_enum(args, out):
    seq = _sequence(args)
    _colour(seq, args.k)
    X = seq.wall_type
    for lit in sorted(wall_literal(w) for w in enumerate_walls(X, args.k, args.blocks)):
        out.write(lit + "\n")
    return 0


def _verify_closure(args, seq, out):
    """Per colour k, the closure of x(s, k), s in `seed_shifts` of the
    window W = (periods - 2) n up to --s-max, certified on W against the
    wall forms at those shifts supported within W (wall_walk cut at the
    window), both as single-index keys (S' keeps the constant 0); forms
    are built only for the lines a mismatch prints."""
    window = (args.periods - 2) * seq.n
    shifts = seed_shifts(seq, window)[:args.s_max]
    fmap = WallFormMap.of(seq)
    failures = []
    for k in seq.base_type.index_set:
        # the closure of a union of seeds is the union of their closures
        certs = _keys(closure(seq, [x(s, k) for s in shifts], window)[0])
        found = {}
        wall_walk(fmap, found, k, shifts, window=window)
        ok = certs == found.keys()
        out.write(f"closure k={k} {'ok' if ok else 'MISMATCH'} "
                  f"cert={len(certs)} walls={len(found)}\n")
        if not ok:
            failures.append(k)
            lines = [(render_form(f), f"closure only: {render_form(f)}") for f
                     in [fmap.form(key, 0) for key in certs - found.keys()]]
            walls = found_forms(fmap, {key: found[key] for key in found.keys() - certs})
            lines += [(render_form(f), f"walls only: {render_form(f)} {witness}")
                      for f, witness in walls.items()]
            for _, line in sorted(lines)[:20]:
                out.write(f"  {line}\n")
    return failures


def _witnesses(out, head, bad):
    """Print `head violations=N` and up to 20 of the bad items as
    witnesses; return bad."""
    out.write(f"{head} violations={len(bad)}\n")
    for item in bad[:20]:
        out.write(f"  violation: {item}\n")
    return bad


def _verify_props(args, seq, out):
    """For every colour's walls within --blocks, s in {0, 1, 3} and every
    block addition at a site of single index r + s n >= 1, the wall form
    drops by the site's root (twice it for a double site).  Each wall's
    sites and moves are found once, and the map builds each member's
    terms once, though a wall is met again as each smaller wall's
    successor.  The check runs on single indices: the drop is the
    wall's terms less its successor's, taken once per addition and moved
    up by s periods (indices below 1 vanish), and each root is read once
    from `beta` as its (single index, coefficient) pairs, a nonzero
    constant kept at index 0, where no term lies."""
    X = seq.wall_type
    n = seq.n
    shifts = (0, 1, 3)
    bad = {s: [] for s in shifts}
    total = 0
    fmap = WallFormMap.of(seq)
    roots = {}  # (single index, double site) -> the root's pairs

    def root(r, double):
        got = roots.get((r, double))
        if got is None:
            b = beta(seq, seq.reindex(r))
            got = {seq.single_index(d): c for d, c in b.terms}
            if b.constant:
                got[0] = b.constant
            if double:
                got = {q: c + c for q, c in got.items()}
            roots[r, double] = got
        return got

    for k in X.index_set:
        for w in enumerate_walls(X, k, args.blocks):
            here = fmap.terms(w)
            adds = []
            for st, nxt in transitions(w):
                if st.action == "add":
                    drop = dict(here)
                    for q, c in fmap.terms(nxt):
                        drop[q] = drop.get(q, 0) - c
                    adds.append((st, fmap.index(k, st), st.grade == "double",
                                 [(q, c) for q, c in drop.items() if c]))
            for s in shifts:
                sn = s * n
                for st, r, double, drop in adds:
                    if r + sn < 1:
                        continue
                    total += 1
                    if dict(shifted(drop, sn)) != root(r + sn, double):
                        bad[s].append((s, k, wall_literal(w), st))
    return _witnesses(out, f"props checked={total}",
                      [item for s in shifts for item in bad[s]])


def _verify_crystal(args, seq, out):
    """For sampled elements a and every colour k with b = f_tilde_k a:
    e_tilde_k b = a, epsilon_k rises by one, phi_k falls by one, and the
    weight pairings change by the Cartan column of k.  Each sample is a
    random word of at most --depth f_tilde steps applied to 0.  Elements
    are their sorted (index, value) tuples, stepped by `_bumped`, and
    epsilon, f_tilde, e_tilde and the weight are read from one sigma
    profile (`_profile`) per distinct element: the words revisit the
    same small elements in every sample, so the profiles are kept in a
    cache bounded at _PROFILES entries, which holds the memory of a
    long run flat.  The random draws do not depend on the element.  Up
    to 20 failing (a, k) pairs are printed as witnesses."""
    import random

    rng = random.Random(args.seed)
    # slot k - 1 holds colour k: choice draws the same index from this
    # range as from the colours 1..n, so the samples do not change
    colours = range(seq.n)
    # entry k - 1 is the Cartan column of colour k
    columns = seq.profile_tables[2]

    @lru_cache(maxsize=_PROFILES)
    def profile(a):
        return _profile(seq, a)

    bad = []
    for _ in range(args.samples):
        a = ()
        for _ in range(rng.randint(0, args.depth)):
            a = _bumped(a, profile(a)[1][rng.choice(colours)], 1)
        eps_a, first_a, _, w_a = profile(a)
        for i, column in enumerate(columns):
            b = _bumped(a, first_a[i], 1)
            eps_b, _, last_b, w_b = profile(b)
            # the profile's weight is sum_r C[k, i_r] a_r, so phi_k = eps_k - w_k
            ok = (eps_b[i] > 0 and _bumped(b, last_b[i], -1) == a
                  and eps_b[i] == eps_a[i] + 1
                  and eps_b[i] - w_b[i] == eps_a[i] - w_a[i] - 1
                  and tuple(q - p for p, q in zip(w_a, w_b)) == column)
            if not ok:
                bad.append(f"colour {i + 1} at "
                           f"{render_element(seq, ZElement._wrap(a))}")
    return _witnesses(out, f"crystal samples={args.samples}", bad)


def _verify_star(args, seq, out):
    """epsilon_star's wall formula against the value read from Kashiwara's
    chart, on every element of generate(seq, --depth) and every colour."""
    colours = seq.base_type.index_set
    checked, bad = 0, []
    for a in sorted(generate(seq, args.depth), key=ZElement.items):
        for k in colours:
            checked += 1
            try:
                epsilon_star(seq, k, a)
            except NotStabilized as e:
                bad.append(str(e))
    return _witnesses(out, f"star checked={checked}", bad)


def _verify_positivity(args, seq, out):
    lam = _weight(seq, args.lam)
    report = positivity_report(seq, lam, (args.periods - 1) * seq.n)
    for key, val in report.items():
        out.write(f"{key}: {str(val).lower()}\n")
    return [key for key, val in report.items() if not val]


def _verify(check):
    """A verify mode's handler: exit 2 if check returns a failure."""
    def run(args, out):
        return 2 if check(args, _sequence(args), out) else 0
    return run


def build_parser():
    """One parser per command and mode, declaring only the options it reads."""
    parser = _Parser(prog="wallcrystal")
    commands = parser.add_subparsers(dest="command", required=True)

    def leaf(sub, name, run, config=True):
        p = sub.add_parser(name)
        if config:
            p.add_argument("--type", required=True)
            p.add_argument("--rank", type=int, required=True)
            p.add_argument("--order", required=True,
                           help="one period of the adapted order, e.g. 3,2,1")
        p.set_defaults(run=run)
        return p

    def modes(name):
        return commands.add_parser(name).add_subparsers(dest="mode", required=True)

    def output(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--bare", action="store_true")

    ineq = modes("ineq")
    p = leaf(ineq, "binf", _cmd_binf)
    p.add_argument("--k", type=int)
    p.add_argument("--s", type=_at_least(1), default=1)
    # the window replaces the budget, so the two exclude each other; the
    # string default is parsed as if given, so an explicit --blocks 4 counts
    cut = p.add_mutually_exclusive_group()
    cut.add_argument("--blocks", type=_at_least(0), default="4")
    cut.add_argument("--support-max", type=_at_least(1), dest="support_max",
                     metavar="N",
                     help="keep the forms supported within single indices "
                     "1..N, over every wall (not with --blocks)")
    output(p)
    p = leaf(ineq, "blam", _cmd_blam)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--blocks", type=_at_least(0), default=4)
    output(p)

    p = leaf(commands, "epsstar", _cmd_epsstar)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--elem", required=True)

    walls = modes("walls")
    p = leaf(walls, "enum", _cmd_enum)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--blocks", type=_at_least(0), default=4)
    p = leaf(walls, "render", _cmd_render, config=False)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--wall", required=True)

    # the closures certify the window of single indices 1..(periods - 2) n
    # for `verify closure` and 1..(periods - 1) n for `verify positivity`,
    # and a certified window needs at least one period
    verify = modes("verify")
    p = leaf(verify, "closure", _verify(_verify_closure))
    p.add_argument("--s-max", type=_at_least(1), dest="s_max", default=2)
    p.add_argument("--periods", type=_at_least(3), default=6)
    p = leaf(verify, "crystal", _verify(_verify_crystal))
    p.add_argument("--depth", type=_at_least(0), default=6)
    p.add_argument("--samples", type=_at_least(0), default=200)
    p.add_argument("--seed", type=int, default=0)
    p = leaf(verify, "props", _verify(_verify_props))
    p.add_argument("--blocks", type=_at_least(0), default=5)
    p = leaf(verify, "positivity", _verify(_verify_positivity))
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--periods", type=_at_least(2), default=6)
    p = leaf(verify, "star", _verify(_verify_star))
    p.add_argument("--depth", type=_at_least(0), default=6)

    return parser


@lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first call: once per process, and never
    by an import of the module."""
    return build_parser()


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = _parser().parse_args(argv)
        return args.run(args, out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except NotStabilized as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
