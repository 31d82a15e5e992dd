"""Known answers for the benchmark's operations.

Nothing here calls the code under test.  Inequalities are parsed with
a small parser of our own, and the goldens and star-string-length
formulas are the hand-written ones of acceptance criteria 1-4.
"""

from __future__ import annotations

import json
import re

_TERM = re.compile(r"([+-])?\s*(?:(\d+)\s*)?x\[(\d+),(\d+)\]|([+-])?\s*(\d+)")


def parse_form(text):
    """`2 x[2,2] - x[2,1] + 1` -> (constant, frozenset of ((s, k), c))."""
    terms, constant, pos = {}, 0, 0
    text = text.strip()
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unparsable form {text!r}")
        sign_a, mag, s, k, sign_b, const = m.groups()
        if s is not None:
            c = (int(mag) if mag else 1) * (-1 if sign_a == "-" else 1)
            key = (int(s), int(k))
            terms[key] = terms.get(key, 0) + c
        else:
            constant += int(const) * (-1 if sign_b == "-" else 1)
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return constant, frozenset((d, c) for d, c in terms.items() if c)


def output_forms(argv, stdout):
    """The inequality forms printed by an `ineq` query, text or JSON."""
    if "json" in argv:
        doc = json.loads(stdout)
        return {(e["constant"],
                 frozenset(((s, k), c) for s, k, c in e["terms"] if c))
                for e in doc["forms"]}
    return {parse_form(line) for line in stdout.splitlines() if line.strip()}


def _opt(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


# criterion 1 and 2: wall-form families for s = 1, 2, 3 ({a} = s+1, ...),
# all inside COMB(3, 6)
BINF_GOLDENS = {
    ("D2", "3,2,1", 1): [
        "x[{s},1]",
        "2 x[{a},2] - x[{a},1]",
        "x[{a},2] + x[{b},3] - x[{b},2]",
        "x[{a},1] + 2 x[{b},3] - 2 x[{b},2]",
        "x[{a},1] + x[{b},3] - x[{c},3]",
    ],
    ("A2odd", "2,4,3,1", 3): [
        "x[{s},3]",
        "2 x[{a},4] + x[{s},1] + x[{a},2] - x[{a},3]",
        "x[{a},4] + x[{s},1] + x[{a},2] - x[{b},4]",
        "2 x[{a},4] + x[{a},2] - x[{a},1]",
        "x[{a},4] + x[{a},3] + x[{a},2] - x[{a},1] - x[{b},4]",
    ],
}

# criterion 3: (type, order, k, lambda, blocks) -> (exact set?, forms,
# forms that must be absent)
BLAM_GOLDENS = {
    ("D2", "3,2,1", 3, "1,1,1", 4): (True, ["- x[1,3] + 1"], []),
    ("D2", "3,2,1", 2, "1,1,1", 4): (True, [
        "x[1,3] - x[1,2] + 1", "x[1,2] - x[2,3] + 1",
        "x[1,1] - x[2,2] + 1", "x[2,2] - x[2,1] + 1"], []),
    ("D2", "3,2,1", 1, "1,1,1", 6): (False, [
        "2 x[1,2] - x[1,1] + 1", "x[1,2] + x[2,3] - x[2,2] + 1",
        "x[1,1] + 2 x[2,3] - 2 x[2,2] + 1", "x[1,1] + x[2,3] - x[3,3] + 1"],
        ["x[1,1] + 1"]),
    ("A2odd", "2,4,3,1", 2, "1,1,1,1", 4): (True, ["- x[1,2] + 1"], []),
    ("A2odd", "2,4,3,1", 4, "1,1,1,1", 4): (True, ["- x[1,4] + 1"], []),
    ("A2odd", "2,4,3,1", 1, "1,1,1,1", 6): (False, [
        "x[1,3] - x[1,1] + 1", "x[2,2] + 2 x[2,4] - x[2,3] + 1",
        "2 x[2,4] - x[3,2] + 1", "x[2,4] + x[2,3] - x[3,2] - x[3,4] + 1"], []),
    ("A2odd", "2,4,3,1", 3, "1,1,1,1", 6): (False, [
        "x[1,2] + 2 x[1,4] - x[1,3] + 1", "2 x[1,4] - x[2,2] + 1",
        "x[1,4] + x[1,3] - x[2,2] - x[2,4] + 1"], []),
}

_ELEM = re.compile(r"a\[(\d+),(\d+)\]\s*=\s*(-?\d+)")


def _epsstar_formula(argv):
    """Criterion 4 on D2 rank 3, order 3,2,1: colour 3 reads a[1,3];
    colour 2 is a max of four differences while the support stays at or
    below single index 6 (the slot of (2,1))."""
    if (_opt(argv, "--type"), _opt(argv, "--order")) != ("D2", "3,2,1"):
        return None
    order = (3, 2, 1)
    v = {}
    for part in _opt(argv, "--elem").split(";"):
        s, k, val = (int(g) for g in _ELEM.fullmatch(part.strip()).groups())
        v[(s, k)] = v.get((s, k), 0) + val
    k = int(_opt(argv, "--k"))
    if k == 3:
        return v.get((1, 3), 0)
    single = {d: (d[0] - 1) * 3 + order.index(d[1]) + 1 for d in v if v[d]}
    if k == 2 and all(r <= 6 for r in single.values()):
        g = lambda s, c: v.get((s, c), 0)
        return max(g(1, 2) - g(1, 3), g(2, 3) - g(1, 2),
                   g(2, 2) - g(1, 1), g(2, 1) - g(2, 2), 0)
    return None


def check_cli(kind, argv, rc, stdout):
    """None when the answer is right, else a one-line reason."""
    if rc != 0:
        return f"exit code {rc}"
    if kind == "verify_closure":
        rank = int(_opt(argv, "--rank"))
        oks = [line for line in stdout.splitlines()
               if re.fullmatch(r"closure k=\d+ ok cert=\d+ walls=\d+", line)]
        return None if len(oks) == rank else "a colour did not report ok"
    if kind == "verify_positivity":
        want = ["xi_positive: true", "strict_positive: true", "ample: true"]
        return None if stdout.splitlines() == want else "positivity not all true"
    if kind in ("verify_props", "verify_crystal"):
        first = stdout.splitlines()[0] if stdout else ""
        return None if first.endswith(" violations=0") else "violations reported"
    if kind == "ineq_binf":
        key = (_opt(argv, "--type"), _opt(argv, "--order"), int(_opt(argv, "--k")))
        s_max, blocks = int(_opt(argv, "--s", 1)), int(_opt(argv, "--blocks", 4))
        if key in BINF_GOLDENS and blocks >= 6:
            got = output_forms(argv, stdout)
            for s in range(1, min(s_max, 3) + 1):
                for p in BINF_GOLDENS[key]:
                    f = parse_form(p.format(s=s, a=s + 1, b=s + 2, c=s + 3))
                    if f not in got:
                        return f"golden form missing at s={s}: {p}"
        return None
    if kind in ("ineq_blam_text", "ineq_blam_json"):
        key = (_opt(argv, "--type"), _opt(argv, "--order"), int(_opt(argv, "--k")),
               _opt(argv, "--lambda"), int(_opt(argv, "--blocks", 4)))
        if key in BLAM_GOLDENS:
            exact, want, absent = BLAM_GOLDENS[key]
            got = output_forms(argv, stdout)
            want = {parse_form(t) for t in want}
            if (got != want) if exact else not want <= got:
                return "golden highest-weight system differs"
            if any(parse_form(t) in got for t in absent):
                return "a form the golden excludes is present"
        return None
    if kind == "epsstar":
        want = _epsstar_formula(argv)
        if want is not None and stdout.strip() != str(want):
            return f"epsstar {stdout.strip()} != formula {want}"
        return None
    return None


def check_equivalence(report):
    if report["ok"] and not report["violations"] and not report["missing"] \
            and not report["extra"] and report["generated"] == report["cut"]:
        return None
    return (f"generated={report['generated']} cut={report['cut']} "
            f"violations={len(report['violations'])} "
            f"missing={len(report['missing'])} extra={len(report['extra'])}")
