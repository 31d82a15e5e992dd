"""The crystal structure on finitely supported integer sequences, its
highest-weight twist, brute-force generation, and the verifier comparing
generated elements against the inequality systems."""

from __future__ import annotations

import re

from wallcrystal.affine_data import cartan_entry
from wallcrystal.adapted_sequence import AdaptedSequence, DoubleIndex
from wallcrystal.linear_forms import (DominantWeight, _closure_vectors,
                                      lambda_form, x)


class ZElement:
    """A finitely supported sequence a_1, a_2, ... keyed by single index."""

    __slots__ = ("_entries", "_hash")

    def __init__(self, entries=None):
        items = {}
        if entries:
            for r, v in (entries.items() if isinstance(entries, dict) else entries):
                if v:
                    if r < 1:
                        raise ValueError(f"index {r} below 1")
                    items[r] = items.get(r, 0) + v
        items = {r: v for r, v in items.items() if v}
        object.__setattr__(self, "_entries", items)
        object.__setattr__(self, "_hash", hash(tuple(sorted(items.items()))))

    def __setattr__(self, *a):
        raise AttributeError("ZElement is immutable")

    def get(self, r: int) -> int:
        return self._entries.get(r, 0)

    @property
    def support(self):
        return sorted(self._entries)

    def items(self):
        return sorted(self._entries.items())

    def total(self) -> int:
        return sum(self._entries.values())

    def bump(self, r: int, delta: int) -> "ZElement":
        out = dict(self._entries)
        out[r] = out.get(r, 0) + delta
        return ZElement(out)

    def as_double(self, seq: AdaptedSequence) -> dict:
        return {seq.reindex(r): v for r, v in self._entries.items()}

    def __eq__(self, other):
        return isinstance(other, ZElement) and self._entries == other._entries

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"ZElement({self._entries!r})"


_ELEM_RE = re.compile(r"a\[(\d+),(\d+)\]\s*=\s*(-?\d+)")


def parse_element(seq: AdaptedSequence, text: str) -> ZElement:
    """Literal like `a[1,3]=1;a[2,2]=4` with double-index assignments."""
    acc = {}
    text = text.strip()
    if text:
        for part in text.split(";"):
            m = _ELEM_RE.fullmatch(part.strip())
            if not m:
                raise ValueError(f"bad element literal part {part!r}")
            s, k, v = (int(g) for g in m.groups())
            r = seq.single_index(DoubleIndex(s, k))
            acc[r] = acc.get(r, 0) + v
    return ZElement(acc)


def render_element(seq: AdaptedSequence, a: ZElement) -> str:
    parts = []
    for r, v in a.items():
        d = seq.reindex(r)
        parts.append(f"a[{d.s},{d.k}]={v}")
    return ";".join(parts) if parts else "0"


# --- crystal structure ------------------------------------------------


def sigma(seq: AdaptedSequence, a: ZElement, j: int) -> int:
    cj = seq.entry(j)
    out = a.get(j)
    for l, v in a.items():
        if l > j:
            out += cartan_entry(seq.base_type, cj, seq.entry(l)) * v
    return out


def _sigma_profile(seq: AdaptedSequence, a: ZElement, k: int):
    """(epsilon_k, positions j with colour k attaining it, capped scan)."""
    top = max(a.support, default=0) + seq.n
    best, arg = 0, []
    for j in range(1, top + 1):
        if seq.entry(j) != k:
            continue
        s = sigma(seq, a, j)
        if s > best:
            best, arg = s, [j]
        elif s == best:
            arg.append(j)
    return best, arg


def epsilon(seq: AdaptedSequence, a: ZElement, k: int) -> int:
    return _sigma_profile(seq, a, k)[0]


def wt_pairing(seq: AdaptedSequence, a: ZElement, k: int,
               lam: DominantWeight | None = None) -> int:
    out = lam.pairing(k) if lam is not None else 0
    for r, v in a.items():
        out -= cartan_entry(seq.base_type, k, seq.entry(r)) * v
    return out


def phi(seq: AdaptedSequence, a: ZElement, k: int,
        lam: DominantWeight | None = None) -> int:
    return epsilon(seq, a, k) + wt_pairing(seq, a, k, lam)


def f_tilde(seq: AdaptedSequence, a: ZElement, k: int) -> ZElement:
    _, arg = _sigma_profile(seq, a, k)
    return a.bump(arg[0], 1)


def e_tilde(seq: AdaptedSequence, a: ZElement, k: int):
    eps, arg = _sigma_profile(seq, a, k)
    if eps <= 0:
        return None
    return a.bump(arg[-1], -1)


def f_tilde_lambda(seq: AdaptedSequence, a: ZElement, k: int,
                   lam: DominantWeight):
    """The tensor-rule action on a x r_lambda: the move dies when phi
    drops to the wall of the highest-weight crystal."""
    if phi(seq, a, k, lam) <= 0:
        return None
    return f_tilde(seq, a, k)


def e_tilde_lambda(seq: AdaptedSequence, a: ZElement, k: int,
                   lam: DominantWeight):
    return e_tilde(seq, a, k)


# --- generation and verification --------------------------------------


def generate(seq: AdaptedSequence, depth: int,
             lam: DominantWeight | None = None) -> set:
    """All words of lowering operators of length <= depth applied to 0."""
    zero = ZElement()
    seen = {zero}
    frontier = [zero]
    colours = list(seq.base_type.index_set)
    for _ in range(depth):
        nxt = []
        for a in frontier:
            for k in colours:
                if lam is None:
                    b = f_tilde(seq, a, k)
                else:
                    b = f_tilde_lambda(seq, a, k, lam)
                if b is not None and b not in seen:
                    seen.add(b)
                    nxt.append(b)
        if not nxt:
            break
        frontier = nxt
    return seen


def _window_forms(seq, support_cap, s_max, lam=None):
    """All inequality forms supported within the single-index window, as
    dense vectors (constant, then the coefficients of 1..support_cap),
    taken from the certified operator closures (their agreement with the
    wall-generated families is enforced by the test suite)."""
    # the closures certify forms up to horizon - 2n and need a horizon of
    # at least 3n, so a window below one period still gets a full period
    horizon = max(support_cap, seq.n) + 2 * seq.n
    width = support_cap + 1
    seeds = [x(s, k) for s in range(1, s_max + 1)
             for k in seq.base_type.index_set]
    cert, _ = _closure_vectors(seq, seeds, horizon, margin=2)
    out = {v[:width] for v in cert if not any(v[width:])}
    if lam is not None:
        hw_seeds = [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
        cert2, _ = _closure_vectors(seq, hw_seeds, horizon, op="Shat'",
                                    lam=lam, margin=2)
        out |= {v[:width] for v in cert2 if any(v) and not any(v[width:])}
    return out


def verify_equivalence(seq: AdaptedSequence, depth: int,
                       lam: DominantWeight | None = None,
                       box: int | None = None) -> dict:
    """Generated elements versus inequality-cut lattice points.

    box is the single-index bound for the candidate lattice points; it
    must cover the support of every generated element (checked).  The
    report lists generated elements violating a windowed inequality and
    the mismatches between the two sets restricted to the box.
    """
    gen = generate(seq, depth, lam)
    max_supp = max((max(a.support, default=0) for a in gen), default=0)
    if box is None:
        box = max_supp
    if box < max_supp:
        raise ValueError(f"box {box} does not cover generated support {max_supp}")
    s_max = box // seq.n + 1
    forms = _window_forms(seq, box, s_max, lam)

    # forms indexed by the largest coordinate they touch, stacked into a
    # constant vector and coefficient matrix per level
    import numpy as np

    by_level = [[] for _ in range(box + 1)]
    for v in forms:
        level = next((r for r in range(box, 0, -1) if v[r]), 0)
        by_level[level].append(v)
    if any(v[0] < 0 for v in by_level[0]):
        raise ValueError("inconsistent constant inequality in the window")
    consts = [None] * (box + 1)
    mats = [None] * (box + 1)
    for level in range(1, box + 1):
        rows = by_level[level]
        if rows:
            consts[level] = np.array([v[0] for v in rows], dtype=np.int64)
            mats[level] = np.array([v[1:level + 1] for v in rows],
                                   dtype=np.int64)

    violations = []
    gen_vecs = set()
    for a in gen:
        v = tuple(a.get(r) for r in range(1, box + 1))
        gen_vecs.add(v)
        arr = np.array(v, dtype=np.int64)
        for level in range(1, box + 1):
            if mats[level] is not None and \
                    (consts[level] + mats[level] @ arr[:level] < 0).any():
                violations.append(a)
                break

    # nonnegative lattice points with coordinate sum <= depth, pruned as
    # soon as every coordinate of an inequality has been assigned
    cut = set()
    vec = np.zeros(box, dtype=np.int64)

    def walk(pos, budget):
        level = pos + 1
        for v in range(budget + 1):
            vec[pos] = v
            if mats[level] is not None and \
                    (consts[level] + mats[level] @ vec[:level] < 0).any():
                continue
            if level == box:
                cut.add(tuple(int(e) for e in vec))
            else:
                walk(level, budget - v)
        vec[pos] = 0

    if box:
        walk(0, depth)
    else:
        cut.add(())

    missing = cut - gen_vecs
    extra = gen_vecs - cut
    return {
        "generated": len(gen_vecs),
        "cut": len(cut),
        "violations": violations,
        "missing": sorted(missing),
        "extra": sorted(extra),
        "ok": not violations and not missing and not extra,
    }
