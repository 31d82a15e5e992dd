"""Exact linear forms in double-index coordinates, the beta vectors,
the S' and S-hat operators, seed forms, windowed closures, and the
positivity checks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Iterable

from wallcrystal.affine_data import cartan_entry
from wallcrystal.adapted_sequence import AdaptedSequence, DoubleIndex


class ConstantPresent(ValueError):
    pass


@dataclass(frozen=True)
class DominantWeight:
    """A dominant integral weight via its pairings <h_k, lambda>."""

    values: tuple  # entry k-1 holds <h_k, lambda>

    def __post_init__(self):
        if any(v < 0 for v in self.values):
            raise ValueError("dominant weights need nonnegative pairings")

    @classmethod
    def zero(cls, n: int) -> "DominantWeight":
        return cls((0,) * n)

    def pairing(self, k: int) -> int:
        return self.values[k - 1]


class LinearForm:
    """constant + sum of coeff * x_{s,k}; immutable and canonical."""

    __slots__ = ("constant", "terms", "_map", "_hash")

    def __init__(self, constant: int = 0, coeffs=None):
        items = []
        if coeffs:
            acc = {}
            for d, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if c:
                    acc[d] = acc.get(d, 0) + c
            items = sorted(
                ((d, c) for d, c in acc.items() if c), key=lambda it: (it[0].s, it[0].k)
            )
        object.__setattr__(self, "constant", constant)
        object.__setattr__(self, "terms", tuple(items))
        object.__setattr__(self, "_map", dict(items))
        object.__setattr__(self, "_hash", hash((constant, self.terms)))

    def __setattr__(self, *a):
        raise AttributeError("LinearForm is immutable")

    def coeff(self, d: DoubleIndex) -> int:
        return self._map.get(d, 0)

    @property
    def support(self):
        return tuple(d for d, _ in self.terms)

    def is_zero(self) -> bool:
        return self.constant == 0 and not self.terms

    def map_terms(self):
        return dict(self.terms)

    def __add__(self, other):
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc.get(d, 0) + c
        return LinearForm(self.constant + other.constant, acc)

    def __sub__(self, other):
        acc = dict(self.terms)
        for d, c in other.terms:
            acc[d] = acc.get(d, 0) - c
        return LinearForm(self.constant - other.constant, acc)

    def __neg__(self):
        return LinearForm(-self.constant, {d: -c for d, c in self.terms})

    def shift_constant(self, delta: int) -> "LinearForm":
        return LinearForm(self.constant + delta, dict(self.terms))

    def drop_constant(self) -> "LinearForm":
        return LinearForm(0, dict(self.terms))

    def evaluate(self, a) -> int:
        """a: mapping DoubleIndex -> int (missing = 0)."""
        get = a.get if hasattr(a, "get") else a.__getitem__
        return self.constant + sum(c * (get(d, 0) or 0) for d, c in self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, LinearForm)
            and self.constant == other.constant
            and self.terms == other.terms
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LinearForm({render_form(self)!r})"


def x(s: int, k: int) -> LinearForm:
    """x_{s,k}, understood as 0 when s < 1."""
    if s < 1:
        return LinearForm(0, {})
    return LinearForm(0, {DoubleIndex(s, k): 1})


def render_form(phi: LinearForm) -> str:
    pos = [(d, c) for d, c in phi.terms if c > 0]
    neg = [(d, c) for d, c in phi.terms if c < 0]
    parts = []
    for d, c in pos + neg:
        mag = abs(c)
        body = f"x[{d.s},{d.k}]" if mag == 1 else f"{mag} x[{d.s},{d.k}]"
        if not parts:
            parts.append(body if c > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    if phi.constant or not parts:
        c = phi.constant
        if not parts:
            parts.append(str(c))
        else:
            parts.append(f"{'+' if c > 0 else '-'} {abs(c)}")
    return " ".join(parts)


_TERM_RE = re.compile(r"([+-])?\s*(?:(\d+)\s*)?x\[(\d+),(\d+)\]|([+-])?\s*(\d+)")


def parse_form(text: str) -> LinearForm:
    acc = {}
    constant = 0
    pos = 0
    text = text.strip()
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unparsable form near {text[pos:]!r}")
        sign_a, mag, s, k, sign_b, const = m.groups()
        if s is not None:
            c = int(mag) if mag else 1
            if sign_a == "-":
                c = -c
            d = DoubleIndex(int(s), int(k))
            acc[d] = acc.get(d, 0) + c
        else:
            c = int(const)
            if sign_b == "-":
                c = -c
            constant += c
        pos = m.end()
        while pos < len(text) and text[pos] == " ":
            pos += 1
    return LinearForm(constant, acc)


# --- beta vectors and operators --------------------------------------


def beta(seq: AdaptedSequence, d: DoubleIndex) -> LinearForm:
    """beta_{s,k} = x_{s,k} + x_{s+1,k} + sum_j a_{k,j} x_{s+p_{j,k}, j}."""
    s, k = d.s, d.k
    acc = {DoubleIndex(s, k): 1, DoubleIndex(s + 1, k): 1}
    for j in seq.base_type.index_set:
        a = cartan_entry(seq.base_type, k, j)
        if j != k and a < 0:
            dj = DoubleIndex(s + seq.p(j, k), j)
            acc[dj] = acc.get(dj, 0) + a
    return LinearForm(0, acc)


def beta_at(seq: AdaptedSequence, r: int) -> LinearForm:
    """beta_r with beta_0 := 0."""
    if r == 0:
        return LinearForm(0, {})
    return beta(seq, seq.reindex(r))


def r_minus(seq: AdaptedSequence, r: int) -> int:
    return r - seq.n if r > seq.n else 0


def beta_signed(seq: AdaptedSequence, r: int, sign: str, lam: DominantWeight) -> LinearForm:
    if sign == "+":
        return beta_at(seq, r)
    rm = r_minus(seq, r)
    if rm > 0:
        return beta_at(seq, rm)
    k = seq.entry(r)
    acc = {DoubleIndex(1, seq.entry(j)): cartan_entry(seq.base_type, k, seq.entry(j))
           for j in range(1, r)}
    d = DoubleIndex(1, k)
    acc[d] = acc.get(d, 0) + 1
    return LinearForm(-lam.pairing(k), acc)


def s_prime(seq: AdaptedSequence, r: int, phi: LinearForm) -> LinearForm:
    if phi.constant != 0:
        raise ConstantPresent("S' acts on forms with zero constant")
    c = phi.coeff(seq.reindex(r))
    if c > 0:
        return phi - beta_at(seq, r)
    if c < 0:
        return phi + beta_at(seq, r_minus(seq, r))
    return phi


def s_hat(seq: AdaptedSequence, r: int, phi: LinearForm, lam: DominantWeight) -> LinearForm:
    c = phi.coeff(seq.reindex(r))
    if c > 0:
        return phi - beta_signed(seq, r, "+", lam)
    if c < 0:
        return phi + beta_signed(seq, r, "-", lam)
    return phi


def lambda_form(seq: AdaptedSequence, k: int, lam: DominantWeight) -> LinearForm:
    """lambda^(k) = <h_k,lam> - sum_{j < iota^(k)} <h_k, alpha_{i_j}> x_j - x_{iota^(k)}."""
    rk = seq.first_occurrence(k)
    acc = {DoubleIndex(1, seq.entry(j)): -cartan_entry(seq.base_type, k, seq.entry(j))
           for j in range(1, rk)}
    d = DoubleIndex(1, k)
    acc[d] = acc.get(d, 0) - 1
    return LinearForm(lam.pairing(k), acc)


def xi_form(seq: AdaptedSequence, k: int) -> LinearForm:
    return lambda_form(seq, k, DominantWeight.zero(seq.n)).drop_constant()


# --- closures --------------------------------------------------------


def support_bound(seq: AdaptedSequence, phi: LinearForm) -> int:
    """Largest single index in the support (0 for constants)."""
    return max((seq.single_index(d) for d in phi.support), default=0)


def _dense(seq: AdaptedSequence, phi: LinearForm, width: int) -> tuple:
    """phi as a tuple: slot 0 holds the constant, slot r the coefficient
    of single index r."""
    v = [0] * width
    v[0] = phi.constant
    for d, c in phi.terms:
        r = seq.single_index(d)
        if r < 1:
            raise ValueError(f"x[{d.s},{d.k}] lies before single index 1")
        v[r] = c
    return tuple(v)


def _closure_vectors(seq: AdaptedSequence, seeds: Iterable[LinearForm],
                     horizon: int, op: str = "S'",
                     lam: DominantWeight | None = None, margin: int = 1):
    """The closure search on dense integer vectors (see `_dense`).

    Returns (certified, frontier) as lists of tuples of one width: at
    least horizon + n + 1, so every beta vector fits, and wider only when
    a seed reaches further.
    """
    n = seq.n
    if margin < 1:
        raise ValueError("margin must be at least one period")
    if horizon < (margin + 1) * n:
        raise ValueError("horizon must exceed the margin by at least a period")
    if op not in ("S'", "Shat'"):
        raise ValueError(op)
    hatted = op == "Shat'"
    if hatted and lam is None:
        lam = DominantWeight.zero(n)
    seeds = list(seeds)
    if not hatted and any(phi.constant for phi in seeds):
        raise ConstantPresent("S' acts on forms with zero constant")
    width = max([horizon + n + 1] + [support_bound(seq, phi) + 1 for phi in seeds])
    bplus, bminus = [None], [None]  # indexed by r
    for r in range(1, horizon + 1):
        if hatted:
            plus, minus = beta_signed(seq, r, "+", lam), beta_signed(seq, r, "-", lam)
        else:
            plus, minus = beta_at(seq, r), beta_at(seq, r_minus(seq, r))
        bplus.append(_dense(seq, plus, width))
        bminus.append(_dense(seq, minus, width))
    cutoff = horizon - margin * n
    cap = cutoff + n  # one period past the window
    seen = set()
    stack = []
    for phi in seeds:
        v = _dense(seq, phi, width)
        if v not in seen:
            seen.add(v)
            stack.append(v)
    indices = range(1, horizon + 1)
    while stack:
        v = stack.pop()
        for r in compress(indices, v[1:horizon + 1]):
            if v[r] > 0:
                nxt = tuple(map(sub, v, bplus[r]))
            else:
                nxt = tuple(map(add, v, bminus[r]))
            if nxt not in seen and not any(nxt[cap + 1:]):
                seen.add(nxt)
                stack.append(nxt)
    certified, frontier = [], []
    for v in seen:
        (frontier if any(v[cutoff + 1:]) else certified).append(v)
    return certified, frontier


def closure(seq: AdaptedSequence, seeds: Iterable[LinearForm], horizon: int,
            op: str = "S'", lam: DominantWeight | None = None, margin: int = 1):
    """Closure applying the operator at every single index r <= horizon.

    Returns (certified, frontier): certified forms are supported within
    single indices <= horizon - margin * n (a whole-period margin) and are
    exactly the window-supported members of the infinite closure.  The
    search drops forms supported more than one period past the window:
    the operator at r only touches coefficients within a period of r, so
    paths wandering further out never re-enter the window (checked against
    uncapped runs in the tests).

    The search runs on dense integer vectors over single indices
    (`_closure_vectors`); LinearForm is only the type of the seeds and of
    the returned sets.
    """
    certified, frontier = _closure_vectors(seq, seeds, horizon, op, lam, margin)
    vectors = certified + frontier
    width = len(vectors[0]) if vectors else 1
    index = [seq.reindex(r) for r in range(1, width)]  # index[r - 1] is r

    def form(v):
        coeffs = v[1:]
        return LinearForm(v[0], zip(compress(index, coeffs), compress(coeffs, coeffs)))

    return {form(v) for v in certified}, {form(v) for v in frontier}


def positivity_report(seq: AdaptedSequence, lam: DominantWeight, horizon: int) -> dict:
    """The three positivity checks over window-certified closures."""
    n = seq.n
    first_seeds = [x(s, k) for s in range(1, horizon // n + 1)
                   for k in seq.base_type.index_set]

    def first_occ_ok(vectors):
        return all(min(v[1:n + 1]) >= 0 for v in vectors)  # r^(-) = 0

    xi_closure, _ = _closure_vectors(seq, first_seeds, horizon)
    xi_positive = first_occ_ok(xi_closure)

    strict_positive = xi_positive
    for k in seq.base_type.index_set:
        xk = xi_form(seq, k)
        cert, _ = _closure_vectors(seq, [xk], horizon)
        xk = _dense(seq, xk, horizon + n + 1)  # the width of a seed within the horizon
        strict_positive &= first_occ_ok(v for v in cert if v != xk)

    hat_seeds = first_seeds + [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
    hat_closure, _ = _closure_vectors(seq, hat_seeds, horizon, op="Shat'", lam=lam)
    ample = all(v[0] >= 0 for v in hat_closure)

    return {"xi_positive": xi_positive, "strict_positive": strict_positive, "ample": ample}
