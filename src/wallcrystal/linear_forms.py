"""Exact linear forms in double-index coordinates, the beta vectors,
the S' and S-hat operators, seed forms, windowed closures, and the
positivity checks."""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
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
        if not all(isinstance(v, int) for v in self.values):
            raise ValueError("dominant weights need integer pairings")
        if any(v < 0 for v in self.values):
            raise ValueError("dominant weights need nonnegative pairings")

    @classmethod
    def zero(cls, n: int) -> "DominantWeight":
        return cls((0,) * n)

    def pairing(self, k: int) -> int:
        return self.values[k - 1]

    def check_rank(self, n: int) -> "DominantWeight":
        """self, or ValueError unless it has one pairing per colour 1..n."""
        if len(self.values) != n:
            raise ValueError(f"lambda has {len(self.values)} entries, not {n}")
        return self


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
        return self.constant + sum(c * a.get(d, 0) for d, c in self.terms)

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


def beta_minus(seq: AdaptedSequence, r: int,
               lam: DominantWeight | None = None) -> LinearForm:
    """The form a step at r adds at a negative coefficient: beta_{r - n}
    past the first period; in it, -lambda^(k) with lam, and 0 without."""
    rm = r_minus(seq, r)
    if rm > 0 or lam is None:
        return beta_at(seq, rm)
    return -lambda_form(seq, seq.entry(r), lam)


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
        return phi - beta_at(seq, r)
    if c < 0:
        return phi + beta_minus(seq, r, lam)
    return phi


def lambda_form(seq: AdaptedSequence, k: int, lam: DominantWeight) -> LinearForm:
    """lambda^(k) = <h_k,lam> - sum_{j < iota^(k)} <h_k, alpha_{i_j}> x_j - x_{iota^(k)}."""
    lam.check_rank(seq.n)
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


def _pairs(seq: AdaptedSequence, phi: LinearForm) -> list:
    """phi's nonzero (single index, coefficient) pairs by index, its
    constant at index 0."""
    pairs = [(seq.single_index(d), c) for d, c in phi.terms]
    if phi.constant:
        pairs.append((0, phi.constant))
    return sorted(pairs)


def beta_rows(seq: AdaptedSequence) -> list:
    """beta_1..beta_n as tuples of `_pairs`, built from `beta` on the
    first read and kept by the sequence (`beta_table`).  Every other beta
    is one of them moved up by whole periods: beta_r is row
    ((r - 1) mod n) + 1 moved up by n ((r - 1) // n), since x_{s+1,k}
    lies n past x_{s,k}."""
    rows = seq.beta_table
    if not rows:
        rows.extend(tuple(_pairs(seq, beta_at(seq, r)))
                    for r in range(1, seq.n + 1))
    return rows


def beta_row(seq: AdaptedSequence, r: int) -> list:
    """beta_r (r >= 1) as `_pairs`, read from the sequence's beta rows:
    row ((r - 1) mod n) + 1 moved up by n ((r - 1) // n), a constant
    kept at index 0."""
    q, j = divmod(r - 1, seq.n)
    up = q * seq.n
    return [(i + up if i else 0, c) for i, c in beta_rows(seq)[j]]


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


def closure(seq: AdaptedSequence, seeds: Iterable[LinearForm], window: int,
            lam: DominantWeight | None = None):
    """The closure of the seeds, certified on a window: under S' without
    lam, under S-hat' with it (they differ only in the first period).

    `window` (W below) is the last single index a certified form may
    touch; it must be at least one period n.  Returns (certified,
    frontier) as lists of dense vectors (see `_dense`; `_keys` and
    `_forms` read them).  The search has one bound: it applies the
    operator at every r <= W and keeps the forms supported within W,
    which are the certified ones.  The frontier holds the seeds supported
    past W; a successor of one is kept only when it falls within W.  The
    steps are read from the sequence's beta rows (`beta_row`, one period
    of them, moved up by whole periods) and, for S-hat' in the first
    period, from `lambda_form`.  The vectors are as wide as the seeds and
    the steps (beta_W ends at W + n): 1 + max(W + n, the seeds' largest
    index).

    So the certified forms are those reached from a seed by steps at
    r <= W through forms supported within W (only the seed may reach
    past W).  That they are every form of the infinite closure supported
    within W is a lemma, claimed for seeds supported within W and for
    single variables x(s, k) with s in `seed_shifts(seq, W)`, the seeds
    `positivity_report`, `zcrystal._window_forms` and `verify closure`
    pass.  From a seed within W the step condition is free, since an
    operator at r > W leaves a form supported within W unchanged.  Other
    seeds that reach past W are not covered: on D2 rank 3 at W = 6, the
    closure of x(1, 2) + x(3, 2) holds 2 x(2, 2), which no path within
    the window reaches.  No proof of the lemma is
    known here; the bound rests on the pin
    `test_wider_search_certifies_the_same_forms` in
    tests/test_closure_kernel.py, which finds the same certified forms
    when the reference searches two periods further, for S' and S-hat',
    on five families and windows n, 2n + 1 and 3n.  What is known towards
    a proof, writing D_b for the step phi - beta_b at a positive
    coefficient of b and U_r for the step phi + beta_{r - n} at a
    negative coefficient of r:
    - beta_b runs from b to its top index b + n, where its coefficient
      is 1, so the betas are triangular in their top index.  Hence for a
      form psi supported within W reached from a seed sigma supported
      within W, psi - sigma lies in the span of the beta_b with
      b + n <= W: the steps past the window cancel in the net count.
    - On a path whose largest index M lies past both ends, only D_{M-n}
      and U_M touch index M (any other step would pass M).  The first
      step to reach M is a D_{M-n}, the coefficient of M is never
      positive after it, and each U_M adds back the beta_{M-n} of a
      D_{M-n} before it.  It agrees with what wider searches show: every
      form they keep past W that is not a seed has a negative
      coefficient at its largest index.
    - By the same triangularity every form phi has one projection P(phi)
      supported within W with phi - P(phi) in the span of the beta_b
      with b > W - n, and P fixes the forms within W.  P maps each step
      of a path to no step (D_r with r > W - n, U_r with r > W) or to
      the same step from the projected form (D_r and U_r with
      r <= W - n, whose coefficient P leaves alone), except U_r with
      W - n < r <= W, where P may move the coefficient of r to 0 or
      above.  A path with no such step projects to a path within W.
      Such steps do occur in wider searches (on D2 rank 3 at W = 6, 4 of
      the 32 negative last-period coefficients lose their sign under P),
      and the proof stops there.

    The search keys each vector by one int, coefficient i in lane i of
    `bits` bits: key = sum(v[i] << bits * i).  A step at r adds the key
    of -beta^+_r (or +beta^-_r), and the successor's tuple is built only
    when its key is new.  Every kept vector and every step has its lanes
    below 2**(bits - 2) in size, so a successor's lanes are below
    2**(bits - 1).  Keys of such vectors are balanced base-2**bits
    numbers, whose digits are unique, so a key already seen is the same
    vector.  The same bound makes "no lane past the window" exactly
    -H <= key < H with H = 2**(bits * (W + 1) - 1): the lanes up to W
    add up to less than H in size, and a nonzero lane past it outweighs
    them.  `bits` is the least of 16, 32, 64, ... whose quarter range
    exceeds every seed and step coefficient (the constant lane of S-hat'
    holds <h_k, lambda>, which may be large); a new vector with a lane
    at or past that quarter restarts the search at twice the width.  The
    search runs on plain ints, as does the lattice sweep `zcrystal._cut`
    (whose dense view is `_cut_points`), so the package needs no numpy,
    whose import alone takes about 0.1 s, longer than a typical `verify
    closure` run.
    """
    n = seq.n
    if window < n:
        raise ValueError("the certified window needs at least one period")
    seeds = list(seeds)
    if lam is None and any(phi.constant for phi in seeds):
        raise ConstantPresent("S' acts on forms with zero constant")
    # the step at r, as sparse (index, coefficient) lists: -beta^+_r where
    # the coefficient of r is positive, +beta^-_r where it is negative.
    # Past the first period beta^-_r = beta_{r - n} is beta_r's row one
    # period lower; in the first period it is -lambda^(k) with lam and 0
    # without
    down, up = [None], [None]  # indexed by r
    for r in range(1, window + 1):
        down.append([(i, -c) for i, c in beta_row(seq, r)])
        if r > n:
            up.append(beta_row(seq, r - n))
        elif lam is None:
            up.append([])
        else:
            up.append(_pairs(seq, -lambda_form(seq, seq.entry(r), lam)))
    # beta_W, the last step, ends at W + n
    width = 1 + max([window + n] + [support_bound(seq, phi) for phi in seeds])
    seeds = [_dense(seq, phi, width) for phi in seeds]
    largest = max([abs(c) for v in seeds for c in v]
                  + [abs(c) for step in down[1:] + up[1:] for _, c in step])
    bits = 16
    while largest >> (bits - 2):
        bits *= 2
    while (seen := _keyed_search(seeds, down, up, window, bits)) is None:
        bits *= 2
    half = 1 << (bits * (window + 1) - 1)
    certified, frontier = [], []
    for key, v in seen.items():
        (certified if -half <= key < half else frontier).append(v)
    return certified, frontier


def seed_shifts(seq: AdaptedSequence, window: int) -> range:
    """The shifts s, 1 <= s <= W // n + 1, of the single variables
    x(s, k) that `closure`'s lemma covers on the window W: every x(s, k)
    past them lies past W."""
    return range(1, window // seq.n + 2)


def _keyed_search(seeds: list, down: list, up: list, window: int, bits: int):
    """The search of `closure` at lane width `bits`: a dict from key to
    dense vector, or None once a new vector within the window has a lane
    of 2**(bits - 2) or more in size."""
    bound = 1 << (bits - 2)
    half = 1 << (bits * (window + 1) - 1)

    def key(pairs):
        return sum(c << bits * i for i, c in pairs)

    down_key = [0] + [key(step) for step in down[1:]]
    up_key = [0] + [key(step) for step in up[1:]]
    seen = {}
    stack = []
    for v in seeds:
        k = key(enumerate(v))
        if k not in seen:
            seen[k] = v
            stack.append(k)
    indices = range(1, window + 1)
    while stack:
        k = stack.pop()
        v = seen[k]
        for r in compress(indices, v[1:window + 1]):
            if v[r] > 0:
                nk, step = k + down_key[r], down[r]
            else:
                nk, step = k + up_key[r], up[r]
            if nk in seen or not -half <= nk < half:
                continue
            nxt = list(v)
            for i, c in step:
                c += nxt[i]
                if not -bound < c < bound:
                    return None
                nxt[i] = c
            seen[nk] = tuple(nxt)
            stack.append(nk)
    return seen


def _key(v: tuple) -> tuple:
    """The nonzero (single index, coefficient) pairs of the dense vector
    v by index, its constant left out: the key of wall_forms.wall_walk."""
    return tuple([(r, c) for r, c in enumerate(v[1:], 1) if c])


def _keys(vectors: list) -> set:
    """The keys of dense vectors of constant 0, as S' keeps them."""
    return {_key(v) for v in vectors}


def _forms(seq: AdaptedSequence, vectors: list) -> set:
    """Dense vectors as a set of LinearForm."""
    return {LinearForm(v[0], [(seq.reindex(r), c) for r, c in _key(v)])
            for v in vectors}


def positivity_report(seq: AdaptedSequence, lam: DominantWeight, window: int) -> dict:
    """The three positivity checks over closures certified on `window`,
    the last single index a certified form may touch (see `closure`).
    The S' seeds x(s, k), s in `seed_shifts(seq, window)`, reach every
    single index of the window; those past it stay in the frontier."""
    n = seq.n
    first_seeds = [x(s, k) for s in seed_shifts(seq, window)
                   for k in seq.base_type.index_set]
    hat_seeds = first_seeds + [lambda_form(seq, k, lam) for k in seq.base_type.index_set]

    def first_occ_ok(vectors):
        return all(min(v[1:n + 1]) >= 0 for v in vectors)  # r^(-) = 0

    xi_closure, _ = closure(seq, first_seeds, window)
    xi_positive = first_occ_ok(xi_closure)

    strict_positive = xi_positive
    for k in seq.base_type.index_set:
        xk = xi_form(seq, k)
        cert, _ = closure(seq, [xk], window)
        xk = _dense(seq, xk, len(cert[0]))  # at the width closure returns
        strict_positive &= first_occ_ok(v for v in cert if v != xk)

    hat_closure, _ = closure(seq, hat_seeds, window, lam=lam)
    ample = all(v[0] >= 0 for v in hat_closure)

    return {"xi_positive": xi_positive, "strict_positive": strict_positive, "ample": ample}
