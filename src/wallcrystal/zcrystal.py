"""The crystal structure on finitely supported integer sequences, its
highest-weight twist, brute-force generation, and the verifier comparing
generated elements against the inequality systems."""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from itertools import compress

from wallcrystal.affine_data import cartan_entry
from wallcrystal.adapted_sequence import AdaptedSequence, DoubleIndex
from wallcrystal.linear_forms import DominantWeight, closure, lambda_form, x


class ZElement:
    """A finitely supported sequence a_1, a_2, ... keyed by single index,
    held as one tuple of (index, value) pairs sorted by index, with no
    zero value."""

    __slots__ = ("_items",)

    def __init__(self, entries=None):
        items = {}
        if entries:
            for r, v in (entries.items() if isinstance(entries, dict) else entries):
                if v:
                    if r < 1:
                        raise ValueError(f"index {r} below 1")
                    items[r] = items.get(r, 0) + v
        items = tuple(sorted((r, v) for r, v in items.items() if v))
        object.__setattr__(self, "_items", items)

    @staticmethod
    def _wrap(items: tuple) -> "ZElement":
        """The element whose pairs are items, unchecked: they must be
        sorted by index, with no zero value and no index below 1."""
        a = object.__new__(ZElement)
        object.__setattr__(a, "_items", items)
        return a

    def __setattr__(self, *a):
        raise AttributeError("ZElement is immutable")

    def get(self, r: int) -> int:
        items = self._items
        i = bisect_left(items, (r,))
        return items[i][1] if i < len(items) and items[i][0] == r else 0

    @property
    def support(self):
        return [r for r, _ in self._items]

    def items(self) -> tuple:
        return self._items

    def total(self) -> int:
        return sum(v for _, v in self._items)

    def bump(self, r: int, delta: int) -> "ZElement":
        if r < 1 and delta:
            raise ValueError(f"index {r} below 1")
        return ZElement._wrap(_bumped(self._items, r, delta))

    def as_double(self, seq: AdaptedSequence) -> dict:
        return {seq.reindex(r): v for r, v in self._items}

    def __eq__(self, other):
        return isinstance(other, ZElement) and self._items == other._items

    def __hash__(self):
        return hash(self._items)

    def __repr__(self):
        return f"ZElement({dict(self._items)!r})"


def _bumped(items: tuple, r: int, delta: int) -> tuple:
    """items with delta added at index r, the pair dropped if it reaches 0."""
    i = bisect_left(items, (r,))
    j = i
    if i < len(items) and items[i][0] == r:
        delta += items[i][1]
        j += 1
    return items[:i] + ((r, delta),) + items[j:] if delta \
        else items[:i] + items[j:]


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


def _sigma_profile(seq: AdaptedSequence, a: ZElement):
    """(epsilon, first, last, weight) of a, lists indexed by colour - 1
    (see `_profile`)."""
    return _profile(seq, a._items)


def _profile(seq: AdaptedSequence, items: tuple):
    """(epsilon, first, last, weight), lists indexed by colour - 1, of the
    element whose (index, value) pairs are items, sorted by index.

    For colour k, epsilon is the largest sigma_j over the positions j of
    colour k up to one period past the support, first and last are the
    smallest and largest such j attaining it (used by f_tilde and
    e_tilde), and weight is sum_r C[k, i_r] a_r, with C the Cartan
    matrix.  One downward pass keeps w[k] = sum_{l > j} C[k, i_l] a_l for
    every colour k, updated at each support position.  Between two
    support positions sigma_j = w[colour of j] is constant, so a gap costs
    one check per colour, at that colour's first and last position in
    it, and the last position is found only when w[k] can attain the
    best.  The last period past the support has sigma = 0 at every
    colour, so epsilon is never negative.  Each position's colour, each
    colour's first position and its Cartan column are read from tables
    built once per sequence (`AdaptedSequence.profile_tables`), and the
    pairs are read from the element's own sorted tuple, last first, so
    no call sorts.
    """
    n = seq.n
    slot, occ, columns = seq.profile_tables
    w = [0] * n
    best, first, last = [-1] * n, [0] * n, [0] * n
    hi = (items[-1][0] if items else 0) + n
    for r, v in reversed(((0, 0),) + items):
        # the gap r < j <= hi
        for k in range(n):
            s = w[k]
            if s >= best[k]:
                jl = hi - (hi - occ[k]) % n
                if jl > r:
                    if s > best[k]:
                        best[k], last[k] = s, jl
                    first[k] = r + 1 + (occ[k] - r - 1) % n
        if not r:
            break
        c = slot[r % n]
        s = v + w[c]
        if s >= best[c]:
            if s > best[c]:
                best[c], last[c] = s, r
            first[c] = r
        column = columns[c]
        for k in range(n):
            w[k] += column[k] * v
        hi = r - 1
    return best, first, last, w


def _slot(seq: AdaptedSequence, k: int) -> int:
    """k - 1, where the colour-indexed lists keep colour k; ValueError if
    k is not a colour."""
    if not 1 <= k <= seq.n:
        raise ValueError(f"colour {k} is not in the index set 1..{seq.n}")
    return k - 1


def epsilon(seq: AdaptedSequence, a: ZElement, k: int) -> int:
    return _sigma_profile(seq, a)[0][_slot(seq, k)]


def weight_pairings(seq: AdaptedSequence, a: ZElement,
                    lam: DominantWeight | None = None) -> list:
    """<h_k, lam + wt(a)> = lam_k - sum_r C[k, i_r] a_r for every colour k,
    as a list indexed by colour - 1: lam less the sigma profile's weight."""
    lam = DominantWeight.zero(seq.n) if lam is None else lam.check_rank(seq.n)
    return [l - w for l, w in zip(lam.values, _sigma_profile(seq, a)[3])]


def wt_pairing(seq: AdaptedSequence, a: ZElement, k: int,
               lam: DominantWeight | None = None) -> int:
    return weight_pairings(seq, a, lam)[_slot(seq, k)]


def _phi(seq: AdaptedSequence, profile, i: int,
         lam: DominantWeight | None) -> int:
    """phi at slot i, read from a's sigma profile: epsilon plus the
    weight pairing (see weight_pairings)."""
    eps, _, _, weight = profile
    lam = DominantWeight.zero(seq.n) if lam is None else lam.check_rank(seq.n)
    return eps[i] + lam.values[i] - weight[i]


def phi(seq: AdaptedSequence, a: ZElement, k: int,
        lam: DominantWeight | None = None) -> int:
    return _phi(seq, _sigma_profile(seq, a), _slot(seq, k), lam)


def f_tilde(seq: AdaptedSequence, a: ZElement, k: int) -> ZElement:
    return a.bump(_sigma_profile(seq, a)[1][_slot(seq, k)], 1)


def e_tilde(seq: AdaptedSequence, a: ZElement, k: int):
    eps, _, last, _ = _sigma_profile(seq, a)
    i = _slot(seq, k)
    if eps[i] <= 0:
        return None
    return a.bump(last[i], -1)


def _descent(seq: AdaptedSequence, a: ZElement) -> list:
    """The colours of the e_tilde steps leading a down to 0, first step
    first, or ValueError if a is not in B(infinity).

    B(infinity) is the closure of 0 under f_tilde, and f_tilde inverts
    e_tilde, so a lies in it exactly when applying e_tilde, at any colour
    where it applies, leads down to 0 with no negative entry on the way.
    Each step lowers the total by one, so the walk ends."""
    for r, v in a.items():
        if v < 0:
            d = seq.reindex(r)
            raise ValueError(f"a[{d.s},{d.k}]={v} is negative, so the element "
                             f"is not in B(infinity)")
    word = []
    while a.total():
        eps, _, last, _ = _sigma_profile(seq, a)
        k = next((k for k in range(seq.n) if eps[k] > 0), None)
        if k is None:
            raise ValueError(f"no e_tilde applies to {render_element(seq, a)}, "
                             f"so the element is not in B(infinity)")
        if not a.get(last[k]):
            raise ValueError(f"e_tilde at colour {k + 1} takes "
                             f"{render_element(seq, a)} below zero, so the "
                             f"element is not in B(infinity)")
        word.append(k + 1)
        a = a.bump(last[k], -1)
    return word


def check_in_binf(seq: AdaptedSequence, a: ZElement) -> None:
    """Raise ValueError unless a lies in B(infinity)."""
    _descent(seq, a)


def star_length(seq: AdaptedSequence, k: int, a: ZElement) -> int:
    """epsilon*_k(a), read from Kashiwara's embedding Psi_k: the first
    coordinate of a in the chart whose period starts with k (the rest of
    the period in its order here).  a is led down to 0 by e_tilde, and
    the recorded word is replayed with f_tilde in that chart.  Every
    permutation period is adapted, so the chart exists.  ValueError if a
    is not in B(infinity) or k is not a colour."""
    _slot(seq, k)
    rest = tuple(c for c in seq.period_perm if c != k)
    chart = AdaptedSequence(seq.base_type, (k,) + rest)
    b = ZElement()
    for c in reversed(_descent(seq, a)):
        b = f_tilde(chart, b, c)
    return b.get(1)


def f_tilde_lambda(seq: AdaptedSequence, a: ZElement, k: int,
                   lam: DominantWeight):
    """The tensor-rule action on a x r_lambda: the move dies when phi
    drops to the wall of the highest-weight crystal.  phi and f_tilde
    read one sigma profile."""
    profile = _sigma_profile(seq, a)
    i = _slot(seq, k)
    if _phi(seq, profile, i, lam) <= 0:
        return None
    return a.bump(profile[1][i], 1)


# --- generation and verification --------------------------------------


def generate(seq: AdaptedSequence, depth: int,
             lam: DominantWeight | None = None) -> set:
    """All words of lowering operators of length <= depth applied to 0."""
    return set(map(ZElement._wrap, _generated(seq, depth, lam)))


def _generated(seq: AdaptedSequence, depth: int,
               lam: DominantWeight | None) -> set:
    """The elements `generate` returns, each as its sorted tuple of
    (index, value) pairs: the breadth-first search runs on the tuples,
    and `verify_equivalence` compares them as they are."""
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if lam is not None:
        lam.check_rank(seq.n)
    seen = {()}
    frontier = [()]
    colours = range(seq.n)
    for _ in range(depth):
        nxt = []
        for a in frontier:
            eps, first, _, weight = _profile(seq, a)
            for k in colours:
                # phi_k = epsilon_k + <h_k, lam> - sum_r C[k, i_r] a_r
                if lam is not None and eps[k] + lam.values[k] <= weight[k]:
                    continue
                b = _bumped(a, first[k], 1)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        if not nxt:
            break
        frontier = nxt
    return seen


def _window_forms(seq, support_cap, lam=None):
    """All inequality forms supported within the single-index window, as
    dense vectors (constant, then the coefficients of 1..support_cap),
    taken from the certified operator closures (their agreement with the
    wall-generated families is enforced by the test suite)."""
    # the closures certify windows of at least one period
    window = max(support_cap, seq.n)
    width = support_cap + 1
    # past s = support_cap // n + 1, every x(s, k) lies past the window
    seeds = [x(s, k) for s in range(1, support_cap // seq.n + 2)
             for k in seq.base_type.index_set]
    cert, _ = closure(seq, seeds, window)
    out = {v[:width] for v in cert if not any(v[width:])}
    if lam is not None:
        hw_seeds = [lambda_form(seq, k, lam) for k in seq.base_type.index_set]
        cert2, _ = closure(seq, hw_seeds, window, lam=lam)
        out |= {v[:width] for v in cert2 if any(v) and not any(v[width:])}
    return out


def _dense(items: tuple, box: int) -> tuple:
    """The length-box vector of the point whose sorted (index, value)
    pairs are items."""
    v = [0] * box
    for r, c in items:
        v[r - 1] = c
    return tuple(v)


def _cut_points(forms, box: int, depth: int) -> list:
    """The nonnegative integer points of length box with coordinate sum
    <= depth on which every form (dense, as `_window_forms` returns them)
    is >= 0, as a list of dense tuples in no set order: the dense view of
    the sweep `_cut`."""
    return [_dense(point, box) for point in _cut(forms, box, depth)]


def _cut(forms, box: int, depth: int) -> list:
    """The points of `_cut_points`, each as its sorted tuple of (index,
    value) pairs with no zero value, the shape of a generated element.

    The sweep assigns the coordinates top-down, x_box at level box first,
    then x_{box - 1}, ..., x_1, to a whole frontier of partial points.  A
    form is settled at the level of its first nonzero coefficient a: at
    level L such a form reads p + a x_L, with p fixed by the partial
    point, so the values of x_L it allows form a half-line, and those
    that every form settled at L allows form an interval.  Each partial
    point branches into exactly that interval (capped by its remaining
    budget), so no point that fails a form is ever built.  A partial
    point is the sparse tuple of its coordinates assigned so far, and
    (L, x_L) is prepended only when x_L > 0, so the pairs stay sorted by
    index.

    Beside it, a partial point carries one int q holding the value of
    every form not yet settled, form i in lane i of `bits` bits, biased
    by 2**(bits - 1).  The forms are sorted by first index, last first,
    so the lanes settled at L are the lowest ones; a value is >= 0
    exactly when the top bit of its lane is set, so x_L is allowed when
    q & mask == mask, and q steps to x_L + 1 by adding the column of the
    coefficients of x_L.  The settled lanes are then shifted out.  Every
    value and every coefficient is at most |constant| + max(depth, 1)
    max|coefficient| in size, below 2**(bits - 1), so no lane carries
    into the next and the values are exact for any size of coefficient.
    The sorted forms are transposed once, so the column of level L is a
    slice of the L-th row of the transpose, the lanes not yet shifted
    out; 8-bit lanes are packed as one bytes object per column.
    """
    lanes = []  # (first index, form) of the forms with a variable
    bound, scale, levels = 0, max(depth, 1), range(1, box + 1)
    for v in forms:
        coeffs = v[1:box + 1]
        first = next(compress(levels, coeffs), 0)
        if first:
            lanes.append((first, v))
            top = max(max(coeffs), -min(coeffs))  # max|coefficient|
            bound = max(bound, abs(v[0]) + scale * top)
        elif v[0] < 0:
            raise ValueError("inconsistent constant inequality in the window")
    lanes.sort(key=lambda lane: lane[0], reverse=True)
    bits = 8
    while bound >> (bits - 1):
        bits *= 2
    size, half = bits // 8, 1 << (bits - 1)

    def packed(values):  # lane i holds values[i] + half
        if bits == 8:
            return int.from_bytes(bytes([c + half for c in values]), "little")
        return int.from_bytes(b"".join((c + half).to_bytes(size, "little")
                                       for c in values), "little")

    def biased_zeros(count):  # lanes of value 0; also their top bits
        return int.from_bytes(half.to_bytes(size, "little") * count, "little")

    at_level = Counter(first for first, _ in lanes)
    # rows[L][i] is the coefficient of x_L in lane i, rows[0] the constants
    rows = list(zip(*(v for _, v in lanes))) or [()] * (box + 1)
    frontier = [(packed(rows[0]), depth, ())]
    gone = 0  # lanes settled and shifted out so far
    for level in range(box, 0, -1):
        column = packed(rows[level][gone:]) - biased_zeros(len(lanes) - gone)
        settled = at_level[level]
        mask, shift = biased_zeros(settled), bits * settled
        gone += settled
        nxt = []
        for q, budget, point in frontier:
            allowed = False
            for x in range(budget + 1):
                if q & mask == mask:
                    nxt.append((q >> shift, budget - x,
                                ((level, x),) + point if x else point))
                    allowed = True
                elif allowed:
                    break  # the allowed values are an interval
                q += column
        frontier = nxt
    return [point for _, _, point in frontier]


def verify_equivalence(seq: AdaptedSequence, depth: int,
                       lam: DominantWeight | None = None,
                       box: int | None = None) -> dict:
    """Generated elements versus inequality-cut lattice points.

    box is the single-index bound for the candidate lattice points; it
    must cover the support of every generated element (checked).  The
    report lists the mismatches between the two sets restricted to the
    box, as sorted dense vectors of length box, and the generated
    elements violating a windowed inequality, in the order of their
    vectors in `extra`.  The lattice points are found by an exact
    interval sweep on packed ints, one coordinate per level from the top
    one down, each form settled at its first nonzero coefficient
    (`_cut`).  Generated elements are nonnegative with coordinate sum <=
    depth, so the sweep decides each of them: the violating ones are
    exactly those outside the cut (`extra`).  Both sides are sets of
    sorted (index, value) tuples, the search's own elements and the
    sweep's points, so they are compared as they are; dense vectors and
    `ZElement`s are built only for the mismatches.
    """
    if depth < 0:
        raise ValueError(f"depth {depth} is negative")
    if box is not None and box < 0:
        raise ValueError(f"box {box} is negative")
    gen = _generated(seq, depth, lam)
    max_supp = max((a[-1][0] for a in gen if a), default=0)
    if box is None:
        box = max_supp
    if box < max_supp:
        raise ValueError(f"box {box} does not cover generated support {max_supp}")
    cut = set(_cut(_window_forms(seq, box, lam), box, depth))
    missing = cut - gen
    extra = sorted((_dense(a, box), a) for a in gen - cut)
    return {
        "generated": len(gen),
        "cut": len(cut),
        "violations": [ZElement._wrap(a) for _, a in extra],
        "missing": sorted(_dense(a, box) for a in missing),
        "extra": [v for v, _ in extra],
        "ok": not missing and not extra,
    }
