"""Static root-system data for the seven classical affine families.

Cartan matrices, index classes, the periodic colour maps pi' with their
domains D_X, the baseline thresholds T / T-bar / T-double-bar, and
Langlands duality.  All level data is exact: positions in (1/2)Z are
stored as doubled integers (see :class:`HalfInt`).

Each family is one row of ``_ROWS``; everything else is read from the
row or from one period of its cells (``_cells``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, total_ordering
from itertools import islice, takewhile
from typing import NamedTuple


class Family(enum.Enum):
    A1 = "A1"
    B1 = "B1"
    C1 = "C1"
    D1 = "D1"
    A2EVEN = "A2even"
    A2EVEN_DAGGER = "A2evenDagger"
    A2ODD = "A2odd"
    D2 = "D2"

    # members are singletons compared by identity, so hash by identity
    # too: Enum's own hash runs in Python on every cache lookup
    __hash__ = object.__hash__


class _Row(NamedTuple):
    """One family: its smallest rank n, its Langlands dual, the two
    ends of its Dynkin chain ("fork", or the pair (a_{1,2}, a_{2,1}) at the
    low end and (a_{n-1,n}, a_{n,n-1}) at the high end) and the kinds of
    the two end cells of its colour pattern ("split", "doubled" or
    "full"), and any name it parses from besides its value."""

    min_rank: int
    dual: Family
    low: object
    high: object
    low_cell: str
    high_cell: str
    aliases: tuple = ()


# A1 is the cycle 1..n and has no chain ends
_ROWS = {
    Family.A1: _Row(2, Family.A1, None, None, None, None),
    Family.B1: _Row(4, Family.A2ODD, "fork", (-1, -2), "split", "doubled"),
    Family.C1: _Row(3, Family.D2, (-1, -2), (-2, -1), "full", "full"),
    Family.D1: _Row(5, Family.D1, "fork", "fork", "split", "split"),
    Family.A2EVEN: _Row(3, Family.A2EVEN_DAGGER, (-1, -2), (-1, -2),
                        "doubled", "full"),
    Family.A2EVEN_DAGGER: _Row(3, Family.A2EVEN, (-2, -1), (-2, -1),
                               "doubled", "full", ("a2dagger",)),
    Family.A2ODD: _Row(4, Family.B1, "fork", (-2, -1), "split", "full"),
    Family.D2: _Row(3, Family.C1, (-2, -1), (-1, -2), "doubled", "doubled"),
}


class DomainError(ValueError):
    """A position outside the domain of the periodic colour map."""


@total_ordering
class HalfInt:
    """An element of (1/2)Z stored as a doubled integer.

    Positions of cells and map-domain points such as 3/2 must never touch
    floating point; everything here is exact.
    """

    __slots__ = ("twice",)

    def __init__(self, twice: int):
        self.twice = int(twice)

    @classmethod
    def of(cls, value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int):
            return cls(2 * value)
        raise TypeError(f"cannot build HalfInt from {value!r}")

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def floor(self) -> int:
        return self.twice // 2

    def __add__(self, other):
        return HalfInt(self.twice + HalfInt.of(other).twice)

    __radd__ = __add__

    def __sub__(self, other):
        return HalfInt(self.twice - HalfInt.of(other).twice)

    def __rsub__(self, other):
        return HalfInt(HalfInt.of(other).twice - self.twice)

    def __eq__(self, other):
        try:
            return self.twice == HalfInt.of(other).twice
        except TypeError:
            return NotImplemented

    def __lt__(self, other):
        return self.twice < HalfInt.of(other).twice

    def __hash__(self):
        # the hash of the number itself, so that HalfInt.of(k) and k, which
        # are equal, hash alike; a half point equals no int or other type
        if self.twice % 2:
            return hash(self.twice / 2)
        return hash(self.twice // 2)

    def __repr__(self):
        if self.is_integer:
            return str(self.twice // 2)
        return f"{self.twice}/2"


@dataclass(frozen=True)
class AffineType:
    """One of the seven classical affine families with index set I={1..n}."""

    family: Family
    n: int

    def __post_init__(self):
        least = _ROWS[self.family].min_rank
        if self.n < least:
            raise ValueError(
                f"rank n={self.n} below the minimum "
                f"{least} for {self.family.value}"
            )

    @property
    def index_set(self) -> range:
        return range(1, self.n + 1)

    def __str__(self):
        return f"{self.family.value}(n={self.n})"


def parse_type(name: str, n: int) -> AffineType:
    key = name.strip().lower()
    for fam, row in _ROWS.items():
        if key == fam.value.lower() or key in row.aliases:
            return AffineType(fam, n)
    raise ValueError(f"unknown affine family {name!r}")


@lru_cache(maxsize=None)
def cartan_matrix(X: AffineType) -> tuple:
    """The generalized Cartan matrix (a_{i,j}) with <h_i, alpha_j> = a_{i,j}.

    Returned as a tuple of tuples indexed 0-based; use :func:`cartan_entry`
    for 1-based access.  Past A1 it is a chain of single links with the
    family's two ends: a fork, where 1 and 2 (n-1 and n) both link to 3
    (n-2), or one link from 1 to 2 (n-1 to n) with the row's pair.
    """
    n = X.n
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def link(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    row = _ROWS[X.family]
    if X.family is Family.A1:
        if n == 2:
            link(1, 2, -2, -2)
        else:
            for i in range(1, n):
                link(i, i + 1)
            link(n, 1)
        return tuple(tuple(r) for r in a)
    if row.low == "fork":
        link(1, 3)
        link(2, 3)
    else:
        link(1, 2, *row.low)
    if row.high == "fork":
        link(n - 2, n - 1)
        link(n - 2, n)
    else:
        link(n - 1, n, *row.high)
    lo = 3 if row.low == "fork" else 2
    hi = n - 2 if row.high == "fork" else n - 1
    for i in range(lo, hi):
        link(i, i + 1)
    return tuple(tuple(r) for r in a)


def cartan_entry(X: AffineType, i: int, j: int) -> int:
    return cartan_matrix(X)[i - 1][j - 1]


def langlands_dual(X: AffineType) -> AffineType:
    """The Langlands dual type; walls for type-X crystals live in the dual."""
    return AffineType(_ROWS[X.family].dual, X.n)


@lru_cache(maxsize=None)
def _cells(X: AffineType) -> tuple:
    """One period of the colour pattern, a (kind, colours) pair per cell
    from position 1 on: kind "split" (two colours, the integer atom's
    first), "doubled" (half height) or "full".  Past A1 the period walks
    the Dynkin chain up, from the low end cell through the full cells
    between to the high end cell, and back down the full cells; A1's is
    the cycle 1..n."""
    n = X.n
    if X.family is Family.A1:
        return tuple(("full", (c,)) for c in range(1, n + 1))
    row = _ROWS[X.family]
    low = (row.low_cell, (1, 2) if row.low_cell == "split" else (1,))
    high = (row.high_cell, (n - 1, n) if row.high_cell == "split" else (n,))
    middle = [("full", (c,))
              for c in range(len(low[1]) + 1, n - len(high[1]) + 1)]
    return (low, *middle, high, *reversed(middle))


def _cell(X: AffineType, t: HalfInt) -> tuple:
    """The cell at position floor(t), for t in D_X."""
    cells = _cells(X)
    return cells[(t.twice // 2 - 1) % len(cells)]


def period(X: AffineType) -> HalfInt:
    """Period of the colour map on its domain."""
    return HalfInt.of(len(_cells(X)))


def in_domain(X: AffineType, t) -> bool:
    """Every integer on A1; past it every t >= 1 that is an integer or the
    half point of a split cell."""
    t = HalfInt.of(t)
    if X.family is Family.A1:
        return t.is_integer
    return t.twice >= 2 and (t.is_integer or _cell(X, t)[0] == "split")


def periodic_map(X: AffineType, t) -> int:
    """The colour pi'_X(t) for t in D_X (pi_{A1}(t) for every integer t)."""
    t = HalfInt.of(t)
    if not in_domain(X, t):
        if X.family is Family.A1:
            raise DomainError(f"{t} not an integer position")
        raise DomainError(f"{t} not in the domain of the colour map for {X}")
    return _cell(X, t)[1][t.twice % 2]


def _domain_from(X: AffineType, start: HalfInt):
    """The D_X points t >= start, in order, found one half step at a time
    (endless: D_X has a point in every period)."""
    tw = start.twice
    while True:
        t = HalfInt(tw)
        if in_domain(X, t):
            yield t
        tw += 1


def domain_points(X: AffineType, start, stop):
    """Sorted D_X points t with start <= t < stop (integers only for A1)."""
    stop = HalfInt.of(stop)
    points = _domain_from(X, HalfInt.of(start))
    return list(takewhile(lambda t: t < stop, points))


def next_domain_point(X: AffineType, t) -> HalfInt:
    """The least D_X point above t."""
    return next(_domain_from(X, HalfInt.of(t) + HalfInt(1)))


@lru_cache(maxsize=None)
def index_class(X: AffineType, k: int) -> int:
    """1 if the fundamental weight at k carries a level-1 Young wall, else 2:
    class 1 is every colour of a split or doubled cell, and every colour
    on A1.

    Memoized per (type, colour); an index outside 1..n raises on every call.
    """
    if not 1 <= k <= X.n:
        raise ValueError(f"index {k} outside 1..{X.n}")
    if X.family is Family.A1:
        return 1
    return 1 if any(k in colours for kind, colours in _cells(X)
                    if kind != "full") else 2


@lru_cache(maxsize=None)
def thresholds(X: AffineType, k: int):
    """(T_k or None, Tbar_k, Tbarbar_k) for the colour k.

    Tbar/Tbarbar are the first and second domain points mapping to k;
    T_k = floor(Tbar_k) and is reported only for class-1 indices.
    Memoized per (type, colour), so the returned HalfInts are shared and
    must not be mutated.
    """
    if not 1 <= k <= X.n:  # no domain point maps to k: the scan never ends
        raise ValueError(f"index {k} outside 1..{X.n}")
    tbar, tbarbar = islice((t for t in _domain_from(X, HalfInt.of(1))
                            if periodic_map(X, t) == k), 2)
    tk = tbar.floor() if index_class(X, k) == 1 else None
    return (tk, tbar, tbarbar)


def half_height_colors(X: AffineType) -> frozenset:
    """Colours whose blocks have half-unit height (and unit thickness):
    those of the doubled cells."""
    return frozenset(c for kind, colours in _cells(X) if kind == "doubled"
                     for c in colours)


def cell_atoms(X: AffineType, t) -> tuple:
    """The domain points of the atoms of the cell holding t, bottom
    first: (t, t+1/2) for a split cell, whose second atom sits at the
    half point (so a half point t gives (t-1/2, t)), (t, t) for a
    doubled cell and (t,) for a full one.  DomainError for t outside
    D_X."""
    t = HalfInt.of(t)
    if not in_domain(X, t):
        raise DomainError(f"{t} not in the domain of the colour map for {X}")
    if not t.is_integer:
        return (t - HalfInt(1), t)
    kind = _cell(X, t)[0]
    if kind == "split":
        return (t, t + HalfInt(1))
    return (t, t) if kind == "doubled" else (t,)


def split_cell_pairs(X: AffineType) -> tuple:
    """Colour pairs occupying one cell as two half-thickness blocks.

    Each pair is listed with the colour sitting at the integer domain
    point first.
    """
    return tuple(colours for kind, colours in _cells(X) if kind == "split")
