"""Static root-system data for the seven classical affine families.

Cartan matrices, index classes, the periodic colour maps pi' with their
domains D_X, the baseline thresholds T / T-bar / T-double-bar, and
Langlands duality.  All level data is exact: positions in (1/2)Z are
stored as doubled integers (see :class:`HalfInt`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache, total_ordering


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


# smallest admissible rank parameter n per family
_MIN_RANK = {
    Family.A1: 2,
    Family.B1: 4,
    Family.C1: 3,
    Family.D1: 5,
    Family.A2EVEN: 3,
    Family.A2EVEN_DAGGER: 3,
    Family.A2ODD: 4,
    Family.D2: 3,
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
        return hash(("HalfInt", self.twice))

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
        if self.n < _MIN_RANK[self.family]:
            raise ValueError(
                f"rank n={self.n} below the minimum "
                f"{_MIN_RANK[self.family]} for {self.family.value}"
            )

    @property
    def index_set(self) -> range:
        return range(1, self.n + 1)

    def __str__(self):
        return f"{self.family.value}(n={self.n})"


_FAMILY_ALIASES = {
    "a1": Family.A1,
    "b1": Family.B1,
    "c1": Family.C1,
    "d1": Family.D1,
    "a2even": Family.A2EVEN,
    "a2evendagger": Family.A2EVEN_DAGGER,
    "a2dagger": Family.A2EVEN_DAGGER,
    "a2odd": Family.A2ODD,
    "d2": Family.D2,
}


def parse_type(name: str, n: int) -> AffineType:
    key = name.strip().lower()
    if key not in _FAMILY_ALIASES:
        raise ValueError(f"unknown affine family {name!r}")
    return AffineType(_FAMILY_ALIASES[key], n)


@lru_cache(maxsize=None)
def cartan_matrix(X: AffineType) -> tuple:
    """The generalized Cartan matrix (a_{i,j}) with <h_i, alpha_j> = a_{i,j}.

    Returned as a tuple of tuples indexed 0-based; use :func:`cartan_entry`
    for 1-based access.
    """
    n = X.n
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = 2

    def link(i, j, aij=-1, aji=-1):
        a[i - 1][j - 1] = aij
        a[j - 1][i - 1] = aji

    fam = X.family
    if fam is Family.A1:
        if n == 2:
            link(1, 2, -2, -2)
        else:
            for i in range(1, n):
                link(i, i + 1)
            link(n, 1)
    elif fam is Family.B1:
        link(1, 3)
        link(2, 3)
        for i in range(3, n - 1):
            link(i, i + 1)
        # (n-1) => n : a_{n,n-1} = -2
        link(n - 1, n, -1, -2)
    elif fam is Family.C1:
        # 1 => 2 : a_{2,1} = -2
        link(1, 2, -1, -2)
        for i in range(2, n - 1):
            link(i, i + 1)
        # (n-1) <= n : a_{n-1,n} = -2
        link(n - 1, n, -2, -1)
    elif fam is Family.D1:
        link(1, 3)
        link(2, 3)
        for i in range(3, n - 2):
            link(i, i + 1)
        link(n - 2, n - 1)
        link(n - 2, n)
    elif fam is Family.A2EVEN:
        link(1, 2, -1, -2)
        for i in range(2, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)
    elif fam is Family.A2EVEN_DAGGER:
        link(1, 2, -2, -1)
        for i in range(2, n - 1):
            link(i, i + 1)
        link(n - 1, n, -2, -1)
    elif fam is Family.A2ODD:
        link(1, 3)
        link(2, 3)
        for i in range(3, n - 1):
            link(i, i + 1)
        link(n - 1, n, -2, -1)
    elif fam is Family.D2:
        link(1, 2, -2, -1)
        for i in range(2, n - 1):
            link(i, i + 1)
        link(n - 1, n, -1, -2)
    else:  # pragma: no cover
        raise AssertionError(fam)
    return tuple(tuple(row) for row in a)


def cartan_entry(X: AffineType, i: int, j: int) -> int:
    return cartan_matrix(X)[i - 1][j - 1]


_DUAL = {
    Family.A1: Family.A1,
    Family.D1: Family.D1,
    Family.C1: Family.D2,
    Family.D2: Family.C1,
    Family.A2ODD: Family.B1,
    Family.B1: Family.A2ODD,
    Family.A2EVEN: Family.A2EVEN_DAGGER,
    Family.A2EVEN_DAGGER: Family.A2EVEN,
}


def langlands_dual(X: AffineType) -> AffineType:
    """The Langlands dual type; walls for type-X crystals live in the dual."""
    return AffineType(_DUAL[X.family], X.n)


def period(X: AffineType) -> HalfInt:
    """Period of the colour map on its domain."""
    n = X.n
    fam = X.family
    if fam is Family.A1:
        return HalfInt.of(n)
    if fam in (Family.C1, Family.D2, Family.A2EVEN, Family.A2EVEN_DAGGER):
        return HalfInt.of(2 * n - 2)
    if fam in (Family.B1, Family.A2ODD):
        return HalfInt.of(2 * n - 4)
    if fam is Family.D1:
        return HalfInt.of(2 * n - 6)
    raise AssertionError(fam)  # pragma: no cover


def in_domain(X: AffineType, t) -> bool:
    t = HalfInt.of(t)
    fam = X.family
    if fam is Family.A1:
        return t.is_integer
    if t.is_integer:
        return t.twice >= 2
    per = period(X).twice // 2
    if fam in (Family.B1, Family.A2ODD):
        # 3/2 + per * Z>=0
        return t.twice >= 3 and (t.twice - 3) % (2 * per) == 0
    if fam is Family.D1:
        if t.twice >= 3 and (t.twice - 3) % (2 * per) == 0:
            return True
        base = 2 * X.n - 3  # twice (n - 3/2)
        return t.twice >= base and (t.twice - base) % (2 * per) == 0
    return False


def periodic_map(X: AffineType, t) -> int:
    """The colour pi'_X(t) for t in D_X (pi_{A1}(t) for every integer t)."""
    t = HalfInt.of(t)
    n = X.n
    fam = X.family
    if fam is Family.A1:
        if not t.is_integer:
            raise DomainError(f"{t} not an integer position")
        return (t.floor() - 1) % n + 1
    if not in_domain(X, t):
        raise DomainError(f"{t} not in the domain of the colour map for {X}")
    per = period(X)
    # reduce into the base window starting at 1
    red = HalfInt((t.twice - 2) % per.twice + 2)
    if fam in (Family.C1, Family.D2, Family.A2EVEN, Family.A2EVEN_DAGGER):
        ell = red.floor()
        return ell if ell <= n else 2 * n - ell
    if fam in (Family.B1, Family.A2ODD):
        if not red.is_integer:
            return 2
        ell = red.floor()
        if ell == 1:
            return 1
        if 2 <= ell <= n - 1:
            return ell + 1
        return 2 * n - ell - 1
    if fam is Family.D1:
        if not red.is_integer:
            return 2 if red.twice == 3 else n
        ell = red.floor()
        if ell == 1:
            return 1
        if 2 <= ell <= n - 2:
            return ell + 1
        return 2 * n - ell - 3
    raise AssertionError(fam)  # pragma: no cover


def domain_points(X: AffineType, start, stop):
    """Sorted D_X points t with start <= t < stop (integers only for A1)."""
    start = HalfInt.of(start)
    stop = HalfInt.of(stop)
    out = []
    tw = start.twice
    while tw < stop.twice:
        t = HalfInt(tw)
        if in_domain(X, t):
            out.append(t)
        tw += 1
    return out


def next_domain_point(X: AffineType, t) -> HalfInt:
    t = HalfInt.of(t)
    tw = t.twice + 1
    while True:
        cand = HalfInt(tw)
        if in_domain(X, cand):
            return cand
        tw += 1


@lru_cache(maxsize=None)
def index_class(X: AffineType, k: int) -> int:
    """1 if the fundamental weight at k carries a level-1 Young wall, else 2.

    Memoized per (type, colour); an index outside 1..n raises on every call.
    """
    n = X.n
    fam = X.family
    if not 1 <= k <= n:
        raise ValueError(f"index {k} outside 1..{n}")
    class1 = {
        Family.A1: set(range(1, n + 1)),
        Family.B1: {1, 2, n},
        Family.D1: {1, 2, n - 1, n},
        Family.A2EVEN: {1},
        Family.A2EVEN_DAGGER: {1},
        Family.A2ODD: {1, 2},
        Family.D2: {1, n},
        Family.C1: set(),
    }[fam]
    return 1 if k in class1 else 2


@lru_cache(maxsize=None)
def thresholds(X: AffineType, k: int):
    """(T_k or None, Tbar_k, Tbarbar_k) for the colour k.

    Tbar/Tbarbar are the first and second domain points mapping to k;
    T_k = floor(Tbar_k) and is reported only for class-1 indices.
    Memoized per (type, colour), so the returned HalfInts are shared and
    must not be mutated.
    """
    if X.family is Family.A1:
        t = None if index_class(X, k) != 1 else k
        return (t, HalfInt.of(k), HalfInt.of(k + X.n))
    if not 1 <= k <= X.n:  # no domain point maps to k: the scan never ends
        raise ValueError(f"index {k} outside 1..{X.n}")
    hits = []
    tw = 2
    while len(hits) < 2:
        t = HalfInt(tw)
        if in_domain(X, t) and periodic_map(X, t) == k:
            hits.append(t)
        tw += 1
    tbar, tbarbar = hits
    tk = tbar.floor() if index_class(X, k) == 1 else None
    return (tk, tbar, tbarbar)


def half_height_colors(X: AffineType) -> frozenset:
    """Colours whose blocks have half-unit height (and unit thickness)."""
    fam = X.family
    n = X.n
    if fam is Family.D2:
        return frozenset({1, n})
    if fam in (Family.A2EVEN, Family.A2EVEN_DAGGER):
        return frozenset({1})
    if fam is Family.B1:
        return frozenset({n})
    return frozenset()


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
    half = t + HalfInt(1)
    if in_domain(X, half):
        return (t, half)
    if periodic_map(X, t) in half_height_colors(X):
        return (t, t)
    return (t,)


def split_cell_pairs(X: AffineType) -> tuple:
    """Colour pairs occupying one cell as two half-thickness blocks.

    Each pair is listed with the colour sitting at the integer domain
    point first.
    """
    fam = X.family
    n = X.n
    if fam in (Family.B1, Family.A2ODD):
        return ((1, 2),)
    if fam is Family.D1:
        return ((1, 2), (n - 1, n))
    return ()
