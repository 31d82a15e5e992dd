"""Adapted periodic sequences, orientation bits p_{i,j}, index translation,
and the shift tables P_ell(t) used by the wall-to-form assignment."""

from __future__ import annotations

from dataclasses import dataclass, field

from wallcrystal.affine_data import (
    AffineType,
    DomainError,
    Family,
    HalfInt,
    cartan_entry,
    in_domain,
    langlands_dual,
    periodic_map,
)


class NotAPermutation(ValueError):
    pass


class NotAdapted(ValueError):
    pass


class UndefinedPair(ValueError):
    pass


@dataclass(frozen=True)
class DoubleIndex:
    """(s, k): the s-th occurrence of colour k along the sequence."""

    s: int
    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("colour index must be >= 1")

    def __repr__(self):
        return f"({self.s},{self.k})"


@dataclass(frozen=True)
class AdaptedSequence:
    """An infinite sequence iota repeating a permutation of I = {1..n}.

    Entries are read right to left: entry(1) = period[0].  Every
    permutation period yields an adapted sequence; adaptedness is still
    asserted on construction as a guard.
    """

    base_type: AffineType  # the type of g, i.e. X^L
    period_perm: tuple

    def __post_init__(self):
        n = self.base_type.n
        if sorted(self.period_perm) != list(range(1, n + 1)):
            raise NotAPermutation(f"{self.period_perm} is not a permutation of 1..{n}")
        # automatic for permutation periods, kept as a guard
        for i in self.base_type.index_set:
            for j in self.base_type.index_set:
                if i < j and cartan_entry(self.base_type, i, j) < 0:
                    sub = [c for c in self.period_perm if c in (i, j)]
                    if sub[0] == sub[1]:
                        raise NotAdapted((i, j))

    @property
    def n(self) -> int:
        return self.base_type.n

    @property
    def wall_type(self) -> AffineType:
        return langlands_dual(self.base_type)

    def entry(self, r: int) -> int:
        if r < 1:
            raise ValueError("single index must be >= 1")
        return self.period_perm[(r - 1) % self.n]

    def p(self, i: int, j: int) -> int:
        """Orientation bit: 1 iff i occurs before j scanning r = 1, 2, ..."""
        if i == j:
            return 0
        if cartan_entry(self.base_type, i, j) == 0:
            raise UndefinedPair((i, j))
        for c in self.period_perm:
            if c == i:
                return 1
            if c == j:
                return 0
        raise AssertionError  # pragma: no cover

    def reindex(self, r: int) -> DoubleIndex:
        k = self.entry(r)
        s = (r - 1) // self.n + 1
        return DoubleIndex(s, k)

    def single_index(self, d: DoubleIndex) -> int:
        pos = self.period_perm.index(d.k)  # 0-based within period
        return (d.s - 1) * self.n + pos + 1

    def compare(self, d1: DoubleIndex, d2: DoubleIndex) -> int:
        r1, r2 = self.single_index(d1), self.single_index(d2)
        return (r1 > r2) - (r1 < r2)

    def lt(self, d1, d2) -> bool:
        return self.compare(d1, d2) < 0

    def first_occurrence(self, k: int) -> int:
        """iota^(k): the smallest r with entry(r) = k."""
        return self.period_perm.index(k) + 1

    # --- shift tables ------------------------------------------------

    _tables: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    def shift_table(self, ell) -> "ShiftTable":
        ell = HalfInt.of(ell)
        if ell not in self._tables:
            self._tables[ell] = ShiftTable(self, ell)
        return self._tables[ell]


class ShiftTable:
    """Lazy memoized P_ell(t) over the wall type X = dual(base_type)."""

    def __init__(self, seq: AdaptedSequence, ell: HalfInt):
        X = seq.wall_type
        if not in_domain(X, ell):
            raise DomainError(f"origin {ell} not in the domain for {X}")
        self.seq = seq
        self.X = X
        self.ell = ell
        self._values = {ell: 0}

    def __call__(self, t) -> int:
        t = HalfInt.of(t)
        X = self.X
        if not in_domain(X, t):
            raise DomainError(f"{t} not in the domain for {X}")
        return self._get(t)

    def _get(self, t: HalfInt) -> int:
        # follow the single-predecessor chain down to a known value, then
        # fill its points back up from there (no recursion, so any depth)
        chain = []
        while t not in self._values:
            u, delta = self._step(t)
            if u is None:
                self._values[t] = delta
                break
            chain.append((t, delta))
            t = u
        v = self._values[t]
        for u, delta in reversed(chain):
            v += delta
            self._values[u] = v
        return v

    def _step(self, t: HalfInt):
        """(u, d) with P_ell(t) = P_ell(u) + d, or (None, P_ell(t)) at a base
        point."""
        seq, X, ell = self.seq, self.X, self.ell
        pm = lambda u: periodic_map(X, u)
        p = seq.p
        fam = X.family
        n = X.n
        if fam is Family.A1:
            u = t - 1 if t > ell else t + 1
            return u, p(pm(t), pm(u))
        if t < ell:
            seed = self._seed(t, ell)
            if seed is not None:
                return None, seed
            if t <= ell - 1 or t.twice <= ell.twice:
                return None, 0
            raise DomainError(f"P_{ell}({t}) undefined below the origin")
        seed = self._seed(ell, t)
        if seed is not None:
            return None, seed
        if fam in (Family.C1, Family.D2, Family.A2EVEN, Family.A2EVEN_DAGGER):
            return t - 1, p(pm(t), pm(t - 1))
        # B1 / A2odd / D1
        if pm(t) == 2:
            return t - HalfInt(3), p(2, 3)
        if fam is Family.D1 and pm(t) == n:
            return t - HalfInt(3), p(n, n - 2)
        return t - 1, p(pm(t), pm(t - 1))

    def _seed(self, lo: HalfInt, hi: HalfInt):
        """The special half-step seeds P_{j1}(j2) when {j1,j2} is one of the
        two exceptional pairs; only these may be negative."""
        seq, X, ell = self.seq, self.X, self.ell
        fam = X.family
        n = X.n
        pair = {lo, hi}
        if ell not in pair:
            return None
        j1 = ell
        j2 = hi if lo == ell else lo
        if fam in (Family.B1, Family.A2ODD, Family.D1):
            if pair == {HalfInt.of(1), HalfInt(3)}:
                return seq.p(3, periodic_map(X, j1)) - seq.p(3, periodic_map(X, j2))
        if fam is Family.D1:
            if pair == {HalfInt.of(n - 2), HalfInt(2 * n - 3)}:
                return seq.p(n - 2, periodic_map(X, j1)) - seq.p(
                    n - 2, periodic_map(X, j2)
                )
        return None


def from_permutation(X_g: AffineType, perm) -> AdaptedSequence:
    return AdaptedSequence(X_g, tuple(perm))
