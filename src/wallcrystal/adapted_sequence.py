"""Adapted periodic sequences, orientation bits p_{i,j}, index translation,
and the shift tables P_ell(t) used by the wall-to-form assignment."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from wallcrystal.affine_data import (
    AffineType,
    DomainError,
    Family,
    HalfInt,
    cartan_entry,
    cartan_matrix,
    cell_atoms,
    in_domain,
    langlands_dual,
    period,
    periodic_map,
)


class NotAPermutation(ValueError):
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
    permutation period yields an adapted sequence: two linked colours
    are distinct, so each occurs once between two occurrences of the
    other.
    """

    base_type: AffineType  # the type of g, i.e. X^L
    period_perm: tuple

    def __post_init__(self):
        n = self.base_type.n
        if sorted(self.period_perm) != list(range(1, n + 1)):
            raise NotAPermutation(f"{self.period_perm} is not a permutation of 1..{n}")

    @property
    def n(self) -> int:
        return self.base_type.n

    @cached_property
    def wall_type(self) -> AffineType:
        """X = dual(base_type), built on the first read: each shift
        table reads it."""
        return langlands_dual(self.base_type)

    def entry(self, r: int) -> int:
        if r < 1:
            raise ValueError("single index must be >= 1")
        return self.period_perm[(r - 1) % self.n]

    def p(self, i: int, j: int) -> int:
        """Orientation bit p_{i,j}: 1 iff iota^(i) < iota^(j), i.e. i first
        occurs before j.  UndefinedPair unless i = j or i, j are linked."""
        if i != j and cartan_entry(self.base_type, i, j) == 0:
            raise UndefinedPair((i, j))
        return int(self.first_occurrence(i) < self.first_occurrence(j))

    def reindex(self, r: int) -> DoubleIndex:
        k = self.entry(r)
        s = (r - 1) // self.n + 1
        return DoubleIndex(s, k)

    def single_index(self, d: DoubleIndex) -> int:
        return (d.s - 1) * self.n + self.first_occurrence(d.k)

    def compare(self, d1: DoubleIndex, d2: DoubleIndex) -> int:
        r1, r2 = self.single_index(d1), self.single_index(d2)
        return (r1 > r2) - (r1 < r2)

    def lt(self, d1, d2) -> bool:
        return self.compare(d1, d2) < 0

    def first_occurrence(self, k: int) -> int:
        """iota^(k): the smallest r with entry(r) = k."""
        try:
            return self.period_perm.index(k) + 1
        except ValueError:
            raise ValueError(f"colour {k} outside the index set "
                             f"1..{self.n}") from None

    @cached_property
    def profile_tables(self) -> tuple:
        """(slot, first, columns), the tables the sigma profile reads,
        built on the first read: slot[r % n] is entry(r) - 1, first[k - 1]
        is iota^(k), and columns[k - 1] is the Cartan column of colour k.
        A cached_property writes to the instance dict, past the frozen
        __setattr__."""
        n = self.n
        return (tuple(self.entry(r) - 1 for r in range(n, 2 * n)),
                tuple(map(self.first_occurrence, self.base_type.index_set)),
                tuple(zip(*cartan_matrix(self.base_type))))

    # --- shift tables ------------------------------------------------

    # ell -> the values of P_ell found so far, {t: P_ell(t)}
    _tables: dict = field(default_factory=dict, compare=False, hash=False, repr=False)

    def shift_table(self, ell) -> "ShiftTable":
        """P_ell, over the values every earlier table of ell found.  The
        sequence keeps only the values, which hold no reference back to
        it, so that a dropped sequence is freed with no cycle left for
        the collector."""
        ell = HalfInt.of(ell)
        values = self._tables.get(ell)
        table = ShiftTable(self, ell, values)
        if values is None:
            self._tables[ell] = table._values
        return table

    # the wall-to-form map's two tables (wall_forms.WallFormMap.of), which
    # hold no sequence, so that a dropped sequence is freed with no cycle
    wall_form_tables: tuple = field(default_factory=lambda: ({}, {}),
                                    compare=False, hash=False, repr=False)

    # beta_1..beta_n as rows of (single index, coefficient) pairs, filled
    # on the first closure (linear_forms.beta_rows); ints only, so that a
    # dropped sequence is freed with no cycle
    beta_table: list = field(default_factory=list,
                             compare=False, hash=False, repr=False)

    # `verify crystal`'s sigma profiles, element tuple -> profile, at
    # most _PROFILES of them (kept_profiles); ints only, so that a
    # dropped sequence is freed with no cycle
    profiles: dict = field(default_factory=dict,
                           compare=False, hash=False, repr=False)


class ShiftTable:
    """Lazy memoized P_ell(t) over the wall type X = dual(base_type)."""

    def __init__(self, seq: AdaptedSequence, ell: HalfInt, values=None):
        """values: the values another table of seq and ell found, which
        this one reads and extends (that table checked ell); a new table
        checks that ell lies in D_X and starts from {ell: 0}."""
        X = seq.wall_type
        if values is None:
            if not in_domain(X, ell):
                raise DomainError(f"origin {ell} not in the domain for {X}")
            values = {ell: 0}
        self.seq = seq
        self.X = X
        self.ell = ell
        self._values = values

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
        point.  Above the origin u is the point below t's cell: t - 1 for
        an integer point, and one below the cell's integer atom for a half
        point.  Below it P_ell is a seed or 0, except on A1, which walks
        up."""
        X, ell = self.X, self.ell
        seed = self._seed(t)
        if t < ell:
            if X.family is not Family.A1:
                return None, 0 if seed is None else seed
            u = t + 1
        else:
            if seed is not None:
                return None, seed
            u = t - 1 if t.is_integer else cell_atoms(X, t)[0] - 1
        return u, self.seq.p(periodic_map(X, t), periodic_map(X, u))

    def _seed(self, t: HalfInt):
        """P_ell(t) when ell and t are the two atoms of a split cell of the
        first period, else None: p(c, pi'(ell)) - p(c, pi'(t)) for c the
        colour of the cell above.  Only these values may be negative."""
        X, ell = self.X, self.ell
        lo, hi = (t, ell) if t < ell else (ell, t)
        if hi.twice - lo.twice != 1 or lo > period(X) \
                or cell_atoms(X, lo) != (lo, hi):
            return None
        c = periodic_map(X, lo + 1)
        return self.seq.p(c, periodic_map(X, ell)) - self.seq.p(c, periodic_map(X, t))


# the sequences from_permutation keeps, least recently used dropped first.
# Each keeps its shift-table values, profile tables, wall-to-form tables,
# beta rows and sigma profiles: 50-730 KiB after one `verify closure` on
# an acceptance setting (730 KiB for D1 rank 6 at the default --periods
# 6).  A query_mix pass
# of the benchmark meets 20 distinct sequences: its five settings, used
# in every round, and their star charts, used far less.  Over every rank-4 order of B1, C1, A2odd and
# D2 (96 sequences) in one process, `verify closure --periods 5` peaked
# at 21.0, 22.7 and 25.7 MB VmHWM with bounds 16, 32 and 64, 28.0 MB
# with none and 19.2 MB with no interning, and at the default --periods
# 6 at 36.2 and 43.3 MB with bounds 16 and 32, 67.3 MB with none and
# 26.2 MB with no interning (Python 3.11, x86-64 Linux)
_SEQUENCES = 16

# the sigma profiles each sequence keeps for `verify crystal`
# (AdaptedSequence.profiles); once this many are kept, the next new
# element drops them all.  A query_mix pass of the benchmark profiles
# 2,284 elements over its five settings, so none is dropped.  Over 20
# rank-4 orders of B1, `verify crystal --samples 2000 --depth 60` each
# in one process peaked at 18.8, 20.6 and 37.8 MB VmHWM with bounds 256,
# 1024 and 4096 and at 579 MB with none, and at --samples 500 at 25.2
# and 39.3 MB with bounds 1024 and 4096; a cache of 1024 kept per
# command peaked at 18.0 MB (Python 3.11, x86-64 Linux)
_PROFILES = 1024


def kept_profiles(seq: AdaptedSequence, compute):
    """items -> compute(seq, items), kept by the sequence across calls
    (`profiles`): `verify crystal`'s sigma profiles, which depend on the
    sequence and the element only.  Past _PROFILES a new element drops
    every kept one, so a long run's memory stays flat."""
    kept = seq.profiles

    def profile(items):
        got = kept.get(items)
        if got is None:
            if len(kept) >= _PROFILES:
                kept.clear()
            got = kept[items] = compute(seq, items)
        return got

    return profile


def from_permutation(X_g: AffineType, perm) -> AdaptedSequence:
    """The adapted sequence of X_g repeating perm, one object per
    (X_g, tuple(perm)) while it is among the _SEQUENCES most recently
    asked for, so that its tables and wall-to-form map serve every
    caller."""
    return _interned(X_g, tuple(perm))


@lru_cache(maxsize=_SEQUENCES)
def _interned(X_g: AffineType, perm: tuple) -> AdaptedSequence:
    return AdaptedSequence(X_g, perm)
