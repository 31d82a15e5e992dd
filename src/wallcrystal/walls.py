"""Young walls and truncated walls: stacking patterns, properness, site
detection, mutation, bounded enumeration, and ASCII rendering.

Walls are immutable values.  A column is encoded by the number of
completely filled unit cells above the base together with a partial-top
code; the stacking patterns determine the colour, shape and level of
every atom from that state.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache

from wallcrystal.affine_data import (
    AffineType,
    Family,
    HalfInt,
    cell_atoms,
    index_class,
    next_domain_point,
    parse_type,
    period,
    periodic_map,
    split_cell_pairs,
    thresholds,
)


class ClassMismatch(ValueError):
    pass


class NotProper(ValueError):
    pass


class SiteNotPresent(ValueError):
    pass


class ResultImproper(ValueError):
    pass


# ground kinds
LEVEL1 = "level1"
SUPPORTING = "supporting"
COVERING = "covering"

# partial-top codes
NONE = "none"
FRONT = "front"  # lone half-thickness atom at the front of a split cell
BACK = "back"    # lone half-thickness atom at the back of a split cell
LOWER = "lower"  # lone lower half-height atom of a doubled cell
# the partial top each code of a wall literal names
_CODE_TOP = {"f": FRONT, "b": BACK, "l": LOWER}
# the code a wall literal gives each lone split-cell atom
_TOP_CODE = {FRONT: "f", BACK: "b"}


@dataclass(frozen=True)
class Cell:
    """One unit cell of a column pattern.

    kind 'full': a unit cube of colors[0].
    kind 'double': two half-height blocks of colors[0], lower then upper.
    kind 'split': two half-thickness blocks, colors = (back, front) with
    args = (back P-argument, front P-argument).
    """

    kind: str
    level: HalfInt  # the domain point labelling the cell bottom
    colors: tuple
    args: tuple

    @property
    def natoms(self) -> int:
        return 1 if self.kind == "full" else 2


def _back_assignment(X: AffineType, k: int, column: int) -> dict:
    """Which colour of each split pair sits at the back of the column.
    On columns 0, 2, 4, ... (0-based from the right) it is k if the pair
    holds k, else the pair's half-point colour; the other columns take
    the pair's other colour.  A class-2 colour is in no pair, so one rule
    serves level-1 and truncated walls."""
    out = {}
    for low, high in split_cell_pairs(X):  # high sits at the half point
        low_at_back = (k == low) == (column % 2 == 0)
        out[frozenset((low, high))] = low if low_at_back else high
    return out


def _pattern_period(X: AffineType, k: int, ground: str, parity: int):
    """(head, cycle): the column pattern's cells below its first integer
    level past the ground cell, and its cells over one period from that
    level on.  Every integer domain point starts a cell, and above 1 the
    domain and the colour map repeat with period(X), so the rest of the
    pattern is the cycle repeated, each copy a period higher."""
    backs = _back_assignment(X, k, parity)
    tbar, tbarbar = thresholds(X, k)[1:]
    cells = []
    if ground == LEVEL1:
        t = cell_atoms(X, tbar)[0]
    else:
        t = tbar if ground == SUPPORTING else tbarbar
        cells.append(Cell("double", t, (k,), (t,)))
        t = next_domain_point(X, t)
    start = stop = None
    while stop is None or t < stop:
        if stop is None and t.is_integer:
            start, stop = len(cells), t + period(X)
        atoms = cell_atoms(X, t)
        colors = tuple(periodic_map(X, a) for a in atoms)
        if len(atoms) == 1:
            cells.append(Cell("full", t, colors, atoms))
        elif atoms[0] == atoms[1]:
            cells.append(Cell("double", t, colors[:1], atoms[:1]))
        elif backs[frozenset(colors)] == colors[0]:
            cells.append(Cell("split", t, colors, atoms))
        else:
            cells.append(Cell("split", t, colors[::-1], atoms[::-1]))
        t = next_domain_point(X, atoms[-1])
    return tuple(cells[:start]), tuple(cells[start:])


def column_pattern(X: AffineType, k: int, ground: str, column: int, count: int = 8):
    """The first `count` pattern cells of the given column, read from its
    column table (_Column.cell).  ValueError for a count below 0,
    ClassMismatch for a ground outside k's class."""
    if count < 0:
        raise ValueError(f"count {count} is below 0")
    table = _column(X, k, ground)
    return tuple([table.cell(column, m) for m in range(count)])


def _check_ground(X: AffineType, k: int, ground: str) -> None:
    """ClassMismatch unless k's class carries the ground: class 1 stands
    on level 1, class 2 on a supporting or covering ground.  ValueError
    for any other ground."""
    if ground not in (LEVEL1, SUPPORTING, COVERING):
        raise ValueError(f"unknown ground {ground!r}")
    want = 1 if ground == LEVEL1 else 2
    if index_class(X, k) != want:
        raise ClassMismatch(f"{k} is not class {want} in {X}")


# the partial codes of a column on a cell of each kind: the first names
# a bare column's ground atom, the front atom of a split base cell or the
# lower atom of a doubled one, and a full base cell (A1) has none
_PARTIAL_TOPS = {"full": (), "split": (FRONT, BACK), "double": (LOWER,)}


class _Column:
    """The column of one (type, colour, ground): its pattern cells, and
    the states it may take.

    It owns the cells of both parities as the head and cycle of
    _pattern_period, and cell() reads any of them by index; an A1 cell
    is read from its formula.  A column's parity only decides which atom
    of a split cell sits at the back, never the kinds of its cells, so
    one list of states serves every column of a wall: the bare state and
    the others grouped by added atoms, listed row by row on demand.

    It also holds the move tables of site detection: per host, a column's
    local view (_views) -> its moves, as a tuple of (site, new state)."""

    def __init__(self, X, k, ground):
        _check_ground(X, k, ground)
        self.X, self.k, self.ground = X, k, ground
        a1 = X.family is Family.A1
        self._periods = None if a1 else \
            [_pattern_period(X, k, ground, p) for p in (0, 1)]
        # whether two full columns of one height make a wall improper
        self.full_once = not a1
        self._lift = period(X).twice
        tops = _PARTIAL_TOPS[self.cell(0, 0).kind]
        self.base = (0, tops[0] if tops else NONE)
        self._listed = []
        self._atoms = {self.base: 0}
        self._rows = 0  # every state of a lower row is listed
        self._filled = 0 if self.base[1] == NONE else -1  # atoms of (_rows, NONE)
        self.tables = {}  # host -> {local view: moves}

    def cell(self, column: int, m: int) -> Cell:
        """Cell m, from 0 at the base, of the given column's pattern: a
        head cell, or a cycle cell lifted by whole periods.  An A1 cell
        sits at level k - column + m and carries that level less the
        column as its argument."""
        if self._periods is None:
            level = HalfInt.of(self.k - column + m)
            return Cell("full", level, (periodic_map(self.X, level),),
                        (level - column,))
        head, cycle = self._periods[column % 2]
        if m < len(head):
            return head[m]
        lifts, j = divmod(m - len(head), len(cycle))
        c = cycle[j]
        if not lifts:
            return c
        lift = lifts * self._lift
        level = HalfInt(c.level.twice + lift)
        args = (level,) if len(c.args) == 1 else \
            tuple([HalfInt(a.twice + lift) for a in c.args])
        return Cell(c.kind, level, c.colors, args)

    def _more(self):
        """List the states of row m = _rows past the bare state, from
        cell(0, m): the partial states of its cell, then the state that
        fills it.  The base cell's only partial state is the bare one."""
        m = self._rows
        cell = self.cell(0, m)
        tops = _PARTIAL_TOPS[cell.kind] if m else ()
        for c, group in ((self._filled + 1, tuple([(m, top) for top in tops])),
                         (self._filled + cell.natoms, ((m + 1, NONE),))):
            if group:
                self._listed.append((c, group))
                self._atoms.update(dict.fromkeys(group, c))
        self._filled += cell.natoms
        self._rows = m + 1

    def __iter__(self):
        listed = self._listed
        for i in itertools.count():
            if i == len(listed):
                self._more()
            yield listed[i]

    def atoms(self, state):
        """The atoms state adds to the bare column, or None if no column
        takes state."""
        while self._rows <= state[0]:
            self._more()
        return self._atoms.get(state)

    def state(self, count: int, code: str = ""):
        """The state adding count atoms; a split cell's lone atom is the
        back one unless code is 'f'.  A code must name the chosen state's
        lone atom (f front, b back, l lower), else ValueError."""
        if count == 0:
            st = self.base
        else:
            for c, group in self:  # the costs run 1, 2, 3, ...
                if c >= count:
                    break
            st = group[0] if len(group) == 1 or code == "f" else group[1]
        if code and _CODE_TOP[code] != st[1]:
            raise ValueError(
                f"column code {code!r} does not fit the count {count}")
        return st


@lru_cache(maxsize=None)
def _column(X: AffineType, k: int, ground: str) -> _Column:
    return _Column(X, k, ground)


@dataclass(frozen=True)
class Wall:
    """A proper-or-not wall value; structural invariants are enforced."""

    wall_type: AffineType
    k: int
    ground: str
    states: tuple  # ((m, top), ...) for columns 0.. ; trailing bare states trimmed

    def __post_init__(self):
        column = self.column_table
        states = tuple(self.states)
        while states and states[-1] == column.base:
            states = states[:-1]
        object.__setattr__(self, "states", states)
        for st in states:
            if column.atoms(st) is None:
                raise ValueError(f"no column takes the state {st}")
        if not self._spaces_ok():
            raise ValueError("free space to the right of a block")

    @property
    def column_table(self) -> _Column:
        """The states each column of this wall may take."""
        return _column(self.wall_type, self.k, self.ground)

    @property
    def base_state(self):
        return self.column_table.base

    def state(self, i: int):
        return self.states[i] if i < len(self.states) else self.base_state

    def _spaces_ok(self):
        for i in range(1, len(self.states)):
            if not _covers(self.states[i - 1], self.states[i]):
                return False
        return True

    def column_atoms(self, i: int) -> int:
        return self.column_table.atoms(self.state(i))

    @property
    def atoms(self) -> int:
        return sum(self.column_atoms(i) for i in range(len(self.states)))

    def full_heights(self):
        """Heights of full columns (unit-thickness integral tops) that no
        other full column may share."""
        if not self.column_table.full_once:
            return []
        return [m for (m, top) in self.states if top == NONE and m >= 1]

    def with_state(self, i: int, st) -> "Wall":
        states = list(self.states)
        while len(states) <= i:
            states.append(self.base_state)
        states[i] = st
        return Wall(self.wall_type, self.k, self.ground, tuple(states))


def _covers(left, right) -> bool:
    """right (nearer column) fits under left per the no-free-space rule."""
    ml, tl = left
    mr, tr = right
    if mr < ml:
        return True
    if mr > ml:
        return False
    return tr == NONE or tr == tl


@dataclass(frozen=True)
class WallPair:
    """Synchronized supporting/covering truncated walls."""

    supporting: Wall
    covering: Wall

    def __post_init__(self):
        s, c = self.supporting, self.covering
        if s.ground != SUPPORTING or c.ground != COVERING:
            raise ClassMismatch("pair needs a supporting and a covering wall")
        if (s.wall_type, s.k) != (c.wall_type, c.k):
            raise ClassMismatch("pair members disagree on type or colour")
        top = max(len(s.states), len(c.states))
        for i in range(top):
            if (s.state(i) == s.base_state) != (c.state(i) == c.base_state):
                raise ValueError("bare columns of the pair are out of sync")

    @property
    def wall_type(self):
        return self.supporting.wall_type

    @property
    def k(self):
        return self.supporting.k

    @property
    def atoms(self) -> int:
        return self.supporting.atoms + self.covering.atoms


@dataclass(frozen=True)
class Site:
    """An admissible slot, removable block, or k-pair site."""

    action: str      # "add" | "remove"
    grade: str       # "single" | "double" | "pair"
    color: int
    column: int
    level: HalfInt   # the ell of Defs 4.2/4.4 (cell label; T-bar for pairs)
    arg: HalfInt     # argument fed to the shift table (atom's domain point)
    host: str        # "wall" | "supporting" | "covering" | "pair"

    @property
    def position(self):
        return (-self.column, self.level)


def ground_state(X: AffineType, k: int):
    if index_class(X, k) == 1:
        return Wall(X, k, LEVEL1, ())
    sup = Wall(X, k, SUPPORTING, ())
    cov = Wall(X, k, COVERING, ())
    return WallPair(sup, cov)


def is_proper(w) -> bool:
    if isinstance(w, WallPair):
        return is_proper(w.supporting) and is_proper(w.covering)
    hs = w.full_heights()
    return len(hs) == len(set(hs))


def _views(w: Wall) -> list:
    """The local view of each column i = 0..len(w.states) of w, the key of
    its entry in the move table: (i, whether i < len(w.states), the states
    of columns i - 1, i and i + 1, and whether rows m - 1, m and m + 1
    hold a full column, m the row of column i's state).  Column 0 has no
    column i - 1 (None), and the columns past the wall are bare.

    The view is all a column's moves read: its pattern cells depend on
    the column only through its index (A1) or the index's parity, its
    steps on its own state, and whether a new state fits on the two
    neighbours it must stay under and over and, for a full state, on
    whether another column is full at that height; and a move changes
    the row by one at most."""
    states = w.states
    base = w.column_table.base
    full = set(w.full_heights())
    cols = (None,) + states + (base, base)
    last = len(states)
    return [(i, i < last, cols[i], old, cols[i + 2],
             old[0] - 1 in full, old[0] in full, old[0] + 1 in full)
            for i, old in enumerate(cols[1:-1])]


def _fits(column: _Column, view, st) -> bool:
    """Whether the column with this local view may take state st, one row
    at most from its own."""
    _, _, prev, old, nxt, *full = view
    m, top = st
    if column.atoms(st) is None:
        return False
    if prev is not None and not _covers(prev, st):
        return False
    if not _covers(st, nxt):
        return False
    if top == NONE and m >= 1 and full[m - old[0] + 1]:
        return old == st  # no two full columns of one height
    return True


# The steps a column takes on a cell of each kind, as (kind, top before,
# rows up, top after, grade, atom): from (m, top before), with the cell
# at row m, to (m + rows up, top after), adding the cell's atom of that
# index.  A doubled cell's double step comes before its single one.
_STEPS = (
    ("full", NONE, 1, NONE, "single", 0),
    ("split", NONE, 0, BACK, "single", 0),
    ("split", NONE, 0, FRONT, "single", 1),
    ("split", FRONT, 1, NONE, "single", 0),
    ("split", BACK, 1, NONE, "single", 1),
    ("double", NONE, 1, NONE, "double", 0),
    ("double", NONE, 0, LOWER, "single", 0),
    ("double", LOWER, 1, NONE, "single", 0),
)
# kind -> top -> the moves out of that top, or back into it, as (rows
# up, the other top, action, grade, atom)
_OUT, _INTO = {}, {}
for _k, _b, _r, _a, _g, _i in _STEPS:
    _OUT.setdefault(_k, {}).setdefault(_b, []).append((_r, _a, "add", _g, _i))
    _INTO.setdefault(_k, {}).setdefault(_a, []).append((-_r, _b, "remove", _g, _i))
# the step of a truncated wall's base k-blocks, which belongs to the pair
_PAIR_STEP = ((0, LOWER), (1, NONE))


def _column_moves(column: _Column, view, host: str) -> list:
    """(site, new state) for every single/double site of the column with
    this local view, read from _STEPS.  A doubled cell's double step,
    when it fits, hides the single step in the same direction."""
    i, inside, _, old, _, _, _, _ = view
    m, top = old
    pair = column.ground != LEVEL1 and old in _PAIR_STEP
    # additions step out of the state on the next cell, removals back
    # into it on the top cell: the last full one or the partial one
    cell = column.cell(i, m)
    looks = ((cell, _OUT),)
    if inside:
        looks += ((column.cell(i, m - 1) if top == NONE else cell, _INTO),)
    out = []
    for cell, steps in looks:
        for rows, other, action, grade, atom in steps[cell.kind].get(top, ()):
            st = (m + rows, other)
            if (pair and st in _PAIR_STEP) or not _fits(column, view, st):
                continue
            out.append((Site(action, grade, cell.colors[atom], i,
                             cell.level, cell.args[atom], host), st))
            if grade == "double":
                break
    return out


def _wall_entries(w: Wall, host: str, views) -> list:
    """The move-table entry of each column of w, from its local view."""
    column = w.column_table
    table = column.tables.setdefault(host, {})
    out = []
    for view in views:
        moves = table.get(view)
        if moves is None:
            moves = table[view] = tuple(_column_moves(column, view, host))
        out.append(moves)
    return out


# the move-table host of a member on each ground
_HOST = {LEVEL1: "wall", SUPPORTING: "supporting", COVERING: "covering"}


def member_entries(w: Wall) -> tuple:
    """(views, entries) of one member: a level-1 wall, or one truncated
    wall of a pair.  views holds each column's local view (_views) and
    entries its move-table entry, on the host of w's ground.  NotProper
    unless w is proper; a pair is proper exactly when both members are."""
    if not is_proper(w):
        raise NotProper(w)
    views = _views(w)
    return views, _wall_entries(w, _HOST[w.ground], views)


def pair_entries(p: WallPair, sup_views, cov_views) -> list:
    """The entries of p's k-pair sites, from its members' views: a column
    on the pair step in both members moves in both, if the new state
    fits both views.  They are keyed by both views, on the supporting
    member's column table."""
    sup = p.supporting.column_table
    table = sup.tables.setdefault("pair", {})
    out = []
    for vs, vc in zip(sup_views, cov_views):
        if vs[3] != vc[3] or vs[3] not in _PAIR_STEP:
            continue
        moves = table.get((vs, vc))
        if moves is None:
            cov = p.covering.column_table
            tbar = thresholds(sup.X, sup.k)[1]
            low, high = _PAIR_STEP
            moves = table[(vs, vc)] = tuple([
                (Site(action, "pair", sup.k, vs[0], tbar, tbar, "pair"), new)
                for action, old, new in (("add", low, high), ("remove", high, low))
                if vs[3] == old and _fits(sup, vs, new) and _fits(cov, vc, new)])
        out.append(moves)
    return out


def move_entries(w) -> list:
    """The move-table entries of w whose moves, concatenated, are the
    moves sites() and transitions() list: a pair's supporting member,
    then its covering member, then its k-pair sites.  NotProper unless w
    is proper."""
    if isinstance(w, WallPair):
        sup_views, sup = member_entries(w.supporting)
        cov_views, cov = member_entries(w.covering)
        return sup + cov + pair_entries(w, sup_views, cov_views)
    return member_entries(w)[1]


def _moves(w):
    return [mv for moves in move_entries(w) for mv in moves]


def _successor(w, site: Site, st):
    """The validated wall reached by moving site's column to state st."""
    i = site.column
    if site.host == "wall":
        nxt = w.with_state(i, st)
    elif site.host == "supporting":
        nxt = WallPair(w.supporting.with_state(i, st), w.covering)
    elif site.host == "covering":
        nxt = WallPair(w.supporting, w.covering.with_state(i, st))
    else:
        nxt = WallPair(w.supporting.with_state(i, st),
                       w.covering.with_state(i, st))
    if not is_proper(nxt):
        raise ResultImproper(site)
    return nxt


def sites(w):
    return [site for site, _ in _moves(w)]


def transitions(w):
    """All (site, mutated wall) moves from w."""
    return [(site, _successor(w, site, st)) for site, st in _moves(w)]


def apply(w, site: Site):
    for s, st in _moves(w):
        if s == site:
            return _successor(w, s, st)
    raise SiteNotPresent(site)


def _fitting(column, prev, last_full):
    """The non-empty cost groups of the states a column may take when the
    column to its right has state prev (None for column 0) and the
    nearest full column to its right has height last_full."""
    for c, group in column:
        if prev is not None and group[0][0] > prev[0]:
            return  # no column is taller than the one to its right
        fit = [st for st in group
               if (prev is None or _covers(prev, st))
               # two full columns of equal height: improper
               and (st[1] != NONE or st[0] != last_full
                    or not column.full_once)]
        if fit:
            yield c, fit


def _by_total(streams):
    """Steps of one state per member, from each member's stream of cost
    groups, grouped by total cost in increasing order.  One stream's
    groups pass through, each state as a 1-tuple; two streams are paired
    by total, within a total by the first member's cost, then in group
    order."""
    if len(streams) == 1:
        for c, group in streams[0]:
            yield c, [(st,) for st in group]
        return
    streams = [iter(s) for s in streams]
    listed = ([], [])
    for total in itertools.count(2):  # every state adds an atom
        for side in (0, 1):
            groups = listed[side]
            while streams[side] is not None and \
                    (not groups or groups[-1][0] < total - 1):
                nxt = next(streams[side], None)
                if nxt is None:
                    streams[side] = None
                else:
                    groups.append(nxt)
        ls, rs = listed
        if (streams[0] is None and not ls) or (streams[1] is None and not rs):
            return
        if streams == [None, None] and total > ls[-1][0] + rs[-1][0]:
            return
        rcost = dict(rs)
        group = [(a, b) for ca, ga in ls if total - ca in rcost
                 for a in ga for b in rcost[total - ca]]
        if group:
            yield total, group


def _unchecked(cls, **values):
    """A frozen dataclass built without validation, for values known to
    be valid."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    return obj


def search_walls(X: AffineType, k: int, keep):
    """Visit the proper walls (class 1) or wall pairs (class 2) of colour
    k depth-first from the ground state, calling keep(w, atoms) once on
    each wall w reached, with atoms its added atoms.

    Columns are fixed from right to left, each in increasing added
    atoms; a pair fixes one column of both members at a time, in
    increasing total added atoms, so its bare columns stay in sync.  A
    wall keep rejects is not extended, and a column's scan ends at the
    first cost group whose every fitting state keep rejects.  The search
    ends when this tree is exhausted; it has then reached every wall
    keep accepts, provided keep rejects every extension of a rejected
    wall and every cost group after a wholly rejected one.  A budget on
    atoms is such a cut (enumerate_walls), and so is the support window
    of comb_infinity.  Open nodes sit on an explicit stack, so the
    recursion limit does not bound the depth, and hold only their depth
    in one shared path of states.  A column's cost groups depend only on
    (prev, last_full), the states to its right and the nearest full
    column's heights: each is listed once per walk, as far as read."""
    grounds = (LEVEL1,) if index_class(X, k) == 1 else (SUPPORTING, COVERING)
    columns = [_column(X, k, ground) for ground in grounds]

    def member(ground, states):
        return _unchecked(Wall, wall_type=X, k=k, ground=ground, states=states)

    shared = ({}, {})  # per member, states -> wall, so pairs share members

    def wall(states):
        """The node at states; the walk keeps every invariant itself."""
        if len(states) == 1:
            return member(LEVEL1, states[0])
        sup, cov = [seen.get(s) or seen.setdefault(s, member(ground, s))
                    for seen, ground, s in zip(shared, grounds, states)]
        return _unchecked(WallPair, supporting=sup, covering=cov)

    def merged(prev, last_full):
        return _by_total([_fitting(col, p, f) for col, p, f
                          in zip(columns, prev, last_full)])

    # (prev, last_full) -> an unread tee of its merged groups: each copy
    # reads from the first group, and the tee keeps every group read
    tees = {}
    path = [[] for _ in grounds]  # per member, the states of the open path

    def children(depth, groups, last_full, spent):
        """Each child keep accepts, as its own children's arguments."""
        for c, group in groups:
            atoms = spent + c
            accepted = False
            for st in group:
                for states, x in zip(path, st):
                    states[depth:] = (x,)
                if keep(wall(tuple([tuple(s) for s in path])), atoms):
                    accepted = True
                    full = tuple([m if top == NONE else f for (m, top), f
                                  in zip(st, last_full)])
                    if (st, full) not in tees:
                        tees[st, full] = itertools.tee(merged(st, full), 1)[0]
                    yield depth + 1, tees[st, full].__copy__(), full, atoms
            if not accepted:
                return

    none_full = (0,) * len(grounds)
    stack = []  # the root's groups are unbounded, and read once
    if keep(wall(((),) * len(grounds)), 0):
        stack.append(children(0, merged((None,) * len(grounds), none_full),
                              none_full, 0))
    while stack:
        child = next(stack[-1], None)
        if child is None:
            stack.pop()
        else:
            stack.append(children(*child))


def enumerate_walls(X: AffineType, k: int, max_blocks: int):
    """All proper walls (class 1) or wall pairs (class 2) with at most
    max_blocks added atoms: search_walls cut at that budget, as a
    set-like view in depth-first order (so iteration does not depend on
    hashing).  A negative max_blocks raises ValueError."""
    if max_blocks < 0:
        raise ValueError(max_blocks)
    found = {}

    def keep(w, atoms):
        if atoms > max_blocks:
            return False
        found[w] = None
        return True

    search_walls(X, k, keep)
    return found.keys()


# --- rendering and literals ------------------------------------------


def _render_wall(w: Wall) -> str:
    X, k, ground = w.wall_type, w.k, w.ground
    column = w.column_table
    ncols = max(len(w.states), 1)
    cols = []
    height = max([w.state(i)[0] + (0 if w.state(i)[1] == NONE else 1)
                  for i in range(ncols)] + [1])
    for i in range(ncols + 1):  # one extra bare column on the left
        m, top = w.state(i)
        rows = []  # two half-rows per unit cell, bottom first
        for mm in range(height):
            cell = column.cell(i, mm)
            if mm < m:
                have = 2
            elif mm == m and top != NONE:
                have = 1
            else:
                have = 0
            t = cell.colors[0]
            if cell.kind == "full":
                mark = f"{t:>2} " if have else " . "
                rows.extend([mark, mark])
            elif cell.kind == "double":
                lo = f"{t:>2}v" if have else " . "
                hi = f"{t:>2}^" if have == 2 else " . "
                rows.extend([lo, hi])
            else:
                back, front = cell.colors
                if have == 2:
                    fr, bk = f"{front:>2}f", f"{back:>2}b"
                elif have == 1:
                    if top == FRONT:
                        fr, bk = f"{front:>2}f", " . "
                    else:
                        fr, bk = " . ", f"{back:>2}b"
                else:
                    fr, bk = " . ", " . "
                rows.extend([fr, bk])
        cols.append(rows)
    cols.reverse()  # leftmost first
    lines = []
    for r in range(2 * height - 1, -1, -1):
        lines.append(" ".join(col[r] for col in cols))
    # a level-1 wall stands on T_k, a truncated one on T-bar or T-double-bar
    baseline = thresholds(X, k)[(LEVEL1, SUPPORTING, COVERING).index(ground)]
    lines.append(f"(0,{baseline})")
    return "\n".join(lines)


def render(w) -> str:
    if isinstance(w, WallPair):
        return (
            "supporting:\n" + _render_wall(w.supporting)
            + "\ncovering:\n" + _render_wall(w.covering)
        )
    return _render_wall(w)


_KIND = {"yw": LEVEL1, "sup": SUPPORTING, "cov": COVERING}


# the most atoms a parsed column may add.  Drawing a column walks it one
# cell at a time: at 10,000 atoms `walls render` takes 0.12-0.26 s of CPU
# and prints 13,335-20,001 lines, at 100,000 0.67-2.1 s and 133,335-200,001
# lines (D2, A2odd, A2even and A1 walls, Python 3.11, x86-64 Linux)
MAX_COLUMN_ATOMS = 10_000


def _counts(text):
    """The (count, code) pairs of comma-separated added-atom counts; an
    optional trailing code f/b/l names the partial atom.  A count past
    MAX_COLUMN_ATOMS is a ValueError."""
    counts = []
    for tok in filter(str.strip, text.split(",")):
        m = re.fullmatch(r"(\d+)([fbl]?)", tok.strip())
        if not m:
            raise ValueError(f"bad column token {tok!r}")
        count = int(m.group(1))
        if count > MAX_COLUMN_ATOMS:
            raise ValueError(f"a column adds at most {MAX_COLUMN_ATOMS} "
                             f"atoms, not {count}")
        counts.append((count, m.group(2)))
    return counts


def _states(X, k, ground, counts):
    """Column states from `_counts`, the code picking the partial atom
    when the count is ambiguous."""
    column = _column(X, k, ground)
    return tuple([column.state(count, code) for count, code in counts])


def parse_wall(text: str, n: int):
    """Parse literals like 'ground=cov:C1:k=1;cols=[3,1]' (counts are
    added atoms per column, right to left; a trailing f/b/l on a count
    names the column's lone front, back or lower atom).  A count past
    MAX_COLUMN_ATOMS (10,000) is refused before any pattern is built."""
    text = text.strip()
    m = re.fullmatch(
        r"ground=(yw|sup|cov|pair):([A-Za-z0-9]+):k=(\d+);(.*)", text
    )
    if not m:
        raise ValueError(f"unparsable wall literal {text!r}")
    kind, fam, k, rest = m.group(1), m.group(2), int(m.group(3)), m.group(4)
    X = parse_type(fam, n)
    # the colour's class decides its grounds: check it before any pattern
    _check_ground(X, k, SUPPORTING if kind == "pair" else _KIND[kind])
    if kind == "pair":
        mm = re.fullmatch(r"sup=\[([^\]]*)\];cov=\[([^\]]*)\]", rest)
        if not mm:
            raise ValueError(f"unparsable pair literal {text!r}")
        sup, cov = _counts(mm.group(1)), _counts(mm.group(2))
        return WallPair(Wall(X, k, SUPPORTING, _states(X, k, SUPPORTING, sup)),
                        Wall(X, k, COVERING, _states(X, k, COVERING, cov)))
    mm = re.fullmatch(r"cols=\[([^\]]*)\]", rest)
    if not mm:
        raise ValueError(f"unparsable wall literal {text!r}")
    ground = _KIND[kind]
    return Wall(X, k, ground, _states(X, k, ground, _counts(mm.group(1))))


def wall_literal(w) -> str:
    if isinstance(w, WallPair):
        sup = ",".join(_count_token(w.supporting, i) for i in range(len(w.supporting.states)))
        cov = ",".join(_count_token(w.covering, i) for i in range(len(w.covering.states)))
        X = w.wall_type
        return f"ground=pair:{X.family.value}:k={w.k};sup=[{sup}];cov=[{cov}]"
    kind = {LEVEL1: "yw", SUPPORTING: "sup", COVERING: "cov"}[w.ground]
    cols = ",".join(_count_token(w, i) for i in range(len(w.states)))
    return f"ground={kind}:{w.wall_type.family.value}:k={w.k};cols=[{cols}]"


def _count_token(w: Wall, i: int) -> str:
    return f"{w.column_atoms(i)}{_TOP_CODE.get(w.state(i)[1], '')}"
