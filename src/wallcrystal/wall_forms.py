"""Linear forms attached to walls, the COMB inequality families for the
infinity crystal and for highest-weight crystals, and the star-twisted
string length computed from them."""

from __future__ import annotations

import json
from dataclasses import dataclass

from wallcrystal.affine_data import (
    AffineType, Family, HalfInt, cell_atoms, domain_points, in_domain,
    index_class, period, periodic_map, thresholds,
)
from wallcrystal.adapted_sequence import AdaptedSequence, DoubleIndex
from wallcrystal.linear_forms import DominantWeight, LinearForm, render_form
from wallcrystal.walls import (
    Site, WallPair, member_entries, pair_entries, search_walls, wall_literal,
)
from wallcrystal.zcrystal import ZElement, render_element, star_length


class HostMismatch(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class NotStabilized(RuntimeError):
    pass


@dataclass(frozen=True)
class SiteForm:
    """The signed coordinate a single site contributes to a wall form."""

    site: Site
    coordinate: DoubleIndex
    direction: int  # +1 for admissible slots, -1 for removable blocks
    weight: int  # 2 for double slots/blocks, else 1


def _site_offset(seq: AdaptedSequence, k: int, site: Site) -> int:
    """The shift-independent part of the site's coordinate index."""
    X = seq.wall_type
    if index_class(X, k) == 1:
        wanted = ("wall",)
    else:
        wanted = ("supporting", "covering", "pair")
    if site.host not in wanted:
        raise HostMismatch(f"host {site.host!r} for colour {k} of {X}")
    if site.grade == "pair":
        off = site.column
    elif X.family is Family.A1:
        # the pattern level already carries the column shift: the absolute
        # bottom level of the cell is site.level + column
        P = seq.shift_table(HalfInt.of(k))
        off = P(site.level) + min(site.column,
                                  site.level.floor() + site.column - k)
    else:
        tbar, tbarbar = thresholds(X, k)[1:]
        P = seq.shift_table(tbarbar if site.host == "covering" else tbar)
        off = P(site.arg) + site.column
    if site.action == "remove":
        off += 1
    return off


def _direction(site: Site) -> int:
    return 1 if site.action == "add" else -1


def _weight(site: Site) -> int:
    return 2 if site.grade == "double" else 1


def site_form(seq: AdaptedSequence, s: int, k: int, site: Site) -> SiteForm:
    return SiteForm(
        site=site,
        coordinate=DoubleIndex(s + _site_offset(seq, k, site), site.color),
        direction=_direction(site),
        weight=_weight(site),
    )


class WallFormMap:
    """The wall-to-form map of one sequence: L_{s,k}(w) for every wall w
    and shift s.  A site's coordinate at shift s has single index
    r + s n, with r its single index at s = 0, so the map finds r once
    per (colour, site).  A wall's terms are the pairs (r, signed weight)
    summed per r and sorted by r; its form at shift s reads them
    `shifted` by s n, each index r named by seq.reindex(r).

    Every caller in the library reads the sequence's shared map,
    WallFormMap.of(seq), over the two tables the sequence keeps for its
    lifetime (AdaptedSequence.wall_form_tables).  As from_permutation
    interns sequences, commands on one (type, order) build each member
    and index once between them.  WallFormMap(seq) builds a new, empty
    map, the reference the tests compare the shared one with."""

    @classmethod
    def of(cls, seq: AdaptedSequence) -> "WallFormMap":
        """A map over the tables seq keeps."""
        return cls(seq, seq.wall_form_tables)

    def __init__(self, seq: AdaptedSequence, tables=None):
        self.seq = seq
        # (k, ground, states) -> (views, terms), and (colour, site) -> r
        self._members, self._index = tables or ({}, {})

    def index(self, k: int, site: Site) -> int:
        """r, the single index of the site's coordinate at s = 0 for a
        wall of colour k, found once per (colour, site)."""
        r = self._index.get((k, site))
        if r is None:
            seq = self.seq
            r = self._index[k, site] = seq.single_index(
                DoubleIndex(_site_offset(seq, k, site), site.color))
        return r

    def _add_entries(self, k, entries, acc) -> dict:
        """acc with the (r, signed weight) pair of every move of the
        move-table entries of colour k added, in one pass.  The map keeps
        no value per entry: each member is built once per table of
        members (_member)."""
        known, index = self._index, self.index
        for moves in entries:
            for site, _ in moves:
                r = known.get((k, site))
                if r is None:
                    r = index(k, site)
                acc[r] = acc.get(r, 0) + _direction(site) * _weight(site)
        return acc

    def _member(self, w) -> tuple:
        """(views, terms) of one member (walls.member_entries), built
        once per table of members.  The key is a plain tuple, so a lookup hashes no
        dataclass."""
        key = (w.k, w.ground, w.states)
        got = self._members.get(key)
        if got is None:
            views, entries = member_entries(w)
            got = self._members[key] = (views, _sorted_terms(
                self._add_entries(w.k, entries, {})))
        return got

    def terms(self, w) -> tuple:
        """The nonzero (r, coefficient) pairs of the wall w, by r: the sum
        of its move-table entries' pairs.  Each member's terms are kept,
        so a pair adds its members' terms and its k-pair entries."""
        if not isinstance(w, WallPair):
            return self._member(w)[1]
        sup_views, sup = self._member(w.supporting)
        cov_views, cov = self._member(w.covering)
        acc = dict(sup)
        for r, c in cov:
            acc[r] = acc.get(r, 0) + c
        return _sorted_terms(self._add_entries(
            w.k, pair_entries(w, sup_views, cov_views), acc))

    def form(self, terms: tuple, s: int, constant=0) -> LinearForm:
        """L_{s,k}(w) + constant, given w's terms."""
        reindex = self.seq.reindex
        return LinearForm(constant, [(reindex(r), c) for r, c
                                     in shifted(terms, s * self.seq.n)])


def shifted(terms, shift: int) -> tuple:
    """The (r + shift, c) pairs of terms at index 1 or above: with
    shift = s n, a wall's terms at shift s (x_{s,k} is 0 for s < 1)."""
    return tuple([(r + shift, c) for r, c in terms if r + shift >= 1])


def _sorted_terms(acc: dict) -> tuple:
    """The nonzero (r, coefficient) pairs of acc, by r."""
    return tuple(sorted(it for it in acc.items() if it[1]))


def wall_form(seq: AdaptedSequence, s: int, k: int, w) -> LinearForm:
    """L_{s,k}(w): signed weighted sum over admissible slots and removable
    blocks; coordinates with index below 1 vanish.  ValueError unless w
    has colour k."""
    if k != w.k:
        raise ValueError(f"colour {k} given for a wall of colour {w.k}")
    fmap = WallFormMap.of(seq)
    return fmap.form(fmap.terms(w), s)


class IneqSet:
    """A canonicalized inequality family: provenance maps each form to
    its first witness, and meta is the JSON header."""

    def __init__(self, provenance, meta):
        self.provenance = dict(provenance)
        self.forms = frozenset(self.provenance)
        self.meta = dict(meta)

    def __len__(self):
        return len(self.forms)

    def __iter__(self):
        return iter(self.forms)

    def __contains__(self, phi):
        return phi in self.forms

    def to_text(self) -> str:
        return "\n".join(sorted(render_form(phi) for phi in self.forms))

    def to_json_doc(self) -> dict:
        doc = dict(self.meta)
        doc["forms"] = [{
            "constant": phi.constant,
            "terms": [[d.s, d.k, c] for d, c in phi.terms],
            "provenance": self.provenance[phi],
        } for phi in sorted(self.forms, key=render_form)]
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_doc())


def _meta(seq, **extra):
    """The JSON header of a family of seq: type, rank, order, then extra."""
    return {
        "type": seq.base_type.family.value,
        "rank": seq.base_type.n,
        "order": list(seq.period_perm),
        **extra,
    }


def wall_walk(fmap, found, k, shifts, budget=None, window=None, min_atoms=0):
    """Walk the walls of colour k depth-first (walls.search_walls) and
    record each form L_{s,k}(w), s in shifts and w of at least min_atoms
    added atoms, in found: its key, w's terms `shifted` by s n, names
    the form (r -> DoubleIndex is a bijection) and maps to its first
    witness (s, w).  The walk is cut past budget added atoms or, with a
    window given, at each wall whose form at the first shift leaves
    single indices 1..window; a form's support moves up a period with s,
    so the first form past the window ends a wall's scan of the shifts."""
    n = fmap.seq.n

    def keep(w, atoms):
        if budget is not None and atoms > budget:
            return False
        terms = fmap.terms(w)
        for s in shifts:
            # the form's largest index with a nonzero coefficient, or at
            # most 0 when every term falls below index 1
            if window is not None and terms and terms[-1][0] + s * n > window:
                return s != shifts[0]
            if atoms < min_atoms:
                continue
            key = shifted(terms, s * n)
            if key not in found:
                found[key] = (s, w)
        return True

    search_walls(fmap.seq.wall_type, k, keep)


def found_forms(fmap, found, constant=0) -> dict:
    """The forms a walk recorded in found, each plus constant -> the
    literal L[s,k](wall) of its first witness."""
    return {fmap.form(key, 0, constant): f"L[{s},{w.k}]({wall_literal(w)})"
            for key, (s, w) in found.items()}


def comb_infinity(seq: AdaptedSequence, s_max: int, k=None, budget=None,
                  support_max=None) -> IneqSet:
    """{L_{s,k}(Y)} over 1 <= s <= s_max and the walls Y of one cut:
    exactly one of a block budget and a single-index window support_max.

    Each colour's walls are searched depth-first from the ground state
    (walls.search_walls), and each wall reached is formed once.  With a
    budget, the search is cut past budget added atoms.  With support_max,
    the forms are those supported within that single-index window, over
    every wall, and a wall whose s = 1 form leaves the window is cut with
    all its extensions, since extending a wall never lowers the largest
    support index of its s = 1 form (pinned in tests/test_wall_forms.py).
    The search tree being exhausted is the certificate that no wall was
    missed.  With either cut a form's provenance is its first witness in
    the one depth-first order.  ValueError unless exactly one cut is
    given, or for s_max or support_max below 1 or a negative budget.
    """
    if (budget is None) == (support_max is None):
        raise ValueError("give exactly one of budget and support_max")
    if s_max < 1:
        raise ValueError(f"s_max {s_max} is below 1")
    if budget is not None and budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if support_max is not None and support_max < 1:
        raise ValueError(f"support_max {support_max} is below 1")
    colours = [k] if k is not None else list(seq.base_type.index_set)
    fmap = WallFormMap.of(seq)
    found = {}  # single-index key -> its first witness
    for kk in colours:
        wall_walk(fmap, found, kk, range(1, s_max + 1), budget=budget,
                  window=support_max)
    meta = _meta(seq, k=k) if k is not None else _meta(seq)
    return IneqSet(found_forms(fmap, found), meta)


# --- box forms (closed chains for highest-weight families) ------------


def box_form(seq: AdaptedSequence, ell, r, variant: str = "plain") -> LinearForm:
    """A box form of the chain from ell: its upper atoms read at P_ell,
    less its lower atoms read one row up, at 1 + P_ell.  A cell's atoms
    are those of affine_data.cell_atoms.  The variants:
    - 'plain', r >= ell+1: the cell at r over the cell at r-1, or, r a
      half point, the second atom of its split cell over the first;
    - 'half', r-1/2 >= ell+1: a doubled cell's point r-1/2 over itself;
    - 'tilde': the half-point plain form reversed, r >= ell+1; for A1,
      r-1 over r with integer r <= ell.
    DomainError for ell outside D_X, OutOfRange for any other r or
    variant."""
    X = seq.wall_type
    ell = HalfInt.of(ell)
    r = HalfInt.of(r)
    P = seq.shift_table(ell)

    if variant == "half":
        base = r - HalfInt(1)
        if not (in_domain(X, base) and base >= ell + 1
                and cell_atoms(X, base) == (base, base)):
            raise OutOfRange((ell, r, variant))
        upper = lower = (base,)
    elif X.family is Family.A1 and variant == "tilde":
        if not r.is_integer or r > ell:
            raise OutOfRange((ell, r, variant))
        upper, lower = (r - 1,), (r,)
    else:
        if variant not in ("plain", "tilde") or not in_domain(X, r) \
                or r < ell + 1:
            raise OutOfRange((ell, r, variant))
        atoms = cell_atoms(X, r)
        if r.is_integer:  # r starts its cell
            if variant == "tilde":
                raise OutOfRange((ell, r, variant))
            upper, lower = atoms, cell_atoms(X, r - 1)
        else:  # r is the half point of a split cell
            upper, lower = atoms[1:], atoms[:1]
            if variant == "tilde":
                upper, lower = lower, upper

    terms = []
    for row, sign, atoms in ((0, 1, upper), (1, -1, lower)):
        for a in atoms:
            s = row + P(a)
            if s >= 1:  # x[s,c] is 0 for s < 1
                terms.append((DoubleIndex(s, periodic_map(X, a)), sign))
    return LinearForm(0, terms)


def _box_points(X, ell, budget):
    """The (r, variant) points of the box chain from ell: each domain
    point r with ell+1 <= r <= ell+budget as plain, then as half one
    half step above it if its cell is doubled, and as tilde if it is a
    split cell's half point."""
    ell = HalfInt.of(ell)
    out = []
    for t in domain_points(X, ell + 1, ell + budget + HalfInt(1)):
        out.append((t, "plain"))
        atoms = cell_atoms(X, t)
        if atoms == (t, t):
            out.append((t + HalfInt(1), "half"))
        if atoms[0] != t:
            out.append((t, "tilde"))
    return out


def _box_family(seq, ell, hk, points):
    """{box_form(ell, r, variant) + hk} over the (r, variant) points."""
    prov = {}
    for r, variant in points:
        phi = box_form(seq, ell, r, variant).shift_constant(hk)
        prov.setdefault(phi, f"{variant}[{ell},{r}]")
    return prov


# --- COMB[lambda] -----------------------------------------------------


def _fork_pair(hk, k, j):
    """The fork-pair forms hk - x[1,k] + x[1,j] and hk - x[2,j], tagged
    pair[j]."""
    pair = [LinearForm(hk, {DoubleIndex(1, k): -1, DoubleIndex(1, j): 1}),
            LinearForm(hk, {DoubleIndex(2, j): -1})]
    return dict.fromkeys(pair, f"pair[{j}]")


def _beside_cells(X: AffineType, k: int) -> tuple:
    """The colour sets of the cells at floor(T-bar_k) - 1 and + 1, lower
    first: the cells beside the one holding T-bar_k, the pattern
    extended periodically below 1."""
    t = thresholds(X, k)[1].floor()
    cells = []
    for u in (t - 1, t + 1):
        if u < 1:
            u += period(X).floor()
        cells.append(frozenset(periodic_map(X, a) for a in cell_atoms(X, u)))
    return tuple(cells)


def _middle_chains(seq, k, hk, neighbours, before, budget) -> dict:
    """The four-form chains of a colour k with four neighbours, two of
    them before k: over the pair before k and over the pair after it,
    each pair ranked by first occurrence, at the odd shifts below
    2 budget."""
    prov = {}
    for (r1, r2) in (sorted(before, key=seq.first_occurrence),
                     sorted(neighbours - before, key=seq.first_occurrence)):
        p = seq.p(k, r1)
        for s in range(1, 2 * budget, 2):
            chain = [
                ("three-up", LinearForm(hk, {
                    DoubleIndex(s, r1): 1, DoubleIndex(s, r2): 1,
                    DoubleIndex(s + p, k): -1})),
                ("step", LinearForm(hk, {
                    DoubleIndex(s, r1): 1, DoubleIndex(s + 1, r2): -1})),
                ("step", LinearForm(hk, {
                    DoubleIndex(s, r2): 1, DoubleIndex(s + 1, r1): -1})),
                ("three-down", LinearForm(hk, {
                    DoubleIndex(s + p, k): 1, DoubleIndex(s + 1, r1): -1,
                    DoubleIndex(s + 1, r2): -1})),
            ]
            for tag, phi in chain:
                prov.setdefault(phi, f"{tag}[{r1},{r2};{s}]")
    return prov


def comb_lambda(seq: AdaptedSequence, k: int, lam: DominantWeight,
                budget: int) -> IneqSet:
    """COMB_k[lambda], decided by the two cells beside T-bar_k's cell
    (_beside_cells).  A cell is before k when all its colours come
    before k in the order, after k when none does, and split when one
    does (a split cell holds {1, 2} or {n-1, n}).  By the two cells:
    - both after: the singleton <h_k, lambda> - x[1,k];
    - both before: the walls of k at s = 0;
    - one split, the other after: the fork pair of the split cell's
      colour before k;
    - one split, the other before: the walls of the split cell's colour
      after k, at s = -1 and without its one-block wall;
    - only the upper cell before: the box chain from T-bar_k;
    - only the lower cell before: the box chain from T-double-bar_k,
      or on A1 the tilde chain running down from k.
    One colour is an exception: colour 3 of D1 at rank 5, whose two
    cells are both split cells.  With two of its four neighbours before
    it, it takes the four-form chains (_middle_chains).

    The budget bounds the box-chain length, A1's tilde chain (budget
    points down from k), the four-form chains (odd s < 2 budget) and the
    walls' added atoms.  A negative budget, a colour outside the index set
    or a weight of the wrong rank raises ValueError.
    """
    X = seq.wall_type
    n = X.n
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if k not in seq.base_type.index_set:
        raise ValueError(f"colour {k} is not in the index set 1..{n}")
    lam.check_rank(n)
    hk = lam.pairing(k)
    meta = _meta(seq, k=k, **{"lambda": list(lam.values)})

    def boxes(ell):
        return IneqSet(_box_family(seq, ell, hk, _box_points(X, ell, budget)),
                       meta)

    def walls(s=0, j=k, min_atoms=1):
        """{L_{s,j}(T) + hk} over the walls within the budget of at
        least min_atoms added atoms: the ground is the one wall of none,
        and a split cell's colour, class 1, has one wall of one."""
        fmap, found = WallFormMap.of(seq), {}
        wall_walk(fmap, found, j, (s,), budget=budget, min_atoms=min_atoms)
        return IneqSet(found_forms(fmap, found, hk), meta)

    lower, upper = _beside_cells(X, k)
    first = seq.first_occurrence
    before = {t for t in lower | upper if first(t) < first(k)}
    if len(lower) == len(upper) == len(before) == 2:
        return IneqSet(
            _middle_chains(seq, k, hk, lower | upper, before, budget), meta)
    lower_before, upper_before = lower <= before, upper <= before
    split = [cell for cell in (lower, upper)
             if cell & before and not cell <= before]
    if split:
        (cell,) = split
        if lower_before or upper_before:
            (j,) = cell - before
            return walls(s=-1, j=j, min_atoms=2)
        (j,) = cell & before
        return IneqSet(_fork_pair(hk, k, j), meta)
    if not lower_before and not upper_before:
        return IneqSet({LinearForm(hk, {DoubleIndex(1, k): -1}): "singleton"},
                       meta)
    if lower_before and upper_before:
        return walls()
    tbar, tbarbar = thresholds(X, k)[1:]
    if upper_before:
        return boxes(tbar)
    if X.family is Family.A1:  # A1's chain runs down from k
        points = [(r, "tilde") for r in range(k, k - budget, -1)]
        return IneqSet(_box_family(seq, k, hk, points), meta)
    return boxes(tbarbar)


# --- star-twisted string length ---------------------------------------


def epsilon_star(seq: AdaptedSequence, k: int, a: ZElement) -> int:
    """max(0, -phi(a)) over COMB_k[0], for a ZElement a in B(infinity);
    the forms read its double-index entries (a.as_double), built once.

    The family is built at budgets 0, 2, 4, ... until its value reaches
    epsilon*_k(a) as read from Kashiwara's chart (zcrystal.star_length).
    No form exceeds that value, so reaching it certifies the answer; a
    form exceeding it, or no agreement by budget 2|a| (|a| the sum of
    the entries, a measured bound), raises NotStabilized.  ValueError if
    a is not in B(infinity)."""
    want = star_length(seq, k, a)
    amap = a.as_double(seq)
    zero = DominantWeight.zero(seq.n)
    cap = 2 * a.total()
    budget = 0
    while True:
        forms = comb_lambda(seq, k, zero, budget).forms
        got = max([0] + [-phi.evaluate(amap) for phi in forms])
        if got == want:
            return got
        if got > want or budget + 2 > cap:
            raise NotStabilized(
                f"epsilon*_{k} of {render_element(seq, a)}: the wall "
                f"formula gives {got} at budget {budget}, the chart {want}")
        budget += 2
