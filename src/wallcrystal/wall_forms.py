"""Linear forms attached to walls, the COMB inequality families for the
infinity crystal and for highest-weight crystals, and the star-twisted
string length computed from them."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from wallcrystal.affine_data import (
    AffineType, Family, HalfInt, cartan_entry, half_height_colors,
    in_domain, index_class, neighbors, next_domain_point, period,
    periodic_map, split_cell_pairs, thresholds,
)
from wallcrystal.adapted_sequence import AdaptedSequence, DoubleIndex
from wallcrystal.linear_forms import DominantWeight, LinearForm, render_form, x
from wallcrystal.walls import (
    Site, apply, ground_state, search_walls, sites, wall_literal,
)
from wallcrystal.zcrystal import ZElement, render_element, star_length


class HostMismatch(ValueError):
    pass


class OutOfRange(ValueError):
    pass


class NotStabilized(RuntimeError):
    pass


class Unsupported(NotImplementedError):
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
    if X.family is Family.A1 or index_class(X, k) == 1:
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
    per (colour, site) and a wall's terms, the pairs (r, signed weight)
    summed per r and sorted by r, once per wall.  Coordinates with index
    below 1 vanish."""

    def __init__(self, seq: AdaptedSequence):
        self.seq = seq
        self._terms = {}  # wall -> its terms
        # (colour, site) -> r, and single index -> DoubleIndex
        self.index = lru_cache(maxsize=None)(lambda k, site: seq.single_index(
            DoubleIndex(_site_offset(seq, k, site), site.color)))
        self.coordinate = lru_cache(maxsize=None)(seq.reindex)

    def terms(self, w) -> tuple:
        """The nonzero (r, coefficient) pairs of the wall w, by r."""
        t = self._terms.get(w)
        if t is None:
            acc = {}
            for st in sites(w):
                r = self.index(w.k, st)
                acc[r] = acc.get(r, 0) + _direction(st) * _weight(st)
            t = self._terms[w] = tuple(sorted(it for it in acc.items() if it[1]))
        return t

    def form(self, terms: tuple, s: int) -> LinearForm:
        """L_{s,k}(w), given w's terms."""
        shift = s * self.seq.n
        return LinearForm(0, [(self.coordinate(r + shift), c)
                              for r, c in terms if r + shift >= 1])


def wall_form(seq: AdaptedSequence, s: int, k: int, w) -> LinearForm:
    """L_{s,k}(w): signed weighted sum over admissible slots and removable
    blocks; coordinates with index below 1 vanish.  ValueError unless w
    has colour k."""
    if k != w.k:
        raise ValueError(f"colour {k} given for a wall of colour {w.k}")
    fmap = WallFormMap(seq)
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


def _wall_walk(fmap, prov, k, shifts, constant=0, budget=None, window=None,
               skip=()):
    """Walk the walls of colour k depth-first (walls.search_walls) and add
    each form L_{s,k}(w) + constant, s in shifts and w not in skip, to
    prov with its first witness.  The walk is cut past budget added
    atoms or, with a window given, at each wall whose form at the first
    shift leaves single indices 1..window.  A form's support moves up by
    a period with s, so the first form past the window ends a wall's
    scan of the shifts."""
    n = fmap.seq.n

    def keep(w, atoms):
        terms = fmap.terms(w)
        for s in shifts:
            # the form's largest index with a nonzero coefficient, or at
            # most 0 when every term falls below index 1
            if window is not None and terms and terms[-1][0] + s * n > window:
                return s != shifts[0]
            if w in skip:
                continue
            phi = fmap.form(terms, s)
            if constant:
                phi = phi.shift_constant(constant)
            if phi not in prov:
                prov[phi] = f"L[{s},{k}]({wall_literal(w)})"
        return True

    search_walls(fmap.seq.wall_type, k, keep, max_atoms=budget)


def comb_infinity(seq: AdaptedSequence, window, k=None, support_max=None) -> IneqSet:
    """{L_{s,k}(Y)} over 1 <= s <= s_max and walls within the block budget.

    Each colour's walls are searched depth-first from the ground state
    (walls.search_walls), cut past block_max added atoms, and each wall
    reached is formed once.  With support_max given, the block budget is
    ignored: the forms are those supported within that single-index
    window, over every wall, and a wall whose s = 1 form leaves the
    window is cut with all its extensions, since extending a wall never
    lowers the largest support index of its s = 1 form (pinned in
    tests/test_wall_forms.py).  The search tree being exhausted is the
    certificate that no wall was missed.  In both modes a form's
    provenance is its first witness in the one depth-first order.  A
    support_max below 1 raises ValueError.
    """
    s_max, block_max = window
    if s_max < 1 or block_max < 0:
        raise ValueError(window)
    if support_max is not None and support_max < 1:
        raise ValueError(f"support_max {support_max} is below 1")
    colours = [k] if k is not None else list(seq.base_type.index_set)
    fmap = WallFormMap(seq)
    prov = {}  # form -> its first witness
    for kk in colours:
        _wall_walk(fmap, prov, kk, range(1, s_max + 1),
                   budget=block_max if support_max is None else None,
                   window=support_max)
    meta = _meta(seq, k=k) if k is not None else _meta(seq)
    return IneqSet(prov, meta)


# --- box forms (closed chains for highest-weight families) ------------


def _pi_ext(X: AffineType, t):
    """The periodic colour map extended periodically to integers below 1."""
    t = HalfInt.of(t)
    p = period(X)
    while t < 1:
        t = t + p
    return periodic_map(X, t)


def box_form(seq: AdaptedSequence, ell, r, variant: str = "plain") -> LinearForm:
    X = seq.wall_type
    fam = X.family
    n = X.n
    ell = HalfInt.of(ell)
    r = HalfInt.of(r)

    if fam is Family.A1:
        P = seq.shift_table(ell)
        if not (r.is_integer and ell.is_integer):
            raise OutOfRange((ell, r))
        if variant == "plain":
            if r < ell + 1:
                raise OutOfRange((ell, r, variant))
            return (x(P(r), periodic_map(X, r))
                    - x(1 + P(r - 1), periodic_map(X, r - 1)))
        if variant == "tilde":
            if r > ell:
                raise OutOfRange((ell, r, variant))
            return (x(P(r - 1), periodic_map(X, r - 1))
                    - x(1 + P(r), periodic_map(X, r)))
        raise OutOfRange(variant)

    P = seq.shift_table(ell)

    if variant == "half":
        base = r - HalfInt(1)
        if not (base.is_integer and in_domain(X, base) and base >= ell + 1):
            raise OutOfRange((ell, r, variant))
        t = periodic_map(X, base)
        if t not in half_height_colors(X):
            raise OutOfRange((ell, r, variant))
        return x(P(base), t) - x(1 + P(base), t)

    if not in_domain(X, r) or r < ell + 1:
        raise OutOfRange((ell, r, variant))
    pr = periodic_map(X, r)

    if variant == "tilde":
        seconds = {p[1] for p in split_cell_pairs(X)}
        if pr not in seconds:
            raise OutOfRange((ell, r, variant))
        if pr == 2:
            return x(P(r - HalfInt(1)), 1) - x(1 + P(r), 2)
        return x(P(r - HalfInt(1)), n - 1) - x(1 + P(r), n)  # D1 colour n
    if variant != "plain":
        raise OutOfRange(variant)

    halfs = half_height_colors(X)

    def scaled(c, m, t):
        return LinearForm(0, {DoubleIndex(m, t): c} if m >= 1 else {})

    def c_of(t_colour):
        return 2 if t_colour in halfs else 1

    if fam in (Family.C1, Family.A2EVEN, Family.A2EVEN_DAGGER, Family.D2):
        prev = r - 1
        pp = periodic_map(X, prev) if prev >= 1 else _pi_ext(X, prev)
        return scaled(c_of(pr), P(r), pr) - scaled(c_of(pp), 1 + P(prev), pp)

    if fam in (Family.B1, Family.A2ODD, Family.D1):
        if pr == 1:
            return (x(P(r), 1) + x(P(r + HalfInt(1)), 2)
                    - x(1 + P(r - 1), 3))
        if pr == 2:
            return x(P(r), 2) - x(1 + P(r - HalfInt(1)), 1)
        if pr == 3 and r - 1 >= 1 and in_domain(X, r - 1) \
                and periodic_map(X, r - 1) == 1:
            return (x(P(r), 3) - x(1 + P(r - HalfInt(1)), 2)
                    - x(1 + P(r - 1), 1))
        if fam is Family.D1:
            if pr == n - 2 and in_domain(X, r - 1) \
                    and periodic_map(X, r - 1) == n - 1:
                return (x(P(r), n - 2) - x(1 + P(r - HalfInt(1)), n)
                        - x(1 + P(r - 1), n - 1))
            if pr == n - 1:
                return (x(P(r), n - 1) + x(P(r + HalfInt(1)), n)
                        - x(1 + P(r - 1), n - 2))
            if pr == n:
                return x(P(r), n) - x(1 + P(r - HalfInt(1)), n - 1)
        prev = r - 1
        pp = periodic_map(X, prev)
        return scaled(c_of(pr), P(r), pr) - scaled(c_of(pp), 1 + P(prev), pp)

    raise Unsupported(f"no box forms for {X}")


def _box_points(X, ell, budget, kinds):
    """Domain points r with ell+1 <= r <= ell+budget, plus the phantom
    half points for the H family, tagged by variant."""
    out = []
    t = HalfInt.of(ell)
    stop = HalfInt.of(ell) + budget
    halfs = half_height_colors(X)
    seconds = {p[1] for p in split_cell_pairs(X)}
    while True:
        t = next_domain_point(X, t)
        if t > stop:
            break
        if t < HalfInt.of(ell) + 1:
            continue
        if "plain" in kinds:
            out.append((t, "plain"))
        if "half" in kinds and t.is_integer and periodic_map(X, t) in halfs:
            out.append((t + HalfInt(1), "half"))
        if "tilde" in kinds and periodic_map(X, t) in seconds:
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


def _below(seq, t, k) -> bool:
    return seq.lt(DoubleIndex(1, t), DoubleIndex(1, k))


def _fork_pair(hk, k, j):
    """The fork-pair forms hk - x[1,k] + x[1,j] and hk - x[2,j], tagged
    pair[j]."""
    pair = [LinearForm(hk, {DoubleIndex(1, k): -1, DoubleIndex(1, j): 1}),
            LinearForm(hk, {DoubleIndex(2, j): -1})]
    return dict.fromkeys(pair, f"pair[{j}]")


def comb_lambda(seq: AdaptedSequence, k: int, lam: DominantWeight,
                budget: int) -> IneqSet:
    """COMB_k[lambda] from the written case analysis.

    The budget bounds both the box-chain length and the wall-enumeration
    block count.  A negative budget, a colour outside the index set or a
    weight of the wrong rank raises ValueError.
    """
    X = seq.wall_type
    fam = X.family
    n = X.n
    if budget < 0:
        raise ValueError(f"budget {budget} is negative")
    if k not in seq.base_type.index_set:
        raise ValueError(f"colour {k} is not in the index set 1..{n}")
    if len(lam.values) != n:
        raise ValueError(f"lambda has {len(lam.values)} entries, not {n}")
    hk = lam.pairing(k)
    meta = _meta(seq, k=k, **{"lambda": list(lam.values)})
    singleton = IneqSet({LinearForm(hk, {DoubleIndex(1, k): -1}): "singleton"},
                        meta)

    def boxes(ell, kinds):
        points = _box_points(X, ell, budget, kinds)
        return IneqSet(_box_family(seq, ell, hk, points), meta)

    def walls(s=0, j=k, exclude_first=False):
        """{L_{s,j}(T) + hk} over the walls within the budget but the
        ground (and the one-block wall when requested)."""
        g = ground_state(X, j)
        skip = [g]
        if exclude_first:
            first = [st for st in sites(g) if st.action == "add" and st.column == 0]
            lowest = min(st.level for st in first)
            first = [st for st in first if st.level == lowest]
            assert len(first) == 1
            skip.append(apply(g, first[0]))
        prov = {}
        _wall_walk(WallFormMap(seq), prov, j, (s,), hk, budget=budget,
                   skip=tuple(skip))
        return IneqSet(prov, meta)

    if fam is Family.A1:
        below_next = _below(seq, periodic_map(X, k + 1), k)
        below_prev = _below(seq, _pi_ext(X, k - 1), k)
        if not below_next and not below_prev:
            return singleton
        if not below_next and below_prev:
            points = [(r, "tilde") for r in range(k, k - budget, -1)]
            return IneqSet(_box_family(seq, k, hk, points), meta)
        if below_next and not below_prev:
            return boxes(k, ("plain",))
        return walls()

    tbar, tbarbar = thresholds(X, k)[1:]

    if fam in (Family.C1, Family.A2EVEN, Family.A2EVEN_DAGGER, Family.D2):
        below_next = _below(seq, _pi_ext(X, k + 1), k)
        below_prev = _below(seq, _pi_ext(X, k - 1), k)
        if not below_next and not below_prev:
            return singleton
        if not below_next and below_prev:
            return boxes(tbarbar, ("plain", "half"))
        if below_next and not below_prev:
            return boxes(tbar, ("plain", "half"))
        return walls()

    if fam in (Family.B1, Family.A2ODD, Family.D1):
        fork_low = {1, 2}
        fork_high = {n - 1, n} if fam is Family.D1 else set()
        if k in fork_low or k in fork_high:
            (j,) = [j for j in neighbors(X, k)
                    if cartan_entry(X, k, j) == -1 and cartan_entry(X, j, k) == -1]
            if _below(seq, k, j):
                return singleton
            return walls()
        if fam is Family.D1 and n == 5 and k == 3:
            # the middle colour of the smallest two-fork type: both fork
            # pairs are adjacent to k, so the case split runs over the
            # four neighbours
            ranked = sorted([1, 2, 4, 5],
                            key=lambda t: seq.single_index(DoubleIndex(1, t)))
            below = [t for t in ranked if _below(seq, t, k)]
            above = [t for t in ranked if not _below(seq, t, k)]
            if len(below) == 0:
                return singleton
            if len(below) == 1:
                return IneqSet(_fork_pair(hk, k, below[0]), meta)
            if len(below) == 3:
                return walls(s=-1, j=above[0], exclude_first=True)
            if len(below) == 4:
                return walls()
            # two below and two above: four-form chains over both pairs
            prov = {}
            for (r1, r2) in [(below[0], below[1]), (above[0], above[1])]:
                p31 = seq.p(3, r1)
                for s in range(1, 2 * budget, 2):  # odd shifts only
                    chain = [
                        ("three-up", LinearForm(hk, {
                            DoubleIndex(s, r1): 1, DoubleIndex(s, r2): 1,
                            DoubleIndex(s + p31, 3): -1})),
                        ("step", LinearForm(hk, {
                            DoubleIndex(s, r1): 1, DoubleIndex(s + 1, r2): -1})),
                        ("step", LinearForm(hk, {
                            DoubleIndex(s, r2): 1, DoubleIndex(s + 1, r1): -1})),
                        ("three-down", LinearForm(hk, {
                            DoubleIndex(s + p31, 3): 1, DoubleIndex(s + 1, r1): -1,
                            DoubleIndex(s + 1, r2): -1})),
                    ]
                    for tag, phi in chain:
                        prov.setdefault(phi, f"{tag}[{r1},{r2};{s}]")
            return IneqSet(prov, meta)
        branch = (k == 3) or (fam is Family.D1 and k == n - 2)
        kinds = ("plain", "half", "tilde")
        if not branch:
            below_next = _below(seq, periodic_map(X, k), k)
            below_prev = _below(seq, periodic_map(X, k - 2), k)
            if not below_next and not below_prev:
                return singleton
            if not below_next and below_prev:
                return boxes(tbarbar, kinds)
            if below_next and not below_prev:
                return boxes(tbar, kinds)
            return walls()
        # the colour adjacent to a fork: j1, j2 the class-1 fork colours,
        # j3 the remaining neighbour
        if k == 3:
            j1, j2 = 1, 2
        else:
            j1, j2 = n - 1, n
        (j3,) = [j for j in neighbors(X, k) if j not in (j1, j2)]
        c1, c2, c3 = (_below(seq, t, k) for t in (j1, j2, j3))
        if not c1 and not c2 and not c3:
            return singleton
        if c1 != c2 and not c3:
            return IneqSet(_fork_pair(hk, k, j1 if c1 else j2), meta)
        if c1 and c2 and c3:
            return walls()
        if c1 != c2 and c3:
            j = j2 if c1 else j1
            return walls(s=-1, j=j, exclude_first=True)
        if (not c1 and not c2 and c3 and k == 3) or \
                (c1 and c2 and not c3 and k != 3):
            return boxes(tbar, kinds)
        return boxes(tbarbar, kinds)

    raise Unsupported(f"no written highest-weight case for {X}")


# --- star-twisted string length ---------------------------------------


def epsilon_star(seq: AdaptedSequence, k: int, a) -> int:
    """max(0, -phi(a)) over COMB_k[0], for a in B(infinity) given by its
    double-index entries.

    The family is built at budgets 0, 2, 4, ... until its value reaches
    epsilon*_k(a) as read from Kashiwara's chart (zcrystal.star_length).
    No form exceeds that value, so reaching it certifies the answer; a
    form exceeding it, or no agreement by budget 2|a| (|a| the sum of
    the entries, a measured bound), raises NotStabilized.  ValueError if
    a is not in B(infinity)."""
    amap = dict(a)
    elem = ZElement({seq.single_index(d): v for d, v in amap.items()})
    want = star_length(seq, k, elem)
    zero = DominantWeight.zero(seq.n)
    cap = 2 * sum(amap.values())
    budget = 0
    while True:
        forms = comb_lambda(seq, k, zero, budget).forms
        got = max([0] + [-phi.evaluate(amap) for phi in forms])
        if got == want:
            return got
        if got > want or budget + 2 > cap:
            raise NotStabilized(
                f"epsilon*_{k} of {render_element(seq, elem)}: the wall "
                f"formula gives {got} at budget {budget}, the chart {want}")
        budget += 2
