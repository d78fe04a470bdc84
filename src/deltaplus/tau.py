"""Exact computation of the triangle operation on step functions.

For step functions f and g the plane splits into finitely many half-open
cells ]a, a'] x ]b, b'] on which T(f(u), g(v)) is constant.  The primary
output is the left-continuous regularization

    h(x) = sup{ T(f(u), g(v)) : L(u, v) < x }        (finite x; h(inf) = 1)

computed by the corner rule: for a continuous increasing L, the infimum of
L over a half-open cell is its value at the closed lower corner, so a cell
reaches below x exactly when its lower-corner image does.  The result is
again a step function whose jumps sit at corner images.

The raw (unregularized) pointwise value sup{ ... : L(u, v) = x } is kept
as a diagnostic: the two coincide exactly when the pair (T, L) yields a
genuine triangle operation, and a raw/regularized gap is a concrete
counterexample.  Deciding whether x lies in the image of L over a
half-open cell needs care on value plateaus: the lower-corner value is
attained inside the cell either when L is constant on the whole cell or
when a plateau touches the corner with room to move in both coordinates
(the truncated ordinal sum does this); descriptors carry an exact
predicate for the latter.

:func:`closure_profile` is the one full-grid evaluator: it builds one
grid, takes L at every lower corner once, and returns the regularized
operation, a raw evaluator for every x and the probe abscissae, all read
from that one corner matrix.  :func:`tau_raw_at` reads the same grid and
corner matrix but builds no probes; :func:`probe_abscissae` reads the
same corner images.  :func:`tau` walks only the staircase: for a
monotone T the values and corner images rise along every row of the
grid, so a merge of the rows by corner image that keeps the running
maximum visits only cells that can still raise it, and its cost follows
the output, not the grid.  For any other T it reads
the regularized operation off :func:`closure_profile`.

The drastic conorm is the one catalog entry the corner rule cannot serve
(it is discontinuous off the axes); a dedicated branch handles it before
any grid or corner matrix is built: every cell off the axes maps to
infinity, and on the axes one argument is zero, so the regularized output
collapses to the step at infinity, and the raw value at a finite x comes
from the axes alone.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush

from .ddf import DDF, EPS_INF, canonicalize, last_jump_to_one, probe_points
from .rationals import (
    EXT_INF,
    EXT_ZERO,
    UNIT_ONE,
    UNIT_ZERO,
    ExtRat,
    UnitRat,
)
from .tconorms import TConormDesc
from .tnorms import TNormDesc


class UnsupportedPairError(ValueError):
    """The conorm lacks the continuity the corner rule requires."""


@dataclass(frozen=True)
class RectangleGrid:
    """Finite carrier for the supremum: band cut points and cell values.

    ``cell_values[i][j] = T(f_i, g_j)``, where f_i is f's constant value
    on the band ]cuts_f[i], cuts_f[i+1]] (the last band is unbounded).
    Cell (i, j) has closed lower corner (cuts_f[i], cuts_g[j]).
    """

    cuts_f: tuple[ExtRat, ...]
    cuts_g: tuple[ExtRat, ...]
    cell_values: tuple[tuple[UnitRat, ...], ...]


def _band_decomposition(f: DDF) -> tuple[tuple[ExtRat, ...], tuple[UnitRat, ...]]:
    # Each band starts at a jump and carries that jump's value; a band
    # from 0 at level 0 comes first unless f jumps at 0.
    cuts = tuple(x for x, _ in f.jumps)
    values = tuple(p for _, p in f.jumps)
    if cuts and cuts[0] == EXT_ZERO:
        return cuts, values
    return (EXT_ZERO, *cuts), (UNIT_ZERO, *values)


def build_grid(t: TNormDesc, f: DDF, g: DDF) -> RectangleGrid:
    cuts_f, values_f = _band_decomposition(f)
    cuts_g, values_g = _band_decomposition(g)
    cells = tuple(
        tuple(t(fv, gv) for gv in values_g) for fv in values_f
    )
    return RectangleGrid(cuts_f, cuts_g, cells)


def _require_supported(l: TConormDesc) -> None:
    if l.name == "drastic":
        return
    if l.declared is None or not l.declared.is_continuous:
        raise UnsupportedPairError(
            f"conorm {l.spec} is not known to be continuous; the corner rule"
            " does not apply"
        )


def tau(t: TNormDesc, l: TConormDesc, f: DDF, g: DDF) -> DDF:
    """The regularized triangle operation, exact on step functions.

    For a T declared monotone this walks the staircase of corner images.
    Along every row of the grid both the cell values and the corner
    images rise, since T is monotone and L a continuous t-conorm.  So a
    merge of the rows by corner image, keeping the running maximum, need
    visit only the cells that raise it: a row's pointer moves by a
    galloping binary search on T to its first cell that beats the
    maximum, and L is taken only there.  Any other T gets the full grid
    of :func:`closure_profile`.
    """
    _require_supported(l)
    if l.name == "drastic":
        # Off the axes L is infinite; on the axes one factor evaluates to
        # f(0) = 0 or g(0) = 0, so nothing reaches any finite level.
        return EPS_INF
    if t.declared is None or not t.declared.is_monotone:
        return closure_profile(t, l, f, g)[0]
    cuts_f, values_f = _band_decomposition(f)
    cuts_g, values_g = _band_decomposition(g)
    m = len(cuts_g)
    # (corner image, -row, column, value), one entry per live row; the
    # carriers order on their own.  At equal corners the highest row pops
    # first, so that it sets best before the rows below it in the same
    # column.
    heap: list[tuple[ExtRat, int, int, UnitRat]] = []

    def advance(i: int, j: int, best: UnitRat) -> None:
        # Row i's first column from j on whose value beats best: gallop
        # ahead to a column that beats it, then bisect back.  A row whose
        # remaining cells cannot beat best, or whose corner there is
        # infinite (so are all later ones), leaves the merge.
        fv = values_f[i]
        lo, hi, step = j, j, 1
        while hi < m and (value := t(fv, values_g[hi])) <= best:
            lo, hi, step = hi + 1, hi + step, step * 2
        j = bisect_right(range(m), best, lo=lo, hi=min(hi, m), key=lambda k: t(fv, values_g[k]))
        if j == m:
            return
        if j != hi:
            value = t(fv, values_g[j])
        corner = l(cuts_f[i], cuts_g[j])
        if not corner.is_infinite:
            heappush(heap, (corner, -i, j, value))

    best = UNIT_ZERO
    for i in range(len(cuts_f)):
        advance(i, 0, best)
    best_i = best_j = -1
    jumps = []
    while heap:
        corner, i, j, value = heappop(heap)
        i = -i
        if value > best:
            jumps.append((corner, value))
            best, best_i, best_j = value, i, j
        elif best_i > i and best_j == j:
            # The cell that set best lies higher in this column.  It
            # popped first, so its corner is no larger than this one, and
            # L is monotone, so the two are equal.  L(a, b) = L(a', b)
            # gives L(a, b') = L(a', b') for every b' > b (continuity
            # writes b' = L(b, d), then associativity), so the higher row
            # meets every later corner of this row with a value at least
            # as large: this row is done.
            continue
        advance(i, j + 1, best)
    # Cells tied at one corner may each emit; canonicalize keeps the largest.
    return canonicalize(jumps)


def _corner_matrix(l: TConormDesc, f: DDF, g: DDF) -> list[list[ExtRat]]:
    # L at the closed lower corner of every cell, one row per band of f.
    cuts_f, _ = _band_decomposition(f)
    cuts_g, _ = _band_decomposition(g)
    return [[l(a, b) for b in cuts_g] for a in cuts_f]


def _finite_images(
    l: TConormDesc, f: DDF, g: DDF, corners: list[list[ExtRat]] | None = None
) -> Iterator[Fraction]:
    # Under the drastic conorm a corner's image is finite only on the axes,
    # where it is the other coordinate: the operands' cuts, and 0, which every
    # probe set holds.  So no L call is needed.
    if l.name == "drastic":
        return (x.finite for h in (f, g) for x, _ in h.jumps)
    if corners is None:
        corners = _corner_matrix(l, f, g)
    return (c.finite for row in corners for c in row if not c.is_infinite)


def probe_abscissae(l: TConormDesc, f: DDF, g: DDF) -> list[ExtRat]:
    """Corner images, midpoints between consecutive ones, and one beyond."""
    return probe_points(_finite_images(l, f, g))


def tau_raw_at(t: TNormDesc, l: TConormDesc, f: DDF, g: DDF, x: ExtRat) -> UnitRat:
    """The definitional supremum over { L(u,v) = x }, evaluated exactly by
    the raw evaluator of :func:`closure_profile`, without its probes."""
    _require_supported(l)
    if l.name == "drastic":
        return _drastic_raw(t, f, g)(x)
    return _grid_profile(t, l, f, g, _corner_matrix(l, f, g))[1](x)


def closure_profile(
    t: TNormDesc, l: TConormDesc, f: DDF, g: DDF
) -> tuple[DDF, Callable[[ExtRat], UnitRat], list[ExtRat]]:
    """``(tau(t, l, f, g), raw evaluator, probe_abscissae(l, f, g))`` from
    one grid and one image under L of all its lower corners.

    The raw evaluator gives the definitional supremum over { L(u,v) = x }.
    A cell contributes when x lies in the image of L over the half-open
    cell: always for x in ]lo, hi] with lo, hi the images of its closed
    lower and upper corners, and at x = lo exactly when L is constant on
    the cell or its plateau enters the cell interior.  The upper corner of
    cell (i, j) is the lower corner of cell (i+1, j+1), or infinity past
    the last band, so no further L call is needed; the raw value at x is
    the largest cell value whose cell reaches x, found by scanning the
    nonzero cells in order of decreasing value.
    """
    _require_supported(l)
    if l.name == "drastic":
        # No cell reaches a finite level.
        return EPS_INF, _drastic_raw(t, f, g), probe_points(_finite_images(l, f, g))
    corners = _corner_matrix(l, f, g)
    jumps, raw_at = _grid_profile(t, l, f, g, corners)
    return canonicalize(jumps), raw_at, probe_points(_finite_images(l, f, g, corners))


def _grid_profile(
    t: TNormDesc, l: TConormDesc, f: DDF, g: DDF, corners: list[list[ExtRat]]
) -> tuple[list[tuple[ExtRat, UnitRat]], Callable[[ExtRat], UnitRat]]:
    # The corner jump of every nonzero cell with a finite lower corner, and
    # the raw evaluator of closure_profile, from one grid.
    grid = build_grid(t, f, g)
    cuts_f, cuts_g = grid.cuts_f, grid.cuts_g
    nf, ng = len(cuts_f), len(cuts_g)
    attained = l.cell_inf_attained
    jumps = []
    # (value, lo, hi, lo reached) per nonzero cell with a finite lower
    # corner: lo and hi are L at the lower and upper corners, and "lo
    # reached" says whether L attains lo on the cell.
    cells = []
    for i, a in enumerate(cuts_f):
        row = grid.cell_values[i]
        for j, b in enumerate(cuts_g):
            value, lo = row[j], corners[i][j]
            if value == UNIT_ZERO or lo.is_infinite:
                continue
            jumps.append((lo, value))
            a_hi = cuts_f[i + 1] if i + 1 < nf else EXT_INF
            b_hi = cuts_g[j + 1] if j + 1 < ng else EXT_INF
            hi = corners[i + 1][j + 1] if i + 1 < nf and j + 1 < ng else EXT_INF
            at_lo = hi == lo or (attained is not None and attained(a, b, a_hi, b_hi))
            cells.append((value, lo, hi, at_lo))
    cells.sort(key=lambda cell: cell[0], reverse=True)

    def raw_at(x: ExtRat) -> UnitRat:
        if x.is_infinite:
            return UNIT_ONE
        if x == EXT_ZERO:
            return UNIT_ZERO
        for value, lo, hi, at_lo in cells:
            if lo < x <= hi or (x == lo and at_lo):
                return value
        return UNIT_ZERO

    return jumps, raw_at


def _drastic_raw(t: TNormDesc, f: DDF, g: DDF) -> Callable[[ExtRat], UnitRat]:
    # The raw evaluator under the drastic conorm, which reads no grid:
    # L(u, v) = x finite forces one coordinate to 0 and the other to x.
    def raw_at(x: ExtRat) -> UnitRat:
        if x.is_infinite:
            return UNIT_ONE
        if x == EXT_ZERO:
            return UNIT_ZERO
        return max(t(f.value_at(x), g.value_at(EXT_ZERO)), t(f.value_at(EXT_ZERO), g.value_at(x)))

    return raw_at


def tau_d_closed_form(f: DDF, g: DDF) -> DDF:
    """Triangle operation for the drastic t-norm with addition, in closed
    form: each function shifted by the other's time-to-certainty, then the
    pointwise maximum."""
    shift_f = last_jump_to_one(g)
    shift_g = last_jump_to_one(f)
    jumps = []
    if not shift_f.is_infinite:
        jumps.extend((x + shift_f, p) for x, p in f.jumps)
    if not shift_g.is_infinite:
        jumps.extend((x + shift_g, p) for x, p in g.jumps)
    return canonicalize(jumps)


def level_split_witness(
    t: TNormDesc, l: TConormDesc, f: DDF, g: DDF, y: ExtRat, x: ExtRat
) -> tuple[ExtRat, ExtRat]:
    """A pair (u, v) with L(u, v) = x and T(f(u), g(v)) >= tau(f, g)(y).

    Requires 0 < y < x and an Archimedean catalog conorm with an exact
    level-set solver (plus, nilpotent_rat).  The pair is located inside
    the cell whose value realizes the regularized level at y: u moves a
    little past the cell's lower edge and v solves L(u, v) = x, shrinking
    the step until v clears the cell's other lower edge.
    """
    if not (EXT_ZERO < y < x):
        raise ValueError("need 0 < y < x")
    if l.solve_second is None or l.declared is None or not l.declared.is_archimedean:
        raise ValueError(f"conorm {l.spec} has no exact level-set solver")
    if x.is_infinite:
        return EXT_INF, EXT_INF
    grid = build_grid(t, f, g)
    corners = _corner_matrix(l, f, g)
    nf = len(grid.cuts_f)
    best: tuple[UnitRat, ExtRat, ExtRat, ExtRat, ExtRat] | None = None
    for i, a in enumerate(grid.cuts_f):
        a_hi = grid.cuts_f[i + 1] if i + 1 < nf else EXT_INF
        row = grid.cell_values[i]
        for j, b in enumerate(grid.cuts_g):
            corner = corners[i][j]
            if corner < y and (best is None or row[j] > best[0]):
                best = (row[j], a, b, a_hi, corner)
    assert best is not None  # the (0, 0) corner is always below y
    _, a, b, a_hi, m = best
    width = None if a_hi.is_infinite else a_hi.finite - a.finite
    delta = (x.finite - m.finite) / 2
    if width is not None and width < delta * 2:
        delta = width / 2
    while True:
        u = ExtRat(a.finite + delta)
        v = l.solve_second(u, x)
        if v > b:
            return u, v
        delta /= 2


def _oracle_probes(f: DDF) -> list[Fraction]:
    xs = [x.finite for x in f.breakpoints]
    seq = sorted({Fraction(0)} | set(xs))
    points = set(seq)
    points.update((lo + hi) / 2 for lo, hi in zip(seq, seq[1:]))
    points.add(seq[-1] + 1)
    return sorted(points)


def _floor_cut(xs: list[Fraction], u: Fraction) -> Fraction:
    # Largest element of {0} + breakpoints strictly below u.
    i = bisect_right(xs, u) - 1
    while i >= 0 and xs[i] >= u:
        i -= 1
    return xs[i] if i >= 0 else Fraction(0)


def oracle_contributions(
    t: TNormDesc, l: TConormDesc, f: DDF, g: DDF
) -> list[tuple[ExtRat, UnitRat]]:
    """Probe-pair contributions for the grid oracle.

    Each finite probe pair (u, v) yields the honest pointwise value
    T(f(u), g(v)) keyed by the infimum of L over the probe's cell, which
    for a continuous L is the image of the cell's closed lower corner (for
    the drastic conorm no cell off the axes reaches any finite level).
    The oracle answer at x is the largest value whose key lies below x.
    """
    if l.name == "drastic":
        # Every cell off the axes maps to infinity; no finite level is
        # reached from any probe pair.
        return []
    xs_f = sorted(x.finite for x in f.breakpoints)
    xs_g = sorted(x.finite for x in g.breakpoints)
    f_side = [
        (f.value_at(ExtRat(u)), ExtRat(_floor_cut(xs_f, u))) for u in _oracle_probes(f)
    ]
    g_side = [
        (g.value_at(ExtRat(v)), ExtRat(_floor_cut(xs_g, v))) for v in _oracle_probes(g)
    ]
    pairs: list[tuple[ExtRat, UnitRat]] = []
    for fu, floor_u in f_side:
        for gv, floor_v in g_side:
            reach = l(floor_u, floor_v)
            if not reach.is_infinite:
                pairs.append((reach, t(fu, gv)))
    return pairs


def grid_oracle_tau_at(
    t: TNormDesc, l: TConormDesc, f: DDF, g: DDF, x: ExtRat
) -> UnitRat:
    """Independent oracle for the regularized value at x.

    Enumerates probe points (breakpoints, midpoints, one beyond, zero) of
    each operand and takes the largest pointwise T-value among probe pairs
    whose cell reaches below x; agrees with :func:`tau` at every finite x.
    """
    if x.is_infinite:
        return UNIT_ONE
    best = UNIT_ZERO
    for reach, value in oracle_contributions(t, l, f, g):
        if reach < x and value > best:
            best = value
    return best
