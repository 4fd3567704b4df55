"""Placement rules (``PLC``): fences, overlaps, fixed cells.

``PLC001`` shares its implementation with
:meth:`repro.pnr.placement.Placement.check_legality` through
:func:`repro.pnr.placement.legality_violations`, so the placer and the DRC
can never disagree on what "legal" means.  ``PLC002`` reports true-width
cell overlaps; the row legalizer intentionally compresses crowded rows
(scaling cursor advance, not cell widths), so residual overlaps are a
density warning, not an error.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

import numpy as np

from .diagnostics import Severity
from .registry import Finding, Rule, finding

#: Overlap reporting cap: beyond this many pairs, one summary finding.
_MAX_OVERLAP_FINDINGS = 10


def check_fences(context) -> List[Finding]:
    """PLC001 — a cell outside its fence (or the die)."""
    from ..pnr.placement import legality_violations

    placement = context.placement
    violations = legality_violations(placement.cells, placement.floorplan,
                                     tolerance=context.tolerance)
    return [
        finding(violation.describe(), "cell", violation.cell,
                detail=f"fence {violation.fence}",
                hint="re-run legalization, or widen the fence in the "
                     "floorplan")
        for violation in violations
    ]


#: Candidate pairs expanded per block of the overlap sweep: bounds the
#: sweep's working memory independently of the total number of candidates.
_SWEEP_BLOCK = 1 << 14


def _sweep_reach(upper: np.ndarray, tolerance: float) -> np.ndarray:
    """Exclusive upper bound of the sweep window above each lower edge.

    Two extents starting at ``lo_p <= lo_q`` can overlap by more than
    ``tolerance`` only when ``lo_q < upper_p - tolerance`` (exactly, which
    for ``tolerance >= 0`` implies ``lo_q < upper_p``); the bound returned
    is never below that value, so the window is a superset of the pairs the
    exact filter keeps.
    """
    if tolerance >= 0.0:
        return upper
    return np.nextafter(upper - tolerance, np.inf)


def _overlap_pairs(cells: Mapping[str, object], tolerance: float, *,
                   limit: Optional[int] = None
                   ) -> Tuple[int, List[Tuple[str, str, float]]]:
    """Count true-width overlapping cell pairs and return the first ones.

    Returns ``(total, pairs)``: the number of cell pairs whose footprints
    overlap by more than ``tolerance`` on both axes, and the first
    ``limit`` of them (all when ``limit`` is None) as ``(first, second,
    area)`` tuples with ``first <= second`` by name, in ascending tuple
    order.  A pair is one whose later cell in (left edge, name) order
    starts left of the earlier cell's right edge minus ``tolerance``, and
    whose x and y overlaps both exceed ``tolerance``.

    The cells are held as arrays and swept along one axis: sorted by lower
    edge, each cell is paired with the cells whose lower edge falls inside
    its own extent (:func:`_sweep_reach`), then the candidates are filtered
    exactly.  The axis is the one with fewer candidates — the row axis for
    row-based placements, where every row spans the whole die in x.
    Candidates are expanded ``_SWEEP_BLOCK`` at a time and only the best
    ``limit`` pairs are kept between blocks, so working memory does not
    grow with the number of candidates.
    """
    ordered = sorted(cells.values(), key=lambda c: c.name)
    if len(ordered) < 2:
        return 0, []
    names = [cell.name for cell in ordered]
    # Dense name rank: orders like the names themselves, ties included.
    rank = np.zeros(len(names), dtype=np.int64)
    for index in range(1, len(names)):
        rank[index] = rank[index - 1] + (names[index] != names[index - 1])
    geometry = np.array([(c.x_um, c.y_um, c.width_um, c.height_um)
                         for c in ordered], dtype=float)
    x, y, width, height = geometry.T
    half_w = width / 2.0
    half_h = height / 2.0
    x0, x1 = x - half_w, x + half_w
    y0, y1 = y - half_h, y + half_h
    x_order = np.lexsort((rank, x0))
    x_rank = np.empty_like(x_order)
    x_rank[x_order] = np.arange(len(x_order))

    sweeps = []
    for lower, upper in ((y0, y1), (x0, x1)):
        order = np.argsort(lower, kind="stable")
        ends = np.searchsorted(lower[order],
                               _sweep_reach(upper[order], tolerance),
                               side="left")
        counts = np.maximum(ends - np.arange(len(order)) - 1, 0)
        sweeps.append((int(counts.sum()), order, counts))
    _, order, counts = min(sweeps, key=lambda sweep: sweep[0])

    total = 0
    kept = []
    for begin, end in _blocks(counts):
        block = counts[begin:end]
        size = int(block.sum())
        if not size:
            continue
        slot = np.repeat(np.arange(begin, end), block)
        offsets = np.arange(size) - np.repeat(np.cumsum(block) - block, block)
        a = order[slot]
        b = order[slot + 1 + offsets]
        a_first = x_rank[a] < x_rank[b]
        i = np.where(a_first, a, b)
        j = np.where(a_first, b, a)
        dx = np.minimum(x1[i], x1[j]) - np.maximum(x0[i], x0[j])
        dy = np.minimum(y1[i], y1[j]) - np.maximum(y0[i], y0[j])
        hit = (x0[j] < x1[i] - tolerance) & (dx > tolerance) & (dy > tolerance)
        i, j, area = i[hit], j[hit], (dx * dy)[hit]
        total += len(area)
        # Cells are indexed in name order: the lower index names ``first``.
        kept.append((np.minimum(i, j), np.maximum(i, j), area))
        if limit is not None:
            kept = [_first_pairs(kept, rank, limit)]
    if not kept:
        return total, []
    low, high, area = _first_pairs(kept, rank, limit)
    return total, [(names[first], names[second], float(value))
                   for first, second, value in zip(low.tolist(),
                                                   high.tolist(), area)]


def _blocks(counts: np.ndarray):
    """``(begin, end)`` runs of ``counts`` summing to ``_SWEEP_BLOCK`` at
    most (a single entry above it forms a run of its own)."""
    cumulative = np.cumsum(counts)
    begin = 0
    while begin < len(counts):
        done = int(cumulative[begin - 1]) if begin else 0
        end = max(int(np.searchsorted(cumulative, done + _SWEEP_BLOCK,
                                      side="right")), begin + 1)
        yield begin, end
        begin = end


def _first_pairs(parts, rank: np.ndarray, limit: Optional[int]):
    """The first ``limit`` (cell, cell, area) triples of ``parts``.

    Sorted like the ``(first, second, area)`` name tuples they stand for.
    """
    low, high, area = (np.concatenate(column) for column in zip(*parts))
    order = np.lexsort((area, rank[high], rank[low]))[:limit]
    return low[order], high[order], area[order]


def check_overlaps(context) -> List[Finding]:
    """PLC002 — two cells whose true-width footprints intersect."""
    total, pairs = _overlap_pairs(context.placement.cells, context.tolerance,
                                  limit=_MAX_OVERLAP_FINDINGS)
    hits: List[Finding] = []
    for first, second, area in pairs:
        hits.append(finding(
            f"overlaps cell {second!r} by {area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="rows are over-filled; enlarge the region or reduce "
                 "utilization"))
    if total > _MAX_OVERLAP_FINDINGS:
        hits.append(finding(
            f"{total - _MAX_OVERLAP_FINDINGS} further overlapping "
            f"pair(s) suppressed ({total} total)",
            "design", "placement",
            hint="fix the densest region first; the pair list is "
                 "deterministic, re-run after each fix"))
    return hits


def check_fixed_cells(context) -> List[Finding]:
    """PLC003 — fixed-cell violations.

    A fixed cell outside its fence can never be repaired by the annealer
    (it refuses to move fixed cells), and two fixed cells overlapping can
    never be legalized at all — both are hard errors, unlike the movable
    overlaps of ``PLC002``.
    """
    from ..pnr.placement import legality_violations

    placement = context.placement
    fixed = {name: cell for name, cell in placement.cells.items()
             if cell.fixed}
    if not fixed:
        return []
    hits: List[Finding] = []
    for violation in legality_violations(fixed, placement.floorplan,
                                         tolerance=context.tolerance):
        hits.append(finding(
            f"fixed {violation.describe()}",
            "cell", violation.cell, detail=f"fence {violation.fence}",
            hint="a fixed cell can never be legalized by the annealer; "
                 "move it inside the fence or unfix it"))
    _, pairs = _overlap_pairs(fixed, context.tolerance)
    for first, second, area in pairs:
        hits.append(finding(
            f"fixed cells {first!r} and {second!r} overlap by "
            f"{area:.2f} um^2",
            "cell", first, detail=f"with {second}",
            hint="two fixed cells can never be pulled apart; revisit "
                 "the fixed positions"))
    return hits


RULES = (
    Rule("PLC001", "cell outside fence", "placement",
         Severity.ERROR, check_fences,
         "A placed cell lies outside its block fence or the die."),
    Rule("PLC002", "overlapping placements", "placement",
         Severity.WARNING, check_overlaps,
         "Two cells' true-width footprints intersect (over-filled rows)."),
    Rule("PLC003", "fixed-cell violation", "placement",
         Severity.ERROR, check_fixed_cells,
         "A fixed cell outside its fence, or two fixed cells overlapping."),
)
