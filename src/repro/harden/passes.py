"""Hardening passes: the composable units of the secure-flow pass manager.

A pass is any object with a ``name`` and a ``run(context) → PassOutcome``
method.  The :class:`PassContext` carries the mutable design state — netlist,
placement, incremental extractor, current criterion report — through the
pipeline, so passes compose freely: the classic flat and hierarchical flows
are just ``[placement pass, extraction pass]`` configurations, and the
countermeasure layer adds *repair* passes that perturb the placed design to
drive the dissymmetry criterion down:

* :class:`DummyLoadPass` — equalize the rail load capacitances of a leaky
  channel by hanging dummy loads (unswitched gate inputs / metal fill) on its
  lighter rails;
* :class:`RepositionPass` — criterion-guided re-placement: pull the pin cells
  of a channel's heaviest rail together (within their fences) to shorten it;
* :class:`FenceResizePass` — shrink the floorplan fence of a block that owns
  leaky channels, bounding net length and dispersion harder.

Repair passes re-measure only the nets they touch, through the pipeline's
:class:`~repro.pnr.extraction.IncrementalExtractor`.
"""

from __future__ import annotations

import logging
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..circuits.netlist import Net, Netlist
from ..core.criterion import CriterionReport, channel_dissymmetry, evaluate_netlist_channels
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..pnr.extraction import IncrementalExtractor
from ..pnr.floorplan import Floorplan, Rect, Region
from ..pnr.placement import (
    AnnealingSchedule,
    FlatPlacer,
    HierarchicalPlacer,
    Placement,
)


logger = logging.getLogger(__name__)


class HardeningError(Exception):
    """Raised when a pass cannot run on the current design state."""


@dataclass
class PassOutcome:
    """What one pass did to the design."""

    pass_name: str
    changed: bool = False
    touched_nets: int = 0
    touched_cells: int = 0
    channels_repaired: int = 0
    dummy_cap_added_ff: float = 0.0
    details: str = ""


@dataclass
class PassContext:
    """Mutable design state threaded through a pass pipeline.

    The context owns the single source of truth for each layer: the netlist
    (structure + electrical annotations), the placement, the incremental
    extractor that keeps routing/extraction live, and the latest criterion
    report.  ``scratch`` is a per-run dictionary for passes that need state
    across repair iterations (e.g. which fences were already resized).
    ``bound`` is the criterion bound of the pipeline running the passes,
    when it has one.
    """

    netlist: Netlist
    technology: Technology = field(default_factory=lambda: HCMOS9_LIKE)
    seed: int = 0
    design_name: str = ""
    use_load_cap: bool = True
    flow: str = ""
    placement: Optional[Placement] = None
    extractor: Optional[IncrementalExtractor] = None
    criterion: Optional[CriterionReport] = None
    bound: Optional[float] = None
    rng: random.Random = None
    scratch: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.rng is None:
            self.rng = random.Random(self.seed)
        if not self.design_name:
            self.design_name = self.netlist.name
        self._channels_cache: Optional[Dict[str, List[Net]]] = None
        self._channels_version: Optional[int] = None

    # --------------------------------------------------------------- helpers
    def require_placement(self) -> Placement:
        if self.placement is None:
            raise HardeningError(
                "no placement in the pass context; run a placement pass first")
        return self.placement

    def require_extractor(self) -> IncrementalExtractor:
        if self.extractor is None:
            raise HardeningError(
                "no extraction in the pass context; run ExtractionPass first")
        return self.extractor

    def channels(self) -> Dict[str, List[Net]]:
        """``channel → rail nets`` map, cached per topology version."""
        version = self.netlist.topology_version
        if self._channels_cache is None or self._channels_version != version:
            self._channels_cache = self.netlist.channels()
            self._channels_version = version
        return self._channels_cache

    def rail_cap_ff(self, net: Net) -> float:
        """Capacitance of one rail under the context's criterion convention."""
        if self.use_load_cap:
            return self.netlist.load_cap_ff(net.name)
        return net.routing_cap_ff

    def channel_dissymmetry(self, rails: Sequence[Net]) -> float:
        return channel_dissymmetry([self.rail_cap_ff(net) for net in rails])

    def evaluate(self) -> CriterionReport:
        """Re-evaluate the criterion over the whole design (vectorized)."""
        self.criterion = evaluate_netlist_channels(
            self.netlist, use_load_cap=self.use_load_cap,
            design_name=self.design_name)
        return self.criterion


class HardeningPass:
    """Base class of all passes (duck-typed: only ``name``/``run`` matter)."""

    name = "pass"

    def run(self, context: PassContext) -> PassOutcome:  # pragma: no cover
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ------------------------------------------------------------ base flow passes
@dataclass
class FlatPlacementPass(HardeningPass):
    """The reference flow's placement step (AES_v2): one global placement."""

    utilization: float = 0.85
    effort: float = 1.0
    schedule: Optional[AnnealingSchedule] = None
    security_weight: Optional[float] = None

    name = "place-flat"
    flow = "flat"
    suffix = "flat"

    def run(self, context: PassContext) -> PassOutcome:
        placer = FlatPlacer(seed=context.seed, utilization=self.utilization,
                            effort=self.effort,
                            security_weight=self.security_weight)
        if self.schedule is not None:
            placer.schedule = self.schedule
        context.placement = placer.place(context.netlist, context.technology)
        context.flow = self.flow
        context.extractor = None
        return PassOutcome(self.name, changed=True,
                           touched_cells=len(context.placement),
                           details=f"flat placement, seed={context.seed}")


@dataclass
class HierarchicalPlacementPass(HardeningPass):
    """The proposed flow's placement step (AES_v1): per-block fences."""

    block_utilization: float = 0.78
    channel_margin_um: float = 3.0
    effort: float = 1.0
    schedule: Optional[AnnealingSchedule] = None
    block_order: Optional[Sequence[str]] = None
    floorplan: Optional[Floorplan] = None
    security_weight: Optional[float] = None

    name = "place-hierarchical"
    flow = "hierarchical"
    suffix = "hier"

    def run(self, context: PassContext) -> PassOutcome:
        placer = HierarchicalPlacer(
            seed=context.seed, block_utilization=self.block_utilization,
            channel_margin_um=self.channel_margin_um, effort=self.effort,
            block_order=self.block_order,
            security_weight=self.security_weight,
        )
        if self.schedule is not None:
            placer.schedule = self.schedule
        # The repair loop (FenceResizePass) rewrites fence regions of the
        # placed floorplan; work on a copy so a caller-supplied floorplan is
        # never mutated and a reused pipeline never compounds shrinks.
        floorplan = (Floorplan(die=self.floorplan.die,
                               regions=dict(self.floorplan.regions))
                     if self.floorplan is not None else None)
        context.placement = placer.place(context.netlist, context.technology,
                                         floorplan=floorplan)
        context.flow = self.flow
        context.extractor = None
        return PassOutcome(self.name, changed=True,
                           touched_cells=len(context.placement),
                           details=f"hierarchical placement, seed={context.seed}")


@dataclass
class ExtractionPass(HardeningPass):
    """Route-estimate and extract the whole design; prime the incremental
    extractor and the first criterion report."""

    annotate: bool = True

    name = "extract"

    def run(self, context: PassContext) -> PassOutcome:
        placement = context.require_placement()
        context.extractor = IncrementalExtractor(
            context.netlist, placement, technology=context.technology,
            annotate=self.annotate)
        context.evaluate()
        return PassOutcome(
            self.name, changed=True,
            touched_nets=len(context.extractor.extraction),
            details=f"full extraction of {len(context.extractor.extraction)} nets")


# ---------------------------------------------------------------- repair passes
@dataclass
class DummyLoadPass(HardeningPass):
    """Equalize the rail load capacitances of every channel above the bound.

    For each violating channel the heaviest rail sets the target; every
    lighter rail receives a dummy load making up the deficit (the classical
    trim-capacitance countermeasure: unswitched gate inputs or metal fill on
    the lighter rail).  Exact equalization drives the channel's ``d_A`` to
    zero; ``max_added_ff_per_net`` caps the per-net insertion so an absurd
    imbalance surfaces as a residual violation instead of a silent huge
    capacitor.  A zero-capacitance rail opposite a loaded one (infinite
    ``d_A``) is repaired like any other deficit.
    """

    bound: float = 0.15
    max_channels: Optional[int] = None
    max_added_ff_per_net: Optional[float] = None

    name = "repair-dummy-load"

    def run(self, context: PassContext) -> PassOutcome:
        if not context.use_load_cap:
            raise HardeningError(
                "dummy loads act on the load capacitance; the context "
                "evaluates the criterion on routing capacitance only "
                "(use_load_cap=False)")
        report = context.criterion if context.criterion is not None \
            else context.evaluate()
        channels = context.channels()
        violations = report.channels_above(self.bound)
        if self.max_channels is not None:
            violations = violations[:self.max_channels]
        touched: Set[str] = set()
        added_ff = 0.0
        repaired = 0
        for entry in violations:
            rails = channels.get(entry.channel)
            if not rails or len(rails) < 2:
                continue
            loads = [context.rail_cap_ff(net) for net in rails]
            # Earlier repairs this run may already have fixed the channel.
            if channel_dissymmetry(loads) <= self.bound:
                continue
            target = max(loads)
            for net, load in zip(rails, loads):
                deficit = target - load
                if deficit <= 0.0:
                    continue
                if (self.max_added_ff_per_net is not None
                        and deficit > self.max_added_ff_per_net):
                    logger.warning(
                        "dummy load on %s capped at %.1f fF (%.1f fF needed "
                        "to equalize channel %s); residual dissymmetry will "
                        "surface as a violation", net.name,
                        self.max_added_ff_per_net, deficit, entry.channel)
                    deficit = self.max_added_ff_per_net
                context.netlist.add_dummy_load(net.name, deficit)
                touched.add(net.name)
                added_ff += deficit
            repaired += 1
        return PassOutcome(
            self.name, changed=bool(touched), touched_nets=len(touched),
            channels_repaired=repaired, dummy_cap_added_ff=added_ff,
            details=(f"equalized {repaired} channel(s), "
                     f"+{added_ff:.1f} fF dummy load"))


@dataclass
class RepositionPass(HardeningPass):
    """Criterion-guided cell re-placement within the placement fences.

    For each channel above the bound, the pass walks the pin cells of the
    channel's *heaviest* rail and moves each one to the centroid of the
    rail's other pins (clamped to the cell's allowed rectangle, so
    hierarchical fences are honoured).  A move is kept only when the
    channel's dissymmetry actually improves — measured through an
    incremental re-extraction of exactly the nets the moved cell pins — and
    reverted (with a second incremental update) otherwise.

    With ``security_weight > 0`` the pass additionally runs a *targeted
    anneal*: the rail pin cells of every violating channel are re-optimized
    by the vectorized annealing engine under the multi-objective
    HPWL + dissymmetry cost while every other cell is pinned in place.  The
    annealed positions are kept only when the worst targeted channel
    improves, so the pass stays monotone like the centroid moves.
    """

    bound: float = 0.15
    max_channels: int = 16
    min_improvement: float = 1e-9
    security_weight: float = 0.0
    anneal_moves_per_cell: float = 40.0

    name = "repair-reposition"

    def run(self, context: PassContext) -> PassOutcome:
        placement = context.require_placement()
        extractor = context.require_extractor()
        report = context.criterion if context.criterion is not None \
            else context.evaluate()
        channels = context.channels()
        moved_cells: Set[str] = set()
        touched_nets: Set[str] = set()
        repaired = 0
        for entry in report.channels_above(self.bound)[:self.max_channels]:
            rails = channels.get(entry.channel)
            if not rails or len(rails) < 2:
                continue
            current = context.channel_dissymmetry(rails)
            if current <= self.bound:
                continue
            improved_channel = False
            heavy = max(rails, key=context.rail_cap_ff)
            pin_cells = [pin.instance for pin in heavy.connections()
                         if pin.instance in placement.cells]
            for cell_name in pin_cells:
                cell = placement.cells[cell_name]
                if cell.fixed:
                    continue
                others = [placement.cells[name] for name in pin_cells
                          if name != cell_name]
                if not others:
                    continue
                target_x = sum(c.x_um for c in others) / len(others)
                target_y = sum(c.y_um for c in others) / len(others)
                rect = placement.floorplan.placement_rect(cell.block)
                old_position = (cell.x_um, cell.y_um)
                cell.x_um, cell.y_um = rect.clamp(target_x, target_y)
                if (cell.x_um, cell.y_um) == old_position:
                    continue
                updated = extractor.update_cells([cell_name])
                candidate = context.channel_dissymmetry(rails)
                if candidate < current - self.min_improvement:
                    current = candidate
                    moved_cells.add(cell_name)
                    touched_nets.update(updated)
                    improved_channel = True
                    if current <= self.bound:
                        break
                else:
                    cell.x_um, cell.y_um = old_position
                    extractor.update_cells([cell_name])
            if improved_channel:
                repaired += 1
        annealed = 0
        if self.security_weight > 0:
            annealed_cells, annealed_nets = self._targeted_anneal(context)
            moved_cells.update(annealed_cells)
            touched_nets.update(annealed_nets)
            annealed = len(annealed_cells)
        return PassOutcome(
            self.name, changed=bool(moved_cells),
            touched_nets=len(touched_nets), touched_cells=len(moved_cells),
            channels_repaired=repaired,
            details=(f"moved {len(moved_cells)} cell(s) across "
                     f"{repaired} channel(s)"
                     + (f", {annealed} by targeted anneal"
                        if self.security_weight > 0 else "")))

    def _targeted_anneal(self, context: PassContext) -> Tuple[Set[str], Set[str]]:
        """Security-weighted anneal of the violating channels' pin cells.

        Every cell outside the target set is temporarily marked fixed, so
        the vectorized engine only perturbs the cells whose positions set
        the leaky rails' capacitances.  Kept only if the worst targeted
        channel strictly improves.
        """
        import numpy as np

        from ..pnr.anneal import VectorPlacementEngine

        placement = context.require_placement()
        extractor = context.require_extractor()
        report = context.criterion if context.criterion is not None \
            else context.evaluate()
        channels = context.channels()
        targets: List[Sequence[Net]] = []
        target_cells: Set[str] = set()
        for entry in report.channels_above(self.bound)[:self.max_channels]:
            rails = channels.get(entry.channel)
            if not rails or len(rails) < 2:
                continue
            if context.channel_dissymmetry(rails) <= self.bound:
                continue
            targets.append(rails)
            for net in rails:
                for pin in net.connections():
                    if pin.instance in placement.cells:
                        target_cells.add(pin.instance)
        movable = [name for name in sorted(target_cells)
                   if not placement.cells[name].fixed]
        if not targets or not movable:
            return set(), set()

        before = max(context.channel_dissymmetry(rails) for rails in targets)
        snapshot = {name: (placement.cells[name].x_um,
                           placement.cells[name].y_um) for name in movable}
        pinned = [cell for name, cell in placement.cells.items()
                  if name not in target_cells and not cell.fixed]
        for cell in pinned:
            cell.fixed = True
        try:
            schedule = AnnealingSchedule(
                moves_per_cell=self.anneal_moves_per_cell,
                temperature_steps=10,
                security_weight=self.security_weight,
            )
            # Refinement only: legalization would reflow *pinned* rows, so
            # the targeted anneal perturbs just the selected pin cells.
            engine = VectorPlacementEngine(
                context.netlist, placement.cells, placement.floorplan,
                schedule=schedule, technology=context.technology,
                rng=np.random.default_rng(context.rng.getrandbits(64)))
            if engine.conn.n_nets and engine.movable_ids.size:
                engine.refine()
                engine.writeback()
        finally:
            for cell in pinned:
                cell.fixed = False
        moved = {name for name, (x, y) in snapshot.items()
                 if (placement.cells[name].x_um,
                     placement.cells[name].y_um) != (x, y)}
        if not moved:
            return set(), set()
        touched = set(extractor.update_cells(sorted(moved)))
        after = max(context.channel_dissymmetry(rails) for rails in targets)
        if after < before - self.min_improvement:
            return moved, touched
        for name in moved:
            placement.cells[name].x_um, placement.cells[name].y_um = \
                snapshot[name]
        extractor.update_cells(sorted(moved))
        return set(), set()


@dataclass
class FenceResizePass(HardeningPass):
    """Shrink the floorplan fences of blocks that own leaky channels.

    "Dividing the design into small blocks and constraining their relative
    placement ... limits net length and dispersion" — this pass applies the
    same lever *selectively*: every block owning a channel above the bound
    has its fence shrunk around its centre by ``shrink`` (in area), its cells
    scaled inward, and the block's nets re-measured incrementally.  Each
    block is resized at most once per pipeline run (``scratch``-tracked), and
    never beyond ``max_utilization``.  Designs placed by the flat flow have
    no fences, so the pass is a structural no-op there.
    """

    bound: float = 0.15
    shrink: float = 0.8
    max_utilization: float = 0.95

    name = "repair-fence-resize"

    def run(self, context: PassContext) -> PassOutcome:
        placement = context.require_placement()
        extractor = context.require_extractor()
        floorplan = placement.floorplan
        if not floorplan.regions:
            return PassOutcome(self.name, changed=False,
                               details="no fences (flat floorplan)")
        report = context.criterion if context.criterion is not None \
            else context.evaluate()
        resized: Set[str] = context.scratch.setdefault("fences-resized", set())
        blocks = []
        for entry in report.channels_above(self.bound):
            block = entry.block
            if block and block in floorplan.regions and block not in resized \
                    and block not in blocks:
                blocks.append(block)
        touched_cells: Set[str] = set()
        touched_nets: Set[str] = set()
        shrunk_blocks = []
        for block in blocks:
            region = floorplan.regions[block]
            cells = [cell for cell in placement.cells.values()
                     if cell.block == block]
            if not cells:
                continue
            if any(cell.fixed for cell in cells):
                # Shrinking would have to relocate a cell the placement
                # machinery guarantees never moves; leave the fence alone.
                continue
            cell_area = sum(cell.area_um2 for cell in cells)
            scale = math.sqrt(self.shrink)
            new_rect_area = region.rect.area_um2 * self.shrink
            if cell_area / new_rect_area > self.max_utilization:
                continue
            cx, cy = region.rect.center
            new_rect = Rect(
                cx - region.rect.width_um * scale / 2.0,
                cy - region.rect.height_um * scale / 2.0,
                region.rect.width_um * scale,
                region.rect.height_um * scale,
            )
            for cell in cells:
                cell.x_um = cx + (cell.x_um - cx) * scale
                cell.y_um = cy + (cell.y_um - cy) * scale
                cell.x_um, cell.y_um = new_rect.clamp(cell.x_um, cell.y_um)
                touched_cells.add(cell.name)
            floorplan.regions[block] = Region(block=block, rect=new_rect)
            resized.add(block)
            shrunk_blocks.append(block)
        if touched_cells:
            touched_nets = extractor.update_cells(sorted(touched_cells))
        return PassOutcome(
            self.name, changed=bool(shrunk_blocks),
            touched_nets=len(touched_nets), touched_cells=len(touched_cells),
            channels_repaired=len(shrunk_blocks),
            details=(f"shrunk fences of {shrunk_blocks}"
                     if shrunk_blocks else "no resizable fences"))
