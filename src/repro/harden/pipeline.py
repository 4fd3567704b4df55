"""The hardening pass manager: pipelines, the repair loop and provenance.

A :class:`PassPipeline` is a list of *base* passes (placement, extraction)
plus a list of *repair* passes run in a closed loop until every channel of
the design satisfies ``d_A ≤ bound`` (or the loop converges / hits its
iteration budget).  The classic entry points of :mod:`repro.pnr.flows` are
one-line configurations:

* :func:`flat_pipeline` — ``[FlatPlacementPass, ExtractionPass]``;
* :func:`hierarchical_pipeline` — ``[HierarchicalPlacementPass,
  ExtractionPass]``;
* :func:`hardening_pipeline` — either base flow followed by the repair loop
  (fence resize → criterion-guided reposition → dummy-load equalization).

Every pass execution is recorded as a :class:`PipelineRecord` (criterion
before/after, nets re-extracted incrementally vs full, dummy capacitance
added), so a :class:`HardeningResult` carries the complete provenance of how
a design was driven below the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from ..circuits.netlist import Netlist
from ..core.criterion import CriterionReport
from ..electrical.technology import HCMOS9_LIKE, Technology
from ..obs.telemetry import current
from ..pnr.flows import PlacedDesign
from ..pnr.floorplan import Floorplan
from ..pnr.placement import AnnealingSchedule
from .passes import (
    DummyLoadPass,
    ExtractionPass,
    FenceResizePass,
    FlatPlacementPass,
    HardeningError,
    HardeningPass,
    HierarchicalPlacementPass,
    PassContext,
    PassOutcome,
    RepositionPass,
)


@dataclass
class PipelineRecord:
    """Provenance of one pass execution inside a pipeline run."""

    stage: str
    iteration: int
    pass_name: str
    changed: bool
    touched_nets: int
    touched_cells: int
    dummy_cap_added_ff: float
    nets_reextracted: int
    full_extractions: int
    max_dissymmetry_after: float
    violations_after: int
    duration_s: float
    details: str = ""

    @property
    def incremental(self) -> bool:
        """True when the pass re-measured nets without a full extraction."""
        return self.full_extractions == 0 and self.nets_reextracted > 0


@dataclass
class HardeningResult:
    """Final outcome of a pipeline run, with full per-pass provenance."""

    design: PlacedDesign
    criterion: CriterionReport
    records: List[PipelineRecord] = field(default_factory=list)
    bound: Optional[float] = None
    repair_iterations: int = 0

    @property
    def max_dissymmetry(self) -> float:
        return self.criterion.max_dissymmetry

    @property
    def passed(self) -> bool:
        """True when a bound was set and every channel satisfies it."""
        return (self.bound is not None
                and self.criterion.meets_bound(self.bound))

    @property
    def netlist(self) -> Netlist:
        return self.design.netlist

    @property
    def changed(self) -> bool:
        """True when any repair pass modified the design."""
        return any(r.changed for r in self.records if r.stage == "repair")

    @property
    def dummy_cap_added_ff(self) -> float:
        return sum(r.dummy_cap_added_ff for r in self.records)

    @property
    def nets_reextracted(self) -> int:
        return sum(r.nets_reextracted for r in self.records
                   if r.stage == "repair")

    def summary(self) -> str:
        bound_text = (f" (bound {self.bound:g}: "
                      f"{'PASS' if self.passed else 'FAIL'})"
                      if self.bound is not None else "")
        return (
            f"{self.design.name} [{self.design.flow}]: "
            f"max dA = {self.max_dissymmetry:.4f} over "
            f"{len(self.criterion)} channels after "
            f"{self.repair_iterations} repair iteration(s), "
            f"+{self.dummy_cap_added_ff:.1f} fF dummy load{bound_text}"
        )

    def provenance_table(self) -> str:
        """Per-pass table of what the pipeline did (the audit trail)."""
        header = (f"{'stage':<7s} {'it':>3s} {'pass':<22s} {'chg':>4s} "
                  f"{'nets':>5s} {'cells':>6s} {'re-ext':>7s} "
                  f"{'+fF':>8s} {'max dA':>9s} {'viol':>5s} {'sec':>7s}")
        lines = [header, "-" * len(header)]
        for r in self.records:
            lines.append(
                f"{r.stage:<7s} {r.iteration:>3d} {r.pass_name:<22s} "
                f"{'yes' if r.changed else 'no':>4s} {r.touched_nets:>5d} "
                f"{r.touched_cells:>6d} "
                f"{r.nets_reextracted:>7d} {r.dummy_cap_added_ff:>8.1f} "
                f"{r.max_dissymmetry_after:>9.4f} {r.violations_after:>5d} "
                f"{r.duration_s:>7.3f}"
            )
        return "\n".join(lines)


class PassPipeline:
    """Base passes plus a closed ``repair-until(d_A ≤ bound)`` loop.

    Parameters
    ----------
    base:
        Passes establishing the design state (placement, extraction).  They
        run exactly once, in order.
    repair:
        Countermeasure passes run in a loop (each iteration runs every
        repair pass once, in order, re-evaluating the criterion after each)
        until the bound is met, no pass changes anything (convergence — in
        particular, an already-clean design is a provable no-op), or
        ``max_repair_iterations`` is reached.
    bound:
        The criterion bound of the repair loop; ``None`` disables repair.
    """

    def __init__(self, base: Sequence[HardeningPass], *,
                 repair: Sequence[HardeningPass] = (),
                 bound: Optional[float] = None,
                 max_repair_iterations: int = 5,
                 use_load_cap: bool = True,
                 name: str = "pipeline"):
        if bound is None and repair:
            raise HardeningError("repair passes need a criterion bound")
        self.base = list(base)
        self.repair = list(repair)
        self.bound = bound
        self.max_repair_iterations = max_repair_iterations
        self.use_load_cap = use_load_cap
        self.name = name

    # ----------------------------------------------------------------- hooks
    def _flow_label(self) -> tuple:
        """(flow, design-name suffix) advertised by the placement pass."""
        for step in self.base:
            flow = getattr(step, "flow", None)
            if flow:
                return flow, getattr(step, "suffix", flow)
        return "custom", "custom"

    def _record(self, context: PassContext, stage: str, iteration: int,
                outcome: PassOutcome, reextracted: int, fulls: int,
                duration: float) -> PipelineRecord:
        report = context.criterion
        return PipelineRecord(
            stage=stage,
            iteration=iteration,
            pass_name=outcome.pass_name,
            changed=outcome.changed,
            touched_nets=outcome.touched_nets,
            touched_cells=outcome.touched_cells,
            dummy_cap_added_ff=outcome.dummy_cap_added_ff,
            nets_reextracted=reextracted,
            full_extractions=fulls,
            max_dissymmetry_after=(report.max_dissymmetry
                                   if report is not None else float("nan")),
            violations_after=(report.violation_count(self.bound)
                              if report is not None and self.bound is not None
                              else 0),
            duration_s=duration,
            details=outcome.details,
        )

    def _run_pass(self, context: PassContext, step: HardeningPass,
                  stage: str, iteration: int,
                  records: List[PipelineRecord]) -> PassOutcome:
        extractor = context.extractor
        nets_before = extractor.nets_reextracted if extractor else 0
        fulls_before = extractor.full_extractions if extractor else 0
        # The span is the pass's one clock: it measures its duration even
        # under the disabled no-op telemetry, so PipelineRecord.duration_s
        # populates identically with telemetry on or off.
        with current().span("harden.pass", name=step.name, stage=stage,
                            iteration=iteration) as span:
            outcome = step.run(context)
            if stage == "repair" and outcome.changed:
                context.evaluate()
        duration = span.duration_s
        extractor = context.extractor
        reextracted = ((extractor.nets_reextracted - nets_before)
                       if extractor else 0)
        fulls = ((extractor.full_extractions - fulls_before)
                 if extractor else 0)
        records.append(self._record(context, stage, iteration, outcome,
                                    max(reextracted, 0), max(fulls, 0),
                                    duration))
        return outcome

    # ------------------------------------------------------------------- run
    def run(self, netlist: Netlist, *, seed: int = 0,
            technology: Technology = HCMOS9_LIKE,
            design_name: Optional[str] = None) -> HardeningResult:
        """Run the pipeline on a netlist and return the hardened design."""
        flow, suffix = self._flow_label()
        context = PassContext(
            netlist=netlist,
            technology=technology,
            seed=seed,
            design_name=design_name or f"{netlist.name}_{suffix}",
            use_load_cap=self.use_load_cap,
            bound=self.bound,
        )
        telemetry = current()
        records: List[PipelineRecord] = []
        with telemetry.span("harden.pipeline", name=self.name,
                            design=context.design_name):
            for step in self.base:
                self._run_pass(context, step, "base", 0, records)

            iterations = 0
            if self.repair and self.bound is not None:
                if context.criterion is None:
                    context.evaluate()
                for iteration in range(1, self.max_repair_iterations + 1):
                    if context.criterion.meets_bound(self.bound):
                        break
                    iterations = iteration
                    telemetry.count("repair_iterations")
                    any_change = False
                    for step in self.repair:
                        outcome = self._run_pass(context, step, "repair",
                                                 iteration, records)
                        any_change = any_change or outcome.changed
                        if context.criterion.meets_bound(self.bound):
                            break
                    if not any_change:
                        # Converged: nothing left for the passes to improve.
                        break

        extractor = context.require_extractor()
        if context.criterion is None:
            context.evaluate()
        design = PlacedDesign(
            name=context.design_name,
            flow=context.flow or flow,
            seed=seed,
            netlist=netlist,
            placement=context.require_placement(),
            routing=extractor.routing,
            extraction=extractor.extraction,
        )
        return HardeningResult(
            design=design,
            criterion=context.criterion,
            records=records,
            bound=self.bound,
            repair_iterations=iterations,
        )


# -------------------------------------------------------------------- factories
def flat_pipeline(*, utilization: float = 0.85, effort: float = 1.0,
                  schedule: Optional[AnnealingSchedule] = None,
                  security_weight: Optional[float] = None) -> PassPipeline:
    """The classic flat (reference) flow as a pass configuration."""
    return PassPipeline(
        [FlatPlacementPass(utilization=utilization, effort=effort,
                           schedule=schedule,
                           security_weight=security_weight),
         ExtractionPass()],
        name="flat",
    )


def hierarchical_pipeline(*, block_utilization: float = 0.78,
                          channel_margin_um: float = 3.0,
                          effort: float = 1.0,
                          schedule: Optional[AnnealingSchedule] = None,
                          block_order: Optional[Sequence[str]] = None,
                          floorplan: Optional[Floorplan] = None,
                          security_weight: Optional[float] = None) -> PassPipeline:
    """The classic hierarchical (constrained) flow as a pass configuration."""
    return PassPipeline(
        [HierarchicalPlacementPass(
            block_utilization=block_utilization,
            channel_margin_um=channel_margin_um, effort=effort,
            schedule=schedule, block_order=block_order, floorplan=floorplan,
            security_weight=security_weight),
         ExtractionPass()],
        name="hierarchical",
    )


#: Default repair-pass order: constrain geometry first (fences, then cell
#: moves — both free of area overhead beyond the already-placed design), and
#: close any residual imbalance with dummy loads (guaranteed convergence).
_DEFAULT_REPAIR = ("fence-resize", "reposition", "dummy-load")

_REPAIR_FACTORIES = {
    "fence-resize": lambda bound, security_weight: FenceResizePass(bound=bound),
    "reposition": lambda bound, security_weight: RepositionPass(
        bound=bound, security_weight=security_weight or 0.0),
    "dummy-load": lambda bound, security_weight: DummyLoadPass(bound=bound),
}


def _repair_passes(repair, bound: float,
                   security_weight: Optional[float] = None) -> List[HardeningPass]:
    passes: List[HardeningPass] = []
    for entry in repair:
        if isinstance(entry, str):
            try:
                passes.append(_REPAIR_FACTORIES[entry](bound, security_weight))
            except KeyError:
                raise HardeningError(
                    f"unknown repair pass {entry!r}; expected one of "
                    f"{sorted(_REPAIR_FACTORIES)}") from None
        else:
            passes.append(entry)
    return passes


def hardening_pipeline(base: Union[str, PassPipeline] = "hierarchical", *,
                       bound: float = 0.15,
                       repair: Sequence[Union[str, HardeningPass]] = _DEFAULT_REPAIR,
                       max_repair_iterations: int = 5,
                       effort: float = 1.0,
                       security_weight: Optional[float] = None,
                       **base_options) -> PassPipeline:
    """A full hardening pipeline: base flow plus the repair-until loop.

    ``base`` is ``"flat"``, ``"hierarchical"`` or an existing base
    :class:`PassPipeline` whose passes are reused; ``repair`` mixes the
    standard pass names (``"fence-resize"``, ``"reposition"``,
    ``"dummy-load"``) with ready-made pass instances.  ``base_options`` are
    forwarded to the base pipeline factory.  ``security_weight`` makes the
    base placement multi-objective (HPWL + rail dissymmetry) and arms the
    reposition pass's targeted anneal.
    """
    if isinstance(base, PassPipeline):
        base_passes = list(base.base)
        base_name = base.name
    elif base == "flat":
        base_passes = flat_pipeline(effort=effort,
                                    security_weight=security_weight,
                                    **base_options).base
        base_name = "flat"
    elif base == "hierarchical":
        base_passes = hierarchical_pipeline(effort=effort,
                                            security_weight=security_weight,
                                            **base_options).base
        base_name = "hierarchical"
    else:
        raise HardeningError(
            f"unknown base flow {base!r}; expected 'flat', 'hierarchical' "
            "or a PassPipeline")
    return PassPipeline(
        base_passes,
        repair=_repair_passes(repair, bound, security_weight),
        bound=bound,
        max_repair_iterations=max_repair_iterations,
        name=f"harden-{base_name}",
    )


def harden_design(netlist: Netlist, *, base: Union[str, PassPipeline] = "hierarchical",
                  bound: float = 0.15, seed: int = 0,
                  technology: Technology = HCMOS9_LIKE,
                  design_name: Optional[str] = None,
                  repair: Sequence[Union[str, HardeningPass]] = _DEFAULT_REPAIR,
                  max_repair_iterations: int = 5,
                  effort: float = 1.0,
                  security_weight: Optional[float] = None,
                  **base_options) -> HardeningResult:
    """One-call hardening: place, extract and repair until ``d_A ≤ bound``."""
    pipeline = hardening_pipeline(
        base, bound=bound, repair=repair,
        max_repair_iterations=max_repair_iterations, effort=effort,
        security_weight=security_weight,
        **base_options)
    return pipeline.run(netlist, seed=seed, technology=technology,
                        design_name=design_name)
