"""The benchmark's workloads: each drives the program through public calls.

Every workload is a closed loop with one client: :func:`harness.closed_loop`
starts the next operation when the previous one ends.  Each layer is timed
from outside, by a span the benchmark opens around the call into that layer;
under ``--trace 1`` the program's own ``campaign.*``, ``serve.*``,
``store.*`` and ``anneal.*`` spans and counters nest beneath those spans.

Why these workloads:

* ``design_flow`` holds nearly all of the netlist build, placement,
  hardening and DRC work and none of the trace, attack or service work.  It
  runs at the size ``python -m repro.drc --all`` checks (8-bit datapath,
  detail 0.3, effort 0.3): sign-off of the 32-bit reference design takes
  about 40 s, too long for a timed loop.
* ``attack_grid`` holds the trace generation, DPA/CPA and TVLA work of a
  serial in-memory campaign on the 32-bit reference AES, and no placement
  or service work: its designs are built in set-up.
* ``service_shm`` runs the same grid and trace budget through a 2-worker
  ``CampaignService`` that stays up for the whole run, streaming into a
  store in chunks of 200 rows, which fit one 8 MiB shared-memory slot,
  then reopens and queries the store.  It holds the ``serve`` and
  ``store`` work, and the streaming accumulators the scheduler applies.
* ``service_stream`` is ``service_shm`` at the README's
  ``chunk_size=4096``.  It is not in ``BENCHMARK.json``, which lists only
  workloads whose operations succeed: at this chunk size a chunk is
  pickled instead of shared, the scheduler kills a healthy worker as
  heartbeat-stale, and an operation either completes on requeued jobs or
  stalls until its deadline.  Run it by name to record the stall;
  ``perfbench/baseline/`` holds one traced run of each outcome.
"""

from __future__ import annotations

import importlib
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import Deadline, OpOutcome, OpRecord

#: End-to-end metrics every workload prints with ``--trace 0``: the median
#: set-up time, the mean wall time of an operation (failed ones included)
#: and the peak RSS of the benchmark process plus its largest program child.
END_TO_END = {
    "setup_s": "s",
    "op_s": "s",
    "peak_rss_mib": "MiB",
}

#: Per-layer metrics every workload prints with ``--trace 1``.  Times are
#: seconds per operation, counts are per operation.  A layer that a
#: workload does not call reads 0 there.  ``assess.tvla_s`` is the time of
#: the program's ``campaign.assess`` spans, which also synthesize the TVLA
#: acquisition's traces; that synthesis is not in ``asyncaes.generate_s``.
#: In the service workloads the scheduler applies TVLA chunks without a
#: span of its own, so that time is part of ``serve.parent_wait_s``.
DESIGN_LAYERS = ("asyncaes.build_s", "pnr.flat_flow_s", "harden.pipeline_s",
                 "pnr.extract_s", "core.criterion_s", "drc.netlist_s",
                 "drc.security_s", "drc.placement_s")
CAMPAIGN_LAYERS = ("asyncaes.generate_s", "core.attack_s", "assess.tvla_s",
                   "core.campaign_self_s")
SERVICE_LAYERS = ("core.stream_s", "store.spill_s", "serve.parent_wait_s",
                  "store.load_s", "store.query_s")
PER_LAYER = {
    **{name: "s" for name in DESIGN_LAYERS},
    "asyncaes.cells": "count",
    "harden.repair_iterations": "count",
    "harden.nets_reextracted": "count",
    "pnr.moves_proposed": "count",
    "drc.findings": "count",
    "harden.placed_max_dA": "d_A",
    "harden.dummy_cap_ff": "fF",
    **{name: "s" for name in CAMPAIGN_LAYERS},
    "core.traces": "count",
    "core.attacks": "count",
    "bench.self_s": "s",
    **{name: "s" for name in SERVICE_LAYERS},
    "serve.shm_share": "ratio",
    "serve.jobs": "count",
    "serve.jobs_requeued": "count",
    "serve.workers_timed_out": "count",
    "serve.workers_respawned": "count",
    "serve.useful_ratio": "ratio",
    "serve.heartbeat_age_max_s": "s",
    "serve.start_s": "s",
    "serve.shutdown_s": "s",
}

#: Times that are not a share of an operation's wall time.
RUN_LEVEL_TIMES = ("serve.heartbeat_age_max_s", "serve.start_s",
                   "serve.shutdown_s")

DRC_LAYERS = ("netlist", "security", "placement")

#: Attacks that must rank the true key byte first on the flat design.
CHECKED_ATTACKS = ("dpa", "cpa-bit")


#: Datapath widths and detail of the two design sizes.
FLOW_WORD_WIDTH = 8
GRID_WORD_WIDTH = 32
GRID_DETAIL = 0.15
#: The d_A bound of hardening and of the DRC (the paper's 0.15).
BOUND = 0.15
#: Placement seed of the campaign workloads' prebuilt designs.
DESIGN_SEED = 1
NOISE_SIGMA = 2e-5
SERVICE_WORKERS = 2
#: Rows per streamed chunk: the README's, and one whose rows of 5080
#: float64 samples (40,640 B) fit one 8 MiB shared-memory slot (206 would).
README_CHUNK_SIZE = 4096
SHM_CHUNK_SIZE = 200
#: Each operation's deadline; a stalled operation is ended and counted.
DEADLINES_S = {"design_flow": 60.0, "attack_grid": 90.0,
               "service_shm": 90.0, "service_stream": 120.0}


@dataclass(frozen=True)
class Sizes:
    """What the smoke tests shrink of one operation's work and set-up."""

    flow_detail: float = 0.3
    flow_effort: float = 0.3
    grid_effort: float = 0.8
    traces: int = 2000
    profile_traces: int = 1000
    setup_repeats: int = 2


#: Smallest sizes that still run every code path (the smoke tests).
TINY = replace(Sizes(), flow_detail=0.05, flow_effort=0.05, grid_effort=0.1,
               traces=600, profile_traces=600, setup_repeats=1)


#: Operation index whose seed draws the set-up's profiling acquisition.
PROFILE_INDEX = 1 << 20


def op_seed(seed: int, index: int) -> int:
    """The seed of operation ``index`` of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0]
               % (2 ** 31))


def _current():
    from repro.obs import current

    return current()


def _children_time(node, name: str) -> float:
    return sum(child.duration_s for child in node.children
               if child.name == name)


def _found_time(node, name: str) -> float:
    return sum(found.duration_s for found in node.find(name))


def _peak_rss_kib(pid: int) -> int:
    """High-water RSS of a live process, in KiB (0 once it is gone)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _measure_imports(root: Path, modules: Tuple[str, ...]) -> float:
    """Start a fresh interpreter that imports the layers the workload uses."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    # A blocking wait under a SIGALRM deadline: ``subprocess.run``'s own
    # timeout polls the child every 50 ms, which would quantize the time.
    t0 = time.perf_counter()
    with Deadline(60):
        subprocess.run([sys.executable, "-c",
                        "import " + ", ".join(modules)],
                       env=env, check=True)
    return time.perf_counter() - t0


class Workload:
    """One workload: set-up, one operation, recovery after a failure."""

    name = ""
    modules: Tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, sizes: Sizes, out_dir: Path):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.out_dir = out_dir
        self.timings: Dict[str, List[float]] = {}
        #: Peak RSS (KiB) of the largest program child: the service workers.
        self.child_peak_kib = 0

    def _time(self, name: str, seconds: float) -> None:
        self.timings.setdefault(name, []).append(seconds)

    @property
    def deadline_s(self) -> float:
        return DEADLINES_S[self.name]

    def setup(self) -> None:
        self._time("setup.imports_s", _measure_imports(self.root,
                                                       self.modules))
        for module in self.modules:
            importlib.import_module(module)

    def release(self) -> None:
        """Drop what the previous set-up built (called, untimed, before
        each set-up repetition)."""

    def operation(self, index: int) -> OpOutcome:
        raise NotImplementedError

    def recover(self, index: int) -> None:
        """Restore a clean state after operation ``index`` failed."""

    def teardown(self) -> None:
        pass

    def op_layers(self, node) -> Dict[str, float]:
        """Per-layer values of one traced operation span."""
        raise NotImplementedError

    def summary(self, records: List[OpRecord]) -> Dict[str, object]:
        """The headline figures of the run (recorded, not gated)."""
        return {}


def _timed(name: str, function, *args, **kwargs):
    """Call into a layer inside a span named after it."""
    with _current().span(name) as span:
        result = function(*args, **kwargs)
    return result, span.duration_s


class DesignFlow(Workload):
    """Build → place → harden → extract → criterion → sign-off, per seed."""

    name = "design_flow"
    modules = ("repro.asyncaes", "repro.pnr", "repro.harden", "repro.core",
               "repro.drc")

    def setup(self) -> None:
        super().setup()
        from repro.asyncaes import AesArchitecture

        self.architecture = AesArchitecture(
            word_width=FLOW_WORD_WIDTH,
            detail=self.sizes.flow_detail)

    def operation(self, index: int) -> OpOutcome:
        from repro.asyncaes import AesNetlistGenerator
        from repro.core import evaluate_netlist_channels
        from repro.drc import run_drc
        from repro.harden import harden_design
        from repro.pnr import extract_capacitances, run_flat_flow

        sizes = self.sizes
        seed = op_seed(self.seed, index)
        telemetry = _current()
        design_s = signoff_s = 0.0
        with telemetry.span("op", index=index, seed=seed):
            netlists = []
            for label in ("flat", "hardened"):
                netlist, seconds = _timed(
                    "asyncaes.build",
                    AesNetlistGenerator(self.architecture, name=label).build)
                netlists.append(netlist)
                design_s += seconds
            cells = sum(netlist.instance_count for netlist in netlists)
            flat, seconds = _timed("pnr.flat_flow", run_flat_flow,
                                   netlists[0], seed=seed,
                                   effort=sizes.flow_effort)
            design_s += seconds
            hardening, seconds = _timed(
                "harden.pipeline", harden_design, netlists[1],
                base="hierarchical", bound=BOUND, seed=seed,
                effort=sizes.flow_effort)
            design_s += seconds
            placed = (("flat", flat.netlist, flat.placement),
                      ("hardened", hardening.design.netlist,
                       hardening.design.placement))
            criteria = {}
            for label, netlist, placement in placed:
                _report, seconds = _timed("pnr.extract", extract_capacitances,
                                          netlist, placement)
                design_s += seconds
                criteria[label], seconds = _timed(
                    "core.criterion", evaluate_netlist_channels, netlist,
                    design_name=label)
                design_s += seconds
            findings = 0
            drc_errors = {}
            for label, netlist, placement in placed:
                for layer in DRC_LAYERS:
                    report, seconds = _timed(
                        f"drc.{layer}", run_drc, netlist, placement=placement,
                        layers=(layer,), cap_bound=BOUND,
                        subject=label)
                    signoff_s += seconds
                    findings += len(report.diagnostics)
                    errors = report.counts()["error"]
                    if errors:
                        drc_errors[f"{label}/{layer}"] = errors
            base = [record for record in hardening.records
                    if record.stage == "base"]
            placed_max = base[-1].max_dissymmetry_after
            # Recorded on the operation span under their metric names.
            for name, value in (
                    ("asyncaes.cells", cells),
                    ("drc.findings", findings),
                    ("harden.repair_iterations", hardening.repair_iterations),
                    ("harden.nets_reextracted", hardening.nets_reextracted),
                    ("harden.placed_max_dA", placed_max),
                    ("harden.dummy_cap_ff", hardening.dummy_cap_added_ff)):
                telemetry.count(name, value)
        flat_max = criteria["flat"].max_dissymmetry
        hardened_max = criteria["hardened"].max_dissymmetry
        errors = []
        if not hardening.passed:
            errors.append(f"hardened max d_A {hardening.max_dissymmetry:.4f} "
                          f"is above the bound {BOUND}")
        if drc_errors:
            errors.append(f"error-severity DRC findings: {drc_errors}")
        if not flat_max > BOUND:
            errors.append(f"flat max d_A {flat_max:.4f} is not above the "
                          f"bound {BOUND}")
        return OpOutcome(errors=errors, stats={
            "seed": seed,
            "design_s": design_s,
            "signoff_s": signoff_s,
            "cells": cells,
            "flat_max_dA": flat_max,
            "placed_max_dA": placed_max,
            "hardened_max_dA": hardened_max,
            "dummy_cap_ff": hardening.dummy_cap_added_ff,
            "repair_iterations": hardening.repair_iterations,
            "nets_reextracted": hardening.nets_reextracted,
            "drc_findings": findings,
        })

    def op_layers(self, node) -> Dict[str, float]:
        values = {name: _children_time(node, name[:-2])
                  for name in DESIGN_LAYERS}
        values.update(node.counters)
        values["pnr.moves_proposed"] = node.total("moves_proposed")
        values["bench.self_s"] = node.duration_s - sum(
            child.duration_s for child in node.children)
        return values

    def summary(self, records: List[OpRecord]) -> Dict[str, object]:
        done = [record.stats for record in records if record.stats]
        if not done:
            return {}
        return {name: statistics.median(stats[name] for stats in done)
                for name in ("design_s", "signoff_s", "placed_max_dA",
                             "dummy_cap_ff")}


class _CampaignWorkload(Workload):
    """Shared set-up of the two campaign workloads: the prebuilt designs."""

    modules = ("repro.asyncaes", "repro.pnr", "repro.harden", "repro.core",
               "repro.electrical")

    def setup(self) -> None:
        super().setup()
        self.campaign, self.setup_stats = self._build_campaign()

    def release(self) -> None:
        self.campaign = None

    def _build_campaign(self):
        from repro.asyncaes import AesArchitecture, AesNetlistGenerator
        from repro.core import (AesSboxSelection, AttackCampaign,
                                evaluate_netlist_channels)
        from repro.crypto import random_key
        from repro.electrical import GaussianNoise
        from repro.harden import harden_design
        from repro.pnr import run_flat_flow, run_hierarchical_flow

        sizes = self.sizes
        seed = self.seed
        architecture = AesArchitecture(word_width=GRID_WORD_WIDTH,
                                       detail=GRID_DETAIL)
        key = random_key(16, seed=seed)
        # The designs under attack are fixed, like a dataset: the workload
        # seed draws the key, the plaintexts and the noise.  With designs
        # drawn per seed, how many rows disclose early — and so how many
        # MTD prefixes run — would change the work of an operation.
        placement = DESIGN_SEED
        flat = AesNetlistGenerator(architecture, name="flat").build()
        run_flat_flow(flat, seed=placement, effort=sizes.grid_effort)
        hier = AesNetlistGenerator(architecture, name="hier").build()
        run_hierarchical_flow(hier, seed=placement, effort=sizes.grid_effort)
        hardened = harden_design(
            AesNetlistGenerator(architecture, name="hardened").build(),
            base="hierarchical", bound=BOUND, seed=placement,
            effort=sizes.grid_effort)
        netlists = {"flat": flat, "hier": hier, "hardened": hardened.netlist}
        stats = {f"{label}_max_dA":
                 evaluate_netlist_channels(netlist).max_dissymmetry
                 for label, netlist in netlists.items()}
        # The attacked S-box output bit is the one that leaks most on the
        # flat design, measured with a known-key specific t-test over all
        # 128 bits on a noisy acquisition of its own.  Ranking the bits of
        # byte 0 by one channel's extracted d_A, as the DPA example does,
        # picks a bit the attacks cannot recover on some placements; so
        # does the t-test on noiseless traces, where a leak too small to
        # attack already saturates |t|.
        profile_seed = op_seed(seed, PROFILE_INDEX)
        profile = AttackCampaign(key, architecture=architecture)
        profile.add_design("flat", flat)
        profile.add_noise("gaussian", lambda: GaussianNoise(
            NOISE_SIGMA, seed=profile_seed))
        candidates = [AesSboxSelection(byte_index=byte, bit_index=bit)
                      for byte in range(16) for bit in range(8)]
        for candidate in candidates:
            profile.add_assessment("tvla-specific", selection=candidate)
        peaks = [row.peak for row in profile.run(
            sizes.profile_traces, seed=profile_seed).assessments]
        best = max(range(len(candidates)), key=peaks.__getitem__)
        selection = candidates[best]
        campaign = AttackCampaign(key, architecture=architecture,
                                  mtd_start=100, mtd_step=100)
        for label, netlist in netlists.items():
            campaign.add_design(label, netlist)
        campaign.add_selection(selection)
        campaign.add_attack("dpa")
        campaign.add_attack("cpa", model="bit")
        campaign.add_attack("cpa", model="hw")
        campaign.add_assessment("tvla")
        campaign.add_noise("noiseless")
        campaign.add_noise(
            "gaussian", lambda: GaussianNoise(NOISE_SIGMA, seed=seed + 2))
        stats["selection"] = selection.name
        stats["selection_max_t"] = peaks[best]
        stats["hardened_dummy_cap_ff"] = hardened.dummy_cap_added_ff
        return campaign, stats

    @staticmethod
    def _check(result) -> Tuple[List[str], int, Dict[str, object]]:
        # CPA on the Hamming-weight model is recorded, not checked: its
        # model assumes all eight bits leak alike, which a placement whose
        # leak is dominated by one rail pair does not honour.
        errors = [f"{row.attack}/{row.noise} ranks the true key byte "
                  f"{row.rank_of_correct} on the flat design"
                  for row in result.rows
                  if row.design == "flat" and row.attack in CHECKED_ATTACKS
                  and row.rank_of_correct != 1]
        if not result.rows:
            errors.append("the campaign returned no rows")
        traces = (sum(row.trace_count for row in result.rows
                      if row.attack == result.rows[0].attack)
                  + sum(row.trace_count for row in result.assessments))
        stats = {
            "rows": [[row.design, row.attack, row.noise,
                      row.rank_of_correct, row.disclosure]
                     for row in result.rows],
            "tvla": [[row.design, row.noise, row.peak, row.flagged]
                     for row in result.assessments],
        }
        return errors, traces, stats

    def summary(self, records: List[OpRecord]) -> Dict[str, object]:
        wall = sum(record.wall_s for record in records)
        work = sum(record.work for record in records if record.ok)
        return {"traces_per_s": work / wall if wall > 0 else 0.0,
                "setup": self.setup_stats}


class AttackGrid(_CampaignWorkload):
    """One serial in-memory campaign over the prebuilt designs."""

    name = "attack_grid"

    def operation(self, index: int) -> OpOutcome:
        seed = op_seed(self.seed, index)
        with _current().span("op", index=index, seed=seed):
            result, _seconds = _timed("core.campaign", self.campaign.run,
                                      self.sizes.traces, seed=seed)
        errors, traces, stats = self._check(result)
        stats["seed"] = seed
        return OpOutcome(errors=errors, work=traces, stats=stats)

    def op_layers(self, node) -> Dict[str, float]:
        campaign = _children_time(node, "core.campaign")
        generate = _found_time(node, "campaign.generate")
        attack = _found_time(node, "campaign.attack")
        assess = _found_time(node, "campaign.assess")
        return {
            "asyncaes.generate_s": generate,
            "core.attack_s": attack,
            "assess.tvla_s": assess,
            "core.campaign_self_s": campaign - generate - attack - assess,
            "core.traces": node.total("traces"),
            "core.attacks": node.total("attacks"),
            "bench.self_s": node.duration_s - campaign,
        }


class ServiceShm(_CampaignWorkload):
    """The grid streamed through a persistent 2-worker service into a store,
    then reopened and queried."""

    name = "service_shm"
    modules = _CampaignWorkload.modules + ("repro.serve", "repro.store")
    chunk_size = SHM_CHUNK_SIZE

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.service = None

    def setup(self) -> None:
        # Each set-up repetition starts a service; the last one stays up for
        # the whole run.  Shutdowns are timed as serve.shutdown_s.
        super().setup()
        self._start_service()

    def release(self) -> None:
        self._stop_service()
        super().release()

    def _start_service(self) -> None:
        from repro.serve import CampaignService, ServiceConfig

        service = CampaignService(ServiceConfig(workers=SERVICE_WORKERS))
        service.register("grid", self.campaign)
        with _current().span("serve.start") as span:
            service.start()
        self._time("serve.start_s", span.duration_s)
        self.service = service

    def _stop_service(self, *, kill: bool = False) -> None:
        if self.service is None:
            return
        self.child_peak_kib = max([self.child_peak_kib]
                                  + [_peak_rss_kib(pid) for pid in
                                     self.service.worker_pids()])
        with _current().span("serve.shutdown") as span:
            if kill:
                for pid in self.service.worker_pids():
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            self.service.shutdown()
        self._time("serve.shutdown_s", span.duration_s)
        self.service = None

    def _store_path(self, index: int) -> Path:
        return self.out_dir / f"store-{self.seed}-{os.getpid()}-{index}"

    def operation(self, index: int) -> OpOutcome:
        from repro.store import (load_campaign_result, mtd_percentiles,
                                 pareto_front, verdict_pivot)

        seed = op_seed(self.seed, index)
        store = self._store_path(index)
        shutil.rmtree(store, ignore_errors=True)
        with _current().span("op", index=index, seed=seed):
            result, _seconds = _timed(
                "serve.run", self.service.run, "grid",
                trace_count=self.sizes.traces, seed=seed, streaming=True,
                chunk_size=self.chunk_size, store=str(store))
            loaded, _seconds = _timed("store.load", load_campaign_result,
                                      store)

            def query():
                frame = loaded.frame()
                return (mtd_percentiles(frame, by=("design",)),
                        verdict_pivot(frame),
                        pareto_front(frame, maximize=("rank_of_correct",),
                                     minimize=("discrimination",)))

            _queries, _seconds = _timed("store.query", query)
        shutil.rmtree(store, ignore_errors=True)
        errors, traces, stats = self._check(result)
        if (loaded.table() != result.table()
                or loaded.assessment_table() != result.assessment_table()):
            errors.append("the reopened store's tables differ from the "
                          "returned ones")
        stats["seed"] = seed
        return OpOutcome(errors=errors, work=traces, stats=stats)

    def recover(self, index: int) -> None:
        """After a stall: kill the workers, unlink their shared memory and
        start a fresh pool, so the next operation starts clean."""
        self._stop_service(kill=True)
        shutil.rmtree(self._store_path(index), ignore_errors=True)
        self._start_service()

    def teardown(self) -> None:
        self._stop_service()

    def summary(self, records: List[OpRecord]) -> Dict[str, object]:
        return {**super().summary(records), "chunk_size": self.chunk_size}

    def op_layers(self, node) -> Dict[str, float]:
        run = _children_time(node, "serve.run")
        stream = _found_time(node, "serve.scenario")
        spill = sum(_found_time(node, name) for name in
                    ("store.write_shard", "store.merge", "store.finalize"))
        shm = node.total("serve.shm_bytes")
        pickled = node.total("serve.pickle_payload_bytes")
        jobs = node.total("serve.jobs")
        requeued = node.total("serve.jobs_requeued")
        ages = [found.gauges.get("serve.heartbeat_age_s", 0.0)
                for _depth, found in node.walk()]
        return {
            "core.stream_s": stream,
            "store.spill_s": spill,
            "serve.parent_wait_s": run - stream - spill,
            "store.load_s": _children_time(node, "store.load"),
            "store.query_s": _children_time(node, "store.query"),
            "core.traces": node.total("traces"),
            "core.attacks": node.total("attacks"),
            "bench.self_s": node.duration_s - sum(
                child.duration_s for child in node.children),
            "serve.shm_share": shm / (shm + pickled) if shm + pickled else 0.0,
            "serve.jobs": jobs,
            "serve.jobs_requeued": requeued,
            "serve.workers_timed_out": node.total("serve.workers_timed_out"),
            "serve.workers_respawned": node.total("serve.workers_respawned"),
            "serve.useful_ratio": jobs / (jobs + requeued) if jobs else 0.0,
            "serve.heartbeat_age_max_s": max(ages, default=0.0),
        }


class ServiceStream(ServiceShm):
    """``service_shm`` at the README's chunk size (not listed: it stalls)."""

    name = "service_stream"
    chunk_size = README_CHUNK_SIZE


WORKLOADS = {workload.name: workload for workload in
             (DesignFlow, AttackGrid, ServiceShm, ServiceStream)}

#: The workloads ``BENCHMARK.json`` lists.
LISTED_WORKLOADS = ("design_flow", "attack_grid", "service_shm")


def make(name: str, root: Path, seed: int, sizes: Optional[Sizes],
         out_dir: Path) -> Workload:
    return WORKLOADS[name](root, seed, sizes if sizes is not None else Sizes(),
                           out_dir)
