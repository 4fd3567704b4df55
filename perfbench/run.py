"""The repo benchmark: one command per workload, checked and measured.

Run from the root of the repository::

    python3 perfbench/run.py --workload design_flow --seed 1 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs a
``repro.obs.Telemetry`` collector, prints the per-layer table and the
per-layer metrics, and writes the span tree as JSONL.  The last line of
standard output is the result::

    {"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}

Each run also writes its full record — provenance, every operation's
status and simulated statistics (d_A values, repair iterations, each
row's rank and MTD), set-up durations — to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
``python3 perfbench/report.py`` tabulates those records and the tracing
overhead.  Workloads: ``design_flow``, ``attack_grid`` and ``service_shm``
(the ones ``BENCHMARK.json`` lists) and ``service_stream`` (see
``workloads.py``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, Optional

ROOT = Path(__file__).resolve().parent.parent


def _require_program() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program sources under {ROOT / 'src'}; run the "
                 "benchmark from the root of a full checkout")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))


def run_benchmark(workload_name: str, *, seed: int, seconds: float,
                  trace: bool, sizes=None, out_dir: Optional[Path] = None,
                  verbose: bool = True) -> Dict[str, object]:
    """Run one workload and return ``{"result": ..., "record": ...}``."""
    _require_program()
    import harness
    import workloads
    from repro.obs import NULL_TELEMETRY, Telemetry, use, write_jsonl

    out_dir = out_dir if out_dir is not None else ROOT / "perfbench" / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make(workload_name, ROOT, seed, sizes, out_dir)
    telemetry = Telemetry(name=workload_name) if trace else NULL_TELEMETRY
    say = harness.log if verbose else (lambda message: None)

    with use(telemetry):
        try:
            setup_s, setup_runs = harness.median_setup(
                workload.setup, workload.sizes.setup_repeats,
                workload.release)
            say(f"{workload_name}: set-up {setup_s:.3f} s (median of "
                f"{len(setup_runs)})")
            records = harness.closed_loop(
                workload.operation, seconds=seconds,
                deadline_s=workload.deadline_s, on_failure=workload.recover)
        finally:
            workload.teardown()
    for record in records:
        say(f"  op {record.index}: {record.status} {record.wall_s:.3f} s "
            f"{record.detail}")

    failed = sum(1 for record in records if not record.ok)
    # An operation that raised or passed its deadline has no checked output:
    # it makes the run incorrect as much as a failed output check does.
    correct = bool(records) and failed == 0
    if trace:
        metrics = _per_layer(workload, telemetry)
    else:
        metrics = {
            "setup_s": setup_s,
            # The mean, not the median: over the few operations of a run it
            # spreads less from run to run on a machine whose speed drifts.
            "op_s": statistics.mean(record.wall_s for record in records),
            "peak_rss_mib": harness.peak_rss_mib(workload.child_peak_kib),
        }
    units = workloads.PER_LAYER if trace else workloads.END_TO_END
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    record = {
        "provenance": harness.provenance(ROOT, workload_name, seed),
        "seconds": seconds,
        "trace": trace,
        "sizes": workload.sizes.__dict__,
        "setup_runs_s": setup_runs,
        "timings": workload.timings,
        "child_peak_rss_mib": workload.child_peak_kib / 1024.0,
        "failed_ratio": failed / len(records),
        "summary": workload.summary(records),
        "ops": [record.__dict__ for record in records],
        "result": result,
    }
    stem = f"{workload_name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str))
    if trace:
        write_jsonl(telemetry.snapshot(), out_dir / f"{stem}.spans.jsonl")
        table = harness.layer_table(
            workload_name,
            {name: metrics[name] for name, unit in units.items()
             if unit == "s" and name not in workloads.RUN_LEVEL_TIMES},
            statistics.mean(node.duration_s for node in _op_nodes(telemetry)),
            {name: metrics[name] for name, unit in units.items()
             if unit != "s"})
        (out_dir / f"{stem}.layers.txt").write_text(table + "\n")
        if verbose:
            print(table)
    return {"result": result, "record": record}


def _op_nodes(telemetry):
    return [node for node in telemetry.root.children if node.name == "op"]


def _per_layer(workload, telemetry) -> Dict[str, float]:
    """Mean over the traced operations of each per-layer value."""
    import workloads

    per_op = [workload.op_layers(node) for node in _op_nodes(telemetry)]
    values = {name: statistics.mean(layers.get(name, 0.0) for layers in per_op)
              for name in workloads.PER_LAYER}
    for name in ("serve.start_s", "serve.shutdown_s"):
        values[name] = statistics.median(workload.timings.get(name, [0.0]))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time; no operation starts after it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _require_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of "
                     f"{sorted(workloads.WORKLOADS)}")
    import harness

    try:
        outcome = run_benchmark(args.workload, seed=args.seed,
                                seconds=args.seconds, trace=bool(args.trace))
    finally:
        harness.stop_helper_processes()
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
