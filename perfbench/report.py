"""Tabulate the benchmark's run records.

    python3 perfbench/report.py [perfbench/out]

For each workload it prints, over the untraced runs, the median and the
quartile spread (Q3 − Q1 as a share of the median, as the regression
check computes it) of every end-to-end metric next to its bound in
``BENCHMARK.json``, the failed-operation ratio and the headline figures
each run recorded.  Where a seed has both a traced and an untraced run it
also prints the tracing overhead: the traced mean operation time over
the untraced one.  For each traced run it prints the operations' status
and the ``serve.*`` counters (``perfbench/baseline`` holds the traced
``service_stream`` runs that record the service stall).
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _load(out_dir: Path):
    records = []
    for path in sorted(out_dir.glob("*-seed*-trace*.json")):
        records.append(json.loads(path.read_text()))
    return records


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def _op_mean(record):
    return statistics.mean(op["wall_s"] for op in record["ops"])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_dir = Path(argv[0]) if argv else HERE / "out"
    bounds = {metric["name"]: metric["bound"] for metric in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["end_to_end"]}
    by_workload = defaultdict(list)
    for record in _load(out_dir):
        by_workload[record["provenance"]["workload"]].append(record)
    for workload, records in sorted(by_workload.items()):
        plain = [r for r in records if not r["trace"]]
        traced = {r["provenance"]["seed"]: r for r in records if r["trace"]}
        print(f"== {workload}: {len(plain)} untraced run(s), "
              f"{len(traced)} traced")
        if plain:
            metrics = plain[0]["result"]["metrics"]
            for name in metrics:
                values = [r["result"]["metrics"][name]["value"]
                          for r in plain]
                spread = _spread(values)
                bound = bounds.get(name)
                verdict = ("" if bound is None or spread != spread
                           else "  ok" if spread <= bound / 3
                           else "  within bound" if spread <= bound
                           else "  ABOVE BOUND")
                print(f"  {name:<14s} median {statistics.median(values):10.4f}"
                      f"  spread {spread:7.2%}  bound {bound}{verdict}")
            attempted = sum(r["result"]["attempted"] for r in plain)
            failed = sum(r["result"]["failed"] for r in plain)
            print(f"  operations     {attempted} attempted, {failed} failed "
                  f"({failed / attempted:.1%})")
            for record in plain:
                seed = record["provenance"]["seed"]
                summary = {key: value for key, value in
                           record["summary"].items()
                           if not isinstance(value, dict)}
                print(f"  seed {seed:>4d}: "
                      + ", ".join(f"{key}={value:.4g}"
                                  if isinstance(value, float)
                                  else f"{key}={value}"
                                  for key, value in summary.items()))
        for record in plain:
            seed = record["provenance"]["seed"]
            if seed in traced:
                untraced_s = _op_mean(record)
                traced_s = _op_mean(traced[seed])
                print(f"  tracing overhead, seed {seed}: "
                      f"{traced_s / untraced_s - 1:+.1%} "
                      f"({traced_s:.3f} s vs {untraced_s:.3f} s per op)")
        for seed, record in sorted(traced.items()):
            metrics = record["result"]["metrics"]
            serve = ", ".join(
                f"{name[6:]}={metrics[name]['value']:.4g}"
                for name in metrics if name.startswith("serve."))
            print(f"  traced seed {seed:>4d}: ops "
                  + " ".join(op["status"] for op in record["ops"])
                  + f", failed ratio {record['failed_ratio']:.2f}"
                  + (f", serve: {serve}" if metrics.get("serve.jobs", {})
                     .get("value") else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
