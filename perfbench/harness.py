"""Workload-independent machinery of the repo benchmark.

* :class:`Deadline` ends an operation that runs too long: a one-shot
  ``SIGALRM`` interval timer raises :class:`OperationDeadline` in the main
  thread.  It derives from ``BaseException`` on purpose: the program has
  ``except Exception`` boundaries (the DRC turns a crashing rule into a
  diagnostic) that must not swallow the deadline.
* :func:`closed_loop` runs operations back to back — one client, the next
  operation starts after the previous one ends — until the measuring time
  is spent, and accounts every raise, deadline and failed output check.
* :func:`provenance` describes the machine and the code a record was
  measured on; :func:`peak_rss_mib` the memory high-water mark.
* :func:`layer_table` renders the per-layer self-time report of a trace.
"""

from __future__ import annotations

import ctypes
import gc
import hashlib
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional


class OperationDeadline(BaseException):
    """Raised in the main thread when an operation passes its deadline."""


class Deadline:
    """Arm a one-shot ``SIGALRM`` timer for a ``with`` body.

    The body is interrupted by :class:`OperationDeadline` after
    ``seconds``; blocking reads are interrupted too, because the handler
    raises (PEP 475 retries a read only when the handler returns).
    """

    def __init__(self, seconds: float):
        if seconds <= 0:
            raise ValueError(f"deadline must be positive, got {seconds}")
        self.seconds = seconds
        self._previous = None

    def _expire(self, signum, frame):
        raise OperationDeadline(f"operation passed its {self.seconds:g} s "
                                "deadline")

    def __enter__(self) -> "Deadline":
        self._previous = signal.signal(signal.SIGALRM, self._expire)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc_info) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


@dataclass
class OpOutcome:
    """What one operation returns when it completes."""

    #: Output-check failures; an operation with any is counted as failed.
    errors: List[str] = field(default_factory=list)
    #: Work units the operation completed (traces, for the campaign
    #: workloads); counted only when the operation succeeds.
    work: int = 0
    #: Simulated statistics of the operation (reported, never gated).
    stats: Dict[str, object] = field(default_factory=dict)


@dataclass
class OpRecord:
    index: int
    wall_s: float
    status: str  # "ok", "check", "raised" or "deadline"
    detail: str = ""
    work: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def closed_loop(operation: Callable[[int], OpOutcome], *, seconds: float,
                deadline_s: float,
                on_failure: Optional[Callable[[int], None]] = None
                ) -> List[OpRecord]:
    """Run ``operation(index)`` back to back for ``seconds`` of wall time.

    At least one operation runs; no operation starts after ``seconds``.
    Each runs under :class:`Deadline`; an operation that raises, passes the
    deadline or returns output-check errors is recorded as failed, and
    ``on_failure(index)`` then restores a clean state for the next one
    (for the service: kill the workers, unlink their shared memory, start
    a fresh pool).
    """
    records: List[OpRecord] = []
    start = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        try:
            with Deadline(deadline_s):
                outcome = operation(index)
        except OperationDeadline as error:
            record = OpRecord(index, time.perf_counter() - t0, "deadline",
                              str(error))
        except Exception as error:  # noqa: BLE001 - a failed operation is
            # a measured outcome, not a benchmark crash.
            record = OpRecord(index, time.perf_counter() - t0, "raised",
                              "".join(traceback.format_exception_only(
                                  type(error), error)).strip())
        else:
            wall = time.perf_counter() - t0
            if outcome.errors:
                record = OpRecord(index, wall, "check",
                                  "; ".join(outcome.errors),
                                  stats=outcome.stats)
            else:
                record = OpRecord(index, wall, "ok", work=outcome.work,
                                  stats=outcome.stats)
        records.append(record)
        if not record.ok and on_failure is not None:
            on_failure(index)
        index += 1
    return records


#: Set-up repeats until this much time is spent, so a cheap set-up is
#: measured often enough for a steady median.
SETUP_SECONDS = 3.0
MAX_SETUP_REPEATS = 9


def median_setup(setup: Callable[[], None], repeats: int,
                 release: Callable[[], None]):
    """Run ``setup`` at least ``repeats`` times and until ``SETUP_SECONDS``
    are spent; return the median and every duration in seconds.

    Before each timed repetition, ``release`` drops what the previous one
    built and the garbage is collected, so that neither the time nor the
    peak RSS of a repetition depends on when its predecessor is freed.
    """
    durations = []
    while len(durations) < MAX_SETUP_REPEATS and (
            len(durations) < repeats or sum(durations) < SETUP_SECONDS):
        release()
        gc.collect()
        t0 = time.perf_counter()
        setup()
        durations.append(time.perf_counter() - t0)
    return statistics.median(durations), durations


def peak_rss_mib(child_kib: int = 0) -> float:
    """Peak RSS of this process plus ``child_kib``, the peak of the largest
    program child.  ``RUSAGE_CHILDREN`` is not used: it would count the
    benchmark's own import probe."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + child_kib) / 1024.0


def stop_helper_processes() -> None:
    """End every process the run started and wait for each.

    The service's workers are joined by its shutdown; what is left is the
    ``multiprocessing`` resource tracker, which the first shared-memory
    segment starts and which would otherwise outlive this process.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    resource_tracker._resource_tracker._stop()


# --------------------------------------------------------------- provenance
def _git_revision(root: Path) -> str:
    """HEAD's commit read from ``.git`` without running git; the benchmark
    also runs from exported trees that have no ``.git``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources — identifies the code measured
    when the tree is not a git checkout."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _blas_threads() -> Optional[int]:
    """Thread count of the BLAS numpy loaded, asked from the library."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps}
    except OSError:
        return None
    libraries = sorted(path for path in paths
                       if "blas" in Path(path).name.lower() and ".so" in path)
    names = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
             "openblas_get_num_threads", "scipy_openblas_get_num_threads")
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in names:
            function = getattr(handle, name, None)
            if function is not None:
                function.restype = ctypes.c_int
                function.argtypes = []
                return int(function())
    return None


def provenance(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(root),
        "source_digest": source_digest(root),
        "cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "blas_env": {name: os.environ[name] for name in
                     ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                      "MKL_NUM_THREADS") if name in os.environ},
    }


# ------------------------------------------------------------ trace report
def layer_table(title: str, layers: Dict[str, float], wall_s: float,
                counts: Dict[str, float]) -> str:
    """Per-layer self times (seconds per operation) with their share of the
    traced wall time, then the counts and ratios."""
    lines = [f"{title}: {wall_s:.4f} s per operation (traced)",
             f"  {'layer':<28s} {'s/op':>10s} {'share':>7s}"]
    for name, value in layers.items():
        share = value / wall_s if wall_s > 0 else float("nan")
        lines.append(f"  {name:<28s} {value:>10.4f} {share:>7.1%}")
    covered = sum(layers.values())
    lines.append(f"  {'(sum)':<28s} {covered:>10.4f} "
                 f"{covered / wall_s if wall_s > 0 else float('nan'):>7.1%}")
    for name, value in counts.items():
        lines.append(f"  {name:<28s} {value:>10.4g}")
    return "\n".join(lines)


def log(message: str) -> None:
    """Progress goes to stderr; stdout's last line is the result."""
    print(message, file=sys.stderr, flush=True)
