"""Streaming attack states: the one implementation of DPA, CPA and MTD.

Both first-order statistics are functions of streaming moments only, so
every campaign attack runs as a sequence of chunk updates of a state here:

* difference of means — per-guess selected-set sums (equations (8)–(9));
* Pearson CPA — the cross-moment accumulator of
  :mod:`repro.assess.accumulators` between the hypothesis rows and the
  trace samples.

Each state exposes ``update(matrix, plaintexts)``, boundary ``peaks()`` for
messages-to-disclosure sweeps, final ``statistics()`` matching the
whole-matrix kernel output (:func:`repro.core.cpa.run_attack`) to
floating-point reordering, and exact ``merge`` for shards.  An in-memory
run is the one-chunk case: :func:`fold_chunk` feeds the whole matrix,
cut at the disclosure boundaries, to the same state
(:func:`repro.core.dpa.messages_to_disclosure` and
:meth:`repro.core.flow.AttackCampaign.run` both do).

Second-order kernels are the one whole-matrix exception: their
centered-product preprocessing centres on full-set means, so they only
run over one chunk holding every trace (``streaming_state(...,
whole_matrix=True)``) and are rejected with a clear error in streaming
mode instead of silently approximated.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..core.cpa import CpaKernel, DpaKernel, SecondOrderKernel
from ..core.dpa import DPAError, _stable_rank
from ..core.power_model import leakage_matrix
from ..core.selection import selection_matrix
from .accumulators import CoMomentAccumulator


class StreamingDomState:
    """Running difference-of-means state of every key guess at once.

    Maintains the per-guess selected-set sums, set sizes and the all-trace
    sum of the traces seen.  All quantities are plain sums, so merging shard
    states is exact.
    """

    def __init__(self, selection, guess_space: Sequence[int]):
        self.selection = selection
        self.guess_space = list(guess_space)
        self.count = 0
        self.sum1: Optional[np.ndarray] = None
        self.sum_all: Optional[np.ndarray] = None
        self.counts1 = np.zeros(len(self.guess_space))

    def _allocate(self, n_samples: int) -> None:
        self.sum1 = np.zeros((len(self.guess_space), n_samples))
        self.sum_all = np.zeros(n_samples)

    def update(self, matrix: np.ndarray,
               plaintexts: Sequence[Sequence[int]]) -> "StreamingDomState":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] == 0:
            return self
        if self.sum1 is None:
            self._allocate(matrix.shape[1])
        bits = selection_matrix(self.selection, [list(p) for p in plaintexts],
                                self.guess_space)
        self.sum_all += matrix.sum(axis=0)
        self.sum1 += bits.astype(float) @ matrix
        self.counts1 += bits.sum(axis=1)
        self.count += matrix.shape[0]
        return self

    def merge(self, other: "StreamingDomState") -> "StreamingDomState":
        if other.sum1 is None:
            return self
        if self.sum1 is None:
            self._allocate(other.sum1.shape[1])
        self.sum1 += other.sum1
        self.sum_all += other.sum_all
        self.counts1 += other.counts1
        self.count += other.count
        return self

    def statistics(self) -> np.ndarray:
        """The per-guess bias matrix of everything seen (equations (8)–(9))."""
        if self.sum1 is None:
            raise DPAError("streaming DPA state has seen no traces")
        counts0 = self.count - self.counts1
        with np.errstate(divide="ignore", invalid="ignore"):
            bias = (self.sum_all - self.sum1) / counts0[:, None]
            bias -= self.sum1 / self.counts1[:, None]
        # A single-sided partition has no bias (a zero row).
        bias[(self.counts1 == 0) | (counts0 == 0)] = 0.0
        return bias

    def peaks(self) -> np.ndarray:
        """Per-guess max |bias| (the disclosure-sweep boundary statistic)."""
        bias = self.statistics()
        return np.abs(bias, out=bias).max(axis=1)


class StreamingCpaState:
    """Running Pearson-CPA state of every key guess at once.

    One :class:`CoMomentAccumulator` between the leakage-model hypothesis
    rows and the trace samples; the correlation read-out matches the
    in-memory :func:`repro.core.cpa.pearson_statistics` to floating-point
    reordering, and shard states merge exactly (Chan's formula).
    """

    def __init__(self, model, guess_space: Sequence[int]):
        self.model = model
        self.guess_space = list(guess_space)
        self._moments = CoMomentAccumulator()

    @property
    def count(self) -> int:
        return self._moments.count

    def update(self, matrix: np.ndarray,
               plaintexts: Sequence[Sequence[int]]) -> "StreamingCpaState":
        matrix = np.asarray(matrix, dtype=float)
        if matrix.shape[0] == 0:
            return self
        hypothesis = leakage_matrix(self.model, [list(p) for p in plaintexts],
                                    self.guess_space)
        self._moments.update(hypothesis, matrix)
        return self

    def merge(self, other: "StreamingCpaState") -> "StreamingCpaState":
        self._moments.merge(other._moments)
        return self

    def statistics(self) -> np.ndarray:
        if self._moments.count == 0:
            raise DPAError("streaming CPA state has seen no traces")
        return self._moments.correlation()

    def peaks(self) -> np.ndarray:
        correlation = self.statistics()
        return np.abs(correlation, out=correlation).max(axis=1)


class WholeMatrixState:
    """A second-order kernel's state over the one chunk of an in-memory run.

    :meth:`combine` centres the whole trace matrix once
    (:func:`repro.core.cpa.centered_product_matrix`); the combined columns
    then feed the inner kernel's first-order state, so ranking and the
    disclosure sweep read one combined matrix.  A second chunk would be
    centred on its own means, so it is rejected.
    """

    def __init__(self, kernel: SecondOrderKernel, guess_space: Sequence[int]):
        self.kernel = kernel
        self.inner = streaming_state(kernel.inner, guess_space)
        self._combined = False

    def combine(self, matrix: np.ndarray) -> np.ndarray:
        if self._combined:
            raise DPAError(
                f"second-order kernel {self.kernel.name!r} centres the whole "
                "trace matrix; feed it as one chunk")
        self._combined = True
        return self.kernel.combine(matrix)

    def update(self, matrix: np.ndarray,
               plaintexts: Sequence[Sequence[int]]) -> "WholeMatrixState":
        self.inner.update(matrix, plaintexts)
        return self

    def statistics(self) -> np.ndarray:
        return self.inner.statistics()

    def peaks(self) -> np.ndarray:
        return self.inner.peaks()


def streaming_state(kernel, guess_space: Sequence[int], *,
                    whole_matrix: bool = False):
    """The streaming counterpart of an attack kernel.

    :class:`~repro.core.cpa.DpaKernel` and :class:`~repro.core.cpa.CpaKernel`
    map to their moment-based states; custom kernels can participate by
    exposing ``stream_state(guess_space)``.  Kernels that need the full trace
    matrix (the second-order centered-product family) get a
    :class:`WholeMatrixState` when ``whole_matrix`` promises one chunk
    holding every trace, and are rejected otherwise.
    """
    maker = getattr(kernel, "stream_state", None)
    if maker is not None:
        return maker(guess_space)
    if isinstance(kernel, DpaKernel):
        return StreamingDomState(kernel.selection, guess_space)
    if isinstance(kernel, CpaKernel):
        return StreamingCpaState(kernel.model, guess_space)
    if whole_matrix and isinstance(kernel, SecondOrderKernel):
        return WholeMatrixState(kernel, guess_space)
    raise DPAError(
        f"attack kernel {getattr(kernel, 'name', kernel)!r} cannot run in "
        "streaming mode: second-order (centered-product) kernels need the "
        "full trace matrix — run the campaign without streaming, or add a "
        "stream_state(guess_space) implementation to the kernel"
    )


class DisclosureTracker:
    """Messages-to-disclosure: the stability logic fed boundary peaks.

    ``observe(count, peaks)`` is called at every ascending prefix boundary;
    :attr:`disclosure` holds the first boundary from which the correct guess
    ranked first for ``stable_runs`` consecutive boundaries, and stays fixed
    once found.
    """

    def __init__(self, correct_index: int, *, stable_runs: int = 1):
        self.correct_index = correct_index
        self.stable_runs = stable_runs
        self._consecutive = 0
        self._first_success: Optional[int] = None
        self.disclosure: Optional[int] = None

    def observe(self, count: int, peaks: np.ndarray) -> None:
        if self.disclosure is not None:
            return
        if _stable_rank(np.asarray(peaks), self.correct_index) == 1:
            if self._consecutive == 0:
                self._first_success = count
            self._consecutive += 1
            if self._consecutive >= self.stable_runs:
                self.disclosure = self._first_success
        else:
            self._consecutive = 0
            self._first_success = None


def disclosure_boundaries(total: int, *, start: int = 16,
                          step: int = 16) -> List[int]:
    """The prefix boundaries of a disclosure sweep over ``total`` traces."""
    if start < 2:
        raise DPAError("need at least 2 traces to run a DPA attack")
    if step < 1:
        raise DPAError(f"disclosure sweep step must be >= 1, got {step}")
    return list(range(start, total + 1, step))


def fold_chunk(state, tracker: Optional[DisclosureTracker], sweep,
               matrix: np.ndarray, plaintexts: Sequence[Sequence[int]],
               position: int, *, complete: bool = True) -> None:
    """Fold stream rows ``[position, position + len(matrix))`` into ``state``.

    While ``tracker`` has not disclosed, the chunk is cut at the ``sweep``
    (:class:`repro.assess.tvla.BoundarySweep`) boundaries and the tracker
    observes the state's peaks at each one.  Once it has disclosed (or when
    there is no tracker) the rest of the chunk goes in as one update, so a
    whole-matrix chunk costs one pass over the traces plus one peak read per
    boundary up to the disclosure.  A bare disclosure sweep, which never
    reads the final statistics, passes ``complete=False`` to skip that rest.
    """
    combine = getattr(state, "combine", None)
    if combine is not None:
        matrix = combine(matrix)
    for start, stop in sweep.segments(position, matrix.shape[0]):
        if tracker is None or tracker.disclosure is not None:
            if complete:
                state.update(matrix[start - position:],
                             plaintexts[start - position:])
            return
        segment = slice(start - position, stop - position)
        state.update(matrix[segment], plaintexts[segment])
        if sweep.at_boundary(stop):
            tracker.observe(stop, state.peaks())
