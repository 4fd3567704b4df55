"""Tests of the streaming leakage-assessment subsystem (repro.assess).

Covers the mergeable moment accumulators (chunked updates and shard merges
against one-pass numpy references), the TVLA Welch t-tests (non-specific and
specific), the per-sample SNR, and the streaming DPA/CPA attack states
against their in-memory counterparts.
"""

import numpy as np
import pytest

from repro.assess import (
    AccumulatorError,
    ClassAccumulator,
    CoMomentAccumulator,
    DisclosureTracker,
    MomentAccumulator,
    StreamingSnr,
    StreamingTTest,
    TVLA_THRESHOLD,
    disclosure_boundaries,
    intermediate_labels,
    snr_by_intermediate,
    specific_labels,
    streaming_state,
    ttest_fixed_vs_random,
    ttest_specific,
)
from repro.asyncaes import fixed_vs_random_plaintexts
from repro.core import (
    AesSboxSelection,
    CpaKernel,
    DpaKernel,
    HammingWeightModel,
    SecondOrderKernel,
    TraceSet,
    messages_to_disclosure,
    pearson_statistics,
)
from repro.core.dpa import DPAError, _bias_matrix
from repro.core.power_model import leakage_matrix
from repro.core.selection import selection_matrix
from repro.crypto.keys import PlaintextGenerator


def _random_matrix(n=120, m=30, seed=0):
    return np.random.default_rng(seed).normal(size=(n, m))


def _chunks(matrix, size):
    return [matrix[start:start + size] for start in range(0, len(matrix), size)]


# ------------------------------------------------------------- accumulators
class TestMomentAccumulator:
    @pytest.mark.parametrize("chunk_size", [1, 7, 40, 120])
    def test_chunked_matches_numpy(self, chunk_size):
        matrix = _random_matrix()
        acc = MomentAccumulator()
        for chunk in _chunks(matrix, chunk_size):
            acc.update(chunk)
        assert acc.count == len(matrix)
        assert np.allclose(acc.mean, matrix.mean(axis=0), rtol=1e-12)
        assert np.allclose(acc.variance(), matrix.var(axis=0, ddof=1), rtol=1e-12)
        assert np.allclose(acc.std(), matrix.std(axis=0, ddof=1), rtol=1e-12)

    def test_merge_equals_combined(self):
        matrix = _random_matrix(200)
        left = MomentAccumulator().update(matrix[:80])
        right = MomentAccumulator().update(matrix[80:])
        combined = left.merge(right)
        assert combined.count == 200
        assert np.allclose(combined.mean, matrix.mean(axis=0), rtol=1e-12)
        assert np.allclose(combined.variance(), matrix.var(axis=0, ddof=1),
                           rtol=1e-12)

    def test_merge_into_empty(self):
        matrix = _random_matrix(30)
        filled = MomentAccumulator().update(matrix)
        empty = MomentAccumulator()
        empty.merge(filled)
        assert empty.count == 30
        assert np.allclose(empty.mean, matrix.mean(axis=0))

    def test_single_row_update(self):
        acc = MomentAccumulator()
        acc.update(np.ones(5))
        assert acc.count == 1
        assert np.allclose(acc.variance(), 0.0)

    def test_width_mismatch_rejected(self):
        acc = MomentAccumulator().update(_random_matrix(4, 8))
        with pytest.raises(AccumulatorError):
            acc.update(_random_matrix(4, 9))

    def test_copy_is_independent(self):
        acc = MomentAccumulator().update(_random_matrix(10))
        duplicate = acc.copy()
        duplicate.update(_random_matrix(10, seed=1))
        assert acc.count == 10
        assert duplicate.count == 20


class TestClassAccumulator:
    @pytest.mark.parametrize("chunk_size", [1, 13, 200])
    def test_chunked_matches_per_class_numpy(self, chunk_size):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(200, 12))
        labels = rng.integers(0, 5, size=200)
        acc = ClassAccumulator(5)
        for start in range(0, 200, chunk_size):
            acc.update(matrix[start:start + chunk_size],
                       labels[start:start + chunk_size])
        for label in range(5):
            rows = matrix[labels == label]
            assert acc.counts[label] == len(rows)
            assert np.allclose(acc.means[label], rows.mean(axis=0), rtol=1e-12)
            assert np.allclose(acc.variances()[label],
                               rows.var(axis=0, ddof=1), rtol=1e-10)

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(4)
        matrix = rng.normal(size=(150, 6))
        labels = rng.integers(0, 3, size=150)
        left = ClassAccumulator(3).update(matrix[:70], labels[:70])
        right = ClassAccumulator(3).update(matrix[70:], labels[70:])
        left.merge(right)
        one_pass = ClassAccumulator(3).update(matrix, labels)
        assert np.array_equal(left.counts, one_pass.counts)
        assert np.allclose(left.means, one_pass.means, rtol=1e-12)
        assert np.allclose(left.m2s, one_pass.m2s, rtol=1e-9, atol=1e-12)

    def test_grand_mean(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(90, 4))
        labels = rng.integers(0, 4, size=90)
        acc = ClassAccumulator(4).update(matrix, labels)
        assert np.allclose(acc.grand_mean(), matrix.mean(axis=0), rtol=1e-12)

    def test_out_of_range_labels_rejected(self):
        acc = ClassAccumulator(2)
        with pytest.raises(AccumulatorError):
            acc.update(np.zeros((3, 4)), [0, 1, 2])

    def test_label_count_mismatch_rejected(self):
        with pytest.raises(AccumulatorError):
            ClassAccumulator(2).update(np.zeros((3, 4)), [0, 1])


class TestCoMomentAccumulator:
    @pytest.mark.parametrize("chunk_size", [1, 17, 300])
    def test_correlation_matches_pearson(self, chunk_size):
        rng = np.random.default_rng(6)
        matrix = rng.normal(size=(300, 10))
        hypothesis = rng.normal(size=(8, 300))
        reference = pearson_statistics(matrix, hypothesis)
        acc = CoMomentAccumulator()
        for start in range(0, 300, chunk_size):
            acc.update(hypothesis[:, start:start + chunk_size],
                       matrix[start:start + chunk_size])
        assert np.allclose(acc.correlation(), reference, atol=1e-12)

    def test_merge_equals_combined(self):
        rng = np.random.default_rng(7)
        matrix = rng.normal(size=(160, 5))
        hypothesis = rng.normal(size=(4, 160))
        left = CoMomentAccumulator().update(hypothesis[:, :60], matrix[:60])
        right = CoMomentAccumulator().update(hypothesis[:, 60:], matrix[60:])
        left.merge(right)
        assert np.allclose(left.correlation(),
                           pearson_statistics(matrix, hypothesis), atol=1e-12)

    def test_constant_rows_give_zero(self):
        matrix = np.ones((50, 3))
        hypothesis = np.zeros((2, 50))
        acc = CoMomentAccumulator().update(hypothesis, matrix)
        assert np.array_equal(acc.correlation(), np.zeros((2, 3)))


# --------------------------------------------------------------------- TVLA
class TestWelchTTest:
    def _populations(self, shift=0.0, n=200, m=16, seed=8):
        rng = np.random.default_rng(seed)
        pop0 = rng.normal(0.0, 1.0, (n, m))
        pop1 = rng.normal(0.0, 1.0, (n, m))
        pop1[:, 3] += shift
        return pop0, pop1

    def test_t_statistic_matches_direct_formula(self):
        pop0, pop1 = self._populations(shift=0.5)
        ttest = StreamingTTest()
        ttest.update(pop0, np.zeros(len(pop0), dtype=int))
        ttest.update(pop1, np.ones(len(pop1), dtype=int))
        expected = (pop0.mean(axis=0) - pop1.mean(axis=0)) / np.sqrt(
            pop0.var(axis=0, ddof=1) / len(pop0)
            + pop1.var(axis=0, ddof=1) / len(pop1)
        )
        assert np.allclose(ttest.t_statistic(), expected, rtol=1e-10)

    def test_detects_planted_leak_and_clears_null(self):
        pop0, pop1 = self._populations(shift=1.0)
        matrix = np.vstack([pop0, pop1])
        labels = np.r_[np.zeros(len(pop0)), np.ones(len(pop1))].astype(int)
        leaky = ttest_fixed_vs_random(TraceSet.from_matrix(
            matrix, [[0]] * len(matrix), 1e-9), labels)
        assert leaky.leaks and leaky.max_abs_t > TVLA_THRESHOLD
        assert int(np.argmax(np.abs(leaky.t))) == 3

        pop0, pop1 = self._populations(shift=0.0)
        matrix = np.vstack([pop0, pop1])
        null = ttest_fixed_vs_random(TraceSet.from_matrix(
            matrix, [[0]] * len(matrix), 1e-9), labels)
        assert not null.leaks

    def test_chunked_equals_single_update(self):
        pop0, pop1 = self._populations(shift=0.3)
        matrix = np.vstack([pop0, pop1])
        rng = np.random.default_rng(9)
        order = rng.permutation(len(matrix))
        matrix = matrix[order]
        labels = np.r_[np.zeros(len(pop0)), np.ones(len(pop1))][order].astype(int)
        one = StreamingTTest().update(matrix, labels).t_statistic()
        chunked = StreamingTTest()
        for start in range(0, len(matrix), 23):
            chunked.update(matrix[start:start + 23], labels[start:start + 23])
        assert np.allclose(chunked.t_statistic(), one, atol=1e-10)

    def test_merge_equals_combined(self):
        pop0, pop1 = self._populations(shift=0.3)
        matrix = np.vstack([pop0, pop1])
        labels = np.r_[np.zeros(len(pop0)), np.ones(len(pop1))].astype(int)
        left = StreamingTTest().update(matrix[:150], labels[:150])
        right = StreamingTTest().update(matrix[150:], labels[150:])
        left.merge(right)
        combined = StreamingTTest().update(matrix, labels)
        assert np.allclose(left.t_statistic(), combined.t_statistic(),
                           atol=1e-10)
        assert left.counts == combined.counts

    def test_too_few_traces_rejected(self):
        ttest = StreamingTTest().update(np.zeros((2, 4)), [0, 1])
        with pytest.raises(AccumulatorError):
            ttest.t_statistic()

    def test_early_curve_boundary_is_skipped_not_fatal(self):
        """A boundary before both populations hold >= 2 traces must not
        abort the assessment — the undefined point is simply not recorded."""
        pop0, pop1 = self._populations(shift=0.5)
        matrix = np.empty((400, pop0.shape[1]))
        matrix[0::2] = pop0
        matrix[1::2] = pop1
        labels = np.arange(400) % 2
        traces = TraceSet.from_matrix(matrix, [[0]] * 400, 1e-9)
        result = ttest_fixed_vs_random(traces.iter_chunks(2), labels,
                                       curve_boundaries=[2, 200, 400])
        assert [count for count, _ in result.curve] == [200, 400]
        assert result.trace_count == 400

    def test_merge_drops_prefix_curves(self):
        """Detection curves are order-dependent prefix statistics and do not
        survive a shard merge; the merged statistic itself stays exact."""
        pop0, pop1 = self._populations(shift=0.5)
        matrix = np.vstack([pop0, pop1])
        labels = np.r_[np.zeros(len(pop0)), np.ones(len(pop1))].astype(int)
        left = StreamingTTest().update(matrix[:200], labels[:200])
        left.record_curve_point()
        right = StreamingTTest().update(matrix[200:], labels[200:])
        right.record_curve_point()
        left.merge(right)
        assert left.result().curve == []
        combined = StreamingTTest().update(matrix, labels)
        assert np.allclose(left.t_statistic(), combined.t_statistic(),
                           atol=1e-10)

    def test_curve_records_boundaries(self):
        pop0, pop1 = self._populations(shift=1.0)
        matrix = np.empty((400, pop0.shape[1]))
        matrix[0::2] = pop0
        matrix[1::2] = pop1
        labels = np.arange(400) % 2
        traces = TraceSet.from_matrix(matrix, [[0]] * 400, 1e-9)
        result = ttest_fixed_vs_random(traces, labels,
                                       curve_boundaries=[100, 200, 300, 400])
        assert [count for count, _ in result.curve] == [100, 200, 300, 400]
        # More traces sharpen the planted leak.
        assert result.curve[-1][1] > result.curve[0][1]
        assert result.curve[-1][1] == pytest.approx(result.max_abs_t)

    def test_curve_streaming_matches_in_memory(self):
        pop0, pop1 = self._populations(shift=0.6)
        matrix = np.empty((400, pop0.shape[1]))
        matrix[0::2] = pop0
        matrix[1::2] = pop1
        labels = np.arange(400) % 2
        traces = TraceSet.from_matrix(matrix, [[0]] * 400, 1e-9)
        boundaries = [128, 256, 400]
        full = ttest_fixed_vs_random(traces, labels,
                                     curve_boundaries=boundaries)
        chunked = ttest_fixed_vs_random(traces.iter_chunks(96), labels,
                                        curve_boundaries=boundaries)
        assert [c for c, _ in chunked.curve] == [c for c, _ in full.curve]
        for (_, a), (_, b) in zip(full.curve, chunked.curve):
            assert a == pytest.approx(b, abs=1e-9)


class TestSpecificTTest:
    KEY_BYTE = 0x3C

    def _leaky_traces(self, n=400, seed=10):
        """Traces whose sample 5 leaks the selection bit directly."""
        selection = AesSboxSelection(byte_index=0, bit_index=2)
        plaintexts = PlaintextGenerator(seed=seed).batch(n)
        bits = selection_matrix(selection, plaintexts, [self.KEY_BYTE])[0]
        rng = np.random.default_rng(seed + 1)
        matrix = rng.normal(0.0, 1.0, (n, 12))
        matrix[:, 5] += 2.0 * bits
        return TraceSet.from_matrix(matrix, plaintexts, 1e-9), selection, bits

    def test_partition_labels_match_selection(self):
        traces, selection, bits = self._leaky_traces()
        labels = specific_labels(selection, traces.plaintexts(), self.KEY_BYTE)
        assert np.array_equal(labels, bits)

    def test_detects_intermediate_leak(self):
        traces, selection, _ = self._leaky_traces()
        result = ttest_specific(traces, selection, self.KEY_BYTE)
        assert result.leaks
        assert int(np.argmax(np.abs(result.t))) == 5
        assert result.partition.startswith("specific[")

    def test_chunked_equals_full(self):
        traces, selection, _ = self._leaky_traces()
        full = ttest_specific(traces, selection, self.KEY_BYTE)
        chunked = ttest_specific(traces.iter_chunks(64), selection,
                                 self.KEY_BYTE)
        assert np.allclose(full.t, chunked.t, atol=1e-10)
        assert (full.n0, full.n1) == (chunked.n0, chunked.n1)


# ---------------------------------------------------------------------- SNR
class TestSnr:
    def test_known_partition_snr(self):
        """Class means ±1 with unit noise: SNR ≈ 1 at the leaky sample."""
        rng = np.random.default_rng(11)
        labels = rng.integers(0, 2, size=4000)
        matrix = rng.normal(0.0, 1.0, (4000, 8))
        matrix[:, 2] += np.where(labels == 1, 1.0, -1.0)
        snr = StreamingSnr(2).update(matrix, labels).result()
        assert snr.snr[2] == pytest.approx(1.0, rel=0.15)
        quiet = np.delete(snr.snr, 2)
        assert quiet.max() < 0.01
        assert snr.max_snr == pytest.approx(snr.snr[2])
        assert snr.peak_sample == 2

    def test_streaming_and_merge_match_one_pass(self):
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 9, size=600)
        matrix = rng.normal(0.0, 1.0, (600, 6))
        matrix[:, 4] += 0.5 * labels
        one = StreamingSnr(9).update(matrix, labels).snr()
        chunked = StreamingSnr(9)
        for start in range(0, 600, 37):
            chunked.update(matrix[start:start + 37], labels[start:start + 37])
        assert np.allclose(chunked.snr(), one, atol=1e-10)
        left = StreamingSnr(9).update(matrix[:250], labels[:250])
        right = StreamingSnr(9).update(matrix[250:], labels[250:])
        assert np.allclose(left.merge(right).snr(), one, atol=1e-10)

    def test_intermediate_labels_value_and_hw(self):
        selection = AesSboxSelection(byte_index=1, bit_index=0)
        plaintexts = PlaintextGenerator(seed=13).batch(50)
        values = intermediate_labels(selection, plaintexts, 0xA7)
        expected = [selection.intermediate(p, 0xA7) for p in plaintexts]
        assert np.array_equal(values, expected)
        weights = intermediate_labels(selection, plaintexts, 0xA7, classes="hw")
        assert np.array_equal(weights, [bin(v).count("1") for v in expected])

    def test_snr_by_intermediate_finds_hw_leak(self):
        selection = AesSboxSelection(byte_index=0, bit_index=0)
        plaintexts = PlaintextGenerator(seed=14).batch(2000)
        weights = intermediate_labels(selection, plaintexts, 0x51, classes="hw")
        rng = np.random.default_rng(15)
        matrix = rng.normal(0.0, 0.5, (2000, 10))
        matrix[:, 7] += 0.4 * weights
        traces = TraceSet.from_matrix(matrix, plaintexts, 1e-9)
        result = snr_by_intermediate(traces, selection, 0x51, classes="hw")
        assert result.peak_sample == 7
        assert result.max_snr > 1.0
        chunked = snr_by_intermediate(traces.iter_chunks(256), selection,
                                      0x51, classes="hw")
        assert np.allclose(result.snr, chunked.snr, atol=1e-10)


# ------------------------------------------------------------- fixed/random
class TestFixedVsRandomSchedule:
    def test_alternate_schedule(self):
        plaintexts, labels = fixed_vs_random_plaintexts(10, seed=1)
        assert np.array_equal(labels, [0, 1] * 5)
        fixed_rows = [p for p, label in zip(plaintexts, labels) if label == 0]
        assert all(row == fixed_rows[0] for row in fixed_rows)
        random_rows = [tuple(p) for p, label in zip(plaintexts, labels) if label == 1]
        assert len(set(random_rows)) == len(random_rows)

    def test_reproducible_and_seed_sensitive(self):
        a = fixed_vs_random_plaintexts(8, seed=2)
        b = fixed_vs_random_plaintexts(8, seed=2)
        c = fixed_vs_random_plaintexts(8, seed=3)
        assert a[0] == b[0] and np.array_equal(a[1], b[1])
        assert a[0] != c[0]

    def test_explicit_fixed_block(self):
        fixed = list(range(16))
        plaintexts, labels = fixed_vs_random_plaintexts(6, fixed=fixed, seed=4)
        assert plaintexts[0] == fixed and plaintexts[2] == fixed

    def test_shuffled_mode_balanced(self):
        _, labels = fixed_vs_random_plaintexts(100, seed=5, mode="shuffled")
        assert labels.sum() == 50
        assert not np.array_equal(labels, np.arange(100) % 2)

    def test_bad_arguments_rejected(self):
        from repro.asyncaes import TraceGenerationError
        with pytest.raises(TraceGenerationError):
            fixed_vs_random_plaintexts(-1)
        with pytest.raises(TraceGenerationError):
            fixed_vs_random_plaintexts(4, fixed=[1, 2, 3])
        with pytest.raises(TraceGenerationError):
            fixed_vs_random_plaintexts(4, mode="sorted")


# ------------------------------------------------------- streaming attacks
class TestStreamingAttackStates:
    KEY_BYTE = 0x2B

    def _traces(self, n=300, seed=20):
        selection = AesSboxSelection(byte_index=0, bit_index=4)
        plaintexts = PlaintextGenerator(seed=seed).batch(n)
        bits = selection_matrix(selection, plaintexts, [self.KEY_BYTE])[0]
        rng = np.random.default_rng(seed + 1)
        matrix = rng.normal(0.0, 0.3, (n, 20))
        matrix[:, 11] += 0.4 * bits
        return TraceSet.from_matrix(matrix, plaintexts, 1e-9), selection

    @pytest.mark.parametrize("chunk_size", [32, 100, 300])
    def test_dom_state_matches_bias_matrix(self, chunk_size):
        traces, selection = self._traces()
        guess_space = list(range(64))
        bit_matrix = selection_matrix(selection, traces.plaintexts(), guess_space)
        reference, _ = _bias_matrix(traces.matrix(), bit_matrix)
        state = streaming_state(DpaKernel(selection), guess_space)
        for chunk in traces.iter_chunks(chunk_size):
            state.update(chunk.matrix(), chunk.plaintexts())
        assert np.allclose(state.statistics(), reference, atol=1e-12)
        assert np.allclose(state.peaks(), np.abs(reference).max(axis=1),
                           atol=1e-12)

    @pytest.mark.parametrize("chunk_size", [32, 100, 300])
    def test_cpa_state_matches_pearson(self, chunk_size):
        traces, selection = self._traces()
        model = HammingWeightModel(selection)
        guess_space = list(range(64))
        hypothesis = leakage_matrix(model, traces.plaintexts(), guess_space)
        reference = pearson_statistics(traces.matrix(), hypothesis)
        state = streaming_state(CpaKernel(model), guess_space)
        for chunk in traces.iter_chunks(chunk_size):
            state.update(chunk.matrix(), chunk.plaintexts())
        assert np.allclose(state.statistics(), reference, atol=1e-10)

    def test_dom_state_merge(self):
        traces, selection = self._traces()
        guess_space = list(range(16))
        full = streaming_state(DpaKernel(selection), guess_space)
        full.update(traces.matrix(), traces.plaintexts())
        left = streaming_state(DpaKernel(selection), guess_space)
        right = streaming_state(DpaKernel(selection), guess_space)
        left.update(traces.matrix()[:100], traces.plaintexts()[:100])
        right.update(traces.matrix()[100:], traces.plaintexts()[100:])
        left.merge(right)
        assert np.allclose(left.statistics(), full.statistics(), atol=1e-12)

    def test_second_order_rejected(self):
        _, selection = self._traces(n=10)
        kernel = SecondOrderKernel(DpaKernel(selection), window=2)
        with pytest.raises(DPAError, match="streaming"):
            streaming_state(kernel, list(range(4)))

    def test_custom_kernel_hook(self):
        class Custom:
            name = "custom"

            def stream_state(self, guess_space):
                return ("state", list(guess_space))

        assert streaming_state(Custom(), [1, 2]) == ("state", [1, 2])

    def test_disclosure_tracker_matches_in_memory_sweep(self):
        traces, selection = self._traces(n=280, seed=21)
        guess_space = list(selection.guesses())
        correct_index = guess_space.index(self.KEY_BYTE)
        for start, step, stable in ((16, 16, 1), (40, 40, 2), (20, 60, 3)):
            expected = messages_to_disclosure(
                traces, selection, self.KEY_BYTE,
                start=start, step=step, stable_runs=stable,
            )
            state = streaming_state(DpaKernel(selection), guess_space)
            tracker = DisclosureTracker(correct_index, stable_runs=stable)
            boundaries = disclosure_boundaries(len(traces), start=start,
                                               step=step)
            previous = 0
            matrix = traces.matrix()
            plaintexts = traces.plaintexts()
            for boundary in boundaries:
                state.update(matrix[previous:boundary],
                             plaintexts[previous:boundary])
                tracker.observe(boundary, state.peaks())
                previous = boundary
            assert tracker.disclosure == expected

    def test_disclosure_boundaries_validation(self):
        assert disclosure_boundaries(50, start=10, step=20) == [10, 30, 50]
        with pytest.raises(DPAError):
            disclosure_boundaries(50, start=1)
        with pytest.raises(DPAError, match="step"):
            disclosure_boundaries(50, step=0)
