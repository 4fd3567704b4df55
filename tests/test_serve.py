"""Tests of the campaign execution service (repro.serve).

The contract under test is the serve invariant: serial (the inline
executor), pooled (``workers=N``, a one-run service) and persistent-service
runs of the same grid produce **byte-identical** rows and store frames —
under chunk-level scheduling, out-of-order completion, worker SIGKILL
mid-scenario, heartbeat-timeout requeue, and full degradation to inline
execution.  Plus the transport (shared-memory slot rings), the scheduling
seams (fully resumed grids, duplicate labels, the run-once DRC
pre-flight), and the service lifecycle errors.
"""

import multiprocessing
import time

import numpy as np
import pytest

from repro.core import AesSboxSelection, AttackCampaign, TraceSet
from repro.crypto.aes_tables import SBOX
from repro.obs import Telemetry, use
from repro.serve import (
    CampaignService,
    FaultInjection,
    ServeError,
    ServiceConfig,
    ShmRing,
)

KEY = [0] * 16
_SBOX = np.asarray(SBOX, dtype=np.int64)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the campaign service needs the fork start method")


def _leaky_source(cost):
    """A deterministic per-row trace source with a tunable cost knob."""

    def source(plaintexts, noise):
        block = np.asarray([[int(byte) for byte in plaintext]
                            for plaintext in plaintexts], dtype=np.int64)
        block = block.reshape(len(plaintexts), -1)
        ticks = np.arange(48, dtype=float)
        matrix = np.zeros((block.shape[0], 48))
        for harmonic in range(1, cost + 1):
            matrix += np.sin(block[:, :1] * 0.37
                             + ticks * 0.05 * harmonic) / harmonic
        matrix[:, 24] += ((_SBOX[block[:, 0]] >> 3) & 1) * 0.5
        if noise is not None:
            matrix = noise.apply_matrix(matrix, 1e-9, 0.0)
        return TraceSet.from_matrix(matrix, plaintexts, 1e-9)

    return source


def _grid(noises=2, costs=(1, 3)):
    campaign = AttackCampaign(KEY, guesses=range(8), mtd_start=32,
                              mtd_step=32)
    for cost in costs:
        campaign.add_design(f"cost-{cost}", trace_source=_leaky_source(cost))
    for index in range(noises):
        campaign.add_noise(f"level-{index}")
    campaign.add_selection(AesSboxSelection(byte_index=0, bit_index=3))
    campaign.add_attack("dpa")
    return campaign


def _store_bytes(path):
    # telemetry.npz is the one legitimately run-dependent table (span
    # timings); every result-bearing frame must be byte-identical.
    return {file.name: file.read_bytes()
            for file in sorted(path.glob("*.npz"))
            if file.name != "telemetry.npz"}


def _service(campaign, config=None, **kwargs):
    service = CampaignService(config or ServiceConfig(workers=2), **kwargs)
    service.register("grid", campaign)
    return service


# --------------------------------------------------------------- transport
class TestShmRing:
    def test_round_trip(self):
        context = multiprocessing.get_context("fork")
        ring = ShmRing(context, slots=2, slot_bytes=1 << 16)
        try:
            array = np.arange(600, dtype=np.float64).reshape(30, 20)
            payload = ring.place(array)
            assert payload is not None
            assert payload.shape == (30, 20)
            assert np.array_equal(ring.take(payload), array)
            ring.release(payload)
        finally:
            ring.close()

    def test_oversized_and_empty_fall_back(self):
        context = multiprocessing.get_context("fork")
        ring = ShmRing(context, slots=1, slot_bytes=64)
        try:
            assert ring.place(np.zeros((100, 100))) is None
            assert ring.place(np.zeros((0, 16))) is None
        finally:
            ring.close()

    def test_released_slots_are_reused(self):
        context = multiprocessing.get_context("fork")
        ring = ShmRing(context, slots=1, slot_bytes=1 << 12)
        try:
            for round_index in range(3):
                array = np.full(16, float(round_index))
                payload = ring.place(array)
                assert payload is not None and payload.slot == 0
                assert np.array_equal(ring.take(payload), array)
                ring.release(payload)
        finally:
            ring.close()


# ------------------------------------------------------------ byte identity
class TestServiceIdentity:
    def test_streaming_rows_match_serial_and_pooled(self):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        serial = campaign.run(**kwargs)
        pooled = campaign.run(workers=2, **kwargs)
        with _service(campaign) as service:
            served = service.run("grid", **kwargs)
        assert pooled.rows == serial.rows
        assert served.rows == serial.rows
        assert served.assessments == serial.assessments

    def test_streaming_store_frames_byte_identical(self, tmp_path):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        campaign.run(store=tmp_path / "serial", **kwargs)
        campaign.run(store=tmp_path / "pooled", workers=2, **kwargs)
        with _service(campaign) as service:
            service.run("grid", store=tmp_path / "served", **kwargs)
        serial = _store_bytes(tmp_path / "serial")
        assert "frame.npz" in serial and "assessments.npz" in serial
        assert _store_bytes(tmp_path / "pooled") == serial
        assert _store_bytes(tmp_path / "served") == serial

    def test_non_streaming_scenario_jobs_match_serial(self):
        campaign = _grid()
        kwargs = dict(trace_count=64, compute_disclosure=False)
        serial = campaign.run(**kwargs)
        with _service(campaign) as service:
            served = service.run("grid", **kwargs)
        assert served.rows == serial.rows
        assert served.assessments == serial.assessments

    def test_non_streaming_worker_spilled_store_identical(self, tmp_path):
        campaign = _grid()
        kwargs = dict(trace_count=64, compute_disclosure=False)
        campaign.run(store=tmp_path / "serial", **kwargs)
        with _service(campaign) as service:
            service.run("grid", store=tmp_path / "served", **kwargs)
        assert _store_bytes(tmp_path / "served") == \
            _store_bytes(tmp_path / "serial")

    def test_store_resume_through_service(self, tmp_path):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False, store=tmp_path / "st")
        with _service(campaign) as service:
            first = service.run("grid", **kwargs)
            telemetry = Telemetry()
            with use(telemetry):
                resumed = service.run("grid", **kwargs)
        assert resumed.rows == first.rows
        # Every scenario came back from the manifest: no jobs were scheduled.
        assert telemetry.snapshot().total("serve.jobs") == 0

    def test_sweep_points_through_service(self):
        from repro.asyncaes.netlist_gen import build_aes_netlist
        from repro.pnr.sweep import PlacementSweep

        sweep = PlacementSweep(
            netlist_factory=lambda: build_aes_netlist(word_width=4,
                                                      detail=0.15),
            effort=0.1, initial_acceptance=(0.3, 0.5), cooling=(0.7,))
        serial = sweep.run()
        service = CampaignService(ServiceConfig(workers=2))
        service.register("sweep", sweep)
        with service:
            served = service.run("sweep")
        assert served.rows == serial.rows
        assert served.flow == serial.flow and served.design == serial.design


# ------------------------------------------------------------ fault paths
class TestWorkerFailure:
    def test_sigkill_mid_scenario_retries_byte_identical(self, tmp_path):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        campaign.run(store=tmp_path / "serial", **kwargs)
        service = _service(
            campaign, ServiceConfig(workers=2, heartbeat_timeout_s=2.0),
            fault_injection=FaultInjection(kill_after_claims={1: 1}))
        telemetry = Telemetry()
        with service, use(telemetry):
            service.run("grid", store=tmp_path / "served", **kwargs)
        root = telemetry.snapshot()
        assert root.total("serve.workers_lost") >= 1
        assert root.total("serve.jobs_requeued") >= 1
        assert root.total("serve.workers_respawned") >= 1
        assert _store_bytes(tmp_path / "served") == \
            _store_bytes(tmp_path / "serial")

    def test_silent_worker_is_timed_out_and_jobs_requeued(self):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        serial = campaign.run(**kwargs)
        # Worker 0 hangs after its first claim and never heartbeats: the
        # scheduler must kill it on beat age and requeue the claimed job.
        service = _service(
            campaign, ServiceConfig(workers=2, heartbeat_timeout_s=0.75),
            fault_injection=FaultInjection(hang_after_claims={0: 1},
                                           mute_heartbeats=(0,)))
        telemetry = Telemetry()
        with service, use(telemetry):
            served = service.run("grid", **kwargs)
        root = telemetry.snapshot()
        assert root.total("serve.workers_timed_out") >= 1
        assert root.total("serve.jobs_requeued") >= 1
        assert served.rows == serial.rows

    def test_slow_result_apply_does_not_time_out_healthy_workers(
            self, monkeypatch):
        from repro.serve import scheduler

        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        serial = campaign.run(**kwargs)
        # The parent spends longer applying each of the first results than
        # the heartbeat timeout; the other worker keeps beating meanwhile,
        # and those beats sit in the result queue until the apply returns.
        take_array = scheduler.CampaignService._take_array
        slow_applies = iter(range(3))

        def slow_take_array(self, worker_ref, transport):
            if next(slow_applies, None) is not None:
                time.sleep(0.6)
            return take_array(self, worker_ref, transport)

        monkeypatch.setattr(scheduler.CampaignService, "_take_array",
                            slow_take_array)
        service = _service(
            campaign, ServiceConfig(workers=2, heartbeat_interval_s=0.05,
                                    heartbeat_timeout_s=0.3))
        telemetry = Telemetry()
        with service, use(telemetry):
            served = service.run("grid", **kwargs)
        root = telemetry.snapshot()
        assert root.total("serve.workers_timed_out") == 0
        assert served.rows == serial.rows

    def test_job_lost_before_its_claim_is_requeued_despite_heartbeats(
            self, monkeypatch):
        from repro.serve import pool

        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        serial = campaign.run(**kwargs)
        # Worker 0 dequeues its first job and drops it without a claim,
        # while both workers heartbeat far more often than the scheduler
        # polls: beats alone must not hide that nothing is progressing.
        loop = pool._WorkerRuntime.loop

        def lossy_loop(self):
            if self.ref == (0, 0):
                self.job_queue.get()
            loop(self)

        monkeypatch.setattr(pool._WorkerRuntime, "loop", lossy_loop)
        service = _service(
            campaign, ServiceConfig(workers=2, heartbeat_interval_s=0.01,
                                    heartbeat_timeout_s=0.5))
        telemetry = Telemetry()
        with service, use(telemetry):
            served = service.run("grid", **kwargs)
        root = telemetry.snapshot()
        assert root.total("serve.jobs_requeued") >= 1
        assert served.rows == serial.rows

    def test_total_pool_loss_degrades_to_inline(self):
        campaign = _grid()
        kwargs = dict(trace_count=64, streaming=True, chunk_size=24,
                      compute_disclosure=False)
        serial = campaign.run(**kwargs)
        # Both workers SIGKILL after their first claim and the respawn
        # budget is zero: the scheduler must finish the run inline.
        service = _service(
            campaign,
            ServiceConfig(workers=2, heartbeat_timeout_s=0.75,
                          max_respawns=0),
            fault_injection=FaultInjection(kill_after_claims={0: 1, 1: 1}))
        telemetry = Telemetry()
        with service, use(telemetry):
            served = service.run("grid", **kwargs)
        root = telemetry.snapshot()
        assert root.total("serve.degraded") >= 1
        assert root.total("serve.workers_lost") == 2
        assert served.rows == serial.rows

    def test_worker_error_surfaces_as_serve_error(self):
        campaign = _grid()
        started = time.monotonic()
        with _service(campaign) as service:
            # Reconfiguring the grid after start changes the fingerprint:
            # every worker rejects the spec and the run must fail loudly.
            campaign.add_noise("level-99")
            with pytest.raises(ServeError, match="failed in worker"):
                service.run("grid", trace_count=64, streaming=True,
                            chunk_size=24, compute_disclosure=False)
        # A worker whose plan failed fails the run's later jobs at once,
        # so shutdown never waits out a join timeout on a blocked worker.
        assert time.monotonic() - started < 3.0


# ------------------------------------------------------- scheduling seams
class TestSchedulingSeams:
    def test_empty_scenario_list_yields_nothing(self, tmp_path):
        # A fully resumed store re-run leaves no scenario to schedule: the
        # pooled run must schedule nothing and return the same table.
        campaign = _grid()
        kwargs = dict(trace_count=32, compute_disclosure=False,
                      store=tmp_path / "st", workers=2)
        first = campaign.run(**kwargs)
        frames = _store_bytes(tmp_path / "st")
        telemetry = Telemetry()
        resumed = campaign.run(telemetry=telemetry, **kwargs)
        assert telemetry.snapshot().total("serve.jobs") == 0
        assert resumed.table() == first.table()
        assert _store_bytes(tmp_path / "st") == frames

    def test_empty_sweep_grid_yields_nothing(self, tmp_path):
        from repro.asyncaes.netlist_gen import build_aes_netlist
        from repro.pnr.sweep import PlacementSweep

        sweep = PlacementSweep(
            netlist_factory=lambda: build_aes_netlist(word_width=4,
                                                      detail=0.15),
            effort=0.1, initial_acceptance=(0.3, 0.5), cooling=(0.7,))
        first = sweep.run(workers=2, store=tmp_path / "st")
        frames = _store_bytes(tmp_path / "st")
        telemetry = Telemetry()
        resumed = sweep.run(workers=2, store=tmp_path / "st",
                            telemetry=telemetry)
        assert telemetry.snapshot().total("serve.jobs") == 0
        assert resumed.as_table() == first.as_table()
        assert _store_bytes(tmp_path / "st") == frames

    def test_duplicate_labels_run_without_a_store(self, tmp_path):
        # Scenario keys need to be unique only to name store shards.
        campaign = _grid(noises=1, costs=(1, 1))
        kwargs = dict(trace_count=32, compute_disclosure=False, drc="off")
        serial = campaign.run(**kwargs)
        assert len(serial.rows) == 2
        assert campaign.run(workers=2, **kwargs).rows == serial.rows
        with pytest.raises(ValueError, match="duplicate scenario keys"):
            campaign.run(store=tmp_path / "st", **kwargs)

    def test_inline_run_builds_no_pool_artifacts(self, monkeypatch):
        import repro.serve.scheduler as scheduler

        def forbidden(*_args, **_kwargs):
            raise AssertionError("built for an inline run without a store")

        # Keys, fingerprints and specs only serve stores and pool workers.
        monkeypatch.setattr(AttackCampaign, "_scenario_keys",
                            staticmethod(forbidden))
        monkeypatch.setattr(AttackCampaign, "_grid_fingerprint", forbidden)
        monkeypatch.setattr(scheduler, "RunSpec", forbidden)
        result = _grid().run(trace_count=32, compute_disclosure=False)
        assert len(result.rows) == 4

    def test_one_run_pool_streams_whole_scenarios(self):
        # A one-run pool streams each scenario whole inside a worker, as
        # the serial run does: one job per scenario, no chunk shipped, the
        # serial span tree.
        kwargs = dict(trace_count=64, streaming=True, chunk_size=16,
                      compute_disclosure=False)
        serial_tm, pooled_tm = Telemetry(), Telemetry()
        serial = _grid().run(telemetry=serial_tm, **kwargs)
        pooled = _grid().run(workers=2, telemetry=pooled_tm, **kwargs)
        assert pooled.table() == serial.table()
        root = pooled_tm.snapshot()
        assert root.total("serve.jobs") == 4
        assert root.total("serve.shm_bytes") == 0
        assert root.shape() == serial_tm.snapshot().shape()

    def test_drc_preflight_runs_once_under_sharding(self):
        from repro.drc import default_registry

        campaign = _grid(noises=4)
        telemetry = Telemetry()
        campaign.run(trace_count=32, compute_disclosure=False, workers=4,
                     drc="warn", telemetry=telemetry)
        expected = len(default_registry().rules(layer="campaign"))
        assert expected > 0
        # One evaluation per rule in the whole tree: the pre-flight ran in
        # the parent only, never again inside the forked shard workers.
        assert telemetry.snapshot().total("drc_rules") == expected

    def test_uneven_grid_spreads_chunks_over_workers(self):
        campaign = _grid(noises=2, costs=(1, 4))
        telemetry = Telemetry()
        with _service(campaign) as service, use(telemetry):
            service.run("grid", trace_count=64, streaming=True,
                        chunk_size=16, compute_disclosure=False)
        root = telemetry.snapshot()
        # 4 scenarios x 4 chunks each, all scheduled as independent jobs.
        assert root.total("serve.jobs") == 16
        assert root.total("chunks") == 16
        assert root.total("traces") == 4 * 64


# ------------------------------------------------------------- lifecycle
class TestServiceLifecycle:
    def test_register_after_start_is_rejected(self):
        campaign = _grid()
        with _service(campaign) as service:
            with pytest.raises(ServeError, match="before start"):
                service.register("late", _grid())

    def test_unregistered_target_is_rejected(self):
        campaign = _grid()
        other = _grid()
        with _service(campaign) as service:
            with pytest.raises(ServeError, match="not registered"):
                other.run(trace_count=32, service=service)
            with pytest.raises(ServeError, match="no target registered"):
                service.run("missing", trace_count=32)

    def test_workers_and_keep_results_do_not_compose(self):
        campaign = _grid()
        with _service(campaign) as service:
            with pytest.raises(ValueError, match="owns the worker pool"):
                campaign.run(trace_count=32, workers=2, service=service)
            with pytest.raises(ValueError, match="keep_results"):
                campaign.run(trace_count=32, keep_results=True,
                             service=service)

    def test_worker_pids_are_live_and_distinct(self):
        campaign = _grid()
        with _service(campaign) as service:
            pids = service.worker_pids()
            assert len(pids) == 2 and len(set(pids)) == 2
        assert service.worker_pids() == []

    def test_service_requires_start(self):
        campaign = _grid()
        service = CampaignService(ServiceConfig(workers=1))
        service.register("grid", campaign)
        with pytest.raises(ServeError, match="not running"):
            campaign.run(trace_count=32, service=service)
