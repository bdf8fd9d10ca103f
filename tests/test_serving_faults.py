"""Tests for self-healing serving: pool isolation, fleet bisection."""

import multiprocessing

import numpy as np
import pytest

from repro.core.streaming import StreamingPTrack
from repro.exceptions import ConfigurationError
from repro.faults import (
    FaultPolicy,
    Outage,
    SampleDropout,
    Saturation,
    inject_faults,
)
from repro.serving import SessionPool, serve_fleet, synthesize_workload
from repro.serving import fleet as fleet_mod


def _workload(n=3, duration_s=20.0, seed=17):
    ws = synthesize_workload(n, duration_s, seed=seed)
    return [w.samples for w in ws], [w.profile for w in ws]


class TestPoolErrors:
    def test_length_mismatch_is_actionable(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match="positionally"):
            pool.append([sid], [np.zeros((10, 3)), np.zeros((10, 3))])

    def test_unknown_ids_reported_together(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match=r"\[7, 9\]"):
            pool.append(
                [sid, 7, 9],
                [np.zeros((10, 3))] * 3,
            )

    def test_duplicate_ids_rejected(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        with pytest.raises(ConfigurationError, match="duplicate"):
            pool.append([sid, sid], [np.zeros((10, 3))] * 2)

    def test_errors_raised_before_any_ingest(self):
        pool = SessionPool(100.0)
        sid = pool.add_session()
        try:
            pool.append([sid, 99], [np.zeros((10, 3))] * 2)
        except ConfigurationError:
            pass
        assert pool.session(sid).op_stats.samples_in == 0


class TestPoolIsolation:
    def test_poisoned_session_does_not_stop_the_pool(self):
        traces, profiles = _workload(3)
        pool = SessionPool(100.0)
        sids = pool.add_sessions(profiles)
        bad = np.full((50, 3), np.nan)  # strict sessions raise on NaN
        for off in range(0, traces[0].shape[0], 50):
            batches = [t[off : off + 50] for t in traces]
            if off == 500:
                batches[1] = bad
            pool.append(sids, batches)
        pool.flush(sids)
        assert pool.session_status(sids[1]) == "failed"
        assert sids[1] in pool.failed_sessions
        assert "SignalError" in pool.failed_sessions[sids[1]]
        assert pool.session_status(sids[0]) == "ok"
        assert pool.step_count(sids[0]) > 0
        assert pool.step_count(sids[2]) > 0

    def test_survivors_identical_to_solo_runs(self):
        traces, profiles = _workload(2)
        solo = StreamingPTrack(100.0, profile=profiles[0])
        events = []
        for off in range(0, traces[0].shape[0], 50):
            steps, _ = solo.append(traces[0][off : off + 50])
            events.extend(steps)
        steps, _ = solo.flush()
        events.extend(steps)

        pool = SessionPool(100.0)
        sids = pool.add_sessions(profiles)
        pooled = []
        for off in range(0, traces[0].shape[0], 50):
            batches = [t[off : off + 50] for t in traces]
            if off == 500:
                batches[1] = np.full((50, 3), np.nan)
            out = pool.append(sids, batches)
            pooled.extend(out[0][0])
        out = pool.flush(sids)
        pooled.extend(out[0][0])
        assert [(e.index, e.time) for e in pooled] == [
            (e.index, e.time) for e in events
        ]

    def test_isolation_off_restores_fail_fast(self):
        pool = SessionPool(100.0, isolate_failures=False)
        sid = pool.add_session()
        with pytest.raises(Exception):
            pool.append([sid], [np.full((50, 3), np.nan)])

    def test_revive_returns_session_to_rotation(self):
        traces, profiles = _workload(1)
        pool = SessionPool(100.0)
        sid = pool.add_session(profiles[0])
        pool.append([sid], [np.full((50, 3), np.nan)])
        assert pool.session_status(sid) == "failed"
        pool.revive_session(sid)
        assert pool.session_status(sid) == "ok"
        for off in range(0, traces[0].shape[0], 50):
            pool.append([sid], [traces[0][off : off + 50]])
        pool.flush([sid])
        assert pool.step_count(sid) > 0


class TestEagerValidation:
    def test_wrong_shape_names_the_trace(self):
        with pytest.raises(ConfigurationError, match="trace 1"):
            serve_fleet([np.zeros((10, 3)), np.zeros((10, 2))], 100.0)

    def test_non_numeric_dtype_rejected(self):
        with pytest.raises(ConfigurationError, match="float-convertible"):
            serve_fleet([np.array([["a", "b", "c"]])], 100.0)

    def test_non_finite_requires_fault_policy(self):
        bad = np.zeros((100, 3))
        bad[5] = np.inf
        with pytest.raises(ConfigurationError, match="fault_policy"):
            serve_fleet([bad], 100.0)

    def test_profile_length_mismatch(self):
        traces, profiles = _workload(2)
        with pytest.raises(ConfigurationError, match="profiles"):
            serve_fleet(traces, 100.0, profiles=profiles[:1])

    def test_empty_fleet_is_ok(self):
        report = serve_fleet([], 100.0)
        assert report.status == "ok"
        assert report.sessions == ()

    @pytest.mark.parametrize(
        "rate, kwargs, match",
        [
            (0.0, {}, "sample_rate_hz"),
            (100.0, {"settle_s": -1.0}, "settle_s"),
            (100.0, {"max_buffer_s": 0.0}, "max_buffer_s"),
        ],
    )
    def test_bad_stream_params_raise_before_serving(
        self, monkeypatch, rate, kwargs, match
    ):
        # The caller gets the error; no shard is served and bisected.
        def unreachable(job):
            raise AssertionError("a shard was served")

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", unreachable)
        traces, _ = _workload(2)
        with pytest.raises(ConfigurationError, match=match):
            fleet_mod.serve_fleet(traces, rate, workers=1, **kwargs)


class TestDegradedFleet:
    def test_faulted_fleet_completes_with_counters(self):
        traces, profiles = _workload(3, duration_s=30.0)
        faulted = [
            inject_faults(
                t,
                [
                    SampleDropout(prob=0.03),
                    Outage(rate_per_min=4.0, min_gap_s=0.5, max_gap_s=1.0),
                ],
                seed=23,
                index=i,
            )
            for i, t in enumerate(traces)
        ]
        report = serve_fleet(
            faulted, 100.0, profiles=profiles, fault_policy=FaultPolicy()
        )
        assert report.status == "ok"
        assert len(report.sessions) == 3
        assert all(s.status == "ok" for s in report.sessions)
        assert report.samples_repaired > 0
        assert report.samples_rejected > 0
        assert report.gaps_reset > 0
        assert report.total_steps > 0

    def test_saturating_fleet_loses_no_session(self):
        # Dropout, outages and clipping together, repaired under a
        # policy that knows the clip limit: every session completes and
        # the defects reach the health counters.
        ws = synthesize_workload(4, 20.0, seed=5)
        injectors = [
            SampleDropout(prob=0.02),
            Outage(rate_per_min=1.0, min_gap_s=0.5, max_gap_s=1.5),
            Saturation(limit=20.0),
        ]
        traces = [
            inject_faults(w.samples, injectors, seed=5, index=i)
            for i, w in enumerate(ws)
        ]
        report = serve_fleet(
            traces,
            100.0,
            profiles=[w.profile for w in ws],
            batch_samples=50,
            workers=1,
            fault_policy=FaultPolicy(saturation_limit=20.0),
        )
        assert len(report.sessions) == 4
        assert all(s.status == "ok" for s in report.sessions)
        assert report.samples_repaired + report.samples_rejected > 0

    def test_clean_fleet_identical_with_policy(self):
        traces, profiles = _workload(3)
        base = serve_fleet(traces, 100.0, profiles=profiles)
        hardened = serve_fleet(
            traces, 100.0, profiles=profiles, fault_policy=FaultPolicy()
        )
        sig = lambda r: [
            [(e.index, e.time) for e in s.steps] for s in r.sessions
        ]
        assert sig(base) == sig(hardened)
        assert hardened.samples_repaired == 0
        assert hardened.gaps_reset == 0


class TestShardHealing:
    def test_killed_shard_is_bisected_to_the_culprit(self, monkeypatch):
        traces, profiles = _workload(4)
        real = fleet_mod._serve_shard_epoch

        def poisoned(job):
            if 2 in job[0].indices:
                raise RuntimeError("worker down")
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", poisoned)
        report = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=1,
            sessions_per_shard=4,
        )
        assert report.status == "degraded"
        assert report.n_failed == 1
        assert report.shard_retries >= 1
        failed = report.sessions[2]
        assert failed.status == "failed"
        assert "worker down" in failed.error
        # Every other session completed with real credits.
        for i in (0, 1, 3):
            assert report.sessions[i].status == "ok"
            assert report.sessions[i].step_count > 0

    def test_healed_survivors_identical_to_clean_run(self, monkeypatch):
        traces, profiles = _workload(4)
        clean = serve_fleet(
            traces, 100.0, profiles=profiles, sessions_per_shard=4
        )
        real = fleet_mod._serve_shard_epoch

        def poisoned(job):
            if 2 in job[0].indices:
                raise RuntimeError("worker down")
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", poisoned)
        healed = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=1,
            sessions_per_shard=4,
        )
        for i in (0, 1, 3):
            assert [(e.index, e.time) for e in healed.sessions[i].steps] == [
                (e.index, e.time) for e in clean.sessions[i].steps
            ]

    @pytest.mark.parametrize(
        "checkpoint_every_s, failing_call, retries, restores",
        [
            (None, 1, 1, 0),  # classic: replay the whole stream
            (4.0, 1, 1, 0),  # durable, before the first checkpoint
            (4.0, 2, 0, 1),  # durable, resumed from a checkpoint
        ],
    )
    def test_every_failed_attempt_is_counted(
        self, monkeypatch, checkpoint_every_s, failing_call, retries, restores
    ):
        traces, profiles = _workload(2)
        clean = serve_fleet(traces, 100.0, profiles=profiles, workers=1)
        real = fleet_mod._serve_shard_epoch
        calls = []

        def flaky(job):
            calls.append(job)
            if len(calls) == failing_call:
                raise RuntimeError("transient")
            return real(job)

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", flaky)
        report = fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=1,
            telemetry=True,
            checkpoint_every_s=checkpoint_every_s,
        )
        assert report.status == "ok"
        assert report.shard_retries == retries
        assert report.checkpoint_restores == restores
        counters = report.telemetry["counters"]
        assert counters["serving_fleet_shard_retries_total"] == retries
        assert (
            counters["serving_fleet_checkpoint_restores_total"] == restores
        )
        assert [s.steps for s in report.sessions] == [
            s.steps for s in clean.sessions
        ]

    def test_all_shards_poisoned_still_returns(self, monkeypatch):
        traces, profiles = _workload(2)

        def always_down(job):
            raise RuntimeError("rack on fire")

        monkeypatch.setattr(fleet_mod, "_serve_shard_epoch", always_down)
        report = fleet_mod.serve_fleet(
            traces, 100.0, profiles=profiles, sessions_per_shard=2
        )
        assert report.status == "degraded"
        assert report.n_failed == 2
        assert all("rack on fire" in s.error for s in report.sessions)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="worker-kill test relies on fork start method",
    )
    def test_killed_worker_process_recovers(self):
        # A shard whose worker dies (the hard failure mode: SIGKILL,
        # OOM) must be healed by bisection in a fresh pool, not crash
        # serve_fleet.
        traces, profiles = _workload(2, duration_s=10.0)
        report = _serve_with_kill(traces, profiles)
        assert len(report.sessions) == 2
        assert report.n_failed <= 1
        ok = [s for s in report.sessions if s.status == "ok"]
        assert ok  # at least one session survives the dead worker
        for s in report.sessions:
            if s.status == "failed":
                assert "BrokenProcessPool" in s.error or "Timeout" in s.error


# Captured at import time, before any test patches the module attr —
# _kill_if_marked must delegate to the real implementation.
_REAL_SERVE_SHARD = fleet_mod._serve_shard_epoch


def _kill_if_marked(job):
    import os
    import signal

    if job[0].indices == [0]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_SERVE_SHARD(job)


def _serve_with_kill(traces, profiles):
    original = fleet_mod._serve_shard_epoch
    # Patch at module level so the fork-started workers inherit it.
    fleet_mod._serve_shard_epoch = _kill_if_marked  # type: ignore[assignment]
    try:
        return fleet_mod.serve_fleet(
            traces,
            100.0,
            profiles=profiles,
            workers=2,
            sessions_per_shard=1,
            shard_timeout_s=120.0,
        )
    finally:
        fleet_mod._serve_shard_epoch = original  # type: ignore[assignment]
