"""Tests for the fleet-batched serving path.

Three layers:

* kernel differentials — every batched signal/measurement kernel
  against its scalar reference, bit for bit, on ragged inputs
  (hypothesis-driven where the input space is wide);
* pool equivalence — :class:`BatchedSessionPool` against serial
  sessions and the lockstep pool: credits, op-stats, chunk invariance,
  sessions joining/leaving mid-stream, failed-session exclusion, and
  the batched flush against each session's own flush;
* scratch-buffer mechanics — :class:`FleetBatchBuffer` growth/reuse.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batched import (
    batched_cycle_solutions,
    batched_stage_measurements,
)
from repro.core.config import PTrackConfig
from repro.core.offset import cycle_offset
from repro.core.streaming import StreamingPTrack
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import ConfigurationError, SignalError
from repro.faults import FaultPolicy
from repro.runtime import derive_rng
from repro.serving import (
    BatchedSessionPool,
    FleetBatchBuffer,
    IngestGateway,
    SessionPool,
    synthesize_workload,
)
from repro.signal.batched import (
    batched_crossing_indices,
    batched_segment_windows,
    crossing_indices,
    multi_window_extrema,
    pack_windows,
)
from repro.signal.peaks import detect_peaks, detect_valleys
from repro.signal.projection import anterior_direction, project_horizontal
from repro.signal.segmentation import segment_gait_cycles
from repro.simulation import SessionBuilder, sample_users
from repro.telemetry.registry import MetricsRegistry
from repro.types import GaitType, UserProfile

RATE = 100.0


def _walky(n, seed, freq=1.8, noise=0.25):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / RATE
    return np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(n)


# ----------------------------------------------------------------------
# Kernel differentials
# ----------------------------------------------------------------------

ragged_windows = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=160),
        st.integers(min_value=0, max_value=10_000),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(ragged_windows, st.floats(0.05, 1.0), st.integers(1, 12))
def test_multi_window_extrema_matches_scalar(specs, prom, dist):
    windows = [_walky(n, seed) for n, seed in specs]
    for negate, scalar in ((False, detect_peaks), (True, detect_valleys)):
        got = multi_window_extrema(windows, prom, dist, negate=negate)
        assert len(got) == len(windows)
        for w, g in zip(windows, got):
            np.testing.assert_array_equal(
                g, scalar(w, min_prominence=prom, min_distance=dist)
            )


def test_multi_window_extrema_per_window_params():
    windows = [_walky(120, 3), _walky(80, 4), _walky(50, 5)]
    proms = [0.2, 0.5, 0.9]
    dists = [1, 5, 9]
    got = multi_window_extrema(windows, proms, dists)
    for w, p, d, g in zip(windows, proms, dists, got):
        np.testing.assert_array_equal(
            g, detect_peaks(w, min_prominence=p, min_distance=d)
        )


@settings(max_examples=40, deadline=None)
@given(ragged_windows, st.floats(0.01, 0.8))
def test_batched_crossing_indices_matches_scalar(specs, hyst):
    windows = [_walky(n, seed, noise=0.4) for n, seed in specs]
    got = batched_crossing_indices(windows, hyst)
    assert len(got) == len(windows)
    for w, g in zip(windows, got):
        np.testing.assert_array_equal(g, crossing_indices(w, hyst))


@settings(max_examples=25, deadline=None)
@given(ragged_windows)
def test_batched_segment_windows_matches_scalar(specs):
    windows = [_walky(max(n, 0), seed) for n, seed in specs]
    got = batched_segment_windows(windows, RATE)
    for w, g in zip(windows, got):
        assert g == segment_gait_cycles(w, RATE)


def test_batched_segment_windows_poisoned_window_in_place():
    good = _walky(200, 7)
    bad = good.copy()
    bad[50] = np.nan
    results = batched_segment_windows([good, bad, good], RATE)
    assert results[0] == segment_gait_cycles(good, RATE) == results[2]
    assert isinstance(results[1], SignalError)


def test_pack_windows_separators_and_negation():
    windows = [_walky(9, 0), np.empty(0), _walky(4, 1)]
    concat, starts, lens = pack_windows(windows)
    assert concat.size == sum(w.size for w in windows) + len(windows)
    for s, n, w in zip(starts, lens, windows):
        np.testing.assert_array_equal(concat[s : s + n], w)
        assert concat[s + n] == np.inf
    neg, starts2, _ = pack_windows(windows, negate=True, fill=0.0)
    np.testing.assert_array_equal(starts, starts2)
    for s, n, w in zip(starts2, lens, windows):
        np.testing.assert_array_equal(neg[s : s + n], -w)
        assert neg[s + n] == 0.0


def _scalar_stage(v_seg, h_seg, cfg):
    """The measurement half of StreamingPTrack._stage, verbatim."""
    anterior_ok = True
    try:
        direction = anterior_direction(h_seg)
        a_seg = project_horizontal(h_seg, direction)
    except SignalError:
        a_seg = np.zeros_like(v_seg)
        anterior_ok = False
    motion_ok = float(np.std(v_seg - v_seg.mean())) >= cfg.min_vertical_std
    offset = cycle_offset(v_seg, a_seg, cfg) if motion_ok else 0.0
    return a_seg, anterior_ok, motion_ok, offset


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=4, max_value=140),
            st.integers(min_value=0, max_value=10_000),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_batched_stage_measurements_matches_scalar(specs):
    cfg = PTrackConfig()
    v_segs = [_walky(n, seed) for n, seed in specs]
    h_segs = [
        np.column_stack([_walky(n, seed + 1), _walky(n, seed + 2, freq=0.9)])
        for n, seed in specs
    ]
    got = batched_stage_measurements(v_segs, h_segs, cfg)
    assert len(got) == len(specs)
    for v, h, m in zip(v_segs, h_segs, got):
        a_ref, ant_ref, mot_ref, off_ref = _scalar_stage(v, h, cfg)
        a_seg, anterior_ok, motion_ok, offset = m
        assert anterior_ok == ant_ref
        assert motion_ok == mot_ref
        assert offset == off_ref  # bitwise
        np.testing.assert_array_equal(a_seg, a_ref)


def test_batched_stage_measurements_short_moving_cycle_errors_in_place():
    cfg = PTrackConfig()
    # 3-sample cycle with enough variance to pass the motion gate: the
    # scalar path raises out of the offset extraction.
    v = np.asarray([0.0, 5.0, -5.0])
    h = np.column_stack([v, v * 0.5])
    ok_v = _walky(80, 1)
    ok_h = np.column_stack([_walky(80, 2), _walky(80, 3)])
    got = batched_stage_measurements([ok_v, v], [ok_h, h], cfg)
    assert isinstance(got[1], SignalError)
    a_ref, ant_ref, mot_ref, off_ref = _scalar_stage(ok_v, ok_h, cfg)
    assert got[0][1] == ant_ref and got[0][2] == mot_ref
    assert got[0][3] == off_ref


@pytest.mark.parametrize("gait", [GaitType.STEPPING, GaitType.WALKING])
def test_batched_cycle_solutions_matches_scalar(gait):
    profile = UserProfile(arm_length_m=0.7, leg_length_m=0.9, calibration_k=2.0)
    estimator = PTrackStrideEstimator(profile)
    dt = 1.0 / RATE
    items = []
    for seed in range(6):
        n = 60 + 7 * seed
        v = _walky(n, seed)
        h = np.column_stack([_walky(n, seed + 50), _walky(n, seed + 90)])
        a = _walky(n, seed + 130)
        items.append((v, h, a, gait, profile))
    got = batched_cycle_solutions(items, dt)
    for (v, h, a, g, _p), solved in zip(items, got):
        assert solved == estimator.cycle_stride(v, h, dt, g, a)


def test_batched_cycle_solutions_skips_unsolvable():
    profile = UserProfile(arm_length_m=0.7, leg_length_m=0.9, calibration_k=2.0)
    v = _walky(8, 0)  # too short for a WALKING solve
    h = np.column_stack([v, v])
    got = batched_cycle_solutions(
        [(v, h, None, GaitType.WALKING, profile)], 1.0 / RATE
    )
    assert got == [None]


# ----------------------------------------------------------------------
# Pool equivalence
# ----------------------------------------------------------------------


def _serve_serially(workloads, batch):
    results = []
    for w in workloads:
        sess = StreamingPTrack(RATE, profile=w.profile)
        steps, strides = [], []
        for off in range(0, w.samples.shape[0], batch):
            st_, sr = sess.append(w.samples[off : off + batch])
            steps.extend(st_)
            strides.extend(sr)
        st_, sr = sess.flush()
        steps.extend(st_)
        strides.extend(sr)
        results.append((steps, strides, sess.op_stats.as_dict()))
    return results


def _serve_batched(workloads, batch, pool_cls=BatchedSessionPool, **kw):
    pool = pool_cls(RATE, **kw)
    sids = pool.add_sessions([w.profile for w in workloads])
    results = [([], []) for _ in sids]
    longest = max(w.samples.shape[0] for w in workloads)
    for off in range(0, longest, batch):
        live = [k for k, w in enumerate(workloads) if off < w.samples.shape[0]]
        out = pool.append(
            [sids[k] for k in live],
            [workloads[k].samples[off : off + batch] for k in live],
        )
        for k, (st_, sr) in zip(live, out):
            results[k][0].extend(st_)
            results[k][1].extend(sr)
    for k, (st_, sr) in enumerate(pool.flush(sids)):
        results[k][0].extend(st_)
        results[k][1].extend(sr)
    return [
        (steps, strides, pool.session(sids[k]).op_stats.as_dict())
        for k, (steps, strides) in enumerate(results)
    ], pool


def _assert_credits_identical(got, ref):
    assert len(got) == len(ref)
    for (s1, r1, o1), (s2, r2, o2) in zip(got, ref):
        assert [(e.index, e.time, e.gait_type) for e in s1] == [
            (e.index, e.time, e.gait_type) for e in s2
        ]
        assert [(e.time, e.length_m, e.bounce_m) for e in r1] == [
            (e.time, e.length_m, e.bounce_m) for e in r2
        ]
        assert o1 == o2


def test_batched_pool_bit_identical_to_serial_and_lockstep():
    workloads = synthesize_workload(6, 16.0, seed=21)
    serial = _serve_serially(workloads, batch=64)
    batched, _ = _serve_batched(workloads, batch=64)
    lockstep, _ = _serve_batched(workloads, batch=64, pool_cls=SessionPool)
    _assert_credits_identical(batched, serial)
    _assert_credits_identical(lockstep, serial)


@pytest.mark.parametrize("n_sessions", [4, 16])
def test_batched_pool_steps_track_truth(n_sessions):
    # Fleet-wide steps stay within six per session of the simulator's
    # ground truth, through the batched rounds and the batched flush.
    workloads = synthesize_workload(n_sessions, 8.0, seed=13)
    _, pool = _serve_batched(workloads, batch=256)
    truth = sum(w.true_steps for w in workloads)
    assert abs(pool.total_steps - truth) <= 6 * n_sessions


def test_batched_pool_ragged_session_lengths():
    # Sessions leave mid-stream: shorter traces stop receiving batches
    # while the rest keep going.
    import dataclasses

    workloads = [
        dataclasses.replace(w, samples=w.samples[: (k + 2) * 300])
        for k, w in enumerate(synthesize_workload(5, 20.0, seed=22))
    ]
    serial = _serve_serially(workloads, batch=96)
    batched, _ = _serve_batched(workloads, batch=96)
    _assert_credits_identical(batched, serial)


def test_batched_pool_session_joins_mid_round():
    workloads = synthesize_workload(3, 14.0, seed=23)
    late = workloads[2]
    pool = BatchedSessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads[:2]])
    acc = {sid: ([], []) for sid in sids}
    batch = 128
    n = workloads[0].samples.shape[0]
    late_sid = None
    for off in range(0, n, batch):
        ids = list(sids)
        data = [w.samples[off : off + batch] for w in workloads[:2]]
        if off >= 512:
            if late_sid is None:
                (late_sid,) = pool.add_sessions([late.profile])
                acc[late_sid] = ([], [])
            ids.append(late_sid)
            data.append(late.samples[off - 512 : off - 512 + batch])
        for sid, (st_, sr) in zip(ids, pool.append(ids, data)):
            acc[sid][0].extend(st_)
            acc[sid][1].extend(sr)
    for sid, (st_, sr) in zip(
        list(sids) + [late_sid], pool.flush(list(sids) + [late_sid])
    ):
        acc[sid][0].extend(st_)
        acc[sid][1].extend(sr)
    # Serial references: the two originals see the full trace, the
    # late joiner sees its suffix-aligned stream.
    refs = _serve_serially(workloads[:2], batch=batch)
    for sid, (steps, strides, _ops) in zip(sids, refs):
        assert [e.index for e in acc[sid][0]] == [e.index for e in steps]
        assert [e.length_m for e in acc[sid][1]] == [
            e.length_m for e in strides
        ]
    sess = StreamingPTrack(RATE, profile=late.profile)
    ref_steps, ref_strides = [], []
    for off in range(0, n - 512, batch):
        st_, sr = sess.append(late.samples[off : off + batch])
        ref_steps.extend(st_)
        ref_strides.extend(sr)
    st_, sr = sess.flush()
    ref_steps.extend(st_)
    ref_strides.extend(sr)
    assert [e.index for e in acc[late_sid][0]] == [e.index for e in ref_steps]
    assert [e.length_m for e in acc[late_sid][1]] == [
        e.length_m for e in ref_strides
    ]


def test_batched_pool_failed_session_excluded_from_pack():
    workloads = synthesize_workload(4, 12.0, seed=24)
    pool = BatchedSessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads])
    batch = 128
    # Poison session 1 on the second append with a wrong-dtype batch.
    out = pool.append(sids, [w.samples[:batch] for w in workloads])
    assert all(isinstance(o, tuple) for o in out)
    bad = workloads[1].samples[batch : 2 * batch].astype(np.float32)
    data = [w.samples[batch : 2 * batch] for w in workloads]
    data[1] = bad
    pool.append(sids, data)
    assert sids[1] in pool.failed_sessions
    # The survivors keep crediting bit-identically to serial sessions.
    acc = {sid: ([], []) for sid in sids}
    n = workloads[0].samples.shape[0]
    for off in range(2 * batch, n, batch):
        out = pool.append(sids, [w.samples[off : off + batch] for w in workloads])
        for sid, (st_, sr) in zip(sids, out):
            acc[sid][0].extend(st_)
            acc[sid][1].extend(sr)
    for sid, (st_, sr) in zip(sids, pool.flush(sids)):
        acc[sid][0].extend(st_)
        acc[sid][1].extend(sr)
    assert acc[sids[1]] == ([], [])
    serial = _serve_serially(
        [w for k, w in enumerate(workloads) if k != 1], batch=batch
    )
    for (steps, strides, _), sid in zip(serial, [sids[0], sids[2], sids[3]]):
        # Credits delivered before the poisoning are not in acc; match
        # on the suffix the serial trace credits after that point.
        got = [e.index for e in acc[sid][0]]
        ref = [e.index for e in steps]
        assert got == ref[len(ref) - len(got) :]


def test_batched_pool_chunk_invariant_credits():
    workloads = synthesize_workload(4, 15.0, seed=25)
    a, _ = _serve_batched(workloads, batch=64)
    b, _ = _serve_batched(workloads, batch=512)
    for (s1, r1, _o1), (s2, r2, _o2) in zip(a, b):
        assert [(e.index, e.time) for e in s1] == [(e.index, e.time) for e in s2]
        assert [(e.time, e.length_m) for e in r1] == [
            (e.time, e.length_m) for e in r2
        ]


def test_batched_pool_telemetry_instruments():
    from repro.telemetry.registry import MetricsRegistry

    reg = MetricsRegistry()
    workloads = synthesize_workload(3, 10.0, seed=27)
    pool = BatchedSessionPool(RATE, telemetry=reg)
    sids = pool.add_sessions([w.profile for w in workloads])
    for off in range(0, workloads[0].samples.shape[0], 256):
        pool.append(sids, [w.samples[off : off + 256] for w in workloads])
    pool.flush(sids)
    snap = reg.snapshot()
    assert snap["counters"]["serving_batch_appends_total"] > 0
    occupancy = snap["histograms"]["serving_batch_occupancy"]
    assert occupancy["count"] > 0
    assert occupancy["sum"] >= occupancy["count"]  # >= 1 due per round
    assert snap["gauges"]["serving_batch_sessions"] == 3
    assert snap["histograms"]["serving_batch_round_seconds"]["count"] > 0


# ----------------------------------------------------------------------
# Batched flush
#
# BatchedSessionPool.flush runs the flush tail through the batched
# rounds; every case pins it to each session's own
# StreamingPTrack.flush: credits, op-stats, drained self-training
# observations and the published ptrack_* counters.
# ----------------------------------------------------------------------


def _flush_fixture(streams, profiles, batch=96, **kw):
    """A batched pool and one solo reference session per stream, both
    fed ``streams`` in ``batch``-sample appends (an empty stream never
    receives a sample), with appended credits already checked equal."""
    pool_reg, ref_reg = MetricsRegistry(), MetricsRegistry()
    pool = BatchedSessionPool(
        RATE, telemetry=pool_reg, collect_observations=True, **kw
    )
    sids = pool.add_sessions(profiles)
    refs = [
        StreamingPTrack(
            RATE, profile=p, telemetry=ref_reg, collect_observations=True, **kw
        )
        for p in profiles
    ]
    longest = max(x.shape[0] for x in streams)
    for off in range(0, longest, batch):
        live = [k for k, x in enumerate(streams) if off < x.shape[0]]
        out = pool.append(
            [sids[k] for k in live],
            [streams[k][off : off + batch] for k in live],
        )
        for k, got in zip(live, out):
            assert got == refs[k].append(streams[k][off : off + batch])
    return pool, sids, refs, pool_reg, ref_reg


def _same_state(a, b):
    """Deep equality of snapshot state, arrays compared bit for bit."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(
            a, b, equal_nan=True
        ) and a.shape == b.shape
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return (
            type(a) is type(b)
            and len(a) == len(b)
            and all(_same_state(x, y) for x, y in zip(a, b))
        )
    return a == b


def _assert_flushed_like(pool, sids, refs, got, flushed):
    """``got`` (pool.flush of the ``flushed`` positions) equals each
    reference's own flush, and every session's state matches after."""
    want = [refs[k].flush() for k in flushed]
    assert got == want
    for sid, ref in zip(sids, refs):
        assert pool.session(sid).op_stats == ref.op_stats
        assert _same_state(
            pool.session(sid).snapshot()["state"], ref.snapshot()["state"]
        )
    observations = pool.take_observations()
    for sid, ref in zip(sids, refs):
        assert observations.get(sid, []) == ref.take_pending_observations()


def _assert_counters_equal(pool_reg, ref_reg):
    got = dict(pool_reg.snapshot()["counters"])
    want = dict(ref_reg.snapshot()["counters"])
    ptrack = {k: v for k, v in want.items() if k.startswith("ptrack_")}
    assert got.pop("ptrack_distance_m_total", 0.0) == pytest.approx(
        ptrack.pop("ptrack_distance_m_total", 0.0), rel=1e-12
    )
    assert {k: v for k, v in got.items() if k.startswith("ptrack_")} == ptrack


def test_batched_flush_bit_identical_to_streaming_flush():
    # Ragged lengths put every session's head at a different phase of
    # its hop, so the drained boundaries and finalising filter blocks
    # differ per session; the last session never receives a sample.
    # One session ends mid stepping streak, which only the end-of-flush
    # retirement clears.
    workloads = synthesize_workload(5, 14.0, seed=31)
    streams = [
        w.samples[: w.samples.shape[0] - 37 * k]
        for k, w in enumerate(workloads)
    ]
    streams[-1] = streams[-1][:0]
    profiles = [w.profile for w in workloads]
    (stepper,) = sample_users(1, derive_rng(39), name_prefix="stepper")
    builder = SessionBuilder(stepper, rng=derive_rng(39, 0))
    builder.walk(4.0)
    builder.step(5.0)
    trace = builder.build().trace
    streams[3] = np.ascontiguousarray(trace.linear_acceleration)
    profiles[3] = stepper.profile
    pool, sids, refs, pool_reg, ref_reg = _flush_fixture(streams, profiles)
    got = pool.flush()
    _assert_flushed_like(pool, sids, refs, got, range(len(sids)))
    assert got[-1] == ([], [])
    assert sum(len(steps) for steps, _ in got) > 0
    _assert_counters_equal(pool_reg, ref_reg)


def test_batched_flush_quarantines_trailing_defect():
    workloads = synthesize_workload(3, 12.0, seed=32)
    streams = [w.samples.copy() for w in workloads]
    # A defect shorter than the repair bound at the very end has no
    # right-hand sample to repair against: flush must reject it.
    streams[1][-12:] = np.nan
    policy = FaultPolicy()
    pool, sids, refs, pool_reg, ref_reg = _flush_fixture(
        streams, [w.profile for w in workloads], fault_policy=policy
    )
    got = pool.flush(sids)
    _assert_flushed_like(pool, sids, refs, got, range(len(sids)))
    assert pool.session(sids[1]).op_stats.samples_rejected == 12
    _assert_counters_equal(pool_reg, ref_reg)


def test_batched_flush_delivers_pending_gap_reset_credits():
    workloads = synthesize_workload(2, 12.0, seed=33)
    streams = [w.samples[:800] for w in workloads]
    pool, sids, refs, pool_reg, ref_reg = _flush_fixture(
        streams, [w.profile for w in workloads], fault_policy=FaultPolicy()
    )
    # An outage longer than the repair bound, ingested split-phase so
    # the credits its gap reset settles stay parked until the flush.
    for k, w in enumerate(workloads):
        tail = w.samples[800:1400].copy()
        tail[300:380] = np.nan
        pool.session(sids[k]).ingest(tail)
        refs[k].ingest(tail)
    assert all(ref._pending_credits is not None for ref in refs)
    got = pool.flush(sids)
    _assert_flushed_like(pool, sids, refs, got, range(len(sids)))
    assert all(steps for steps, _ in got)
    _assert_counters_equal(pool_reg, ref_reg)


def test_batched_flush_skips_sessions_failed_mid_stream():
    workloads = synthesize_workload(3, 12.0, seed=34)
    profiles = [w.profile for w in workloads]
    streams = [w.samples[:700] for w in workloads]
    pool, sids, refs, _, _ = _flush_fixture(streams, profiles)
    bad = workloads[1].samples[700:800].astype(np.float32)
    pool.append([sids[1]], [bad])
    assert sids[1] in pool.failed_sessions
    got = pool.flush(sids)
    assert got[1] == ([], [])
    assert got[0] == refs[0].flush()
    assert got[2] == refs[2].flush()


def test_batched_flush_isolates_a_failure_inside_the_flush():
    workloads = synthesize_workload(3, 12.0, seed=35)
    streams = [w.samples for w in workloads]
    profiles = [w.profile for w in workloads]
    results = {}
    for pool_cls in (SessionPool, BatchedSessionPool):
        pool = pool_cls(RATE)
        sids = pool.add_sessions(profiles)
        for off in range(0, streams[0].shape[0], 100):
            pool.append(sids, [x[off : off + 100] for x in streams])
        poisoned = pool.session(sids[0])

        def boom(*_args, **_kwargs):
            raise RuntimeError("poisoned segment")

        # Whichever pass of the flush segments first fails the session.
        poisoned.admit_cycles = boom
        results[pool_cls] = (pool.flush(sids), pool.failed_sessions)
    lockstep, batched = results[SessionPool], results[BatchedSessionPool]
    assert batched == lockstep
    assert batched[0][0] == ([], [])
    assert set(batched[1]) == {0}


def test_batched_flush_of_a_subset_leaves_the_rest_streaming():
    workloads = synthesize_workload(4, 14.0, seed=36)
    streams = [w.samples[:900] for w in workloads]
    pool, sids, refs, _, _ = _flush_fixture(
        streams, [w.profile for w in workloads]
    )
    subset = [2, 0]
    got = pool.flush([sids[k] for k in subset])
    _assert_flushed_like(pool, sids, refs, got, subset)
    # The unflushed sessions keep streaming exactly like their refs.
    for k in (1, 3):
        rest = workloads[k].samples[900:]
        assert pool.append([sids[k]], [rest])[0] == refs[k].append(rest)
    got = pool.flush([sids[3], sids[1]])
    _assert_flushed_like(pool, sids, refs, got, [3, 1])


def test_batched_flush_one_session_at_a_time():
    # The gateway's close_session path: each session settles alone.
    assert isinstance(IngestGateway(RATE).pool, BatchedSessionPool)
    workloads = synthesize_workload(3, 12.0, seed=37)
    streams = [w.samples[: 900 + 61 * k] for k, w in enumerate(workloads)]
    pool, sids, refs, pool_reg, ref_reg = _flush_fixture(
        streams, [w.profile for w in workloads]
    )
    for k, sid in enumerate(sids):
        _assert_flushed_like(pool, sids, refs, pool.flush([sid]), [k])
    _assert_counters_equal(pool_reg, ref_reg)


def test_batched_flush_rejects_bad_ids_before_touching_sessions():
    workloads = synthesize_workload(2, 8.0, seed=38)
    pool = BatchedSessionPool(RATE)
    sids = pool.add_sessions([w.profile for w in workloads])
    pool.append(sids, [w.samples[:400] for w in workloads])
    before = [pool.session(sid).op_stats for sid in sids]
    with pytest.raises(ConfigurationError, match="duplicate"):
        pool.flush([sids[0], sids[0]])
    with pytest.raises(ConfigurationError, match="unknown"):
        pool.flush([sids[1], 99])
    assert [pool.session(sid).op_stats for sid in sids] == before


# ----------------------------------------------------------------------
# FleetBatchBuffer
# ----------------------------------------------------------------------


def test_fleet_batch_buffer_growth_and_reuse():
    buf = FleetBatchBuffer()
    a = buf.request("x", 16)
    assert a.shape == (16,) and a.dtype == np.float64
    b = buf.request("x", 8)
    assert b.base is a.base or b.base is a  # same backing storage
    c = buf.request("x", (4, 8))
    assert c.shape == (4, 8)
    big = buf.request("x", 1024)
    assert big.size == 1024
    assert buf.nbytes >= 1024 * 8
    d = buf.request("ints", 10, dtype=np.intp)
    assert d.dtype == np.intp
    buf.clear()
    assert buf.nbytes == 0
