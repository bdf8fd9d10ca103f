"""The four workloads, one per public entry point, all closed-loop.

Every workload replays its seeded inputs as fast as the entry point
accepts them: the next upload, tick or append is issued as soon as the
previous call returns. All load comes from this one process
(``serve_fleet(workers=1)``), so the numbers measure the program rather
than the scheduler.

A workload's life in one benchmark run:

* :meth:`Workload.setup` generates the inputs (timed as ``setup_s``);
* :meth:`Workload.prepare` does untimed per-repetition preparation
  (fresh checkpoint and profile-store directories);
* :meth:`Workload.run` is the timed window, flush and disk I/O included,
  cut into consecutive *units* (one fleet call, one gateway tick with
  its offers and closes, one solo session) that tile the window;
* :meth:`Workload.check` replays a fixed stride of sessions through a
  serial :class:`~repro.core.StreamingPTrack` and compares credits bit
  for bit.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro.serving.fleet as fleet
from repro.core import StreamingPTrack
from repro.faults import ShardCrash
from repro.profiles import ProfileRecord, ProfileStore
from repro.serving import BatchedSessionPool, IngestGateway, synthesize_arrival_schedule
from repro.types import UserProfile

from traffic import Credits, Session, mixed_sessions, walkers

RATE_HZ = 100.0
#: Samples per upload: 0.5 s at 100 Hz, ``serve_fleet``'s default cadence.
BATCH = 50


def replay(samples: np.ndarray, profile: Optional[UserProfile], chunk: int = BATCH) -> Credits:
    """Serial reference: one ``StreamingPTrack`` fed ``chunk`` samples at
    a time, then flushed."""
    tracker = StreamingPTrack(RATE_HZ, profile=profile)
    steps: List = []
    strides: List = []
    for lo in range(0, samples.shape[0], chunk):
        st, sr = tracker.append(samples[lo : lo + chunk])
        steps += st
        strides += sr
    st, sr = tracker.flush()
    return tuple(steps + st), tuple(strides + sr)


class Units:
    """Wall and CPU time of consecutive units that tile a timed window."""

    def __init__(self) -> None:
        self.wall: List[float] = []
        self.cpu: List[float] = []
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()

    def lap(self) -> None:
        """Close the current unit and open the next one."""
        wall, cpu = time.perf_counter(), time.process_time()
        self.wall.append(wall - self._wall0)
        self.cpu.append(cpu - self._cpu0)
        self._wall0, self._cpu0 = wall, cpu


@dataclass
class Rep:
    """What one timed repetition produced."""

    units: Units
    samples: int
    #: Caller-visible call latencies in seconds.
    calls: List[float]
    #: End-of-session settle latencies in seconds (empty when the entry
    #: point settles sessions internally).
    flushes: List[float]
    #: Per-session credits, in input order.
    credits: List[Credits]
    attempted: int
    failed: int
    shed: int = 0
    #: Sessions not scored against whole-session truth (a gateway
    #: device that disconnected delivered only a prefix).
    unscored: Tuple[int, ...] = ()
    notes: Dict[str, int] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.units.wall)

    def scored_credits(self) -> List[Optional[Credits]]:
        """Credits with ``None`` in place of unscored sessions."""
        skip = set(self.unscored)
        return [None if i in skip else c for i, c in enumerate(self.credits)]


class Workload:
    """Base class; subclasses set the sizes and the entry point."""

    name = ""
    n_sessions = 0
    duration_s = 0.0

    def __init__(self, work_dir: Path, scale: float = 1.0) -> None:
        self.work_dir = work_dir
        self.n = max(2, int(round(self.n_sessions * scale)))
        self.sessions: List[Session] = []

    def setup(self, seed: int) -> None:
        self.sessions = walkers(self.n, self.duration_s, seed)

    def prepare(self) -> None:
        pass

    def run(self) -> Rep:
        raise NotImplementedError

    def reference(self, index: int) -> Credits:
        session = self.sessions[index]
        return replay(session.samples, session.profile)

    def check(self, rep: Rep) -> List[str]:
        """Bit-for-bit comparison against serial replay on a fixed stride."""
        problems = []
        stride = max(1, self.n // 12)
        for i in range(0, self.n, stride):
            got = rep.credits[i]
            want = self.reference(i)
            if got != want:
                problems.append(
                    f"session {i}: {len(got[0])} steps / {len(got[1])} strides differ "
                    f"from serial replay ({len(want[0])} / {len(want[1])})"
                )
        if rep.failed or rep.shed:
            problems.append(f"{rep.failed} failed sessions, {rep.shed} shed samples")
        return problems

    def cleanup(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)


def _fleet_rep(reports: List, units: Units) -> Rep:
    """One repetition of ``serve_fleet`` calls, each call one unit."""
    sessions = [s for report in reports for s in report.sessions]
    return Rep(
        units=units,
        samples=sum(report.n_samples for report in reports),
        calls=list(units.wall),
        flushes=[],
        credits=[(tuple(s.steps), tuple(s.strides)) for s in sessions],
        attempted=len(sessions),
        failed=sum(report.n_failed for report in reports),
        notes={
            key: sum(getattr(report, key) for report in reports)
            for key in ("checkpoint_restores", "profiles_loaded", "profiles_updated")
        },
    )


class FleetWalk(Workload):
    """Classic ``serve_fleet`` over concurrent uniform walkers."""

    name = "fleet_walk"
    n_sessions = 96
    duration_s = 10.0

    def run(self) -> Rep:
        traces = [s.samples for s in self.sessions]
        profiles = [s.profile for s in self.sessions]
        units = Units()
        report = fleet.serve_fleet(traces, RATE_HZ, profiles=profiles, workers=1)
        units.lap()
        return _fleet_rep([report], units)


class FleetDurableMixed(Workload):
    """Durable ``serve_fleet`` over mixed-activity traffic: on-disk
    checkpoints, injected shard crashes restored from disk, and a
    profile store warm-loading half the users with self-training on.

    The sessions are served as ``fleets`` consecutive ``serve_fleet``
    calls, so that a repetition is cut into units short enough for some
    of them to run while the machine is quiet (see ``best_of`` in
    ``run.py``).
    """

    name = "fleet_durable_mixed"
    n_sessions = 96
    duration_s = 16.0
    fleets = 8
    sessions_per_shard = 6
    checkpoint_every_s = 4.0
    crash = ShardCrash(prob=0.15, mode="raise")
    #: Fault seed of the first fleet; fleet ``k`` uses ``fault_seed + k``.
    fault_seed = 7

    def setup(self, seed: int) -> None:
        self.sessions = mixed_sessions(self.n, self.duration_s, seed)
        self.user_ids = [f"user-{i}" for i in range(self.n)]
        self.prepare()

    def prepare(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.store = ProfileStore(self.work_dir / "profiles")
        self.store.put_many(
            ProfileRecord(user_id=uid, profile=s.profile)
            for uid, s in zip(self.user_ids[::2], self.sessions[::2])
        )

    def run(self) -> Rep:
        # Even users warm-load from the store; odd users pass theirs.
        profiles = [None if i % 2 == 0 else s.profile for i, s in enumerate(self.sessions)]
        size = -(-self.n // self.fleets)
        reports = []
        units = Units()
        for k, lo in enumerate(range(0, self.n, size)):
            hi = lo + size
            reports.append(
                fleet.serve_fleet(
                    [s.samples for s in self.sessions[lo:hi]],
                    RATE_HZ,
                    profiles=profiles[lo:hi],
                    workers=1,
                    sessions_per_shard=self.sessions_per_shard,
                    checkpoint_every_s=self.checkpoint_every_s,
                    checkpoint_dir=self.work_dir / f"checkpoints-{k}",
                    shard_faults=[self.crash],
                    fault_seed=self.fault_seed + k,
                    user_ids=self.user_ids[lo:hi],
                    profile_store=self.store,
                    self_train=True,
                )
            )
            units.lap()
        return _fleet_rep(reports, units)

    def check(self, rep: Rep) -> List[str]:
        problems = super().check(rep)
        if rep.notes["profiles_loaded"] != len(self.sessions[::2]):
            problems.append(f"{rep.notes['profiles_loaded']} profiles warm-loaded")
        if rep.notes["checkpoint_restores"] < 1:
            problems.append("no shard restored from its on-disk checkpoint")
        return problems


class GatewayRagged(Workload):
    """``IngestGateway`` over a ``BatchedSessionPool``, replaying a ragged
    arrival schedule; sessions close at their last arrival. Each tick,
    with the offers before it and the closes after it, is one unit."""

    name = "gateway_ragged"
    n_sessions = 150
    duration_s = 16.0
    join_spread_ticks = 1000

    def setup(self, seed: int) -> None:
        super().setup(seed)
        self.schedule = synthesize_arrival_schedule(
            [s.samples.shape[0] for s in self.sessions],
            seed=seed,
            batch_samples=BATCH,
            burst_batches=(1, 3),
            quiet_ticks=(0, 3),
            disconnect_prob=0.003,
            reorder_prob=0.1,
            join_spread_ticks=max(1, int(self.join_spread_ticks * self.n / self.n_sessions)),
        )
        last: Dict[int, int] = {}
        for t, events in enumerate(self.schedule.events):
            for ev in events:
                last[ev.session] = t
        self.closing: Dict[int, List[int]] = {}
        for k, t in last.items():
            self.closing.setdefault(t, []).append(k)
        self.slices = self.schedule.delivered_slices()

    def run(self) -> Rep:
        sessions = self.sessions
        gateway = IngestGateway(
            RATE_HZ,
            pool=BatchedSessionPool(RATE_HZ),
            reorder_window=max(8, self.schedule.max_seq_skew),
        )
        sid_of: Dict[int, int] = {}
        index_of: Dict[int, int] = {}
        steps: List[List] = [[] for _ in sessions]
        strides: List[List] = [[] for _ in sessions]
        ticks: List[float] = []
        closes: List[float] = []
        clock = time.perf_counter
        units = Units()
        for t, events in enumerate(self.schedule.events):
            for ev in events:
                sid = sid_of.get(ev.session)
                if sid is None:
                    sid = gateway.add_session(sessions[ev.session].profile)
                    sid_of[ev.session] = sid
                    index_of[sid] = ev.session
                gateway.offer(sid, sessions[ev.session].samples[ev.start : ev.stop], seq=ev.seq)
            a = clock()
            credited = gateway.tick()
            ticks.append(clock() - a)
            for sid, (st, sr) in credited.items():
                steps[index_of[sid]] += st
                strides[index_of[sid]] += sr
            for k in self.closing.get(t, ()):
                a = clock()
                st, sr = gateway.close_session(sid_of[k])
                closes.append(clock() - a)
                steps[k] += st
                strides[k] += sr
            units.lap()
        return Rep(
            units=units,
            samples=self.schedule.n_samples,
            calls=ticks,
            flushes=closes,
            credits=[(tuple(a), tuple(b)) for a, b in zip(steps, strides)],
            attempted=len(sid_of),
            failed=len(gateway.pool.failed_sessions),
            shed=gateway.stats.samples_shed,
            unscored=self.schedule.disconnected,
            notes={"disconnected": len(self.schedule.disconnected), "ticks": len(ticks)},
        )

    def reference(self, index: int) -> Credits:
        session = self.sessions[index]
        pieces = [session.samples[a:b] for a, b in self.slices.get(index, [])]
        delivered = np.concatenate(pieces) if pieces else session.samples[:0]
        return replay(np.ascontiguousarray(delivered), session.profile)


class SoloStream(Workload):
    """``StreamingPTrack`` sessions served one after another, 50-sample
    appends and one flush per session (a phone-side tracker). Each
    session is one unit."""

    name = "solo_stream"
    n_sessions = 96
    duration_s = 15.0

    def run(self) -> Rep:
        appends: List[float] = []
        flushes: List[float] = []
        credits: List[Credits] = []
        clock = time.perf_counter
        units = Units()
        for session in self.sessions:
            tracker = StreamingPTrack(RATE_HZ, profile=session.profile)
            samples = session.samples
            steps: List = []
            strides: List = []
            for lo in range(0, samples.shape[0], BATCH):
                a = clock()
                st, sr = tracker.append(samples[lo : lo + BATCH])
                appends.append(clock() - a)
                steps += st
                strides += sr
            a = clock()
            st, sr = tracker.flush()
            flushes.append(clock() - a)
            credits.append((tuple(steps + st), tuple(strides + sr)))
            units.lap()
        return Rep(
            units=units,
            samples=sum(s.samples.shape[0] for s in self.sessions),
            calls=appends,
            flushes=flushes,
            credits=credits,
            attempted=len(self.sessions),
            failed=0,
        )

    def reference(self, index: int) -> Credits:
        # A different chunking: StreamingPTrack credits are chunk-invariant.
        session = self.sessions[index]
        return replay(session.samples, session.profile, chunk=5 * BATCH)


WORKLOADS = {w.name: w for w in (FleetWalk, FleetDurableMixed, GatewayRagged, SoloStream)}
