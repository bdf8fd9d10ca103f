"""Fleet-batched serving: the fleet, not the session, is the kernel unit.

:class:`~repro.serving.pool.SessionPool` already batches the stepping
admission tests fleet-wide, but every other stage — filtering,
segmentation, cycle measurement, stride solving — still runs once per
session per round, paying the full Python/scipy dispatch overhead N
times. :class:`BatchedSessionPool` restructures the round so each stage
runs **once for the whole fleet**:

1. the pending filter blocks of every due session are column-stacked by
   length and low-passed in one ``sosfiltfilt`` call per length group;
2. every session's segmentation window is packed into one concatenated
   signal and scanned by a single peak/valley kernel dispatch
   (:func:`repro.signal.batched.batched_segment_windows`);
3. all admitted cycles are measured in length-grouped stacks
   (:func:`repro.core.batched.batched_stage_measurements`);
4. the stepping tests run in the same fleet-wide batch the lockstep
   pool uses;
5. all credited cycles' stride integrations run in length-grouped
   stacks (:func:`repro.core.batched.batched_cycle_solutions`).

The end-of-stream flush takes the same rounds: the boundaries still due
drain through them, and each session's final zero-settle pass at its
head runs as one more round with a finalising filter plan.

Per-session *state* transitions (boundary bookkeeping, cycle admission,
streak classification, crediting, trimming) still run session by
session through the seams :class:`~repro.core.streaming.StreamingPTrack`
exposes — the numeric kernels between them are what gets batched.
Every batched kernel is bit-identical to its scalar reference, so
credits satisfy the serving equivalence oracle
``serial == pooled == sharded == batched``. There is one round
implementation; the lockstep :class:`SessionPool` is its reference.

Failure isolation matches the lockstep pool: an exception attributable
to one session marks only that session failed and the round continues
without it.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.batched import (
    batched_cycle_solutions,
    batched_stage_measurements,
)
from repro.core.streaming import StagedCycle
from repro.runtime.buffers import FleetBatchBuffer
from repro.serving.pool import SessionPool
from repro.signal.batched import batched_segment_windows
from repro.signal.filters import butter_lowpass
from repro.types import StepEvent, StrideEstimate

# FleetBatchBuffer historically lived here; it moved to
# repro.runtime.buffers so the kernel layers can accept scratch without
# importing the serving layer. Re-exported for compatibility.
__all__ = ["FleetBatchBuffer", "BatchedSessionPool"]

#: Bucket bounds of the ``serving_batch_occupancy`` histogram (sessions
#: due per fleet round).
OCCUPANCY_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


class BatchedSessionPool(SessionPool):
    """A session pool whose ingest rounds run fleet-batched kernels.

    Drop-in replacement for :class:`SessionPool` — same constructor,
    same ``append``/``flush``/failure-isolation contract, and
    bit-identical per-session credits and op-stats. What changes is
    *how* each round computes: one kernel dispatch per stage per round
    instead of per session, for ingest and flush alike. Every round
    takes the packed path, even with one due session: the
    ``small_fleet`` rows of ``BENCH_PR8.json`` measured it beating the
    per-session round at every occupancy from 1 to 10. This is the
    engine :func:`~repro.serving.fleet.serve_fleet` shards run and the
    default pool of :class:`~repro.serving.gateway.IngestGateway`.
    """

    SNAPSHOT_BACKEND = "numpy"
    ROUND_SECONDS_METRIC = "serving_batch_round_seconds"
    APPENDS_METRIC = "serving_batch_appends_total"
    SESSIONS_GAUGE_METRIC = "serving_batch_sessions"

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._buffers = FleetBatchBuffer()
        if self._telemetry is not None:
            # One observation per fleet round, valued at its due-session
            # count. A histogram rather than a rounds counter: how many
            # rounds run depends on how the fleet is sharded into pools,
            # and fleet counter totals must not.
            self._m_occupancy = self._telemetry.histogram(
                "serving_batch_occupancy", OCCUPANCY_BUCKETS
            )

    # ------------------------------------------------------------------
    # Batched ingest
    # ------------------------------------------------------------------
    def append(
        self,
        session_ids: Sequence[int],
        batches: Sequence[np.ndarray],
    ) -> List[Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Feed one batch to each named session; credit settled cycles.

        Same contract as :meth:`SessionPool.append`; each drain round
        runs the fleet-batched kernels instead of per-session calls.
        """
        t0 = time.perf_counter() if self._telemetry is not None else 0.0
        self._validate_append(session_ids, batches)
        sessions = [self._sessions[sid] for sid in session_ids]
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]] = [
            ([], []) for _ in sessions
        ]
        active: List[int] = []
        for k, (sid, sess, batch) in enumerate(
            zip(session_ids, sessions, batches)
        ):
            if sid in self._errors:
                continue
            try:
                sess.ingest(batch)
                steps, strides = sess.take_pending_credits()
            except Exception as exc:  # noqa: BLE001 — isolation boundary
                self._mark_failed(sid, exc)
                continue
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            active.append(k)
        self._drain(session_ids, sessions, active, out)
        if self._telemetry is not None:
            self._m_appends.inc(len(session_ids))
            self._m_round_s.observe(time.perf_counter() - t0)
        return out

    def flush(
        self, session_ids: Optional[Sequence[int]] = None
    ) -> List[Tuple[List[StepEvent], List[StrideEstimate]]]:
        """Settle the remaining tail of the named (default all) sessions.

        Same contract and credits as :meth:`SessionPool.flush` (each
        session's :meth:`StreamingPTrack.flush`), computed fleet-wide:
        the boundaries still due drain through the batched rounds, then
        every session's final zero-settle pass at its head runs as one
        more batched round with a finalising filter plan. Failed
        sessions — including any that fail during the flush — yield
        empty credits instead of raising.

        Raises:
            ConfigurationError: On unknown or duplicate ids, before any
                session is touched.
        """
        ids = self.session_ids if session_ids is None else list(session_ids)
        self._validate_ids(ids)
        sessions = [self._sessions[sid] for sid in ids]
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]] = [
            ([], []) for _ in sessions
        ]
        heads: List[Tuple[int, int]] = []
        for k, (sid, sess) in enumerate(zip(ids, sessions)):
            if sid in self._errors:
                continue
            steps, strides = sess.take_pending_credits()
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            head = sess.open_flush()
            if head is not None:
                heads.append((k, head))
        self._drain(ids, sessions, [k for k, _ in heads], out)
        tails = [
            (k, head, 0, True)
            for k, head in heads
            if ids[k] not in self._errors
        ]
        if tails:
            for k in self._batched_round(ids, sessions, tails, out):
                sessions[k].close_flush()
        for k, sid in enumerate(ids):
            if sid in self._errors:
                out[k] = ([], [])
        return out

    # ------------------------------------------------------------------
    # Fleet rounds
    # ------------------------------------------------------------------
    def _drain(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        active: List[int],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
    ) -> None:
        """Run every due hop boundary of the ``active`` positions in
        fleet rounds, each advancing every due session by one boundary
        under its normal settle horizon."""
        while active:
            due: List[Tuple[int, int, Optional[int], bool]] = []
            for k in active:
                boundary = sessions[k].peek_boundary()
                if boundary is not None:
                    due.append((k, boundary, None, False))
            if not due:
                return
            active = self._batched_round(session_ids, sessions, due, out)

    def _batched_round(
        self,
        session_ids: Sequence[int],
        sessions: Sequence,
        due: Sequence[Tuple[int, int, Optional[int], bool]],
        out: List[Tuple[List[StepEvent], List[StrideEstimate]]],
    ) -> List[int]:
        """Run one pass for every due session, batched.

        Each ``due`` entry is ``(k, boundary, settle_margin, finalize)``:
        the session's position in ``sessions``, the absolute boundary
        its pass runs at, the settle horizon in samples (``None`` = the
        session's own) and whether the filter plan finalises through
        the boundary (the flush tail). Returns the positions whose pass
        completed. A session that raises (or whose batched kernel
        surfaces its exception in place) is marked failed and dropped
        mid-round — the per-session state it mutated up to that point
        matches what the scalar path would have mutated before raising.
        """
        # Bookkeeping is kept in lists indexed by the session's position
        # in the due order (``d``) rather than dicts keyed by pool
        # position — at fleet scale the per-session dict churn is
        # measurable against the batched kernels.
        n_due = len(due)
        due_ks = [entry[0] for entry in due]
        due_sess = [sessions[k] for k in due_ks]
        boundaries = [entry[1] for entry in due]
        if self._telemetry is not None:
            self._m_occupancy.observe(n_due)
        alive = [True] * n_due

        def fail(d: int, exc: BaseException) -> None:
            self._mark_failed(session_ids[due_ks[d]], exc)
            alive[d] = False

        cfg = self._config
        rate = self._rate

        def lowpass(block: np.ndarray) -> np.ndarray:
            # The round copies hop-sized slices straight out of the
            # result, so skip the final contiguous copy of the block.
            return butter_lowpass(
                block,
                cfg.lowpass_cutoff_hz,
                rate,
                cfg.lowpass_order,
                contiguous=False,
            )

        # -- Stage 1: fleet filter -------------------------------------
        # Gather every due session's pending filter blocks, low-pass
        # equal-length blocks in one column-stacked filter call per
        # length group, then commit per session in plan order (the
        # order apply_filtered_block requires).
        plans: List[List[Tuple[int, int, int, int]]] = []
        groups: Dict[int, List[Tuple[int, int, int, int]]] = {}
        for d in range(n_due):
            plan = due_sess[d].filter_plan(boundaries[d], due[d][3])
            plans.append(plan)
            for j, (lo, hi, _final, _stop) in enumerate(plan):
                groups.setdefault(hi - lo, []).append((d, j, lo, hi))
        blocks: List[List[Union[np.ndarray, Exception, None]]] = [
            [None] * len(plan) for plan in plans
        ]
        for length, entries in groups.items():
            if len(entries) == 1:
                d, j, lo, hi = entries[0]
                try:
                    blocks[d][j] = lowpass(due_sess[d].raw_block(lo, hi))
                except Exception as exc:  # noqa: BLE001
                    blocks[d][j] = exc
                continue
            stack = self._buffers.request(
                f"filter:{length}", (length, 3 * len(entries))
            )
            for col, (d, _j, lo, hi) in enumerate(entries):
                np.copyto(
                    stack[:, 3 * col : 3 * col + 3],
                    due_sess[d].raw_block(lo, hi),
                )
            try:
                filtered = lowpass(stack)
            except Exception:  # noqa: BLE001 — retry solo to find the owner
                for d, j, lo, hi in entries:
                    try:
                        blocks[d][j] = lowpass(due_sess[d].raw_block(lo, hi))
                    except Exception as exc:  # noqa: BLE001
                        blocks[d][j] = exc
            else:
                for col, (d, j, _lo, _hi) in enumerate(entries):
                    blocks[d][j] = filtered[:, 3 * col : 3 * col + 3]
        for d in range(n_due):
            sess = due_sess[d]
            for j, (lo, hi, final, stop) in enumerate(plans[d]):
                block = blocks[d][j]
                if isinstance(block, Exception):
                    fail(d, block)
                    break
                sess.apply_filtered_block(lo, hi, final, stop, block)

        # -- Stage 2: fleet segmentation -------------------------------
        opened: List[Optional[Tuple[np.ndarray, int]]] = [None] * n_due
        seg_ds: List[int] = []
        windows: List[np.ndarray] = []
        for d in range(n_due):
            if not alive[d]:
                continue
            try:
                win = due_sess[d].begin_pass(boundaries[d], due[d][2])
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            opened[d] = win
            if win is not None:
                seg_ds.append(d)
                windows.append(win[0])
        seg_results: List = []
        if windows:
            scratch = self._buffers.request(
                "segment_pack", sum(w.size for w in windows) + len(windows)
            )
            seg_results = batched_segment_windows(
                windows,
                rate,
                min_step_rate_hz=cfg.min_step_rate_hz,
                max_step_rate_hz=cfg.max_step_rate_hz,
                min_prominence=cfg.min_peak_prominence,
                scratch=scratch,
            )

        # -- Stage 3: admit + measure all cycles fleet-wide ------------
        admitted_by_d: List = [None] * n_due
        cycle_pairs: List = [None] * n_due
        flat_v: List[np.ndarray] = []
        flat_h: List[np.ndarray] = []
        flat_start: List[int] = [0] * n_due
        for d, segments in zip(seg_ds, seg_results):
            if isinstance(segments, Exception):
                fail(d, segments)
                continue
            sess = due_sess[d]
            settled_end = opened[d][1]
            try:
                admitted = sess.admit_cycles(settled_end, segments)
                pairs = [
                    sess.cycle_segments(abs_start, abs_end)
                    for abs_start, abs_end, _peaks in admitted
                ]
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            admitted_by_d[d] = admitted
            cycle_pairs[d] = pairs
            flat_start[d] = len(flat_v)
            for v_seg, h_seg in pairs:
                flat_v.append(v_seg)
                flat_h.append(h_seg)
        measurements = (
            batched_stage_measurements(
                flat_v, flat_h, cfg, buffers=self._buffers
            )
            if flat_v
            else []
        )

        # -- Stage 4: stage per session, in cycle order ----------------
        staged_by_d: List[Optional[List[StagedCycle]]] = [None] * n_due
        for d in range(n_due):
            if not alive[d]:
                continue
            if opened[d] is None or admitted_by_d[d] is None:
                if opened[d] is None:
                    # No segmentable window: the boundary still closes
                    # and its trim still runs, via an empty resolve.
                    staged_by_d[d] = []
                continue
            sess = due_sess[d]
            lo = flat_start[d]
            staged: List[StagedCycle] = []
            broken = False
            for (abs_start, abs_end, peaks), (v_seg, h_seg), m in zip(
                admitted_by_d[d],
                cycle_pairs[d],
                measurements[lo : lo + len(admitted_by_d[d])],
            ):
                if isinstance(m, Exception):
                    # The scalar path raises out of _stage here, after
                    # having staged this session's earlier cycles.
                    fail(d, m)
                    broken = True
                    break
                a_seg, anterior_ok, motion_ok, offset = m
                staged.append(
                    sess.make_staged(
                        abs_start, abs_end, peaks,
                        v_seg, h_seg, a_seg, anterior_ok, motion_ok, offset,
                    )
                )
            if broken:
                continue
            staged_by_d[d] = staged
        for d in range(n_due):
            if staged_by_d[d] is not None:
                due_sess[d].finish_collect(boundaries[d])

        # -- Stage 5: fleet stepping tests -----------------------------
        resolve_ds = [d for d in range(n_due) if staged_by_d[d] is not None]
        values = self._pooled_stepping([staged_by_d[d] for d in resolve_ds])

        # -- Stage 6: classify, solve strides fleet-wide, credit -------
        credited_by_d: List = [None] * n_due
        solve_idx: List = [None] * n_due
        solve_start: List[int] = [0] * n_due
        all_items: List[Tuple] = []
        for d, vals in zip(resolve_ds, values):
            sess = due_sess[d]
            try:
                credited = sess.classify(staged_by_d[d], vals)
                indices, items = sess.stride_solve_items(credited)
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            credited_by_d[d] = credited
            solve_idx[d] = indices
            solve_start[d] = len(all_items)
            all_items.extend(items)
        flat_solutions = (
            batched_cycle_solutions(
                all_items, 1.0 / rate, buffers=self._buffers
            )
            if all_items
            else []
        )
        next_active: List[int] = []
        for d in resolve_ds:
            if not alive[d]:
                continue
            credited = credited_by_d[d]
            indices = solve_idx[d]
            lo = solve_start[d]
            solutions: List[Optional[Tuple[float, float]]] = [None] * len(
                credited
            )
            for i, solved in zip(
                indices, flat_solutions[lo : lo + len(indices)]
            ):
                solutions[i] = solved
            try:
                steps, strides = due_sess[d].credit_resolved(
                    credited, solutions
                )
            except Exception as exc:  # noqa: BLE001
                fail(d, exc)
                continue
            k = due_ks[d]
            out[k][0].extend(steps)
            out[k][1].extend(strides)
            next_active.append(k)
        return next_active
