"""Test-only reference: the reprocessing online PTrack driver.

The incremental :class:`~repro.core.streaming.StreamingPTrack` replaced
this driver in the library; it lives on here, outside the package, as
the behavioural reference ``tests/test_core_streaming.py`` compares the
incremental core against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.config import PTrackConfig
from repro.core.step_counter import PTrackStepCounter
from repro.core.streaming import check_stream_params
from repro.core.stride import PTrackStrideEstimator
from repro.exceptions import SignalError
from repro.sensing.imu import IMUTrace
from repro.types import StepEvent, StrideEstimate, UserProfile


class ReprocessingStreamingPTrack:
    """The pre-incremental online driver (kept as a reference).

    Re-runs the entire batch pipeline — filtering, segmentation,
    offset/stepping tests, stride extraction — over the whole rolling
    buffer on every ``append``, making per-sample cost O(buffer). It is
    retained as the behavioural reference the incremental
    :class:`~repro.core.streaming.StreamingPTrack` is tested against.

    Args:
        sample_rate_hz: Sampling rate of the incoming stream.
        profile: Optional user profile; without it only steps are
            produced.
        config: PTrack configuration.
        settle_s: Settle horizon before a cycle is classified.
        max_buffer_s: Rolling buffer length.
    """

    def __init__(
        self,
        sample_rate_hz: float,
        profile: Optional[UserProfile] = None,
        config: Optional[PTrackConfig] = None,
        settle_s: float = 2.5,
        max_buffer_s: float = 30.0,
    ) -> None:
        self._config = config if config is not None else PTrackConfig()
        check_stream_params(
            sample_rate_hz, settle_s, max_buffer_s, self._config
        )
        self._rate = sample_rate_hz
        self._profile = profile
        self._settle = settle_s
        self._max_buffer = int(max_buffer_s * sample_rate_hz)
        self._counter = PTrackStepCounter(self._config)
        self._estimator = (
            PTrackStrideEstimator(profile, self._config)
            if profile is not None
            else None
        )
        self._data = np.empty((max(256, self._max_buffer // 8), 3))
        self._size = 0
        self._consumed_index = 0  # absolute index of the buffer start
        self._credited_until = 0  # absolute sample index already settled
        self._total_steps = 0
        self._total_distance = 0.0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def step_count(self) -> int:
        """Steps credited so far."""
        return self._total_steps

    @property
    def distance_m(self) -> float:
        """Distance credited so far (0 without a profile)."""
        return self._total_distance

    @property
    def latency_s(self) -> float:
        """Worst-case crediting latency (the settle window)."""
        return self._settle

    def append(
        self,
        samples: np.ndarray,
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Feed a batch of samples; return newly settled steps/strides."""
        arr = np.asarray(samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise SignalError(f"samples must have shape (n, 3), got {arr.shape}")
        if arr.shape[0] == 0:
            return [], []
        if not np.all(np.isfinite(arr)):
            raise SignalError("samples contain non-finite values")
        needed = self._size + arr.shape[0]
        if needed > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < needed:
                capacity *= 2
            grown = np.empty((capacity, 3))
            grown[: self._size] = self._data[: self._size]
            self._data = grown
        self._data[self._size : needed] = arr
        self._size = needed
        return self._drain(settle_margin=int(self._settle * self._rate))

    def flush(self) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        """Settle everything remaining in the buffer (end of stream)."""
        return self._drain(settle_margin=0)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain(
        self,
        settle_margin: int,
    ) -> Tuple[List[StepEvent], List[StrideEstimate]]:
        n = self._size
        if n < 16:
            return [], []
        trace = IMUTrace(
            self._data[:n],
            self._rate,
            start_time=self._consumed_index / self._rate,
        )
        steps, classifications = self._counter.process(trace)
        if self._estimator is not None:
            strides = self._estimator.estimate(trace, classifications)
        else:
            strides = []

        settled_end = n - settle_margin
        # A cycle is settled when it ends before the settle horizon.
        settled_cycles = {
            c.cycle_id for c in classifications if c.end_index <= settled_end
        }
        credited_after = self._credited_until - self._consumed_index

        new_steps = [
            s
            for s in steps
            if s.cycle_id in settled_cycles and s.index >= credited_after
        ]
        # Strides are credited in lockstep with steps, one per newly
        # credited step of the cycle.  After a buffer trim the
        # segmenter may re-pair an already-credited peak with a fresh
        # one into a hybrid cycle; crediting that cycle's full stride
        # pair would double-count distance even though the step dedup
        # holds, so each cycle contributes exactly as many strides as
        # it contributed new steps (the latest ones).
        new_steps_per_cycle: dict = {}
        for s in new_steps:
            new_steps_per_cycle[s.cycle_id] = new_steps_per_cycle.get(s.cycle_id, 0) + 1
        new_strides = []
        for cycle_id, count in new_steps_per_cycle.items():
            cycle_strides = [s for s in strides if s.cycle_id == cycle_id]
            new_strides.extend(cycle_strides[-count:])
        if new_steps:
            last_index = max(s.index for s in new_steps)
            self._credited_until = self._consumed_index + last_index + 1
        self._total_steps += len(new_steps)
        self._total_distance += float(sum(s.length_m for s in new_strides))

        # Trim the buffer, keeping the unsettled tail plus one settle
        # window of context for the segmenter.
        keep_from = max(0, settled_end - settle_margin)
        keep_from = min(keep_from, max(0, self._credited_until - self._consumed_index))
        if n > self._max_buffer:
            overflow = n - self._max_buffer
            keep_from = max(keep_from, overflow)
        if keep_from > 0:
            kept = n - keep_from
            # In-place tail copy: the regions overlap left-to-right, so
            # a single bounded copy keeps the active prefix compact
            # without allocating a fresh buffer.
            self._data[:kept] = self._data[keep_from:n].copy()
            self._size = kept
            self._consumed_index += keep_from
        return new_steps, new_strides
