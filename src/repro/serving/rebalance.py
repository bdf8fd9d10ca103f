"""Telemetry-driven shard rebalancing for the durable fleet.

A fixed shard layout is only right for the traffic it was sized for.
Long-running fleets drift: one shard's users walk all day while
another's sleep, a worker lands on a busy core, a poisoned session
drags its shard-mates' latency up. The durable fleet can afford to fix
this live — session state snapshots and migrates without credit loss —
so between epochs the driver feeds each shard's observed behaviour to
a :class:`RebalancePolicy` and applies the splits it plans.

The signals are the ones the fleet's telemetry already produces: the
shard pool's round-latency histogram (``serving_batch_round_seconds``,
the pool's ``ROUND_SECONDS_METRIC``; surfaced per epoch as the shard's
round-latency sum/count) plus the epoch wall-clock and the
crash/restore history from the healing layer. The policy is pure
(stats in, shard ids out) so it can be unit-tested without serving a
single sample, and deliberately conservative by default: it only
*splits* overloaded shards — migrating half the sessions to a new
worker slot — because a split is loss-free and monotonic, while merges
would churn session state for a speculative win.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.exceptions import ConfigurationError

__all__ = ["ShardEpochStats", "RebalancePolicy"]


@dataclass(frozen=True)
class ShardEpochStats:
    """One shard's observed behaviour over one serving epoch.

    Attributes:
        shard_id: Stable id of the shard within the fleet run.
        n_sessions: Sessions the shard is serving.
        elapsed_s: Wall-clock the epoch took in the worker.
        round_seconds_sum: Sum of the shard pool's per-round latencies
            (the ``serving_batch_round_seconds`` histogram's ``sum``
            over the epoch; 0.0 when telemetry is off).
        round_seconds_count: Rounds observed by that histogram.
        crashes: Worker deaths this shard has suffered so far.
    """

    shard_id: int
    n_sessions: int
    elapsed_s: float
    round_seconds_sum: float = 0.0
    round_seconds_count: int = 0
    crashes: int = 0

    @property
    def mean_round_s(self) -> float:
        """Mean pooled-round latency (0 when uninstrumented)."""
        if self.round_seconds_count == 0:
            return 0.0
        return self.round_seconds_sum / self.round_seconds_count


@dataclass(frozen=True)
class RebalancePolicy:
    """When to split a live shard, from latency and failure telemetry.

    A shard is split when it is *relatively* slow — its epoch latency
    exceeds ``split_factor`` times the fleet median (using the mean
    pooled-round latency when telemetry provides it, the epoch
    wall-clock otherwise) — or when it has crashed at least
    ``crash_split_threshold`` times (smaller shards make restore
    replays cheaper and corner poison faster, the same logic as
    bisection). Only shards with at least ``min_split_sessions``
    sessions are eligible, and at most ``max_splits_per_epoch`` splits
    are planned per epoch so the layout converges instead of
    thrashing.

    Attributes:
        split_factor: Relative-latency threshold (> 1).
        min_split_sessions: Smallest shard worth splitting (>= 2).
        max_splits_per_epoch: Planning budget per epoch (>= 1).
        crash_split_threshold: Lifetime crashes that force a split;
            0 disables crash-driven splitting.
    """

    split_factor: float = 1.5
    min_split_sessions: int = 2
    max_splits_per_epoch: int = 1
    crash_split_threshold: int = 2

    def __post_init__(self) -> None:
        if self.split_factor <= 1.0:
            raise ConfigurationError(
                f"split_factor must be > 1, got {self.split_factor!r} "
                "(a factor <= 1 would split the median shard forever)"
            )
        if self.min_split_sessions < 2:
            raise ConfigurationError(
                f"min_split_sessions must be >= 2, got "
                f"{self.min_split_sessions!r}; a one-session shard "
                "cannot be split"
            )
        if self.max_splits_per_epoch < 1:
            raise ConfigurationError(
                f"max_splits_per_epoch must be >= 1, got "
                f"{self.max_splits_per_epoch!r}"
            )
        if self.crash_split_threshold < 0:
            raise ConfigurationError(
                f"crash_split_threshold must be >= 0, got "
                f"{self.crash_split_threshold!r}"
            )

    def plan(self, stats: Sequence[ShardEpochStats]) -> List[int]:
        """Shard ids to split after this epoch, worst first.

        Pure function of the stats: no serving state is consulted, so
        a plan can be replayed or unit-tested in isolation. Ids are
        ordered most-overloaded first and truncated to the per-epoch
        budget.
        """
        eligible = [s for s in stats if s.n_sessions >= self.min_split_sessions]
        if not eligible:
            return []

        def load(s: ShardEpochStats) -> float:
            return s.mean_round_s if s.round_seconds_count else s.elapsed_s

        loads = sorted(load(s) for s in stats)
        median = loads[len(loads) // 2]
        chosen: List[ShardEpochStats] = []
        for s in eligible:
            slow = median > 0 and load(s) > self.split_factor * median
            crashy = (
                self.crash_split_threshold > 0
                and s.crashes >= self.crash_split_threshold
            )
            if slow or crashy:
                chosen.append(s)
        chosen.sort(key=lambda s: (-load(s), s.shard_id))
        return [s.shard_id for s in chosen[: self.max_splits_per_epoch]]
