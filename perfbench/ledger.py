"""Per-layer ledger: timing wrappers installed from outside the program.

Each :class:`Hook` names one public function of one layer and the
places where callers look it up (a module-level binding such as
``repro.serving.pool.batch_stepping_tests``, or a class attribute such
as ``StreamingPTrack.append``). While a :class:`Ledger` is installed,
every call through those bindings is timed with ``perf_counter_ns``.
Spans nest through a stack, so a row's ``self_ms`` is its wall time
minus the time of the hooked calls it made; the self times of all rows
plus ``unattributed`` add up to the traced wall time exactly.

A hook whose module or attribute no longer exists is recorded as
absent and reports zeros, so the benchmark keeps running when a later
change deletes or moves a layer.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

ItemFn = Callable[[tuple, Any], Dict[str, float]]


@dataclass(frozen=True)
class Hook:
    """One layer function and the bindings its callers use.

    Attributes:
        layer: Metric prefix, ``<module>.<function>``.
        targets: ``(module, attribute path)`` bindings to wrap.
        items: Optional work counter: ``(args, result) -> {stat: n}``,
            summed over calls. Stats prefixed ``max_`` keep the maximum;
            stats prefixed ``mean_`` report the sum divided by calls.
        stats: The item stats this hook reports (zeros when absent).
    """

    layer: str
    targets: Tuple[Tuple[str, str], ...]
    items: Optional[ItemFn] = None
    stats: Tuple[str, ...] = ()


def _length(stat: str) -> ItemFn:
    """Counts the items of the first positional argument."""
    return lambda args, _result: {stat: len(args[0])}


def _result_length(stat: str) -> ItemFn:
    """Counts the items of the return value."""
    return lambda _args, result: {stat: len(result)}


def _n_sessions(args: tuple, _result: Any) -> Dict[str, float]:
    ids = args[1] if len(args) > 1 else None
    return {"sessions": len(ids) if ids is not None else len(args[0].session_ids)}


def _ingested(_args: tuple, result: Any) -> Dict[str, float]:
    return {"samples": int(result)}


def _staged(_args: tuple, result: Any) -> Dict[str, float]:
    return {"staged_cycles": len(result) if result is not None else 0}


def _columns(args: tuple, _result: Any) -> Dict[str, float]:
    return {"columns": int(args[1].shape[1])}


def _bounce_rows(args: tuple, result: Any) -> Dict[str, float]:
    # Counted on return: the caller flips fallback rows to valid in place.
    return {"rows": len(args[1]), "invalid_rows": int(np.count_nonzero(~result[1]))}


def _queue_depth(args: tuple, _result: Any) -> Dict[str, float]:
    depth = args[0].queue_depth_samples
    return {"mean_queue_depth": depth, "max_queue_depth": depth}


def _offered(_args: tuple, result: Any) -> Dict[str, float]:
    return {"shed_samples": int(result.shed)}


def _bytes_written(_args: tuple, result: Any) -> Dict[str, float]:
    return {"bytes_written": result.stat().st_size}


def _restores(_args: tuple, result: Any) -> Dict[str, float]:
    return {"restores": int(result is not None)}


def _observations(_args: tuple, result: Any) -> Dict[str, float]:
    return {"observations": int(result)}


_STREAMING = "repro.core.streaming"
_POOL = "repro.serving.pool"
_BATCH = "repro.serving.batch"
_BACKENDS = "repro.runtime.backends"

#: Every layer the benchmark attributes time to. Order is only the
#: report order: nesting is resolved at run time from the call stack.
HOOKS: Tuple[Hook, ...] = (
    Hook("serving.fleet.serve_fleet", (("repro.serving.fleet", "serve_fleet"),)),
    Hook("core.streaming.StreamingPTrack.append", ((_STREAMING, "StreamingPTrack.append"),)),
    Hook(
        "core.streaming.StreamingPTrack.ingest",
        ((_STREAMING, "StreamingPTrack.ingest"),),
        _ingested,
        ("samples",),
    ),
    Hook(
        "core.streaming.StreamingPTrack.collect",
        ((_STREAMING, "StreamingPTrack.collect"),),
        _staged,
        ("staged_cycles",),
    ),
    Hook("core.streaming.StreamingPTrack.resolve", ((_STREAMING, "StreamingPTrack.resolve"),)),
    Hook("core.streaming.StreamingPTrack.flush", ((_STREAMING, "StreamingPTrack.flush"),)),
    Hook("core.streaming.StreamingPTrack.snapshot", ((_STREAMING, "StreamingPTrack.snapshot"),)),
    Hook(
        "serving.pool.SessionPool.append",
        ((_POOL, "SessionPool.append"),),
        _n_sessions,
        ("sessions",),
    ),
    Hook(
        "serving.pool.SessionPool.flush",
        ((_POOL, "SessionPool.flush"),),
        _n_sessions,
        ("sessions",),
    ),
    Hook("serving.pool.SessionPool.snapshot", ((_POOL, "SessionPool.snapshot"),)),
    Hook(
        "serving.batch.BatchedSessionPool.append",
        ((_BATCH, "BatchedSessionPool.append"),),
        _n_sessions,
        ("sessions",),
    ),
    Hook(
        "serving.batch.BatchedSessionPool.flush",
        ((_BATCH, "BatchedSessionPool.flush"),),
        _n_sessions,
        ("sessions",),
    ),
    Hook(
        "runtime.backends.lowpass_block",
        ((_BACKENDS, "NumpyBackend.lowpass_block"),),
        _columns,
        ("columns",),
    ),
    Hook(
        "runtime.backends.bounce_solve_block",
        ((_BACKENDS, "NumpyBackend.bounce_solve_block"),),
        _bounce_rows,
        ("rows", "invalid_rows"),
    ),
    Hook(
        "signal.batched.batched_segment_windows",
        ((_BATCH, "batched_segment_windows"),),
        _length("windows"),
        ("windows",),
    ),
    Hook(
        "core.batched.batched_stage_measurements",
        ((_BATCH, "batched_stage_measurements"),),
        _length("cycles"),
        ("cycles",),
    ),
    Hook(
        "core.batched.batched_cycle_solutions",
        ((_BATCH, "batched_cycle_solutions"),),
        _length("items"),
        ("items",),
    ),
    Hook(
        "core.stepping.batch_stepping_tests",
        ((_POOL, "batch_stepping_tests"), (_STREAMING, "batch_stepping_tests")),
        _length("rows"),
        ("rows",),
    ),
    Hook(
        "serving.gateway.IngestGateway.offer",
        (("repro.serving.gateway", "IngestGateway.offer"),),
        _offered,
        ("shed_samples",),
    ),
    Hook(
        "serving.gateway.IngestGateway.tick",
        (("repro.serving.gateway", "IngestGateway.tick"),),
        _queue_depth,
        ("mean_queue_depth", "max_queue_depth"),
    ),
    Hook(
        "serving.gateway.IngestGateway.close_session",
        (("repro.serving.gateway", "IngestGateway.close_session"),),
    ),
    Hook(
        "serving.checkpoint.CheckpointStore.save",
        (("repro.serving.checkpoint", "CheckpointStore.save"),),
        _bytes_written,
        ("bytes_written",),
    ),
    Hook(
        "serving.checkpoint.CheckpointStore.load",
        (("repro.serving.checkpoint", "CheckpointStore.load"),),
        _restores,
        ("restores",),
    ),
    Hook(
        "profiles.store.ProfileStore.get_many",
        (("repro.profiles.store", "ProfileStore.get_many"),),
        _result_length("records"),
        ("records",),
    ),
    Hook(
        "profiles.store.ProfileStore.put_many",
        (("repro.profiles.store", "ProfileStore.put_many"),),
        _result_length("records"),
        ("records",),
    ),
    Hook(
        "profiles.trainer.IncrementalSelfTrainer.observe",
        (("repro.profiles.trainer", "IncrementalSelfTrainer.observe"),),
        _observations,
        ("observations",),
    ),
    Hook(
        "profiles.trainer.IncrementalSelfTrainer.estimate",
        (("repro.profiles.trainer", "IncrementalSelfTrainer.estimate"),),
    ),
)


@dataclass
class Row:
    """Accumulated calls, self time and work counts of one layer."""

    calls: int = 0
    self_ns: int = 0
    counts: Dict[str, float] = field(default_factory=dict)

    def add_items(self, items: Dict[str, float]) -> None:
        for stat, n in items.items():
            if stat.startswith("max_"):
                self.counts[stat] = max(self.counts.get(stat, 0), n)
            else:
                self.counts[stat] = self.counts.get(stat, 0) + n


def _resolve(module: str, path: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, name, original)`` for a binding, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(module)
    except ImportError:
        return None
    *parents, name = path.split(".")
    try:
        for part in parents:
            owner = getattr(owner, part)
        original = getattr(owner, name)
    except AttributeError:
        return None
    return owner, name, original


class Ledger:
    """Installs the hooks, accumulates rows, and uninstalls cleanly."""

    def __init__(self) -> None:
        self.hooks = HOOKS
        self.rows: Dict[str, Row] = {h.layer: Row() for h in self.hooks}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[Any, str, Any, bool]] = []

    def _wrap(self, fn: Callable, row: Row, items: Optional[ItemFn]) -> Callable:
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                row.calls += 1
                row.self_ns += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if items is not None:
                row.add_items(items(args, result))
            return result

        return timed

    def install(self) -> None:
        """Wrap every resolvable binding (all resolved before any is
        wrapped, so an inherited method never wraps another wrapper)."""
        self.absent = []
        resolved = []
        for hook in self.hooks:
            found = [r for r in (_resolve(m, p) for m, p in hook.targets) if r]
            if not found:
                self.absent.append(hook.layer)
            resolved.extend((hook, r) for r in found)
        for hook, (owner, name, original) in resolved:
            # An inherited method is shadowed on the subclass, and later
            # deleted from it rather than copied onto it.
            put_back = not isinstance(owner, type) or name in owner.__dict__
            setattr(owner, name, self._wrap(original, self.rows[hook.layer], hook.items))
            self._installed.append((owner, name, original, put_back))

    def uninstall(self) -> None:
        """Put every original binding back."""
        for owner, name, original, put_back in reversed(self._installed):
            if put_back:
                setattr(owner, name, original)
            else:
                delattr(owner, name)
        self._installed.clear()

    def metrics(self, traced_wall_s: float, reps: int = 1) -> Dict[str, float]:
        """Per-layer metrics plus ``ledger.unattributed_ms``, per repetition.

        ``traced_wall_s`` is the summed wall time of the ``reps`` traced
        repetitions the rows accumulated over; totals are divided by
        ``reps`` (maxima and means are not).
        """
        out: Dict[str, float] = {}
        total_self = 0
        for hook in self.hooks:
            row = self.rows[hook.layer]
            out[f"{hook.layer}.calls"] = row.calls / reps
            out[f"{hook.layer}.self_ms"] = row.self_ns / 1e6 / reps
            total_self += row.self_ns
            for stat in hook.stats:
                value = row.counts.get(stat, 0)
                if stat.startswith("mean_"):
                    value = value / row.calls if row.calls else 0.0
                elif not stat.startswith("max_"):
                    value = value / reps
                out[f"{hook.layer}.{stat}"] = value
        out["ledger.unattributed_ms"] = (traced_wall_s * 1e3 - total_self / 1e6) / reps
        out["ledger.absent_hooks"] = len(self.absent)
        return out


#: Units of the item stats (everything else counts items).
_UNITS = {
    "self_ms": "ms",
    "bytes_written": "bytes",
    "mean_queue_depth": "samples",
    "max_queue_depth": "samples",
    "shed_samples": "samples",
    "samples": "samples",
}


def ledger_catalogue() -> List[Tuple[str, str]]:
    """Every ``(metric, unit)`` the ledger reports, in report order."""
    out: List[Tuple[str, str]] = []
    for hook in HOOKS:
        for stat in ("calls", "self_ms") + hook.stats:
            out.append((f"{hook.layer}.{stat}", _UNITS.get(stat, "count")))
    return out + [("ledger.unattributed_ms", "ms"), ("ledger.absent_hooks", "count")]
