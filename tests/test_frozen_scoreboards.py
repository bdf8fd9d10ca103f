"""The checked-in ``BENCH_PR*.json`` scoreboards meet their acceptance bars.

The scoreboards are frozen history: no code in the repo regenerates
them any more (timing lives in ``perfbench/``). These tests read the
checked-in JSON only, so they are deterministic and run in
milliseconds.
"""

import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_pr1_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR1.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v1"
    macro = scoreboard["macro"]
    assert macro["identical_results"] is True
    # The acceptance headline: the warm (memoized) study re-run beats
    # the seed-style serial loop by well over 3x.
    assert macro["speedup_warm"] >= 3.0


def test_pr3_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR3.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    serving = scoreboard["serving"]
    # Acceptance headline: >= 5x single-session streaming throughput
    # over the reprocessing driver on a 10-minute trace.
    single = serving["single_session"]
    assert single["duration_s"] >= 600.0
    assert single["headline_speedup"] >= 5.0
    # Near-flat amortised per-append cost across an 8x cadence sweep.
    amort = serving["amortized_append"]
    assert amort["work_counters_cadence_invariant"] is True
    assert amort["wall_spread"] <= 2.5
    # Fleet scaling reaches 1000 sessions with identity asserted.
    fleet = serving["fleet_scaling"]
    assert fleet["max_sessions"] >= 1000
    assert fleet["identity_serial_pooled_sharded"] is True


def test_pr5_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    telemetry = scoreboard["telemetry"]
    # Acceptance headline: telemetry on the clean streaming path stays
    # under the 5% budget with bit-identical credits, and the merged
    # fleet counters are shard/worker invariant.
    overhead = telemetry["instrumented_overhead"]
    assert overhead["duration_s"] >= 300.0
    assert overhead["identical_credits"] is True
    assert overhead["overhead_ok"] is True
    assert overhead["overhead_frac"] < 0.05
    merge = telemetry["fleet_merge"]
    assert merge["counters_invariant"] is True


def test_pr6_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR6.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    fleet_batch = scoreboard["fleet_batch"]
    # Acceptance headline: the batched fleet driver cuts amortised
    # ingest cost >= 5x vs the lockstep pool at 1000 sessions, with the
    # serial == pooled == sharded == batched crediting oracle intact.
    assert fleet_batch["identity"]["ok"] is True
    headline = fleet_batch["batched_vs_lockstep"]
    assert headline["n_sessions"] >= 1000
    assert headline["speedup"] >= 5.0
    assert headline["speedup_ok"] is True
    # The occupancy sweep reaches 10000 concurrent sessions.
    assert max(r["sessions"] for r in fleet_batch["occupancy"]["rows"]) >= 10000
    # The default backend is bit-identical; absent deps skip cleanly.
    statuses = {r["backend"]: r["status"] for r in fleet_batch["backends"]["rows"]}
    assert statuses["numpy"] == "bit_identical"
    assert statuses["numba"] in ("bit_identical", "skipped")


def test_pr7_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR7.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    ragged = scoreboard["ragged_ingest"]
    # Acceptance headline: gateway credits survive the serial-replay
    # oracle on a ragged schedule, sustained samples/s is recorded with
    # the lockstep pool as baseline and stays within the tracked 2x
    # overhead bound, and shedding is exactly-once deterministic.
    assert ragged["identity"]["ok"] is True
    headline = ragged["ragged_vs_lockstep"]
    assert headline["n_sessions"] >= 100
    assert headline["gateway_samples_per_s"] > 0
    assert headline["lockstep_samples_per_s"] > 0
    assert headline["overhead_ok"] is True
    assert headline["overhead_x"] <= headline["target_overhead_x"]
    shed = ragged["shedding"]
    assert shed["shed_samples"] > 0
    assert shed["accounting_exact"] is True
    assert shed["deterministic"] is True


def test_pr8_scoreboard_meets_acceptance():
    scoreboard = json.loads((REPO_ROOT / "BENCH_PR8.json").read_text())
    assert scoreboard["schema"] == "ptrack-bench-v2"
    kernels = scoreboard["fleet_kernels"]
    # Acceptance: crediting oracle + brentq bit-identity differential
    # asserted before timing, and the 1000-session NumPy headline beats
    # the tracked BENCH_PR6.json batched row by >= 1.5x at <= 1.2 µs/sample.
    assert kernels["identity"]["ok"] is True
    diff = kernels["bounce_differential"]
    assert diff["ok"] is True and diff["rows"] >= 10_000
    headline = kernels["headline"]
    assert headline["n_sessions"] >= 1000
    assert headline["improvement_x"] >= headline["target_improvement_x"]
    assert headline["improvement_ok"] is True
    assert headline["absolute_ok"] is True
    # The small-fleet measurement behind the packed-only round.
    assert kernels["small_fleet"]["packed_beats_scalar"] is True
    # The check-scale reference CI's regression gate compares against.
    assert kernels["check_reference"]["speedup"] > 1.0
