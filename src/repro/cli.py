"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — run the quickstart scenario and print the summary.
* ``figures``   — regenerate the paper's figures as text tables
                  (optionally a subset: ``--only fig7 fig9``).
* ``navigate``  — run the Fig. 9 navigation case study.
* ``dataset``   — synthesise a labelled mixed-activity dataset to
                  ``.npz`` files for offline experimentation.
* ``track``     — run PTrack over a saved trace/session file.
* ``evaluate``  — score PTrack over a directory of saved sessions.
* ``telemetry`` — serve a synthetic fleet with telemetry enabled and
                  print the merged fleet health ledger (table, JSON,
                  or Prometheus text).
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

import numpy as np


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import PTrack
    from repro.simulation import SimulatedUser, simulate_walk

    user = SimulatedUser()
    trace, truth = simulate_walk(
        user, args.duration, rng=np.random.default_rng(args.seed)
    )
    result = PTrack(profile=user.profile).track(trace)
    print(f"steps    : {result.step_count} (truth {truth.step_count})")
    print(f"distance : {result.distance_m:.1f} m (truth {truth.total_distance_m:.1f})")
    return 0


_FIGURES = (
    "fig1",
    "fig3",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "ablations",
    "fingerprint",
)


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ablations,
        fig1,
        fig3,
        fig6,
        fig7,
        fig8,
        fig9,
        fingerprint,
    )

    selected = args.only if args.only else list(_FIGURES)
    unknown = set(selected) - set(_FIGURES)
    if unknown:
        print(f"unknown figures: {sorted(unknown)}", file=sys.stderr)
        return 2

    if "fig1" in selected:
        for _, table in (
            fig1.run_miscount(),
            fig1.run_spoof(),
            fig1.run_stride_models(),
        ):
            table.show()
    if "fig3" in selected:
        fig3.run_offsets()[1].show()
    if "fig6" in selected:
        fig6.run_overall_accuracy()[1].show()
        fig6.run_breakdown()[1].show()
    if "fig7" in selected:
        fig7.run_interference()[1].show()
        fig7.run_spoofing()[1].show()
    if "fig8" in selected:
        fig8.run_stride_comparison()[1].show()
        fig8.run_self_training()[1].show()
    if "fig9" in selected:
        fig9.run_navigation()[3].show()
    if "ablations" in selected:
        ablations.sweep_delta()[1].show()
        ablations.sweep_noise()[1].show()
        ablations.sweep_sample_rate()[1].show()
        ablations.sweep_consecutive()[1].show()
        ablations.sweep_metric_variants()[1].show()
    if "fingerprint" in selected:
        fingerprint.run_fingerprint()[1].show()
    return 0


def _cmd_navigate(args: argparse.Namespace) -> int:
    from repro.experiments import fig9

    summary, _, _, table = fig9.run_navigation(seed=args.seed)
    table.show()
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.sensing.io import save_session
    from repro.simulation import SessionBuilder, sample_users
    from repro.types import ActivityKind, Posture

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    users = sample_users(args.users, rng)
    kinds = (
        ActivityKind.EATING,
        ActivityKind.POKER,
        ActivityKind.PHOTO,
        ActivityKind.GAME,
    )
    for i, user in enumerate(users):
        builder = SessionBuilder(user, rng=rng)
        builder.walk(args.walk_s)
        builder.interfere(
            kinds[i % len(kinds)], args.interfere_s, posture=Posture.SEATED
        )
        builder.step(args.walk_s)
        session = builder.build()
        path = out / f"session_{user.name}.npz"
        save_session(path, session)
        print(
            f"{path}  ({session.trace.duration_s:.0f} s, "
            f"{session.true_step_count} true steps)"
        )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.experiments.dataset_eval import evaluate_directory

    _, table = evaluate_directory(args.directory)
    table.show()
    return 0


def _cmd_track(args: argparse.Namespace) -> int:
    from repro import PTrack, UserProfile
    from repro.sensing.io import load_session, load_trace
    from repro.exceptions import SignalError

    try:
        session = load_session(args.file)
        trace = session.trace
        truth: Optional[int] = session.true_step_count
        profile = session.user.profile
    except (SignalError, KeyError):
        trace = load_trace(args.file)
        truth = None
        profile = None
    if args.arm and args.leg:
        profile = UserProfile(arm_length_m=args.arm, leg_length_m=args.leg)
    result = PTrack(profile=profile).track(trace)
    print(f"steps    : {result.step_count}"
          + (f" (truth {truth})" if truth is not None else ""))
    if profile is not None:
        print(f"distance : {result.distance_m:.1f} m")
    rejected = sum(
        1 for c in result.classifications if c.gait_type.value == "interference"
    )
    print(f"cycles   : {len(result.classifications)} ({rejected} rejected)")
    if args.plot:
        from repro.eval.plotting import timeline

        print(timeline(trace.vertical, trace.sample_rate_hz,
                       label="vertical", unit="m/s^2"))
        if result.strides:
            print(timeline([s.length_m for s in result.strides],
                           1.0, label="strides ", unit="m"))
    return 0


def _cmd_telemetry(args: argparse.Namespace) -> int:
    from repro.eval.reporting import fleet_health_table
    from repro.serving.fleet import serve_fleet
    from repro.serving.workload import synthesize_workload
    from repro.telemetry import to_json, to_prometheus

    sessions = synthesize_workload(
        n_sessions=args.sessions,
        duration_s=args.duration,
        seed=args.seed,
    )
    report = serve_fleet(
        [s.samples for s in sessions],
        100.0,
        profiles=[s.profile for s in sessions],
        workers=args.workers,
        telemetry=True,
    )
    snapshot = report.telemetry
    assert snapshot is not None  # telemetry=True always returns one
    if args.format == "json":
        print(to_json(snapshot))
    elif args.format == "prometheus":
        print(to_prometheus(snapshot), end="")
    else:
        print(fleet_health_table(snapshot).render())
    return 0


def _cmd_profiles(args: argparse.Namespace) -> int:
    """Operate on a persistent profile store directory."""
    import json

    from repro.profiles import ProfileStore

    store = ProfileStore(args.directory)
    if args.action == "stats":
        for key, value in store.stats().items():
            print(f"{key}: {value}")
    elif args.action == "compact":
        outcome = store.compact()
        print(
            f"rewrote {outcome['rewritten']} shard file(s), removed "
            f"{outcome['removed_corrupt']} quarantined file(s)"
        )
    else:  # inspect
        if args.user is None:
            print("inspect requires --user <user id>", file=sys.stderr)
            return 2
        record = store.get(args.user)
        if record is None:
            print(f"no record for user {args.user!r}", file=sys.stderr)
            return 1
        payload = {
            "user_id": record.user_id,
            "version": record.version,
            "observations": record.observations,
            "referenced_walks": record.referenced_walks,
            "confidence": record.confidence,
            "cadence_hz": record.cadence_hz,
            "updated_at": record.updated_at,
            "profile": (
                None
                if record.profile is None
                else {
                    "arm_length_m": record.profile.arm_length_m,
                    "leg_length_m": record.profile.leg_length_m,
                    "calibration_k": record.profile.calibration_k,
                }
            ),
            "has_trainer_state": record.trainer_state is not None,
        }
        print(json.dumps(payload, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PTrack reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the quickstart scenario")
    demo.add_argument("--duration", type=float, default=60.0)
    demo.add_argument("--seed", type=int, default=42)
    demo.set_defaults(func=_cmd_demo)

    figures = sub.add_parser("figures", help="regenerate the paper's figures")
    figures.add_argument("--only", nargs="*", choices=_FIGURES, default=None)
    figures.set_defaults(func=_cmd_figures)

    navigate = sub.add_parser("navigate", help="Fig. 9 navigation case study")
    navigate.add_argument("--seed", type=int, default=61)
    navigate.set_defaults(func=_cmd_navigate)

    dataset = sub.add_parser("dataset", help="synthesise a labelled dataset")
    dataset.add_argument("--out", default="dataset")
    dataset.add_argument("--users", type=int, default=4)
    dataset.add_argument("--seed", type=int, default=0)
    dataset.add_argument("--walk-s", type=float, default=60.0, dest="walk_s")
    dataset.add_argument(
        "--interfere-s", type=float, default=60.0, dest="interfere_s"
    )
    dataset.set_defaults(func=_cmd_dataset)

    evaluate = sub.add_parser(
        "evaluate", help="score PTrack over a directory of saved sessions"
    )
    evaluate.add_argument("directory")
    evaluate.set_defaults(func=_cmd_evaluate)

    track = sub.add_parser("track", help="track a saved trace/session file")
    track.add_argument("file")
    track.add_argument("--arm", type=float, default=None)
    track.add_argument("--leg", type=float, default=None)
    track.add_argument("--plot", action="store_true",
                       help="print terminal sparklines of the trace")
    track.set_defaults(func=_cmd_track)

    telemetry = sub.add_parser(
        "telemetry",
        help="serve a synthetic fleet and print the merged health ledger",
    )
    telemetry.add_argument("--sessions", type=int, default=4)
    telemetry.add_argument("--duration", type=float, default=30.0)
    telemetry.add_argument("--seed", type=int, default=0)
    telemetry.add_argument("--workers", type=int, default=None)
    telemetry.add_argument(
        "--format",
        choices=("table", "json", "prometheus"),
        default="table",
    )
    telemetry.set_defaults(func=_cmd_telemetry)

    profiles = sub.add_parser(
        "profiles",
        help="inspect or maintain a persistent profile store",
    )
    profiles.add_argument("directory")
    profiles.add_argument(
        "action",
        choices=("stats", "inspect", "compact"),
        help="stats: store-wide summary; inspect: one user's record "
        "as JSON; compact: drop empty shard files",
    )
    profiles.add_argument(
        "--user", default=None, help="user id (required for inspect)"
    )
    profiles.set_defaults(func=_cmd_profiles)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
