"""Seeded inputs and ground-truth scoring for the benchmark workloads.

Two traffic models:

* uniform walkers from :func:`repro.serving.synthesize_workload`;
* mixed-activity sessions stitched with
  :class:`repro.simulation.SessionBuilder` from walking, stepping,
  interference (eating, poker, photo, phone game, mouse, keystrokes),
  the spoofing shaker, arm swinging and idle wrist. Session ``i`` draws
  from ``derive_rng(seed, i)``, and its labelled segments are kept so
  credited step times can be mapped back to what the wearer was doing.

Scoring compares credits with the simulator's truth: mean absolute
per-session step and distance error, and steps credited inside
non-pedestrian segments per minute of such traffic (the paper's
Fig. 7(b) target is about zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.runtime import derive_rng
from repro.serving import synthesize_workload
from repro.simulation import ActivitySegment, SessionBuilder, sample_users
from repro.types import ActivityKind, StepEvent, StrideEstimate, UserProfile

Credits = Tuple[Tuple[StepEvent, ...], Tuple[StrideEstimate, ...]]

#: Interfering gestures the mixed sessions draw from.
INTERFERENCE = (
    ActivityKind.EATING,
    ActivityKind.POKER,
    ActivityKind.PHOTO,
    ActivityKind.GAME,
    ActivityKind.MOUSE,
    ActivityKind.KEYSTROKE,
)

#: Segment menu after the opening walk: half pedestrian, half not.
MENU = ("walk", "step", "interfere", "spoof", "swing", "idle")


@dataclass(frozen=True)
class Session:
    """One session's input and the truth it is scored against."""

    samples: np.ndarray
    profile: UserProfile
    true_steps: int
    true_distance_m: float
    segments: Tuple[ActivitySegment, ...] = ()


def walkers(n: int, duration_s: float, seed: int) -> List[Session]:
    """Uniform walkers, exactly as ``synthesize_workload`` emits them."""
    return [
        Session(w.samples, w.profile, w.true_steps, w.true_distance_m)
        for w in synthesize_workload(n, duration_s, seed=seed)
    ]


def mixed_sessions(n: int, duration_s: float, seed: int, n_segments: int = 4) -> List[Session]:
    """Mixed-activity sessions of about ``duration_s`` each.

    Every session opens with a walk, then takes ``n_segments - 1``
    consecutive entries of :data:`MENU` starting at ``i % len(MENU)``
    (interference gestures rotate the same way), so the fleet's
    activity mix is fixed and the seed varies users, segment lengths
    (+-25% around ``duration_s / n_segments``), gait and sensor noise.
    A fixed mix keeps accuracy comparable across seeds.
    """
    users = sample_users(n, derive_rng(seed), name_prefix="user")
    base = duration_s / n_segments
    sessions = []
    for i, user in enumerate(users):
        rng = derive_rng(seed, i)
        composer = SessionBuilder(user, rng=rng)
        kinds = ["walk"] + [MENU[(i + k) % len(MENU)] for k in range(n_segments - 1)]
        for kind in kinds:
            length = float(base * rng.uniform(0.75, 1.25))
            if kind == "interfere":
                composer.interfere(INTERFERENCE[i % len(INTERFERENCE)], length)
            else:
                getattr(composer, kind)(length)
        labelled = composer.build()
        sessions.append(
            Session(
                np.ascontiguousarray(labelled.trace.linear_acceleration, dtype=np.float64),
                user.profile,
                labelled.true_step_count,
                labelled.true_distance_m,
                labelled.segments,
            )
        )
    return sessions


def score(
    sessions: Sequence[Session],
    credits: Sequence[Optional[Credits]],
) -> Dict[str, float]:
    """Accuracy of ``credits`` against truth (``None`` = not scored).

    Returns ``step_mae_pct`` and ``dist_mae_pct`` over the scored
    sessions, and ``false_steps_per_min`` over the non-pedestrian
    segments of the scored sessions (0 when there are none).
    """
    step_err: List[float] = []
    dist_err: List[float] = []
    false_steps = 0
    other_s = 0.0
    for session, credit in zip(sessions, credits):
        if credit is None:
            continue
        steps, strides = credit
        step_err.append(abs(len(steps) - session.true_steps) / session.true_steps)
        distance = float(sum(s.length_m for s in strides))
        dist_err.append(abs(distance - session.true_distance_m) / session.true_distance_m)
        others = [s for s in session.segments if not s.kind.is_pedestrian]
        other_s += sum(s.duration_s for s in others)
        false_steps += sum(
            1 for e in steps if any(s.start_time <= e.time < s.end_time for s in others)
        )
    return {
        "step_mae_pct": 100.0 * float(np.mean(step_err)),
        "dist_mae_pct": 100.0 * float(np.mean(dist_err)),
        "false_steps_per_min": false_steps / (other_s / 60.0) if other_s else 0.0,
        "scored_sessions": len(step_err),
    }
