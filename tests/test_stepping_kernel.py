"""The screened stepping-test kernel against its per-pair reference.

``batch_stepping_tests`` screens every lag of every cycle in one batched
pass and computes exact Pearson values only near each cycle's peak. Its
certificate must make every triple bit-equal to the per-cycle path,
whatever the cycle is batched with, and the fast path must actually be
the one real traffic takes.

CI also runs this file under the deeper ``stepping-kernel-deep``
hypothesis profile (see ``conftest.py``).
"""

from __future__ import annotations

from typing import List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import streaming
from repro.core.config import PTrackConfig
from repro.core.stepping import batch_stepping_tests, has_fixed_phase_difference
from repro.core.streaming import StreamingPTrack
from repro.serving import SessionPool
from repro.signal import correlation
from repro.signal.correlation import (
    _phase_fractions,
    _screen_lags,
    _sliding_pearson,
    _valid_pairs,
    batch_phase_difference_fraction,
    half_cycle_correlation,
    phase_difference_fraction,
)
from repro.simulation import SessionBuilder, sample_users
from repro.types import ActivityKind

Pair = Tuple[np.ndarray, np.ndarray]

#: Row shapes the kernel must get right: generic noise, near-constant
#: rows (ill-conditioned, exact fallback), a large step over a small
#: spread, exact sin/cos pairs whose lags tie, shifted copies, and
#: gait-like rows on a gravity-sized offset.
KINDS = ("noise", "near_constant", "step", "sincos", "shifted", "gait")


def make_pair(kind: str, n: int, seed: int) -> Pair:
    """One ``(vertical, anterior)`` cycle of ``n`` samples."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    period = max(2, n // 2)
    if kind == "noise":
        v = rng.normal(size=n) * 10 ** rng.uniform(-3, 3)
        a = rng.normal(size=n) * 10 ** rng.uniform(-3, 3)
    elif kind == "near_constant":
        level = rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-2, 3)
        v = level + rng.normal(size=n) * abs(level) * 10 ** rng.uniform(-14, -4)
        a = rng.normal(size=n)
    elif kind == "step":
        v = 5e3 + np.where(t < n // 2, 0.0, 1e3) + rng.normal(size=n) * 1e-3
        a = np.roll(v, int(rng.integers(0, n))) + rng.normal(size=n) * 1e-3
    elif kind == "sincos":
        # Whole periods repeat inside the lag range, so lags tie.
        wave = max(2, n // int(rng.integers(2, 5)))
        quarter = int(rng.integers(0, 4))
        v = np.sin(2 * np.pi * t / wave) + rng.choice([0.0, 9.8])
        a = np.cos(2 * np.pi * t / wave + quarter * np.pi / 2)
    elif kind == "shifted":
        walk = rng.normal(size=2 * n).cumsum()
        shift = int(rng.integers(0, n // 2 + 1))
        v = walk[:n] + 100.0
        sign = rng.choice([-1.0, 1.0])
        a = sign * walk[shift : shift + n] + rng.normal(size=n) * 1e-3
    else:  # gait
        phase = rng.uniform(0.0, 2 * np.pi)
        v = (
            9.8
            + np.sin(2 * np.pi * t / period)
            + 0.3 * np.sin(4 * np.pi * t / period + phase)
            + rng.normal(size=n) * 0.05
        )
        a = np.sin(2 * np.pi * t / period + np.pi / 2) + rng.normal(size=n) * 0.05
    return v, a


def reference(vertical, anterior, config: PTrackConfig) -> Tuple[float, float, bool]:
    """The per-cycle triple, or the failed-admission triple."""
    v = np.asarray(vertical, dtype=float)
    a = np.asarray(anterior, dtype=float)
    if (
        v.ndim != 1
        or v.shape != a.shape
        or v.size < 4
        or not (np.all(np.isfinite(v)) and np.all(np.isfinite(a)))
    ):
        return (0.0, 0.0, False)
    matches, _ = has_fixed_phase_difference(v, a, config)
    return (half_cycle_correlation(a), half_cycle_correlation(v), matches)


valid_pairs = st.builds(
    make_pair,
    st.sampled_from(KINDS),
    st.integers(min_value=4, max_value=500),
    st.integers(min_value=0, max_value=2**32 - 1),
)


@st.composite
def broken_pairs(draw) -> Pair:
    """Pairs the per-cycle path rejects: mismatched, short, non-finite."""
    n = draw(st.integers(min_value=4, max_value=60))
    v, a = make_pair("noise", n, draw(st.integers(min_value=0, max_value=999)))
    fault = draw(st.sampled_from(("mismatched", "short", "nan", "inf")))
    if fault == "mismatched":
        return v, a[:-1]
    if fault == "short":
        cut = draw(st.integers(min_value=0, max_value=3))
        return v[:cut], a[:cut]
    bad = v.copy()
    bad[draw(st.integers(min_value=0, max_value=n - 1))] = (
        np.nan if fault == "nan" else np.inf
    )
    return (bad, a) if draw(st.booleans()) else (a, bad)


batches = st.lists(
    st.one_of(valid_pairs, valid_pairs, valid_pairs, broken_pairs()),
    min_size=1,
    max_size=5,
)


@settings(deadline=None)
@given(batches)
def test_batch_matches_per_pair_reference(pairs):
    config = PTrackConfig()
    got = batch_stepping_tests([v for v, _ in pairs], [a for _, a in pairs], config)
    assert got == [reference(v, a, config) for v, a in pairs]
    fracs = batch_phase_difference_fraction(pairs)
    for (v, a), frac, triple in zip(pairs, fracs, got):
        if triple == (0.0, 0.0, False) and np.isnan(frac):
            continue
        assert frac == phase_difference_fraction(v, a)


@settings(deadline=None)
@given(st.lists(valid_pairs, min_size=2, max_size=5), st.randoms(use_true_random=False))
def test_triple_independent_of_batch(pairs, rnd):
    """Padding and transform size follow the batch; the triples must not."""
    config = PTrackConfig()
    alone = [batch_stepping_tests([v], [a], config)[0] for v, a in pairs]
    order = list(range(len(pairs)))
    rnd.shuffle(order)
    # A long extra row widens every other row's padding and transform.
    extra_v, extra_a = make_pair("gait", 997, 7)
    batch = [pairs[i] for i in order] + [(extra_v, extra_a)]
    together = batch_stepping_tests(
        [v for v, _ in batch], [a for _, a in batch], config
    )
    assert [together[order.index(i)] for i in range(len(pairs))] == alone


def test_tied_sinusoid_lags_follow_walk_order():
    """Exact sin/cos pairs tie lags whole periods apart, to rounding; the
    hysteresis walk, not the rounding, must pick among them."""
    pairs = []
    for n in range(4, 160, 3):
        t = np.arange(n)
        for wave in {n // 2, max(2, n // 3), max(2, n // 4)}:
            for quarter in range(4):
                v = np.sin(2 * np.pi * t / wave) + 9.8
                a = np.cos(2 * np.pi * t / wave + quarter * np.pi / 2)
                pairs.append((v, a))
    fracs = batch_phase_difference_fraction(pairs)
    assert fracs.tolist() == [phase_difference_fraction(v, a) for v, a in pairs]


@settings(deadline=None)
@given(st.lists(valid_pairs, min_size=1, max_size=5))
def test_screen_bound_covers_exact_values(pairs):
    """The certificate rests on this bound: on a certified row, every
    screened value lies within it of the exact ``_sliding_pearson`` one."""
    xs = [v for v, _ in pairs]
    ys = [a for _, a in pairs]
    max_lags = np.array([min(x.size // 2, x.size - 2) for x in xs])
    lags, valid, values, bounds, certified = _screen_lags(xs, ys, max_lags)
    for r in np.flatnonzero(certified):
        searched = np.flatnonzero(valid[r])
        exact = _sliding_pearson(xs[r], ys[r], lags[searched])
        assert np.all(np.abs(values[r, searched] - exact) <= bounds[r])


def screened_walk(exact: dict, errors: dict, bound: float) -> Tuple[int, int]:
    """``_screened_best_lags`` on one row with a stubbed screen and stubbed
    exact values, and ``best_lag``'s full walk over the same values.

    ``exact`` and ``errors`` map each lag in ``[-top, top]`` to its exact
    value and to its screened value's error, in units of ``bound``.
    """
    top = max(exact)
    walk_order = sorted(exact, key=abs)
    lags = np.concatenate([-np.arange(top + 1), np.arange(top + 1)])
    valid = (lags != 0) | (np.arange(lags.size) > top)
    screened = [exact[int(lag)] + errors[int(lag)] * bound for lag in lags]

    def full_walk(x, y, max_lag):
        best, best_val = 0, -np.inf
        for lag in walk_order:
            if exact[lag] > best_val + 1e-12:
                best, best_val = lag, exact[lag]
        return best

    def fake_screen(xs, ys, max_lags):
        values = np.where(valid, screened, -np.inf)[None, :]
        return lags, valid[None, :], values, np.array([bound]), np.array([True])

    def fake_exact(a, b, wanted):
        return np.array([exact[int(lag)] for lag in wanted])

    row = np.zeros(2 * top + 4)
    with mock.patch.multiple(
        correlation,
        _screen_lags=fake_screen,
        _sliding_pearson=fake_exact,
        best_lag=full_walk,
    ):
        got, _ = correlation._screened_best_lags([row], [row], [top])
    return got[0], full_walk(row, row, top)


@settings(deadline=None)
@given(st.data())
def test_certificate_matches_full_walk_on_near_ties(data):
    """Candidate band and certificate on exact values clustered within the
    1e-12 hysteresis, with a screen that errs by up to its bound."""
    top = data.draw(st.integers(min_value=1, max_value=5))
    near = st.integers(min_value=0, max_value=6).map(lambda j: 0.9 - j * 0.35e-12)
    exact = {
        lag: data.draw(near | st.just(0.9 - 1e-3)) for lag in range(-top, top + 1)
    }
    errors = {
        lag: data.draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])) for lag in exact
    }
    bound = data.draw(st.sampled_from([1e-13, 0.5e-12, 2e-12]))
    got, want = screened_walk(exact, errors, bound)
    assert got == want


def test_certificate_refuses_shadowing_lag():
    """Lag 0 sits just over 1e-12 below the peak, so the screen leaves it
    out; yet in the full walk it blocks lag -1 and lets lag +1 win. The
    certificate must see that lag 0 reaches the smallest candidate."""
    exact = {0: 0.9 - 1.05e-12, -1: 0.9 - 0.35e-12, 1: 0.9}
    errors = {0: -1.0, -1: 0.0, 1: 1.0}
    got, want = screened_walk(exact, errors, 0.5e-12)
    assert want == 1
    assert got == want


@pytest.fixture(scope="module")
def mixed_sessions() -> List[Tuple[np.ndarray, object]]:
    """``(samples, profile)`` of a few walk/step/spoof/gesture sessions."""
    gestures = (
        ActivityKind.EATING,
        ActivityKind.POKER,
        ActivityKind.GAME,
        ActivityKind.MOUSE,
    )
    users = sample_users(8, np.random.default_rng(11), name_prefix="kernel")
    sessions = []
    for i, user in enumerate(users):
        session = (
            SessionBuilder(user, rng=np.random.default_rng(100 + i))
            .walk(10.0)
            .step(12.0)
            .spoof(10.0)
            .interfere(gestures[i % len(gestures)], 15.0)
            .swing(8.0)
            .step(12.0)
            .build()
        )
        sessions.append((session.trace.linear_acceleration, user.profile))
    return sessions


def _stream_solo(samples, profile, chunk: int = 200):
    streamer = StreamingPTrack(100.0, profile=profile)
    steps, strides = [], []
    for start in range(0, samples.shape[0], chunk):
        got_steps, got_strides = streamer.append(samples[start : start + chunk])
        steps.extend(got_steps)
        strides.extend(got_strides)
    got_steps, got_strides = streamer.flush()
    return steps + got_steps, strides + got_strides


@pytest.fixture(scope="module")
def traffic_rows(mixed_sessions) -> List[Pair]:
    """Every stepping-test row of the mixed sessions, streamed solo."""
    rows: List[Pair] = []
    original = streaming.batch_stepping_tests

    def record(verticals, anteriors, config=None):
        rows.extend(zip(verticals, anteriors))
        return original(verticals, anteriors, config)

    with mock.patch.object(streaming, "batch_stepping_tests", record):
        for samples, profile in mixed_sessions:
            _stream_solo(samples, profile)
    return rows


def test_pooled_stepping_matches_solo(mixed_sessions):
    """A pool stacks all sessions' cycles of a round into one call, mixing
    lengths and activities; every session must credit as if alone."""
    chunk = 200
    pool = SessionPool(100.0)
    sids = pool.add_sessions([profile for _, profile in mixed_sessions])
    pooled = [([], []) for _ in sids]
    longest = max(samples.shape[0] for samples, _ in mixed_sessions)
    for start in range(0, longest, chunk):
        live = [k for k, (s, _) in enumerate(mixed_sessions) if s.shape[0] > start]
        out = pool.append(
            [sids[k] for k in live],
            [mixed_sessions[k][0][start : start + chunk] for k in live],
        )
        for k, (steps, strides) in zip(live, out):
            pooled[k][0].extend(steps)
            pooled[k][1].extend(strides)
    for k, (steps, strides) in enumerate(pool.flush(sids)):
        pooled[k][0].extend(steps)
        pooled[k][1].extend(strides)
    solo = [
        _stream_solo(samples, profile, chunk) for samples, profile in mixed_sessions
    ]
    assert pooled == solo
    assert sum(len(steps) for steps, _ in solo) > 0


def test_certificate_decides_mixed_traffic(traffic_rows):
    """Without this the kernel could decay into its exact fallback unseen."""
    _, xs, ys = _valid_pairs(traffic_rows)
    assert len(xs) >= 200
    _, certified = _phase_fractions(xs, ys)
    assert sum(certified) >= 0.99 * len(xs)


def test_mixed_traffic_matches_reference(traffic_rows):
    config = PTrackConfig()
    got = batch_stepping_tests(
        [v for v, _ in traffic_rows], [a for _, a in traffic_rows], config
    )
    assert got == [reference(v, a, config) for v, a in traffic_rows]
