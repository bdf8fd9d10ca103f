"""Tests for the fleet-batched numeric kernels.

Two layers:

* **solver differential** — :func:`repro.core.bounce.solve_bounce_block`
  against the scalar :func:`~repro.core.bounce.solve_bounce` on
  hypothesis-randomized physical geometries: converged rows must be
  float64 bit-identical to scipy's ``brentq``, rejected geometries must
  come back ``valid=False``, and a starved iteration budget must
  surface as ``valid=False`` (the callers' scalar-fallback contract)
  rather than a wrong root.
* **row kernels** — the row-stacked integration
  (:func:`repro.core.batched.integrate_block`) and the stride rows
  against their per-cycle scalar references, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounce import (
    _BLOCK_SCALAR_CUTOFF,
    GeometryError,
    solve_bounce,
    solve_bounce_block,
)
from repro.core.batched import integrate_block
from repro.core.stride import stride_from_bounce_model, stride_rows_from_bounce
from repro.signal.integration import (
    double_integrate_mean_removal,
    integrate_mean_removal,
)
from repro.types import UserProfile


def _walky(n, seed, freq=1.8, noise=0.25):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / 100.0
    return np.sin(2 * np.pi * freq * t) + noise * rng.standard_normal(n)


def _random_geometries(n, seed, degenerate=True):
    """Random bounce rows spanning (and exceeding) the physical range."""
    rng = np.random.default_rng(seed)
    h1 = rng.uniform(-0.15, 0.25, n)
    h2 = rng.uniform(-0.15, 0.25, n)
    d = rng.uniform(0.0, 0.9, n)
    m = rng.uniform(0.4, 0.95, n)
    if degenerate and n >= 10:
        k = n // 10
        bad = rng.choice(n, size=k, replace=False)
        d[bad] = rng.uniform(1.5, 3.0, k)
        zero = rng.choice(n, size=k, replace=False)
        m[zero] = 0.0
    return h1, h2, d, m


def _assert_block_matches_scalar(h1, h2, d, m, bounce, valid):
    for r in range(d.size):
        try:
            ref = solve_bounce(
                float(h1[r]), float(h2[r]), float(d[r]), float(m[r])
            )
        except GeometryError:
            assert not valid[r]
            continue
        assert valid[r]
        assert bounce[r] == ref  # bitwise


# ----------------------------------------------------------------------
# Solver differential
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_solve_bounce_block_bit_identical_vectorized_path(seed):
    # > _BLOCK_SCALAR_CUTOFFF rows, so the lockstep Brent runs, not the
    # small-batch scalar loop.
    n = 2 * _BLOCK_SCALAR_CUTOFF
    h1, h2, d, m = _random_geometries(n, seed)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 16))
def test_solve_bounce_block_bit_identical_scalar_path(seed, n):
    # <= cutoff rows take the scalar loop; same contract either way.
    h1, h2, d, m = _random_geometries(n, seed, degenerate=False)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)


@settings(max_examples=20, deadline=None)
@given(
    st.floats(-0.15, 0.25),
    st.floats(-0.15, 0.25),
    st.floats(0.0, 0.9),
    st.floats(0.4, 0.95),
)
def test_solve_bounce_block_single_row_matches_scalar(h1, h2, d, m):
    bounce, valid = solve_bounce_block(
        np.asarray([h1]), np.asarray([h2]), np.asarray([d]), np.asarray([m])
    )
    _assert_block_matches_scalar(
        np.asarray([h1]), np.asarray([h2]), np.asarray([d]), np.asarray([m]),
        bounce, valid,
    )


def test_solve_bounce_block_broadcasts_scalar_arm():
    h1, h2, d, _ = _random_geometries(200, 3, degenerate=False)
    b1, v1 = solve_bounce_block(h1, h2, d, 0.7)
    b2, v2 = solve_bounce_block(h1, h2, d, np.full(200, 0.7))
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(b1[v1], b2[v2])


def test_solve_bounce_block_empty():
    empty = np.empty(0)
    bounce, valid = solve_bounce_block(empty, empty, empty, empty)
    assert bounce.size == 0 and valid.size == 0


def test_solve_bounce_block_starved_maxiter_flags_not_valid():
    # With one iteration the lockstep Brent cannot converge interior
    # roots; the contract is valid=False (caller re-runs scalar), never
    # a silently wrong root.
    n = 2 * _BLOCK_SCALAR_CUTOFF
    h1, h2, d, m = _random_geometries(n, 7, degenerate=False)
    bounce, valid = solve_bounce_block(h1, h2, d, m, maxiter=1)
    full_bounce, full_valid = solve_bounce_block(h1, h2, d, m)
    assert valid.sum() < full_valid.sum()  # starvation actually bites
    _assert_block_matches_scalar(
        h1[valid], h2[valid], d[valid], m[valid],
        bounce[valid], np.ones(int(valid.sum()), dtype=bool),
    )


def test_solve_bounce_block_geometry_rejects_match_scalar_raises():
    h1 = np.asarray([0.0, 0.05, 0.01])
    h2 = np.asarray([0.0, 0.05, 0.01])
    d = np.asarray([2.5, 0.3, -0.1])   # oversized, fine, negative
    m = np.asarray([0.7, 0.0, 0.7])    # fine, non-positive arm, fine
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    assert not valid[0] and not valid[1] and not valid[2]
    assert np.all(np.isnan(bounce[~valid]))


def test_bounce_solve_block_matches_scalar():
    h1, h2, d, m = _random_geometries(300, 11)
    bounce, valid = solve_bounce_block(h1, h2, d, m)
    _assert_block_matches_scalar(h1, h2, d, m, bounce, valid)


# ----------------------------------------------------------------------
# Row kernels
# ----------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_stride_rows_bit_identical_to_scalar_model(seed):
    rng = np.random.default_rng(seed)
    n = 64
    bounce = rng.uniform(-0.05, 1.2, n)  # includes out-of-clip values
    legs = rng.uniform(0.6, 1.1, n)
    ks = rng.uniform(1.5, 2.5, n)
    rows = stride_rows_from_bounce(bounce, legs, ks)
    for r in range(n):
        profile = UserProfile(
            arm_length_m=0.7,
            leg_length_m=float(legs[r]),
            calibration_k=float(ks[r]),
        )
        assert rows[r] == stride_from_bounce_model(float(bounce[r]), profile)


def test_integrate_block_matches_scalar():
    rows = np.stack([_walky(80, s) for s in range(6)])
    dt = 0.01
    vel, disp = integrate_block(rows, dt)
    for r in range(rows.shape[0]):
        np.testing.assert_array_equal(vel[r], integrate_mean_removal(rows[r], dt))
        np.testing.assert_array_equal(
            disp[r], double_integrate_mean_removal(rows[r], dt)
        )
