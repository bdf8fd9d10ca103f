"""Correlation utilities: auto-correlation, half-cycle test, phase lag.

Two PTrack tests live on these primitives (SIII-B1):

* **Half-cycle auto-correlation ``C``** — within one gait cycle the
  user steps twice, so the anterior acceleration repeats at the
  half-cycle lag and its auto-correlation there is large and positive.
  Arm gestures are back-and-forth (sine turns into cosine at direction
  reversals), so their half-cycle correlation is not reliably positive.

* **Fixed phase difference** — for the body alone, vertical and
  anterior accelerations keep a fixed quarter-period phase offset
  (Kim et al. [22]); stepping inherits it, arbitrary gestures do not.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import SignalError

__all__ = [
    "autocorrelation",
    "half_cycle_correlation",
    "batch_half_cycle_correlation",
    "normalized_cross_correlation",
    "best_lag",
    "phase_difference_fraction",
    "batch_phase_difference_fraction",
]


def _validate(x: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise SignalError(f"{name} must be 1-D, got shape {arr.shape}")
    if arr.size < 2:
        raise SignalError(f"{name} needs at least 2 samples, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise SignalError(f"{name} contains non-finite values")
    return arr


def _degenerate(window_std: float, window: np.ndarray) -> bool:
    """Whether a correlation window carries no real variance.

    An exact ``std == 0.0`` check misses constant signals whose mean
    picks up a rounding residue (pairwise summation can be off by one
    ulp for some constants and window lengths); the residue then
    correlates with itself at 1.0. Variance below ``1e-12`` of the
    window's amplitude is indistinguishable from that rounding noise,
    so such windows carry no periodicity evidence and score 0.0.
    """
    scale = float(np.abs(window).max()) if window.size else 0.0
    return window_std <= 1e-12 * scale


def autocorrelation(x: np.ndarray, lag: int) -> float:
    """Normalised auto-correlation of ``x`` at one lag.

    Pearson correlation between ``x[:-lag]`` and ``x[lag:]`` — bounded
    in [-1, 1] and invariant to offset and scale, so thresholding at
    zero is meaningful across users and devices.

    Args:
        x: 1-D signal.
        lag: Positive lag in samples, strictly less than ``len(x)``.

    Returns:
        The correlation coefficient; 0.0 when either windowed half has
        no variance (a constant signal carries no periodicity evidence).
    """
    arr = _validate(x, "signal")
    if not 0 < lag < arr.size:
        raise SignalError(f"lag must be in (0, {arr.size}), got {lag}")
    a, b = arr[:-lag], arr[lag:]
    sa, sb = a.std(), b.std()
    if _degenerate(sa, a) or _degenerate(sb, b):
        return 0.0
    return float(np.mean((a - a.mean()) * (b - b.mean())) / (sa * sb))


def half_cycle_correlation(anterior: np.ndarray) -> float:
    """PTrack's ``C``: auto-correlation of one cycle at the half-cycle lag.

    Args:
        anterior: Anterior acceleration covering exactly one gait-cycle
            candidate (two steps when the candidate is genuine gait).

    Returns:
        The normalised auto-correlation at ``len(anterior) // 2``.
    """
    arr = _validate(anterior, "anterior")
    if arr.size < 4:
        raise SignalError(f"cycle too short for half-cycle test: {arr.size} samples")
    return autocorrelation(arr, arr.size // 2)


def batch_half_cycle_correlation(
    segments: Sequence[np.ndarray],
) -> np.ndarray:
    """``C`` of many candidate cycles, evaluated in length-grouped batches.

    The step counter classifies every candidate cycle of a trace;
    evaluating their half-cycle correlations one call at a time costs a
    Python round-trip per cycle. Here cycles of equal length are
    stacked into a matrix and their lagged Pearson correlations
    computed row-wise in one shot, which is where real traces
    concentrate (the segmenter cuts near-constant cycle lengths within
    a gait bout).

    Degenerate cycles — fewer than 4 samples, or zero variance in a
    lag window — score 0.0 instead of raising, mirroring how the
    decision flow treats a failed half-cycle test.

    Args:
        segments: 1-D cycle arrays (lengths may differ).

    Returns:
        Array of ``C`` values aligned with ``segments``.
    """
    arrays = [np.asarray(seg, dtype=float) for seg in segments]
    rows = [
        i
        for i, arr in enumerate(arrays)
        if arr.ndim == 1 and arr.size >= 4 and np.all(np.isfinite(arr))
    ]
    out = np.zeros(len(arrays))
    out[rows] = _half_cycle_rows([arrays[i] for i in rows])
    return out


def _half_cycle_rows(rows: Sequence[np.ndarray]) -> np.ndarray:
    """:func:`batch_half_cycle_correlation` of validated 1-D rows."""
    out = np.zeros(len(rows))
    by_length: dict = {}
    for i, row in enumerate(rows):
        by_length.setdefault(row.size, []).append(i)
    for size, indices in by_length.items():
        lag = size // 2
        width = size - lag
        half = len(indices)
        # Both lag windows of every row, stacked: (2 * half, width).
        win = np.array(
            [rows[i][:-lag] for i in indices] + [rows[i][lag:] for i in indices]
        )
        # Row-wise, the same arithmetic as the scalar path: the mean is
        # sum / width and np.std centres with that mean and sums the
        # same squares, so reusing the centred rows is bit-equal to it.
        cen = win - win.sum(axis=1, keepdims=True) / width
        std = np.sqrt((cen * cen).sum(axis=1) / width)
        # Same relative-scale degeneracy rule as the scalar path (see
        # _degenerate), applied row-wise so the two stay equivalent.
        live = std > 1e-12 * np.abs(win).max(axis=1)
        denom = std[:half] * std[half:]
        cov = (cen[:half] * cen[half:]).sum(axis=1) / width
        vals = np.zeros(half)
        np.divide(cov, denom, out=vals, where=live[:half] & live[half:] & (denom > 0.0))
        out[indices] = vals
    return out


def normalized_cross_correlation(x: np.ndarray, y: np.ndarray, lag: int) -> float:
    """Pearson correlation between ``x`` and ``y`` shifted by ``lag``.

    Positive ``lag`` compares ``x[t]`` with ``y[t + lag]`` (``y`` leads
    by ``lag`` samples); negative compares against ``y`` delayed.

    Returns:
        Correlation in [-1, 1]; 0.0 for degenerate (constant) overlap.
    """
    a = _validate(x, "x")
    b = _validate(y, "y")
    if a.size != b.size:
        raise SignalError(f"length mismatch: {a.size} vs {b.size}")
    n = a.size
    if abs(lag) >= n - 1:
        raise SignalError(f"|lag| must be < {n - 1}, got {lag}")
    if lag >= 0:
        aa, bb = a[: n - lag], b[lag:]
    else:
        aa, bb = a[-lag:], b[: n + lag]
    sa, sb = aa.std(), bb.std()
    if _degenerate(sa, aa) or _degenerate(sb, bb):
        return 0.0
    return float(np.mean((aa - aa.mean()) * (bb - bb.mean())) / (sa * sb))


def _sliding_pearson(
    a: np.ndarray,
    b: np.ndarray,
    lags: Sequence[int],
    return_conditioning: bool = False,
):
    """Pearson correlation of ``(x, y shifted by lag)`` for many lags at once.

    Evaluates :func:`normalized_cross_correlation` for every lag with a
    single batch of array operations instead of one Python call per
    lag. Each lag's overlap window is laid out as a masked row of an
    ``(n_lags, n)`` matrix and the two-pass mean/std/covariance formula
    runs row-wise, reproducing the per-lag computation to within
    floating-point summation order (≈1e-15 relative).

    Args:
        a: Reference signal, validated 1-D.
        b: Shifted signal of the same length.
        lags: Lags with ``|lag| < len(a) - 1``.
        return_conditioning: Also return whether every window carries
            enough variance for the values to be numerically meaningful.

    Returns:
        Array of correlation values, one per lag (degenerate
        zero-variance windows read 0.0); with ``return_conditioning``,
        a ``(values, well_conditioned)`` tuple.
    """
    n = a.size
    lag_arr = np.asarray(list(lags), dtype=np.int64)[:, None]  # (L, 1)
    j = np.arange(n)[None, :]  # (1, n)
    m = n - np.abs(lag_arr)  # overlap length per lag, (L, 1)
    valid = j < m
    a_idx = np.where(lag_arr >= 0, j, j - lag_arr)
    b_idx = np.where(lag_arr >= 0, j + lag_arr, j)
    aa = np.where(valid, a[np.clip(a_idx, 0, n - 1)], 0.0)
    bb = np.where(valid, b[np.clip(b_idx, 0, n - 1)], 0.0)
    mf = m.astype(float)
    aa_c = np.where(valid, aa - aa.sum(axis=1, keepdims=True) / mf, 0.0)
    bb_c = np.where(valid, bb - bb.sum(axis=1, keepdims=True) / mf, 0.0)
    var_a = np.einsum("ij,ij->i", aa_c, aa_c) / mf[:, 0]
    var_b = np.einsum("ij,ij->i", bb_c, bb_c) / mf[:, 0]
    cov = np.einsum("ij,ij->i", aa_c, bb_c) / mf[:, 0]
    denom = np.sqrt(var_a) * np.sqrt(var_b)
    out = np.zeros(lag_arr.shape[0])
    np.divide(cov, denom, out=out, where=denom > 0.0)
    if return_conditioning:
        # A window whose standard deviation sits below ~1e-6 of the
        # signal amplitude turns the Pearson quotient into an amplifier
        # of summation-order rounding: different (equally valid)
        # formulas then disagree by O(1). Callers needing scalar-exact
        # selection fall back to the reference on such inputs.
        scale_a = float(np.abs(a).max())
        scale_b = float(np.abs(b).max())
        well_conditioned = (
            scale_a > 0.0
            and scale_b > 0.0
            and bool(np.all(np.sqrt(var_a) > 1e-6 * scale_a))
            and bool(np.all(np.sqrt(var_b) > 1e-6 * scale_b))
        )
        return out, well_conditioned
    return out


def best_lag(x: np.ndarray, y: np.ndarray, max_lag: int) -> int:
    """Lag in ``[-max_lag, max_lag]`` maximising the cross-correlation.

    The correlation values for all candidate lags are computed in one
    vectorised batch (:func:`_sliding_pearson`); the selection then
    walks them in the scalar reference's order (ascending ``|lag|``)
    with the same 1e-12 improvement hysteresis, preserving its
    tie-breaking. ``_best_lag_scalar`` keeps the per-lag reference.
    Many searches at once go through the screened batch search behind
    :func:`batch_phase_difference_fraction`, which returns this lag.

    Args:
        x: Reference signal.
        y: Signal whose shift is sought.
        max_lag: Symmetric lag search bound in samples.

    Returns:
        The maximising lag (ties resolve to the smallest magnitude).
    """
    a = _validate(x, "x")
    b = _validate(y, "y")
    if a.size != b.size:
        raise SignalError(f"length mismatch: {a.size} vs {b.size}")
    max_lag = min(max_lag, a.size - 2)
    if max_lag < 0:
        raise SignalError("signals too short for any lag search")
    lags = sorted(range(-max_lag, max_lag + 1), key=abs)
    vals, well_conditioned = _sliding_pearson(a, b, lags, return_conditioning=True)
    if not well_conditioned:
        # Near-constant windows make the Pearson values numerically
        # meaningless; reproduce the reference bit-for-bit instead.
        return _best_lag_scalar(a, b, max_lag)
    best = 0
    best_val = -np.inf
    for lag, val in zip(lags, vals):
        if val > best_val + 1e-12:
            best_val = float(val)
            best = lag
    return best


def _best_lag_scalar(x: np.ndarray, y: np.ndarray, max_lag: int) -> int:
    """Per-lag reference implementation of :func:`best_lag`.

    The behavioural specification that ``best_lag`` is property-tested
    against, and ``best_lag``'s own answer when a window is
    ill-conditioned (near-constant), where only the per-lag arithmetic
    reproduces it. ``benchmarks/bench_runtime.py`` times it as the
    baseline of the vectorised search.
    """
    a = _validate(x, "x")
    b = _validate(y, "y")
    if a.size != b.size:
        raise SignalError(f"length mismatch: {a.size} vs {b.size}")
    max_lag = min(max_lag, a.size - 2)
    if max_lag < 0:
        raise SignalError("signals too short for any lag search")
    lags = sorted(range(-max_lag, max_lag + 1), key=abs)
    best = 0
    best_val = -np.inf
    for lag in lags:
        val = normalized_cross_correlation(a, b, lag)
        if val > best_val + 1e-12:
            best_val = val
            best = lag
    return best


def phase_difference_fraction(
    vertical: np.ndarray,
    anterior: np.ndarray,
    period_samples: Optional[int] = None,
) -> float:
    """Phase lead of ``anterior`` relative to ``vertical`` as a period fraction.

    The lag maximising the cross-correlation is folded into
    ``[0, period)`` and normalised by the period, so a fixed
    quarter-period offset reads as ~0.25 (or 0.75 for the mirrored
    direction convention) regardless of cadence.

    Args:
        vertical: Vertical acceleration of one gait cycle.
        anterior: Anterior acceleration of the same cycle.
        period_samples: Oscillation period; defaults to half the cycle
            length (the per-step period, which is the body's dominant
            period on both axes).

    Returns:
        Phase difference in ``[0, 1)`` of the per-step oscillation.
    """
    v = _validate(vertical, "vertical")
    a = _validate(anterior, "anterior")
    if v.size != a.size:
        raise SignalError(f"length mismatch: {v.size} vs {a.size}")
    period = period_samples if period_samples is not None else max(2, v.size // 2)
    if period < 2:
        raise SignalError(f"period_samples must be >= 2, got {period}")
    lag = best_lag(v, a, max_lag=period)
    return float(lag % period) / float(period)


def batch_phase_difference_fraction(
    pairs: Sequence[tuple],
) -> np.ndarray:
    """Phase fractions for many ``(vertical, anterior)`` cycle pairs.

    Equal to :func:`phase_difference_fraction` pair by pair. All pairs'
    lag searches run in one screened pass (:func:`_screened_best_lags`):
    exact Pearson values are computed only near each pair's screened
    peak, and a pair whose screen cannot certify the peak takes
    :func:`best_lag`. Degenerate pairs (shorter than 4 samples,
    mismatched lengths, non-finite values) read ``nan`` instead of
    raising, so the caller can batch a whole trace's cycles without
    pre-filtering.

    Args:
        pairs: Tuples of equal-length 1-D cycle axes.

    Returns:
        Array of phase fractions in ``[0, 1)`` (``nan`` for degenerate
        pairs), aligned with ``pairs``.
    """
    out = np.full(len(pairs), np.nan)
    rows, xs, ys = _valid_pairs(pairs)
    if rows:
        out[rows] = _phase_fractions(xs, ys)[0]
    return out


def _valid_pairs(
    pairs: Iterable[tuple],
) -> Tuple[List[int], List[np.ndarray], List[np.ndarray]]:
    """Indices and float arrays of the pairs a phase search accepts.

    A pair is accepted when both axes are 1-D, of one length of at
    least 4 samples, and finite.
    """
    rows: List[int] = []
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    for i, (x, y) in enumerate(pairs):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim == 1 and x.shape == y.shape and x.size >= 4:
            rows.append(i)
            xs.append(x)
            ys.append(y)
    # One finiteness check for the whole batch, per pair only if it fails.
    if rows and not np.isfinite(np.concatenate(xs + ys)).all():
        keep = [
            j
            for j in range(len(rows))
            if np.isfinite(xs[j]).all() and np.isfinite(ys[j]).all()
        ]
        rows = [rows[j] for j in keep]
        xs = [xs[j] for j in keep]
        ys = [ys[j] for j in keep]
    return rows, xs, ys


def _phase_fractions(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
) -> Tuple[np.ndarray, List[bool]]:
    """:func:`phase_difference_fraction` of accepted pairs, all at once.

    Returns:
        ``(fractions, certified)``: per pair, the phase fraction and
        whether the screen's certificate decided its lag (``False``: the
        pair took :func:`best_lag`).
    """
    # phase_difference_fraction's period is also best_lag's bound.
    periods = np.array([x.size // 2 for x in xs])
    lags, certified = _screened_best_lags(xs, ys, periods)
    return (np.array(lags) % periods) / periods, certified


#: Unit roundoff of float64.
_UNIT = np.finfo(float).eps / 2.0
#: Factor applied to the screen's first-order error bound.
_BOUND_SAFETY = 4.0
#: Row amplitudes the screen certifies. Within them no sum of squares,
#: product of windows' variances or cross sum overflows or underflows.
_SCREEN_RANGE = (1e-50, 1e50)


def _screened_best_lags(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    max_lags: Sequence[int],
) -> Tuple[List[int], List[bool]]:
    """:func:`best_lag` for many rows, exact values only near each peak.

    1. *Screen* (:func:`_screen_lags`). One batched pass over all rows,
       whatever their lengths, gives an approximate Pearson value and an
       error bound for every lag.
    2. *Confirm.* The candidates are the lags whose screened upper
       bound comes within 1e-12 of the best screened lower bound. A lone
       candidate clears every other lag by more than the hysteresis, so
       the walk returns it whatever its exact value. Several candidates
       get exact values from ``_sliding_pearson`` on the row alone;
       it computes each lag independently of the others, so these
       values are bit-equal to ``best_lag``'s.
    3. *Walk.* ``best_lag``'s ascending-``|lag|`` walk with its 1e-12
       hysteresis over the candidates. Every other lag sits more than
       1e-12 below every candidate, so it can neither take nor block a
       step of the full walk: the result is ``best_lag``'s.
    4. *Certificate.* Only rows whose bound is finite, whose every
       window passes ``best_lag``'s ill-conditioning test outside that
       bound, and whose other lags all sit more than 1e-12 below the
       smallest exact candidate value are decided here; every other row
       takes :func:`best_lag`.

    Args:
        xs: Reference rows, validated 1-D, finite, at least 4 samples.
        ys: Shifted rows, each as long as its ``xs`` row.
        max_lags: Per-row search bound, as passed to ``best_lag``.

    Returns:
        ``(lags, certified)``: each row's ``best_lag`` result and
        whether the certificate decided it.
    """
    ns = np.array([x.size for x in xs])
    grid, valid, values, errs, certified = _screen_lags(
        xs, ys, np.minimum(max_lags, ns - 2)
    )
    hi = values + (errs + 1e-12)[:, None]
    candidates = valid & (hi >= values.max(axis=1, keepdims=True) - errs[:, None])
    several = candidates.sum(axis=1) > 1
    # Only several candidates need exact values; +inf elsewhere keeps a
    # lone candidate's row out of the check below.
    exact = np.full(values.shape, np.inf)
    for r in np.flatnonzero(several & certified):
        ks = np.flatnonzero(candidates[r])
        exact[r, ks] = _sliding_pearson(xs[r], ys[r], grid[ks])
    # Every other lag must sit more than 1e-12 below every candidate.
    floor = exact.min(axis=1, keepdims=True)
    certified &= ~(valid & ~candidates & (hi >= floor)).any(axis=1)
    # A lone candidate is the answer; several go through the walk.
    lags = grid[candidates.argmax(axis=1)].tolist()
    for r in np.flatnonzero(several | ~certified):
        if not certified[r]:
            lags[r] = best_lag(xs[r], ys[r], int(max_lags[r]))
            continue
        walk = sorted(
            zip(grid[candidates[r]].tolist(), exact[r, candidates[r]].tolist()),
            key=lambda pair: (abs(pair[0]), pair[0]),
        )
        best_val = -np.inf
        for lag, val in walk:
            if val > best_val + 1e-12:
                best_val = val
                lags[r] = lag
    return lags, certified.tolist()


def _screen_lags(
    xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    max_lags: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Approximate Pearson values with error bounds, every lag of every row.

    The rows are centred, zero-padded to a common width and processed
    together. Lag ``+k`` pairs ``x[:n-k]`` with ``y[k:]`` and lag ``-k``
    pairs ``x[k:]`` with ``y[:n-k]``, so every window's sum and sum of
    squares is a prefix sum at ``n - k`` or a row total minus a prefix
    sum at ``k``; one zero-padded ``rfft``/``irfft`` gives every lag's
    cross sum. Each value's bound covers its distance to the true
    correlation and that of ``_sliding_pearson``.

    Returns:
        ``(lags, valid, values, bounds, certified)``: the lags, shape
        ``(L,)``, ordered ``-0, -1, .., -K, +0, +1, .., +K``; per row and
        lag whether the lag is searched (``-0`` never is) and the
        screened value, shape ``(R, L)``; per row the bound on every
        screened value's error and whether the row is certified: its
        bound is finite and every window decidedly passes ``best_lag``'s
        ill-conditioning test.
    """
    n_rows = len(xs)
    ns = np.array([x.size for x in xs])
    n = ns[:, None]
    width = int(ns.max())
    top = int(max_lags.max())
    k = np.arange(top + 1)
    # Rows x and y, each after a leading zero so that cumulative sums
    # read as prefix sums P[k] of the first k samples.
    raw = np.zeros((n_rows, 2, width + 1))
    for r, (x, y) in enumerate(zip(xs, ys)):
        raw[r, 0, 1 : x.size + 1] = x
        raw[r, 1, 1 : y.size + 1] = y
    scale = np.abs(raw).max(axis=2)  # (R, axis)
    searched = k <= max_lags[:, None]
    valid = np.repeat(searched[:, None], 2, axis=1)  # (R, sign, K+1)
    valid[:, 0, 0] = False
    # Rows out of range may overflow or underflow anywhere below; they
    # are not certified, and rows never mix.
    with np.errstate(all="ignore"):
        # Centre each row first so window sums do not cancel its offset.
        cols = np.arange(width + 1)
        cen = raw - raw.sum(axis=2, keepdims=True) / n[:, :, None]
        cen *= ((cols > 0) & (cols <= n))[:, None, :]
        prefix = np.cumsum(np.array([cen, cen * cen]), axis=3)  # (2, R, axis, W+1)

        # Cross sums of every lag from one circular correlation, long
        # enough that no lag wraps around; powers of two keep the
        # transform plans few and cached.
        size = 1 << (width + top).bit_length()
        spec = np.fft.rfft(cen[:, :, 1:], n=size, axis=2)
        cross_all = np.fft.irfft(spec[:, 0].conj() * spec[:, 1], n=size, axis=1)
        cross = cross_all[:, np.array([-k % size, k])]  # (R, sign, K+1)

        # Window sums and sums of squares per sign (-k, +k) and axis
        # (x, y): -k takes x[k:] and y[:n-k], +k takes x[:n-k] and y[k:].
        # x[k:] is x's total minus its prefix at k, x[:n-k] its prefix
        # at n-k. Shape (2, R, sign, axis, K+1).
        total = prefix[:, :, :, -1:]  # the padding adds zeros
        parts = np.zeros((2, n_rows, 4, top + 1))
        parts[:, :, :2] = total - prefix[:, :, :, : top + 1]
        for r, length in enumerate(ns.tolist()):
            reach = min(top, length) + 1
            # P[n-k] for k = 0 .. reach - 1
            parts[:, r, 2:, :reach] = prefix[:, r, :, length::-1][:, :, :reach]
        win = parts[:, :, [[0, 3], [2, 1]]]
        sqsum = total[1][:, None]  # Q per row and axis, (R, 1, axis, 1)
        sums, squares = win[0], win[1]
        m = (n - np.minimum(k, n - 1))[:, None, :]  # (R, 1, K+1)
        # m * variance per window; unsearched lags read +inf.
        var = np.where(valid[:, :, None], squares - sums * sums / m[:, :, None], np.inf)
        cov = cross - sums[:, :, 0] * sums[:, :, 1] / m
        values = cov / np.sqrt(var[:, :, 0] * var[:, :, 1])
        # Per row and axis: the worst window conditioning Q / var, with
        # Q the row's sum of squares, and the smallest window variance.
        worst = (sqsum / var).max(axis=(1, 3))
        least = (var / m[:, :, None]).min(axis=(1, 3))

        # Error model, first order in the unit roundoff u. Sequential
        # prefix sums err by at most about n*u of the row's absolute
        # mass and (sum |x|)^2 <= n*Q, so a window's m*variance errs by
        # at most g*Q; the transform errs by about log2(size)*sqrt(size)
        # *u of the product of the row norms, so a covariance errs by at
        # most h*sqrt(Qx*Qy). If var > 2*g*Q on every window, each
        # screened value lies within (h/2 + 2g + 2u)*2*(Qx/var_x +
        # Qy/var_y) of the true one, and _sliding_pearson's within
        # (4n + 16)*u. ``coef`` bounds h/2 + 2g + 2u, and so g, at the
        # row's shortest window; the row's bound takes its worst one.
        u = _UNIT
        shortest = ns - np.minimum(max_lags, ns - 1)
        transform = 8.0 * math.log2(size) * math.sqrt(size) + 11.0
        coef = u * (transform + ns * (4.0 + (10 * ns + 13) / shortest))
        exact_err = (4 * ns + 20) * u + 1e-15
        bound = _BOUND_SAFETY * (2.0 * coef * worst.sum(axis=1) + exact_err)
        # best_lag's ill-conditioning test, sqrt(var / m) > 1e-6 *
        # amplitude on every window, decided outside the bound: with
        # var > 2*g*Q the true variance exceeds half the screened one.
        limit = 2.0 * (1e-6 * scale) ** 2 * (1.0 + 1e-9)
        certified = (
            (coef[:, None] * worst < 0.5).all(axis=1)
            & (least > limit).all(axis=1)
            & (bound < 0.1)
            & ((scale > _SCREEN_RANGE[0]) & (scale < _SCREEN_RANGE[1])).all(axis=1)
        )
    # Unsearched lags and uncertified rows carry no information.
    values[~valid | ~certified[:, None, None]] = -np.inf
    bound[~certified] = 0.0

    lags = np.concatenate([-k, k])
    return lags, valid.reshape(n_rows, -1), values.reshape(n_rows, -1), bound, certified
