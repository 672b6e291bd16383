"""Test-only oracle: the scipy ``least_squares`` cold elliptical fit.

This is the cold path :class:`~repro.core.estimator.EllipticalEstimator`
used before cold fits moved onto the lockstep projected-LM kernel: every
:meth:`~repro.core.estimator.EllipticalEstimator._initial_candidates` seed
refined one at a time by scipy's bounded trust-region-reflective solver on
finite-difference Jacobians, lowest total cost (priors included) wins. The
differential tests compare the kernel path against it; it is not used by
the library.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np
from scipy.optimize import least_squares

from repro.core.estimator import _GN_HI, _GN_LO, EllipticalEstimator, FitResult
from repro.types import Vec2


def _refine(
    est: EllipticalEstimator, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
    theta0: Tuple[float, float, float, float],
) -> Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """One seed's bounded scipy refinement: ``(theta, residuals, jac)``."""
    root_n = math.sqrt(len(rss))

    def residual_fn(theta: np.ndarray) -> np.ndarray:
        x, h, gamma, n = theta
        l = np.maximum(np.hypot(x + p, h + q), 0.1)
        rows = [rss - (gamma - 10.0 * n * np.log10(l))]
        if est.gamma_prior is not None:
            rows.append(np.array(
                [root_n * (gamma - est.gamma_prior) / est.gamma_prior_sigma]))
        if est.n_prior is not None:
            rows.append(np.array(
                [root_n * (n - est.n_prior) / est.n_prior_sigma]))
        return np.concatenate(rows)

    start = np.clip(np.asarray(theta0, dtype=float),
                    _GN_LO + 1e-6, _GN_HI - 1e-6)
    try:
        sol = least_squares(residual_fn, start, bounds=(_GN_LO, _GN_HI),
                            max_nfev=200)
    except (ValueError, np.linalg.LinAlgError):
        return None
    return np.asarray(sol.x), np.asarray(sol.fun), np.asarray(sol.jac)


def scipy_cold_fit(
    est: EllipticalEstimator, p: np.ndarray, q: np.ndarray, rss: np.ndarray,
    use_q: bool,
) -> FitResult:
    """The scipy cold fit of ``(p, q, rss)``; ``use_q=False`` is the
    straight-leg fit with the canonical h >= 0 and its mirror."""
    best: Optional[FitResult] = None
    best_cost = math.inf
    seeds = est._initial_candidates(p, q, rss, use_q)
    for x0, h0, gamma0, n0 in seeds:
        refined = _refine(est, p, q, rss,
                          (x0, h0 if use_q else abs(h0), gamma0, n0))
        if refined is None:
            continue
        theta, fun, jac = refined
        cost = float(np.sum(fun ** 2))
        if cost >= best_cost:
            continue
        best_cost = cost
        x, h, gamma, n = (float(v) for v in theta)
        if not use_q:
            h = abs(h)
        pos_std, cov_cond, cov_status = est._covariance_from(jac, fun,
                                                             len(rss))
        best = FitResult(
            position=Vec2(x, h),
            n=n,
            gamma=gamma,
            epsilon=10.0 ** (gamma / (5.0 * n)),
            residuals=fun[: len(rss)],
            mirror=None if use_q else Vec2(x, -h),
            g=x * x + h * h,
            position_std=pos_std,
            solver="scipy-trf",
            n_candidates=len(seeds),
            cov_cond=cov_cond,
            cov_status=cov_status,
        )
    assert best is not None, "every scipy seed failed"
    return best
