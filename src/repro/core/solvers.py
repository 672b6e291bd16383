"""The solvers LocBLE can resolve a location with (:mod:`repro.core.solvers`).

``elliptical``
    The paper's batch elliptical regression (Sec. 5,
    :mod:`repro.core.estimator`) — the default, and the only solver with
    warm-start and cross-session batching fast paths.
``particle``
    :class:`ParticleBackend`, a sequential Monte Carlo filter over
    ``(x, h, Γ, n)`` with a direct posterior-spread uncertainty readout.

Robustness contract of the particle filter: every reading is screened
before it can touch the cloud. ``sanitize="strict"`` raises a typed
:class:`~repro.errors.DataQualityError` on a non-numeric, non-finite or
implausible reading; ``"repair"`` skips it, counts it and events it
(``solver.particle_skipped``). Either way the posterior built from the
readings that *did* pass is never discarded: if the weights of an update
still collapse, the pre-update posterior is kept, only that reading is
dropped, and the drop is loud (``solver.particle_degenerate``).

See ``docs/solvers.md`` for selection guidance and the measured
accuracy-vs-cost comparison.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.core.estimator import FitResult
from repro.errors import ConfigurationError, DataQualityError, EstimationError
from repro.robustness.sanitize import RSSI_PLAUSIBLE_DBM
from repro.types import Vec2

__all__ = ["SOLVERS", "ParticleBackend"]

#: Every solver name ``LocBLE(solver=...)`` and ``SessionConfig`` accept.
SOLVERS = ("elliptical", "particle")

N_PARTICLES = 1500
#: Radius (m) of the prior disk the cloud is seeded over.
MAX_RANGE_M = 16.0
#: Standard deviation (dB) of the Gaussian RSS likelihood.
RSS_SIGMA_DB = 3.5
GAMMA_PRIOR_SIGMA = 6.0
#: Resample when the effective sample size drops below this share.
RESAMPLE_THRESHOLD = 0.5
#: Uninformed path-loss exponent band.
N_BAND = (1.6, 3.2)


class ParticleBackend:
    """SIR particle filter over (x, h, Γ, n).

    Particles are seeded uniformly over a disk of radius
    :data:`MAX_RANGE_M` with Γ drawn around ``gamma_prior`` and n over the
    indoor band — narrowed to ``n_prior ± 0.5`` when EnvAware supplies a
    prior, so particles keep exploring around the class centre. Each
    reading reweights the cloud by the Gaussian RSS likelihood; the cloud
    is resampled when the effective sample size collapses, with a small
    parameter jitter that keeps it alive (regularised PF).
    """

    def __init__(
        self,
        sanitize: str = "strict",
        seed: int = 0,
        gamma_prior: Optional[float] = -59.0,
        n_prior: Optional[float] = None,
    ) -> None:
        if sanitize not in ("strict", "repair"):
            raise ConfigurationError(
                f"sanitize must be 'strict' or 'repair', got {sanitize!r}"
            )
        self.sanitize = sanitize
        #: Readings screened out (repair mode) since construction.
        self.n_skipped = 0
        self._rng = np.random.default_rng(seed)
        # Accepted rows, kept so solve() can report RSS-domain residuals.
        self._p: list = []
        self._q: list = []
        self._rss: list = []

        n_low, n_high = N_BAND
        if n_prior is not None:
            n_low = max(1.0, float(n_prior) - 0.5)
            n_high = min(5.0, float(n_prior) + 0.5)
        gamma_prior = -59.0 if gamma_prior is None else float(gamma_prior)
        n = N_PARTICLES
        radius = MAX_RANGE_M * np.sqrt(self._rng.uniform(0.05, 1.0, n))
        angle = self._rng.uniform(-math.pi, math.pi, n)
        gamma = self._rng.normal(gamma_prior, GAMMA_PRIOR_SIGMA, n)
        n_exp = self._rng.uniform(n_low, n_high, n)
        self._state = np.column_stack(
            [radius * np.cos(angle), radius * np.sin(angle), gamma, n_exp])
        self._weights = np.full(n, 1.0 / n)

    @property
    def effective_sample_size(self) -> float:
        return float(1.0 / np.sum(self._weights**2))

    def observe(self, p, q, rss) -> int:
        """Assimilate matched ``(p, q, rss)`` rows (the batch fit's
        convention); returns how many entered the posterior."""
        p_ok, q_ok, rss_ok = self._screen(p, q, rss)
        taken = 0
        for p_i, q_i, r_i in zip(p_ok.tolist(), q_ok.tolist(), rss_ok.tolist()):
            if self._update(p_i, q_i, r_i):
                self._p.append(p_i)
                self._q.append(q_i)
                self._rss.append(r_i)
                taken += 1
        return taken

    def solve(self) -> FitResult:
        """The posterior mean, with the posterior spread as position_std."""
        if not self._rss:
            raise EstimationError("no readings assimilated yet")
        mean = np.average(self._state, axis=0, weights=self._weights)
        var_xy = np.average(
            (self._state[:, :2] - mean[:2]) ** 2, axis=0,
            weights=self._weights,
        )
        std = float(np.sqrt(var_xy.sum()))
        x, h, gamma, n = (float(v) for v in mean)
        l = np.maximum(
            np.hypot(x + np.asarray(self._p), h + np.asarray(self._q)), 0.1)
        residuals = np.asarray(self._rss) - (gamma - 10.0 * n * np.log10(l))
        return FitResult(
            position=Vec2(x, h),
            n=n,
            gamma=gamma,
            epsilon=float(10.0 ** (gamma / (5.0 * n))),
            residuals=residuals,
            position_std=std,
            solver="particle",
            n_candidates=N_PARTICLES,
            cov_status="ok" if math.isfinite(std) else "error",
        )

    # -- screening -----------------------------------------------------------

    def _screen(self, p, q, rss) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned float arrays of the usable readings.

        A reading is unusable when any field is non-numeric or non-finite,
        or its RSS lies outside
        :data:`~repro.robustness.sanitize.RSSI_PLAUSIBLE_DBM` — a finite
        but absurd reading (say ``-1e154`` dBm) would overflow the squared
        innovation and poison every particle's log-likelihood at once.
        """
        strict = self.sanitize == "strict"

        def as_floats(name, values):
            out = []
            for v in values:
                try:
                    out.append(float(v))
                except (TypeError, ValueError, OverflowError) as exc:
                    if strict:
                        raise DataQualityError(
                            f"non-numeric {name} value {v!r} in solver input"
                        ) from exc
                    out.append(float("nan"))
            return np.asarray(out, dtype=float)

        p_arr, q_arr, rss_arr = (as_floats("p", p), as_floats("q", q),
                                 as_floats("rss", rss))
        if not (p_arr.shape == q_arr.shape == rss_arr.shape):
            raise DataQualityError(
                f"solver inputs must align: p has {p_arr.shape}, "
                f"q has {q_arr.shape}, rss has {rss_arr.shape}"
            )
        lo, hi = RSSI_PLAUSIBLE_DBM
        ok = (np.isfinite(p_arr) & np.isfinite(q_arr)
              & (rss_arr >= lo) & (rss_arr <= hi))
        n_bad = int((~ok).sum())
        if n_bad:
            if strict:
                i = int(np.flatnonzero(~ok)[0])
                raise DataQualityError(
                    f"unusable solver reading at index {i} "
                    f"(p={p_arr[i]!r}, q={q_arr[i]!r}, rss={rss_arr[i]!r}); "
                    "sanitize the trace first or use sanitize='repair'"
                )
            self.n_skipped += n_bad
            obs.emit(
                "solver.particle_skipped",
                severity="debug",
                component="solver",
                reason="unusable-reading",
                n=n_bad,
            )
        return p_arr[ok], q_arr[ok], rss_arr[ok]

    # -- assimilation --------------------------------------------------------

    def _update(self, p: float, q: float, rss: float) -> bool:
        """Reweight by one screened reading; False when the degenerate-weight
        guard rejected it (the posterior is then left untouched)."""
        s = self._state
        # The guard below owns any NaN/overflow these vector ops can
        # produce, so numpy's warnings are noise here.
        with np.errstate(invalid="ignore", over="ignore"):
            l = np.maximum(np.hypot(s[:, 0] + p, s[:, 1] + q), 0.1)
            predicted = s[:, 2] - 10.0 * s[:, 3] * np.log10(l)
            log_lik = -0.5 * ((rss - predicted) / RSS_SIGMA_DB) ** 2
            log_w = np.log(self._weights + 1e-300) + log_lik
            log_w -= log_w.max()
            w = np.exp(log_w)
            total = w.sum()
        if not math.isfinite(total) or total <= 0:
            # A screened reading can still overflow (a finite displacement
            # near the float limit): keep the pre-update posterior and drop
            # only this reading — re-seeding the cloud here would silently
            # discard every good update so far.
            obs.emit(
                "solver.particle_degenerate",
                severity="warning",
                component="solver",
                rss=float(rss),
                n_updates=len(self._rss),
                weight_total=float(total),
            )
            return False
        self._weights = w / total
        if self.effective_sample_size < RESAMPLE_THRESHOLD * N_PARTICLES:
            self._resample()
        return True

    def _resample(self) -> None:
        n = N_PARTICLES
        obs.emit(
            "solver.particle_resample",
            severity="debug",
            component="solver",
            ess=self.effective_sample_size,
        )
        # Systematic resampling.
        positions = (self._rng.random() + np.arange(n)) / n
        cumulative = np.cumsum(self._weights)
        cumulative[-1] = 1.0
        idx = np.searchsorted(cumulative, positions)
        self._state = self._state[idx]
        # Regularisation jitter, scaled to the cloud's current spread.
        spread = np.maximum(self._state.std(axis=0), 1e-3)
        jitter = self._rng.normal(0.0, 0.1, self._state.shape) * spread
        self._state = self._state + jitter
        self._state[:, 3] = np.clip(self._state[:, 3], 1.0, 5.0)
        self._state[:, 2] = np.clip(self._state[:, 2], -95.0, -25.0)
        self._weights = np.full(n, 1.0 / n)
