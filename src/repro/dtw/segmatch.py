"""Fixed-window DTW voting matcher (Sec. 6.1 of the paper).

Decides whether a candidate beacon's RSS sequence follows the same trend as
the target beacon's — the signal that they are physically co-located. The
paper's recipe, implemented step by step:

1. low-pass the sequences and *differentiate* them, so chipset offsets and
   absolute levels cancel;
2. split the target into equal segments of ``segment_len`` points (10 is the
   paper's accuracy/complexity sweet spot) and cut+interpolate the candidate
   to the same time grid;
3. per segment, test the LB_Keogh lower bound against the threshold — only
   survivors run full DTW against the same threshold (empirically 6.1 in the
   paper for 10-point segments);
4. vote: the candidate matches if more than half its segments match.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro import obs
from repro.dtw.dtw import dtw_distance
from repro.dtw.lowerbound import envelope, lb_keogh
from repro.errors import ConfigurationError, InsufficientDataError
from repro.filters.smoothing import differentiate, moving_average
from repro.robustness.sanitize import check_trace
from repro.types import RssiTrace

#: Per-matcher LRU capacity for cached target-segment envelopes.
_ENVELOPE_CACHE_MAX = 256

__all__ = ["MatchResult", "SegmentMatcher"]


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one candidate against the target."""

    matched: bool
    n_segments: int
    n_matched: int
    n_lb_rejections: int
    n_dtw_runs: int

    @property
    def match_fraction(self) -> float:
        return self.n_matched / max(self.n_segments, 1)


@dataclass
class SegmentMatcher:
    """Matches candidate RSSI traces against a target trace.

    ``threshold`` bounds both the LB_Keogh test and the DTW similarity test
    (the paper uses the same value for both; its empirical 6.1 was tuned on
    the authors' dataset — recalibrated to 12.0 in the scale-free units
    below against this library's simulated channel, where it separates
    0.3 m-co-located beacons from distant ones across the Table-1
    environments); ``window`` is the DTW /
    envelope warping half-width in samples; ``use_lower_bound=False`` turns
    the LB pre-filter off for the Fig. 9 speedup ablation.
    """

    segment_len: int = 10
    threshold: float = 12.0
    window: int = 3
    smooth_window: int = 21
    use_lower_bound: bool = True
    #: (segment bytes, window) → (upper, lower) LRU. One target is matched
    #: against many candidates (Sec. 6.1 clusters every audible beacon), so
    #: each target segment's envelope is computed once per window instead of
    #: once per candidate pair.
    _envelope_cache: "OrderedDict" = field(
        default_factory=OrderedDict, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.segment_len < 4:
            raise ConfigurationError("segment_len must be >= 4")
        if self.threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        if self.window < 0:
            raise ConfigurationError("window must be non-negative")

    def preprocess(self, trace: RssiTrace) -> Tuple[np.ndarray, np.ndarray]:
        """Low-pass + differentiate; returns (timestamps, differenced signal).

        The returned timestamps are those of the second..last samples (a
        first difference consumes one sample).
        """
        if len(trace) < self.segment_len + 1:
            raise InsufficientDataError(
                f"need at least {self.segment_len + 1} samples, got {len(trace)}"
            )
        check_trace(trace, context="segment-matcher trace")
        values = moving_average(trace.values(), self.smooth_window)
        diffed = differentiate(values)
        return trace.timestamps()[1:], diffed

    def _target_segments(
        self, ts: np.ndarray, vals: np.ndarray
    ) -> List[Tuple[np.ndarray, np.ndarray]]:
        n_full = len(vals) // self.segment_len
        if n_full == 0:
            raise InsufficientDataError("target too short for one segment")
        segments = []
        for k in range(n_full):
            sl = slice(k * self.segment_len, (k + 1) * self.segment_len)
            segments.append((ts[sl], vals[sl]))
        return segments

    def _segment_envelope(
        self, seg_vals: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """LRU-cached LB_Keogh envelope of one target segment."""
        key = (seg_vals.tobytes(), self.window)
        cached = self._envelope_cache.get(key)
        if cached is not None:
            self._envelope_cache.move_to_end(key)
            obs.emit("segmatch.envelope_cache_hit", severity="debug",
                     component="segmatch")
            return cached
        env = envelope(seg_vals, self.window)
        self._envelope_cache[key] = env
        while len(self._envelope_cache) > _ENVELOPE_CACHE_MAX:
            self._envelope_cache.popitem(last=False)
        return env

    def _prepare_target(
        self, target: RssiTrace
    ) -> Tuple[List[Tuple[np.ndarray, np.ndarray]], float]:
        """Preprocess + segment the target once; reused across candidates.

        Returns ``(segments, scale)`` where each segment is its timestamp
        grid and normalised values — the candidate-independent half of the
        matching work.
        """
        t_ts, t_vals = self.preprocess(target)
        # Normalise both differenced sequences by the target's trend scale,
        # making the similarity threshold scale-free: it then measures
        # "multiples of the target's own variation" instead of raw dB/sample
        # (which varies with smoothing, sampling rate and channel noise).
        scale = float(np.sqrt(np.mean(t_vals**2)))
        if scale < 1e-9:
            raise InsufficientDataError("target trend is flat; nothing to match")
        segments = self._target_segments(t_ts, t_vals / scale)
        return segments, scale

    def _match_prepared(
        self,
        segments: List[Tuple[np.ndarray, np.ndarray]],
        scale: float,
        candidate: RssiTrace,
    ) -> MatchResult:
        c_ts, c_vals = self.preprocess(candidate)
        if len(c_ts) < 2:
            raise InsufficientDataError("candidate too short to interpolate")
        c_vals = c_vals / scale

        n_matched = 0
        n_lb_rejections = 0
        n_dtw_runs = 0
        for seg_ts, seg_vals in segments:
            # Split the candidate at the target segment's timestamps and
            # interpolate it onto the segment's grid (device rates differ).
            cand = np.interp(seg_ts, c_ts, c_vals)
            if self.use_lower_bound:
                env = self._segment_envelope(seg_vals)
                bound = lb_keogh(cand, seg_vals, self.window, squared=True,
                                 env=env)
                if bound > self.threshold:
                    n_lb_rejections += 1
                    continue
            n_dtw_runs += 1
            d = dtw_distance(cand, seg_vals, window=self.window)
            if d <= self.threshold:
                n_matched += 1
        return MatchResult(
            matched=n_matched > len(segments) / 2.0,
            n_segments=len(segments),
            n_matched=n_matched,
            n_lb_rejections=n_lb_rejections,
            n_dtw_runs=n_dtw_runs,
        )

    @obs.span("segmatch.SegmentMatcher.match", component="segmatch")
    def match(self, target: RssiTrace, candidate: RssiTrace) -> MatchResult:
        """Vote on whether ``candidate`` follows the target's RSS trend."""
        segments, scale = self._prepare_target(target)
        return self._match_prepared(segments, scale, candidate)

    @obs.span("segmatch.SegmentMatcher.match_many", component="segmatch")
    def match_many(
        self, target: RssiTrace, candidates: List[RssiTrace]
    ) -> List[MatchResult]:
        """Match every candidate; order preserved.

        The target is preprocessed and segmented once for the whole batch —
        only the candidate-dependent half of the work runs per candidate.
        """
        segments, scale = self._prepare_target(target)
        return [self._match_prepared(segments, scale, c) for c in candidates]
