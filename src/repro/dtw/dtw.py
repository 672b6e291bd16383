"""Dynamic time warping with an optional Sakoe–Chiba warping window.

DTW aligns two temporal sequences by the minimum-cost monotone path through
the pairwise-distance matrix [27]. The clustering layer (Sec. 6.1) uses it
to decide whether two beacons' RSS trends match; the cost matrix itself is
exposed because the paper visualises it (Fig. 9c/d).

The row recurrence ``cur[j] = c[j] + min(prev[j], cur[j-1], prev[j-1])``
looks inherently serial because of the ``cur[j-1]`` term, but it reduces to
a running minimum: with ``v[j] = min(prev[j], prev[j-1])`` and ``C`` the
cumulative sum of the row's costs, ``u[j] = cur[j] - C[j]`` satisfies
``u[j] = min(u[j-1], v[j] - C[j-1])`` — one ``np.minimum.accumulate`` per
row. Both :func:`dtw_distance` and :func:`dtw_full` use this vectorized
band update; the original per-cell Python loop survives as
``_dtw_distance_reference`` for equivalence tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["DtwResult", "dtw_distance", "dtw_full"]


@dataclass
class DtwResult:
    """Alignment outcome: total cost, warping path and the cost matrix."""

    distance: float
    path: List[Tuple[int, int]]
    cost_matrix: np.ndarray

    @property
    def normalized_distance(self) -> float:
        """Cost per path step — comparable across sequence lengths."""
        return self.distance / max(len(self.path), 1)


def _validate(a: Sequence[float], b: Sequence[float]) -> Tuple[np.ndarray, np.ndarray]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.size == 0 or b.size == 0:
        raise ConfigurationError("DTW requires two non-empty 1-D sequences")
    return a, b


def _band_row_update(
    a_i: float, b: np.ndarray, prev: np.ndarray, cur: np.ndarray,
    lo: int, hi: int,
) -> None:
    """Fill ``cur[lo..hi]`` from ``prev`` with the scan-based band update.

    ``prev``/``cur`` are (m+1)-length accumulated-cost rows; ``lo``/``hi``
    are the 1-based inclusive band bounds of this row.
    """
    cost = np.abs(a_i - b[lo - 1:hi])
    # min over the two vertical/diagonal predecessors for each band cell.
    v = np.minimum(prev[lo:hi + 1], prev[lo - 1:hi])
    csum = np.cumsum(cost)
    # u[j] = min_{k<=j} (v[k] - C[k-1]); cur = u + C. C[k-1] is csum shifted.
    shifted = np.empty_like(csum)
    shifted[0] = 0.0
    shifted[1:] = csum[:-1]
    u = np.minimum.accumulate(v - shifted)
    cur[lo:hi + 1] = u + csum


#: Above this many band cells ``dtw_distance`` stops precomputing the whole
#: banded cost matrix (O(n·w) memory) and falls back to the O(m)-memory
#: row-wise update. 4M cells ≈ 64 MB of doubles.
_PRECOMPUTE_CELL_CAP = 4_000_000


#: (n, m, w) → clipped band index matrix. Segment matching calls DTW with
#: identical shapes thousands of times; rebuilding the index lattice
#: dominates the precompute for short segments. FIFO-capped.
_BAND_INDEX_CACHE: dict = {}
_BAND_INDEX_CACHE_MAX = 64
_BAND_INDEX_CACHE_CELLS = 200_000


def _band_indices(n: int, m: int, w: int) -> np.ndarray:
    key = (n, m, w)
    idx = _BAND_INDEX_CACHE.get(key)
    if idx is None:
        jj = np.arange(1, n + 1)[:, None] + np.arange(-w, w + 1)[None, :]
        idx = np.clip(jj, 1, m) - 1
        if idx.size <= _BAND_INDEX_CACHE_CELLS:
            if len(_BAND_INDEX_CACHE) >= _BAND_INDEX_CACHE_MAX:
                _BAND_INDEX_CACHE.pop(next(iter(_BAND_INDEX_CACHE)))
            _BAND_INDEX_CACHE[key] = idx
    return idx


def _dtw_banded_precomputed(
    a: np.ndarray, b: np.ndarray, w: int
) -> float:
    """Band-coordinate DP with the whole cost band precomputed.

    Cell ``(i, j)`` is stored at band column ``k = j - i + w``; all rows
    then have the same fixed width ``2w + 1``, so every per-row kernel runs
    on identically-shaped arrays with no per-row index arithmetic. Cells
    whose ``j`` falls outside ``[1, m]`` are phantoms carrying the clipped
    edge column's cost; a phantom path mirrors a legal path entering at the
    edge column and can never undercut it, so no per-row masking is needed.
    """
    n, m = len(a), len(b)
    width = 2 * w + 1
    cost = np.abs(a[:, None] - b[_band_indices(n, m, w)])
    csum = np.empty((n, width + 1))
    csum[:, 0] = 0.0
    np.cumsum(cost, axis=1, out=csum[:, 1:])

    inf = math.inf
    prev = np.full(width + 1, inf)
    cur = np.full(width + 1, inf)
    prev[w] = 0.0  # row 0: j = 0 sits at band column w
    buf = np.empty(width)
    # Pre-build the views and bind the ufuncs once: the loop body is four
    # fixed-width kernels per row and nothing else.
    views = [(prev[1:], prev[:-1], prev[:-1], prev),
             (cur[1:], cur[:-1], cur[:-1], cur)]
    heads = list(csum[:, :-1])
    tails = list(csum[:, 1:])
    vmin, vsub, vaccmin, vadd = (
        np.minimum, np.subtract, np.minimum.accumulate, np.add,
    )
    src, dst = 0, 1
    for r in range(n):
        p_up, p_diag = views[src][0], views[src][1]
        # v[k] = min over the vertical (k+1) and diagonal (k) predecessors.
        vmin(p_up, p_diag, out=buf)
        # Horizontal chaining as a running min: u[k] = min_{t<=k}(v[t]-C[t-1]).
        vsub(buf, heads[r], out=buf)
        vaccmin(buf, out=buf)
        vadd(buf, tails[r], out=views[dst][2])
        src, dst = dst, src
    return float(views[src][3][m - n + w])


def _dtw_rowwise(a: np.ndarray, b: np.ndarray, w: int) -> float:
    """O(m)-memory scan-based update; fallback for very long sequences."""
    n, m = len(a), len(b)
    inf = math.inf
    prev = np.full(m + 1, inf)
    cur = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        lo = max(1, i - w)
        hi = min(m, i + w)
        # Reset the one stale cell the band's shifted reads could see: the
        # band bounds move right by at most one per row.
        cur[lo - 1] = inf
        if hi < m:
            cur[hi + 1] = inf
        _band_row_update(a[i - 1], b, prev, cur, lo, hi)
        prev, cur = cur, prev
    return float(prev[m])


def dtw_distance(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> float:
    """DTW cost only — the fast path for matching.

    ``window`` is the Sakoe–Chiba band half-width in samples; None means
    unconstrained alignment. Memory is O(n·w) for typical inputs (the band
    costs are precomputed in one shot) and O(m) beyond
    ``_PRECOMPUTE_CELL_CAP`` band cells.
    """
    a, b = _validate(a, b)
    n, m = len(a), len(b)
    w = max(window, abs(n - m)) if window is not None else max(n, m)
    if n * (2 * w + 1) <= _PRECOMPUTE_CELL_CAP:
        return _dtw_banded_precomputed(a, b, w)
    return _dtw_rowwise(a, b, w)


def _dtw_distance_reference(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> float:
    """Pre-vectorization per-cell DP loop; equivalence/benchmark baseline."""
    a, b = _validate(a, b)
    n, m = len(a), len(b)
    w = max(window, abs(n - m)) if window is not None else max(n, m)
    inf = math.inf
    prev = np.full(m + 1, inf)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, inf)
        lo = max(1, i - w)
        hi = min(m, i + w)
        for j in range(lo, hi + 1):
            cost = abs(a[i - 1] - b[j - 1])
            cur[j] = cost + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(prev[m])


def dtw_full(
    a: Sequence[float], b: Sequence[float], window: Optional[int] = None
) -> DtwResult:
    """DTW with full cost matrix and the optimal warping path (Fig. 9c/d)."""
    a, b = _validate(a, b)
    n, m = len(a), len(b)
    w = max(window, abs(n - m)) if window is not None else max(n, m)
    inf = math.inf
    acc = np.full((n + 1, m + 1), inf)
    acc[0, 0] = 0.0
    for i in range(1, n + 1):
        lo = max(1, i - w)
        hi = min(m, i + w)
        _band_row_update(a[i - 1], b, acc[i - 1], acc[i], lo, hi)

    # Backtrack the optimal path.
    path: List[Tuple[int, int]] = []
    i, j = n, m
    while i > 0 and j > 0:
        path.append((i - 1, j - 1))
        step = np.argmin([acc[i - 1, j - 1], acc[i - 1, j], acc[i, j - 1]])
        if step == 0:
            i, j = i - 1, j - 1
        elif step == 1:
            i -= 1
        else:
            j -= 1
    path.reverse()
    return DtwResult(float(acc[n, m]), path, acc[1:, 1:])
