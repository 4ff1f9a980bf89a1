"""Trajectory segmentation phase of S2T-Clustering (NaTS part 2).

Goal (paper §II.A): "partition each trajectory into sub-trajectories
having homogeneous representativeness, irrespectively of their shape
complexity".  The voting phase annotates each segment with its
representativeness; this module detects change-points in that per-
trajectory voting signal, so that a trajectory which e.g. co-moves with
group A, then drifts alone, then joins group B is cut into three
sub-trajectories.

Method: per trajectory (one `applyInPandas` group — embarrassingly
parallel, as the calibration hint prescribes):

1. *Forced* boundaries at sampling gaps longer than ``max_gap`` — a
   trajectory with a data hole cannot be one homogeneous sub-trajectory.
2. Within each gap-free run, top-down binary segmentation of the voting
   signal: recursively place the split that maximally reduces the sum of
   squared errors around piecewise-constant means, accepting a split
   only when the SSE reduction exceeds a BIC-style penalty
   ``lam * sigma2 * log(n)`` (``sigma2`` robustly estimated from first
   differences of the signal).  ``min_len`` forbids slivers.
3. Each resulting piece's row is assembled from the same sorted frame.

Output: the ``subtrajs`` table (``SUBTRAJ_SCHEMA``), one row per
(traj_id, subtraj_id) with sub-trajectory ids 0-based and temporally
ordered per trajectory.  Each row carries its voting summary, its
polyline as array columns (what SaCO collects to the driver for
sampling and clustering), and its segment range
``[seg_lo, seg_lo + n_segs)``; :func:`subtraj_assignment` expands the
ranges to the per-segment (traj_id, seg_id, subtraj_id) mapping.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

SUBTRAJ_SCHEMA = (
    "traj_id long, subtraj_id long, t_start double, t_end double, "
    "seg_lo long, n_segs long, sum_vote double, mean_vote double, "
    "ts array<double>, xs array<double>, ys array<double>"
)


def _noise_var(v: np.ndarray) -> float:
    """Noise variance estimate from first differences (robust to level
    shifts, which are the signal we are trying to detect)."""
    if len(v) < 3:
        return float(np.var(v)) if len(v) else 0.0
    d = np.diff(v)
    mad = np.median(np.abs(d - np.median(d)))
    sigma = 1.4826 * mad / np.sqrt(2.0)
    if sigma <= 0:
        sigma = float(np.std(d) / np.sqrt(2.0))
    return float(sigma * sigma)


def _sse_prefix(v: np.ndarray):
    s1 = np.concatenate([[0.0], np.cumsum(v)])
    s2 = np.concatenate([[0.0], np.cumsum(v * v)])

    def sse(lo: int, hi: int) -> float:  # [lo, hi)
        n = hi - lo
        if n <= 0:
            return 0.0
        tot = s1[hi] - s1[lo]
        return float((s2[hi] - s2[lo]) - tot * tot / n)

    return sse


def _best_split(v: np.ndarray, lo: int, hi: int, min_len: int, sse) -> tuple[int, float]:
    """Best single split of [lo, hi); returns (k, sse_gain) with k = -1
    when no admissible split exists."""
    n = hi - lo
    if n < 2 * min_len:
        return -1, 0.0
    parent = sse(lo, hi)
    best_k, best_gain = -1, 0.0
    for k in range(lo + min_len, hi - min_len + 1):
        gain = parent - sse(lo, k) - sse(k, hi)
        if gain > best_gain:
            best_k, best_gain = k, gain
    return best_k, best_gain


def segment_signal(v: np.ndarray, *, min_len: int = 4, lam: float = 3.0) -> np.ndarray:
    """Change-point boundaries of a 1D signal: sorted interior split
    indices (split at k means pieces ``[..k)`` and ``[k..)``)."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    if n < 2 * min_len:
        return np.empty(0, dtype=np.int64)
    penalty = lam * max(_noise_var(v), 1e-12) * np.log(max(n, 2))
    sse = _sse_prefix(v)
    splits: list[int] = []
    stack = [(0, n)]
    while stack:
        lo, hi = stack.pop()
        k, gain = _best_split(v, lo, hi, min_len, sse)
        if k >= 0 and gain > penalty:
            splits.append(k)
            stack.append((lo, k))
            stack.append((k, hi))
    return np.asarray(sorted(splits), dtype=np.int64)


def _segment_one(pdf: pd.DataFrame, min_len: int, lam: float, max_gap: float) -> pd.DataFrame:
    """One trajectory's voted segments -> one row per sub-trajectory."""
    pdf = pdf.sort_values("seg_id").reset_index(drop=True)
    v = pdf["vote"].to_numpy(dtype=np.float64)
    t1 = pdf["t1"].to_numpy(dtype=np.float64)
    t2 = pdf["t2"].to_numpy(dtype=np.float64)
    n = len(pdf)
    # forced boundaries at sampling gaps
    forced = np.flatnonzero(t1[1:] - t2[:-1] > max_gap) + 1
    bounds = [0, *forced.tolist(), n]
    all_splits: list[int] = list(forced)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rel = segment_signal(v[lo:hi], min_len=min_len, lam=lam)
        all_splits.extend((rel + lo).tolist())
    starts = np.asarray([0, *sorted(set(all_splits))], dtype=np.int64)
    ends = np.append(starts[1:], n)
    pieces = list(zip(starts, ends))

    def polylines(c1: str, c2: str) -> list[list[float]]:
        # a piece's first start point, then the end point of each segment
        a, b = pdf[c1].to_numpy(), pdf[c2].to_numpy()
        return [np.concatenate([a[lo:lo + 1], b[lo:hi]]).tolist() for lo, hi in pieces]

    return pd.DataFrame(
        {
            "traj_id": np.full(len(pieces), pdf["traj_id"].iloc[0], dtype=np.int64),
            "subtraj_id": np.arange(len(pieces), dtype=np.int64),
            "t_start": t1[starts],
            "t_end": t2[ends - 1],
            "seg_lo": pdf["seg_id"].to_numpy(dtype=np.int64)[starts],
            "n_segs": ends - starts,
            "sum_vote": [float(v[lo:hi].sum()) for lo, hi in pieces],
            "mean_vote": [float(v[lo:hi].mean()) for lo, hi in pieces],
            "ts": polylines("t1", "t2"),
            "xs": polylines("x1", "x2"),
            "ys": polylines("y1", "y2"),
        }
    )


def segment_trajectories(
    voted_segments: DataFrame,
    *,
    min_len: int = 4,
    lam: float = 3.0,
    max_gap: float = 120.0,
) -> DataFrame:
    """NaTS segmentation: voted segments -> the ``subtrajs`` table.

    ``voted_segments`` holds segments + ``vote`` (from ``core.voting``),
    with ``seg_id`` contiguous from 0 per trajectory as
    ``points_to_segments`` numbers them.
    ``min_len`` — minimum sub-trajectory length in segments;
    ``lam`` — BIC penalty multiplier (higher = fewer cuts);
    ``max_gap`` — sampling gap (s) that forces a boundary.
    """
    return voted_segments.groupBy("traj_id").applyInPandas(
        lambda pdf: _segment_one(pdf, min_len, lam, max_gap), schema=SUBTRAJ_SCHEMA
    )


def subtraj_assignment(subtrajs: DataFrame) -> DataFrame:
    """The (traj_id, seg_id, subtraj_id) mapping of every segment to its
    sub-trajectory: each ``[seg_lo, seg_lo + n_segs)`` range exploded."""
    seg_ids = F.sequence("seg_lo", F.col("seg_lo") + F.col("n_segs") - 1)
    return subtrajs.select("traj_id", F.explode(seg_ids).alias("seg_id"), "subtraj_id")
