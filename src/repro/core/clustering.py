"""Greedy clustering + outlier detection of SaCO.

Paper §II.A: "each sub-trajectory in the sampling set is considered to
be a cluster representative ... the clustering is done building the
clusters 'around' those representatives" — and sub-trajectories that fit
into no group are *outliers*.

Each sub-trajectory is assigned to the nearest representative by
time-synchronized distance if that distance is finite and within the
clustering radius ``eps``; otherwise it is an outlier (cluster -1).
Clusters that end up smaller than ``min_cluster_size`` (the QUT
``gamma`` parameter) are dissolved into outliers.  Assignment runs on
the driver over the sub-trajectory table that sampling already
collected; :func:`nearest_representative` is the rule, which
``ReTraTree.insert`` shares.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.distance import sync_distance_to_many
from repro.core.sampling import Representative

OUTLIER = -1


def nearest_representative(
    ts: np.ndarray,
    xs: np.ndarray,
    ys: np.ndarray,
    reps: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    *,
    eps: float,
    n_samples: int,
    min_overlap: float,
) -> tuple[int, float]:
    """Index of the representative (list of (ts, xs, ys)) nearest to one
    polyline and its time-synchronized distance, or ``(-1, inf)`` when
    there is none within ``eps`` or none it co-exists with."""
    d = sync_distance_to_many(
        ts, xs, ys, reps, n_samples=n_samples, min_overlap=min_overlap
    )
    if len(d):
        j = int(np.argmin(d))
        if np.isfinite(d[j]) and d[j] <= eps:
            return j, float(d[j])
    return OUTLIER, float("inf")


def assign_clusters(
    subtrajs_pdf: pd.DataFrame,
    reps: list[Representative],
    *,
    eps: float,
    min_cluster_size: int = 1,
    n_samples: int = 32,
    min_overlap: float = 0.0,
) -> pd.DataFrame:
    """Assign every row of the collected sub-trajectory table
    (``subtrajs_to_pandas``) to a representative or to the outliers.

    Returns (traj_id, subtraj_id, cluster_id, dist); ``cluster_id`` is
    the representative's ``rep_id`` or -1, ``dist`` the assignment
    distance (inf for outliers).  ``min_cluster_size`` dissolves
    undersized clusters (QUT's gamma).
    """
    reps_arrs = [(r.ts, r.xs, r.ys) for r in reps]
    n = len(subtrajs_pdf)
    cluster = np.full(n, OUTLIER, dtype=np.int64)
    dist = np.full(n, np.inf, dtype=np.float64)
    polylines = zip(subtrajs_pdf["ts"], subtrajs_pdf["xs"], subtrajs_pdf["ys"])
    for k, (ts, xs, ys) in enumerate(polylines):
        cluster[k], dist[k] = nearest_representative(
            ts, xs, ys, reps_arrs,
            eps=eps, n_samples=n_samples, min_overlap=min_overlap,
        )
    if min_cluster_size > 1:
        ids, counts = np.unique(cluster[cluster != OUTLIER], return_counts=True)
        dissolved = np.isin(cluster, ids[counts < min_cluster_size])
        cluster[dissolved] = OUTLIER
        dist[dissolved] = np.inf
    return pd.DataFrame(
        {
            "traj_id": subtrajs_pdf["traj_id"].to_numpy(dtype=np.int64),
            "subtraj_id": subtrajs_pdf["subtraj_id"].to_numpy(dtype=np.int64),
            "cluster_id": cluster,
            "dist": dist,
        }
    )


def cluster_sizes(assigned: DataFrame) -> DataFrame:
    """Cluster cardinalities (outliers included as cluster -1) — the
    aggregation behind the demo's "evolution of cardinality" histogram;
    oracle-checked in tests."""
    return assigned.groupBy("cluster_id").agg(F.count(F.lit(1)).alias("n"))
