"""Serial driver-side replays of the S2T kernels that Spark runs on
Python workers, built only from the library's public functions.

Each replay consumes frames collected from one traced S2T run, records
kernel seconds and work counts on the tracer, and returns its output so
the caller can check that it equals what Spark produced.
"""
from __future__ import annotations

import time

import numpy as np
import pandas as pd

from repro.core.distance import min_moving_distance, sync_distance_to_many, vote_kernel
from repro.core.segmentation import segment_signal
from repro.index.rtree3d import Rtree3D, segment_boxes

_SEG = ["t1", "x1", "y1", "t2", "x2", "y2"]


def replay_voting(bucketed: pd.DataFrame, n_segments: int, sigma: float,
                  cutoff: float, tr) -> pd.DataFrame:
    """Per temporal bucket: bulk-load the pg3D-Rtree, probe it once per
    segment, score the candidates; then de-duplicate (segment, voter)
    across buckets and sum.  Returns traj_id, seg_id, vote."""
    sizes = bucketed.groupby("bucket").size()
    tr.add("index.buckets", len(sizes))
    tr.add("index.replication", len(bucketed) / max(n_segments, 1))
    tr.add("index.bucket_segments_max", int(sizes.max()) if len(sizes) else 0)
    parts = []
    for _, pdf in bucketed.groupby("bucket"):
        if len(pdf) < 2:
            continue
        seg = pdf[_SEG].to_numpy(dtype=np.float64)
        traj = pdf["traj_id"].to_numpy(dtype=np.int64)
        seg_id = pdf["seg_id"].to_numpy(dtype=np.int64)
        t0 = time.perf_counter()
        tree = Rtree3D.from_segments(seg, pad=cutoff)
        tr.add("index.bulk_load_s", time.perf_counter() - t0)
        qboxes = segment_boxes(seg, pad=0.0)
        eis, fjs = [], []
        t0 = time.perf_counter()
        for i in range(len(seg)):
            cand = tree.query_box(qboxes[i])
            tr.counters["index.candidates"] += len(cand)
            cand = cand[traj[cand] != traj[i]]
            eis.append(np.full(len(cand), i, dtype=np.int64))
            fjs.append(cand)
        tr.add("index.probe_s", time.perf_counter() - t0)
        tr.add("index.probes", len(seg))
        ei, fj = np.concatenate(eis), np.concatenate(fjs)
        t0 = time.perf_counter()
        d, _ = min_moving_distance(seg[ei], seg[fj])
        ok = d <= cutoff
        votes = vote_kernel(d[ok], sigma)
        tr.add("voting.score_s", time.perf_counter() - t0)
        tr.add("voting.pairs_scored", len(ei))
        tr.add("voting.pairs_kept", int(ok.sum()))
        parts.append(pd.DataFrame({"traj_id": traj[ei[ok]], "seg_id": seg_id[ei[ok]],
                                   "voter": traj[fj[ok]], "vote": votes}))
    pairs = pd.concat(parts, ignore_index=True) if parts else pd.DataFrame(
        columns=["traj_id", "seg_id", "voter", "vote"])
    per_voter = pairs.groupby(["traj_id", "seg_id", "voter"], as_index=False)["vote"].max()
    tr.add("voting.vote_rows", len(per_voter))
    return per_voter.groupby(["traj_id", "seg_id"], as_index=False)["vote"].sum()


def replay_segmentation(voted: pd.DataFrame, *, min_len: int, lam: float,
                        max_gap: float, tr) -> pd.DataFrame:
    """Change-point search per trajectory (forced cuts at sampling gaps,
    then ``segment_signal`` per gap-free run).  Returns traj_id, seg_id,
    subtraj_id."""
    out = []
    kernel_s = 0.0
    for tid, pdf in voted.groupby("traj_id"):
        pdf = pdf.sort_values("seg_id")
        v = pdf["vote"].to_numpy(dtype=np.float64)
        t1 = pdf["t1"].to_numpy(dtype=np.float64)
        t2 = pdf["t2"].to_numpy(dtype=np.float64)
        forced = np.flatnonzero(t1[1:] - t2[:-1] > max_gap) + 1
        bounds = [0, *forced.tolist(), len(v)]
        splits = set(forced.tolist())
        t0 = time.perf_counter()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            splits.update((segment_signal(v[lo:hi], min_len=min_len, lam=lam) + lo).tolist())
        kernel_s += time.perf_counter() - t0
        cuts = np.zeros(len(v), dtype=np.int64)
        if splits:
            cuts[sorted(splits)] = 1
        out.append(pd.DataFrame({"traj_id": np.int64(tid),
                                 "seg_id": pdf["seg_id"].to_numpy(dtype=np.int64),
                                 "subtraj_id": np.cumsum(cuts)}))
    res = pd.concat(out, ignore_index=True)
    tr.add("segmentation.kernel_s", kernel_s)
    tr.add("segmentation.trajectories", len(out))
    tr.add("segmentation.subtrajs", len(res.groupby(["traj_id", "subtraj_id"])))
    return res


def replay_clustering(subtrajs: pd.DataFrame, reps, *, eps: float,
                      min_cluster_size: int, n_samples: int, min_overlap: float,
                      tr) -> pd.DataFrame:
    """Nearest-representative assignment within ``eps`` and dissolution of
    undersized clusters.  Returns traj_id, subtraj_id, cluster_id."""
    reps_arrs = [(r.ts, r.xs, r.ys) for r in reps]
    cluster = np.full(len(subtrajs), -1, dtype=np.int64)
    t0 = time.perf_counter()
    for k, (ts, xs, ys) in enumerate(zip(subtrajs["ts"], subtrajs["xs"], subtrajs["ys"])):
        d = sync_distance_to_many(ts, xs, ys, reps_arrs, n_samples=n_samples,
                                  min_overlap=min_overlap)
        j = int(np.argmin(d)) if len(d) else -1
        if j >= 0 and d[j] <= eps:
            cluster[k] = j
    tr.add("clustering.kernel_s", time.perf_counter() - t0)
    tr.add("clustering.sync_evals", len(subtrajs) * len(reps_arrs))
    if min_cluster_size > 1:
        ids, counts = np.unique(cluster[cluster >= 0], return_counts=True)
        small = ids[counts < min_cluster_size]
        cluster[np.isin(cluster, small)] = -1
    return pd.DataFrame({"traj_id": subtrajs["traj_id"].to_numpy(dtype=np.int64),
                         "subtraj_id": subtrajs["subtraj_id"].to_numpy(dtype=np.int64),
                         "cluster_id": cluster})
