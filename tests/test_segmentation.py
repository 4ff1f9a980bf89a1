"""NaTS segmentation: change-point recovery on the voting signal,
penalty/min-length semantics, forced gap boundaries, Spark-level
structural invariants of the emitted sub-trajectory rows."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.segmentation import (
    segment_signal,
    segment_trajectories,
    subtraj_assignment,
)
from repro.core.voting import vote_segments
from repro.mod.model import make_points_df, points_to_segments


# ----------------------------------------------------------- signal level
def test_step_signal_single_split():
    v = np.concatenate([np.zeros(20), np.full(20, 5.0)])
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 1
    assert abs(splits[0] - 20) <= 1


def test_noisy_step_recovered():
    g = np.random.default_rng(0)
    v = np.concatenate([g.normal(0, 0.3, 30), g.normal(4, 0.3, 30)])
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 1
    assert abs(splits[0] - 30) <= 2


def test_three_level_staircase():
    g = np.random.default_rng(1)
    v = np.concatenate(
        [g.normal(0, 0.2, 25), g.normal(5, 0.2, 25), g.normal(10, 0.2, 25)]
    )
    splits = segment_signal(v, min_len=4, lam=3.0)
    assert len(splits) == 2


def test_flat_signal_no_split():
    g = np.random.default_rng(2)
    v = g.normal(3.0, 0.2, 60)
    assert len(segment_signal(v, min_len=4, lam=6.0)) == 0


def test_higher_penalty_fewer_splits():
    g = np.random.default_rng(3)
    v = np.concatenate([g.normal(i, 0.5, 15) for i in (0, 2, 4, 6)])
    n_lo = len(segment_signal(v, min_len=4, lam=1.0))
    n_hi = len(segment_signal(v, min_len=4, lam=50.0))
    assert n_lo >= n_hi


@pytest.mark.parametrize("min_len", [2, 4, 8])
def test_min_len_respected(min_len):
    g = np.random.default_rng(4)
    v = np.concatenate([g.normal(0, 0.2, 40), g.normal(6, 0.2, 40)])
    splits = segment_signal(v, min_len=min_len, lam=3.0)
    bounds = [0, *splits.tolist(), len(v)]
    assert min(np.diff(bounds)) >= min_len


def test_short_signal_never_split():
    assert len(segment_signal(np.array([1.0, 5.0, 1.0]), min_len=4)) == 0


def test_empty_signal():
    assert len(segment_signal(np.empty(0))) == 0


# ------------------------------------------------------------ spark level
@pytest.fixture(scope="module")
def subtrajs(voted):
    df = segment_trajectories(voted).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.fixture(scope="module")
def assignment(subtrajs):
    return subtraj_assignment(subtrajs)


def _toy_voted(spark, votes, gap_at=None, gap=1000.0, traj_id=1):
    """Build a single-trajectory voted-segments frame with a given vote
    signal and (optionally) a temporal gap before segment ``gap_at``."""
    n = len(votes)
    t1 = np.arange(n, dtype=float) * 10.0
    if gap_at is not None:
        t1[gap_at:] += gap
    pdf = pd.DataFrame(
        {
            "traj_id": np.int64(traj_id),
            "seg_id": np.arange(n, dtype=np.int64),
            "t1": t1,
            "x1": np.arange(n, dtype=float),
            "y1": 0.0,
            "t2": t1 + 10.0,
            "x2": np.arange(n, dtype=float) + 1.0,
            "y2": 0.0,
            "vote": np.asarray(votes, dtype=float),
        }
    )
    return spark.createDataFrame(pdf)


def test_forced_gap_boundary(spark):
    voted = _toy_voted(spark, np.zeros(20), gap_at=10)
    out = (
        subtraj_assignment(segment_trajectories(voted, min_len=4, lam=3.0, max_gap=120.0))
        .toPandas()
        .sort_values("seg_id")
    )
    assert out["subtraj_id"].nunique() == 2
    assert (out[out.seg_id < 10]["subtraj_id"] == 0).all()
    assert (out[out.seg_id >= 10]["subtraj_id"] == 1).all()


def test_single_segment_and_gap_split_rows(spark):
    """A one-segment trajectory is one sub-trajectory with a 2-point
    polyline; the segment ranges of a gap-split trajectory tile its
    segments 0..n-1 with no gap or overlap."""
    voted = _toy_voted(spark, [3.0], traj_id=7).unionByName(
        _toy_voted(spark, np.zeros(20), gap_at=10)
    )
    out = segment_trajectories(voted, min_len=4, lam=3.0, max_gap=120.0).toPandas()
    one = out[out.traj_id == 7]
    assert len(one) == 1
    r = one.iloc[0]
    assert (r.subtraj_id, r.seg_lo, r.n_segs, r.sum_vote) == (0, 0, 1, 3.0)
    assert list(r["ts"]) == [0.0, 10.0] and list(r["xs"]) == [0.0, 1.0]
    assert (r.t_start, r.t_end) == (0.0, 10.0)
    split = out[out.traj_id == 1].sort_values("subtraj_id")
    assert list(split.subtraj_id) == [0, 1]
    covered = np.concatenate(
        [np.arange(lo, lo + k) for lo, k in zip(split.seg_lo, split.n_segs)]
    )
    assert covered.tolist() == list(range(20))
    assert list(split.t_start) == [0.0, 1100.0] and list(split.t_end) == [100.0, 1200.0]


def test_no_gap_no_split_flat(spark):
    voted = _toy_voted(spark, np.full(20, 2.0))
    out = segment_trajectories(voted, min_len=4, lam=6.0).toPandas()
    assert out["subtraj_id"].nunique() == 1


def test_vote_step_splits(spark):
    voted = _toy_voted(spark, np.concatenate([np.zeros(15), np.full(15, 6.0)]))
    out = segment_trajectories(voted, min_len=4, lam=3.0).toPandas()
    assert out["subtraj_id"].nunique() == 2


def test_assignment_covers_every_segment(voted, assignment):
    assert assignment.count() == voted.count()
    assert assignment.where("subtraj_id IS NULL").count() == 0


def test_subtraj_ids_contiguous_from_zero(subtrajs):
    stats = (
        subtrajs.groupBy("traj_id")
        .agg(
            F.min("subtraj_id").alias("lo"),
            F.max("subtraj_id").alias("hi"),
            F.countDistinct("subtraj_id").alias("k"),
        )
        .toPandas()
    )
    assert (stats["lo"] == 0).all()
    assert (stats["k"] == stats["hi"] + 1).all()


def test_subtraj_ids_temporally_ordered(voted, assignment):
    j = voted.select("traj_id", "seg_id", "t1").join(
        assignment, ["traj_id", "seg_id"]
    )
    pdf = j.toPandas().sort_values(["traj_id", "seg_id"])
    for _, g in pdf.groupby("traj_id"):
        assert (np.diff(g["subtraj_id"].to_numpy()) >= 0).all()


def test_multi_leg_objects_get_segmented(mod_points, mod_pdf, subtrajs):
    """Objects planted with two group legs must end up with >= 2
    sub-trajectories (the structural reason segmentation exists)."""
    per_traj = mod_pdf[mod_pdf.gt_label >= 0].groupby("traj_id")["gt_label"].nunique()
    multi = set(per_traj[per_traj >= 2].index)
    if not multi:
        pytest.skip("no multi-leg objects at this seed")
    counts = (
        subtrajs.groupBy("traj_id")
        .agg(F.countDistinct("subtraj_id").alias("k"))
        .toPandas()
        .set_index("traj_id")["k"]
    )
    assert max(counts.get(t, 1) for t in multi) >= 2
