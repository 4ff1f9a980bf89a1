"""The two benchmark workloads and their correctness checks.

Both are closed loops with one client: the next request is sent only
after the previous answer arrived, as an analyst waits for each answer.

- ``s2t-sf01``: back-to-back ``s2t_clustering`` runs over the generated
  MOD.  Exercises Spark and all four S2T kernels; touches no storage.
- ``retratree-sf01``: a ReTraTree is built in set-up over four fifths of
  the MOD.  Each request is one ingest-and-query round: ``ReTraTree.insert``
  of the next feed trajectory, then ``Hermes.sql("SELECT QUT(...)")`` on
  the next chunk-aligned window.  Exercises storage, level-3 assignment,
  cluster reuse, the merge and the SQL facade; launches no Spark job
  unless an insert triggers outlier re-clustering.

A run returns its end-to-end metrics (untraced) or per-layer metrics
(traced); see ``NOTES.md`` for every name.
"""
from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd

from repro import synth_data
from repro.baselines.qut_baseline import qut_baseline
from repro.core import distance as distance_mod
from repro.core import sampling as sampling_mod
from repro.core.s2t import point_labels, s2t_clustering
from repro.core.subtraj import subtrajs_to_pandas
from repro.core.voting import CUTOFF_SIGMAS, vote_segments, vote_segments_naive
from repro.eval.harness import DEFAULT_PARAMS
from repro.eval.quality import adjusted_rand_index, evaluate_point_labels
from repro.index.temporal import with_time_buckets
from repro.mod.hermes import Hermes
from repro.mod.model import make_points_df, points_to_segments
from repro.retratree import tree as tree_mod
from repro.retratree.storage import PartitionStore
from repro.retratree.tree import ReTraTree

import eventlog
import replay
from spans import Tracer, counting, patched

PARAMS = DEFAULT_PARAMS
# The tree keeps a fixed number of representatives per chunk, so every seed
# builds a tree of the same shape (QuT reuse cost follows the partition count).
TREE_PARAMS = replace(DEFAULT_PARAMS, max_reps=8, min_gain=0.0)
NAIVE_CHECK_SF = 0.01      # tiny MOD for the indexed-vs-naive vote check
S2T_REQUESTS = 3           # per untraced run; a traced run sends 2 (one traced, one not)
DATA_REPEATS = 3           # data set-up repetitions; setup_s takes the median
TREE_CHUNKS = 2            # chunks of the tree: width ceil((t_max + 1) / 2 / 100) * 100
ROUNDS = 96                # ingest-and-query rounds per run (fewer if --seconds ends first)
LOOP_TAU = 10**9           # no outlier re-clustering inside the measured rounds
FEED_ID_STRIDE = 1_000_000 # traj_id offset of each later feed pass
FEED_JITTER_KM = 0.05      # per-sample position jitter of later feed passes
VOTE_TOL = 1e-9


class Run:
    """State of one benchmark run: Spark, tracer, checks and samples."""

    def __init__(self, spark, *, workload: str, sf: float, seed: int,
                 seconds: float, tracer: Tracer, out_dir: Path, cores: int):
        self.spark = spark
        self.workload, self.sf, self.seed = workload, sf, seed
        self.seconds, self.tr, self.out_dir, self.cores = seconds, tracer, out_dir, cores
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.setup: dict[str, float] = {}
        self.lat: list[float] = []          # every measured request: wall s
        self.cpu: list[float] = []          # ... and its CPU s, all processes
        self.lat_traced: list[float] = []   # traced run: requests recorded with spans
        self.per_layer: dict[str, float] = {}
        self.info: dict[str, object] = {}
        self.phase = "setup"                # labels library S2T calls by caller

    # ----------------------------------------------------------- accounting
    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        """A stand-alone correctness check, counted as one operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok

    def op_failed(self, name: str, detail: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {detail}")

    def traced_op(self, k: int) -> bool:
        """In a traced run, even requests are traced and odd ones are not,
        so the run measures its own tracing overhead."""
        return self.tr.enabled and k % 2 == 0


# ------------------------------------------------------------------ helpers
def median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _load(run: Run, pdf: pd.DataFrame):
    pts = make_points_df(run.spark, pdf).cache()
    pts.count()
    return pts


def _load_repeated(run: Run, make_pdf):
    """Generate and load the MOD ``DATA_REPEATS`` times; keep the last."""
    times, pts = [], None
    for _ in range(DATA_REPEATS):
        if pts is not None:
            pts.unpersist()
        t0 = time.perf_counter()
        pdf = make_pdf()
        pts = _load(run, pdf)
        times.append(time.perf_counter() - t0)
    run.setup["data_s"] = median(times)
    return pdf, pts


def check_naive_votes(run: Run) -> None:
    """Indexed votes equal the unindexed nested loop on a tiny MOD."""
    t0 = time.perf_counter()
    tiny = _load(run, synth_data.trajectories_pdf(sf=NAIVE_CHECK_SF, seed=run.seed))
    seg = points_to_segments(tiny).cache()
    seg.count()
    key = ["traj_id", "seg_id"]
    vi = vote_segments(seg, sigma=PARAMS.sigma, bucket_width=PARAMS.bucket_width).toPandas()
    vn = vote_segments_naive(seg, sigma=PARAMS.sigma).toPandas()
    m = vi.merge(vn, on=key, suffixes=("_i", "_n"), how="outer")
    diff = float(np.abs(m["vote_i"] - m["vote_n"]).max()) if len(m) else 0.0
    run.check("indexed_votes_equal_naive", len(vi) == len(vn) == len(m) and diff <= VOTE_TOL,
              f"rows {len(vi)}/{len(vn)}/{len(m)}, max diff {diff:.3g}")
    seg.unpersist()
    tiny.unpersist()
    run.info["naive_check_s"] = time.perf_counter() - t0


def descendants_cpu_s() -> float:
    """CPU seconds (user + system, reaped children included) of every live
    descendant of this process: the JVM and its Python workers.  Kernel
    tick resolution (10 ms); the driver's own share comes from
    ``time.process_time``, which is exact."""
    ppid, cpu = {}, {}
    for d in Path("/proc").iterdir():
        if not d.name.isdigit():
            continue
        try:
            f = (d / "stat").read_text().rsplit(")", 1)[1].split()
        except OSError:  # the process ended while we read
            continue
        ppid[int(d.name)] = int(f[1])
        cpu[int(d.name)] = sum(int(x) for x in f[11:15])
    mine, todo = set(), [os.getpid()]
    while todo:
        p = todo.pop()
        kids = [c for c, pp in ppid.items() if pp == p and c not in mine]
        mine.update(kids)
        todo.extend(kids)
    return sum(cpu[p] for p in mine) / os.sysconf("SC_CLK_TCK")


def start_clock() -> tuple[float, float, float]:
    """Start timing a request; the /proc scan is outside the interval."""
    return descendants_cpu_s(), time.process_time(), time.perf_counter()


def stop_clock(c0: tuple[float, float, float]) -> tuple[float, float]:
    """(wall s, CPU s of the driver and its descendants) since ``c0``."""
    wall = time.perf_counter() - c0[2]
    cpu = time.process_time() - c0[1]
    return wall, cpu + descendants_cpu_s() - c0[0]


def measure(run: Run, request, max_requests: int, *, timed: bool) -> None:
    """Closed loop: send ``max_requests`` requests; when ``timed``, send
    none after ``run.seconds`` (the first is always sent)."""
    run.phase = "loop"
    start = time.perf_counter()
    k = 0
    while k < max_requests and (k == 0 or not timed
                                or time.perf_counter() - start < run.seconds):
        run.attempted += 1
        traced = run.traced_op(k)
        try:
            dt, cpu = request(k, traced)
        except Exception as exc:  # a failed request is counted, the loop goes on
            traceback.print_exc()
            run.op_failed(f"request {k}", repr(exc))
        else:
            run.lat.append(dt)
            run.cpu.append(cpu)
            if traced:
                run.lat_traced.append(dt)
        k += 1
    run.info["loop_s"] = time.perf_counter() - start
    run.info["requests"] = k


# ---------------------------------------------------------------- s2t-sf01
def _check_s2t(run: Run, res, n_traj: int) -> str:
    """Vote rows and cluster assignment of one S2T result; '' if correct."""
    voted = res.voted.select("traj_id", "seg_id", "vote").toPandas()
    n_seg = res.segments.count()
    if len(voted) != n_seg or voted.duplicated(["traj_id", "seg_id"]).any():
        return f"{len(voted)} vote rows for {n_seg} segments"
    v = voted["vote"].to_numpy()
    if not (np.isfinite(v).all() and (v >= 0).all() and (v < n_traj).all()):
        return f"votes outside [0, {n_traj}): min {v.min()}, max {v.max()}"
    key = ["traj_id", "subtraj_id"]
    subs = res.subtrajs.select(*key).toPandas()
    cl = res.clusters.select(*key, "cluster_id").toPandas()
    if len(cl) != len(subs) or cl.duplicated(key).any() or \
            len(subs.merge(cl, on=key)) != len(subs):
        return f"{len(cl)} assignments for {len(subs)} sub-trajectories"
    ok_ids = {r.rep_id for r in res.reps} | {-1}
    if not cl["cluster_id"].isin(ok_ids).all():
        return "cluster id that is neither a representative nor -1"
    return ""


def _trace_s2t_result(run: Run, res, op_span: dict, pts, pdf) -> dict:
    """Phase spans and the frames the kernel replays need (collected
    after the request's timed interval)."""
    t = op_span["start"]
    for name in ("prepare", "voting", "segmentation", "sampling", "clustering"):
        run.tr.add_span(f"s2t.{name}", t, t + res.timings[name], parent=op_span["id"])
        t += res.timings[name]
    labels = point_labels(pts, res).select("traj_id", "t", "cluster_id").toPandas()
    gt = pdf[["traj_id", "t", "gt_label"]]
    return {
        "timings": dict(res.timings),
        "bucketed": with_time_buckets(res.segments, PARAMS.bucket_width).toPandas(),
        "voted": res.voted.toPandas(),
        "assignment": res.assignment.toPandas(),
        "subtrajs": subtrajs_to_pandas(res.subtrajs),
        "clusters": res.clusters.select("traj_id", "subtraj_id", "cluster_id").toPandas(),
        "reps": list(res.reps),
        "ari": evaluate_point_labels(gt.merge(labels, on=["traj_id", "t"]))["ari_clustered"],
    }


def run_s2t(run: Run) -> None:
    pdf, pts = _load_repeated(run, lambda: synth_data.trajectories_pdf(sf=run.sf, seed=run.seed))
    # warm-up: the first S2T in a JVM pays worker start-up and compilation
    t0 = time.perf_counter()
    s2t_clustering(pts, PARAMS).unpersist()
    run.setup["warmup_s"] = time.perf_counter() - t0
    n_traj = int(pdf["traj_id"].nunique())
    run.info.update(points=len(pdf), trajectories=n_traj)
    captured: list[dict] = []

    def request(k: int, traced: bool):
        with run.tr.span("s2t", k=k) if traced else nullcontext() as sp:
            with patched(sampling_mod, "sync_distance",
                         counting(run.tr, "sampling.sync_evals")) if traced else nullcontext():
                clk = start_clock()
                res = s2t_clustering(pts, PARAMS)
                dt, cpu = stop_clock(clk)
        problem = _check_s2t(run, res, n_traj)
        if problem:
            run.op_failed(f"s2t request {k}", problem)
        if traced and not captured:
            captured.append(_trace_s2t_result(run, res, sp, pts, pdf))
        res.unpersist()
        return dt, cpu

    measure(run, request, 2 if run.tr.enabled else S2T_REQUESTS, timed=False)
    run.phase = "post"
    check_naive_votes(run)
    if run.tr.enabled and captured:
        _replay_s2t(run, captured[0], n_traj)


def _replay_s2t(run: Run, cap: dict, n_traj: int) -> None:
    tr, p = run.tr, PARAMS
    n_seg = len(cap["voted"])
    with tr.span("replay.voting"):
        votes = replay.replay_voting(cap["bucketed"], n_seg, p.sigma,
                                     CUTOFF_SIGMAS * p.sigma, tr)
    m = cap["voted"][["traj_id", "seg_id", "vote"]].merge(
        votes, on=["traj_id", "seg_id"], how="left", suffixes=("", "_replay")).fillna(
        {"vote_replay": 0.0})
    diff = float(np.abs(m["vote"] - m["vote_replay"]).max())
    run.check("replayed_votes_equal_spark", len(m) == n_seg and diff <= VOTE_TOL,
              f"max diff {diff:.3g}")
    with tr.span("replay.segmentation"):
        seg = replay.replay_segmentation(cap["voted"], min_len=p.min_len, lam=p.lam,
                                         max_gap=p.max_gap, tr=tr)
    key = ["traj_id", "seg_id"]
    a = cap["assignment"].sort_values(key).reset_index(drop=True)
    b = seg.sort_values(key).reset_index(drop=True)
    run.check("replayed_segmentation_equals_spark",
              len(a) == len(b) and (a[key + ["subtraj_id"]].to_numpy() ==
                                    b[key + ["subtraj_id"]].to_numpy()).all(),
              f"{len(a)} vs {len(b)} rows")
    with tr.span("replay.clustering"):
        cl = replay.replay_clustering(cap["subtrajs"], cap["reps"], eps=p.eps_eff,
                                      min_cluster_size=p.min_cluster_size,
                                      n_samples=p.n_samples, min_overlap=p.min_overlap, tr=tr)
    key = ["traj_id", "subtraj_id"]
    m = cap["clusters"].merge(cl, on=key, suffixes=("", "_replay"))
    run.check("replayed_clusters_equal_spark",
              len(m) == len(cl) == len(cap["clusters"]) and
              (m["cluster_id"] == m["cluster_id_replay"]).all(),
              f"{int((m['cluster_id'] != m['cluster_id_replay']).sum())} differ")
    sub = cap["subtrajs"]
    t = cap["timings"]
    c = tr.counters
    run.per_layer.update({
        "mod.points": run.info["points"],
        "mod.segments": n_seg,
        "s2t.prepare_s": t["prepare"],
        "voting.phase_s": t["voting"],
        "voting.keep_ratio": c["voting.pairs_kept"] / max(c["voting.pairs_scored"], 1),
        "segmentation.phase_s": t["segmentation"],
        "sampling.phase_s": t["sampling"],
        "sampling.candidates": int(((sub["t_end"] - sub["t_start"]) >= p.min_duration).sum()),
        "sampling.reps": len(cap["reps"]),
        "clustering.phase_s": t["clustering"],
        "clustering.outlier_frac": float((cap["clusters"]["cluster_id"] == -1).mean()),
        "s2t.ari": cap["ari"],
    })
    for name in ("index.buckets", "index.replication", "index.bucket_segments_max",
                 "index.bulk_load_s", "index.probes", "index.probe_s", "index.candidates",
                 "voting.score_s", "voting.pairs_scored", "voting.pairs_kept",
                 "voting.vote_rows", "segmentation.kernel_s", "segmentation.trajectories",
                 "segmentation.subtrajs", "clustering.kernel_s", "clustering.sync_evals"):
        run.per_layer[name] = c[name]
    # counted once per traced request by the sampling wrapper
    run.per_layer["sampling.sync_evals"] = c["sampling.sync_evals"] / max(len(run.lat_traced), 1)


# ---------------------------------------------------------- retratree-sf01
class _StoreProbe:
    """Counts reads and writes of one PartitionStore through
    instance-level wrappers (traced run only)."""

    def __init__(self, store: PartitionStore, tr: Tracer):
        self.store, self.tr = store, tr
        self.counting = False                    # add storage.* counters
        self.reads: list[tuple[int, int]] = []   # (chunk_id, rows) since last reset
        orig_read, orig_write = store.read, store.write

        def read(chunk_id, name):
            t0 = time.perf_counter()
            out = orig_read(chunk_id, name)
            self.reads.append((chunk_id, len(out)))
            if self.counting:
                tr.counters["storage.reads"] += 1
                tr.counters["storage.read_s"] += time.perf_counter() - t0
                tr.counters["storage.bytes_read"] += (
                    store.root / f"chunk={chunk_id}" / name / "data.parquet").stat().st_size
            return out

        def write(chunk_id, name, members):
            t0 = time.perf_counter()
            meta = orig_write(chunk_id, name, members)
            if self.counting:
                d = Path(meta.path)
                pkl = (d / "rtree.pkl").stat().st_size
                tr.counters["storage.writes"] += 1
                tr.counters["storage.write_s"] += time.perf_counter() - t0
                tr.counters["storage.bytes_written"] += (d / "data.parquet").stat().st_size + pkl
                tr.counters["storage.rtree_pkl_bytes"] += pkl
            return meta

        store.read, store.write = read, write


def _dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def _pieces(g: pd.DataFrame, chunk_width: float) -> dict[int, np.ndarray]:
    """Chunk id -> timestamps of each insertable piece (>= 2 points)."""
    chunk = np.floor(g["t"].to_numpy() / chunk_width).astype(np.int64)
    return {int(c): g["t"].to_numpy()[chunk == c] for c in np.unique(chunk)
            if (chunk == c).sum() >= 2}


def _outside(rows: pd.DataFrame, wi: float, we: float) -> int:
    return sum(1 for ts in rows["ts"] if len(ts) and (ts[0] < wi - 1e-9 or ts[-1] > we + 1e-9))


def _qut_sql(tree: ReTraTree, wi: float, we: float) -> str:
    p = tree.params
    return (f"SELECT QUT(mod, {wi!r}, {we!r}, {tree.tau}, {p.eps_eff!r}, "
            f"{p.min_duration!r}, {p.eps_eff!r}, {p.min_cluster_size})")


def run_retratree(run: Run) -> None:
    tr, spark = run.tr, run.spark
    full = synth_data.trajectories_pdf(sf=run.sf, seed=run.seed)
    held = full[full["traj_id"] % 5 == 4]
    base_pdf, pts = _load_repeated(run, lambda: synth_data.trajectories_pdf(
        sf=run.sf, seed=run.seed).query("traj_id % 5 != 4"))
    # generated times start at 0, so this gives exactly TREE_CHUNKS chunks
    cw = float(math.ceil((full["t"].max() + 1.0) / TREE_CHUNKS / 100.0) * 100.0)
    root = run.out_dir / "tree"
    shutil.rmtree(root, ignore_errors=True)

    with patched(tree_mod, "s2t_clustering", _s2t_by_phase(run)) if tr.enabled \
            else nullcontext():
        run.phase = "build"
        t0 = time.perf_counter()
        with tr.span("build"):
            tree = ReTraTree.build(spark, pts, root, TREE_PARAMS, chunk_width=cw,
                                   tau=LOOP_TAU)
        run.setup["build_s"] = time.perf_counter() - t0
        run.phase = "setup"
        hermes = Hermes(spark)
        hermes.register_dataset("mod", pts)
        hermes.attach_index("mod", tree)
        cids = sorted(tree.chunks)
        bounds = {c: (tree.chunks[c].t_lo, tree.chunks[c].t_hi) for c in cids}
        wi, we = bounds[cids[0]][0], bounds[cids[-1]][1]
        q = hermes.sql(_qut_sql(tree, wi, we))
        run.check("full_window_reuses_every_chunk", q.n_full == len(cids) and q.n_partial == 0,
                  f"n_full {q.n_full} of {len(cids)} chunks")
        run.check("full_window_rows_inside", _outside(q.rows, wi, we) == 0)
        run.info.update(points=len(full), build_points=len(base_pdf), chunks=len(cids),
                        chunk_width=cw, tau=tree.tau,
                        feed_trajectories=int(held["traj_id"].nunique()))
        probe = _StoreProbe(tree.store, tr) if tr.enabled else None
        if probe:
            _probe_boundary(run, tree, hermes, pts, probe)

        rng = np.random.default_rng(run.seed)
        windows = [(bounds[a][0], bounds[b][1]) for i, a in enumerate(cids) for b in cids[i:]]
        windows = [windows[i] for i in rng.permutation(len(windows))]
        held_ids = rng.permutation(np.sort(held["traj_id"].unique()))
        by_id = {tid: g for tid, g in held.groupby("traj_id")}
        inserted: dict[tuple[int, int], np.ndarray] = {}
        reclustered: set[int] = set()
        qut_lat: list[float] = []
        insert_lat: list[float] = []
        orig_qut = tree.qut
        qut_wall: list[float] = []

        def timed_qut(*a, **k):
            t0 = time.perf_counter()
            try:
                return orig_qut(*a, **k)
            finally:
                qut_wall.append(time.perf_counter() - t0)

        def feed(k: int) -> pd.DataFrame:
            npass, i = divmod(k, len(held_ids))
            g = by_id[held_ids[i]]
            if npass == 0:
                return g
            g = g.copy()
            g["traj_id"] = g["traj_id"] + npass * FEED_ID_STRIDE
            g["obj_id"] = g["traj_id"]
            jr = np.random.default_rng([run.seed, k])
            g["x"] = g["x"] + jr.normal(0.0, FEED_JITTER_KM, len(g))
            g["y"] = g["y"] + jr.normal(0.0, FEED_JITTER_KM, len(g))
            return g

        def request(k: int, traced: bool):
            g = feed(k)
            wi, we = windows[k % len(windows)]
            pieces = _pieces(g, cw)
            tid = int(g["traj_id"].iloc[0])
            if traced:
                probe.counting = True
                bytes_before = _dir_bytes(root)
                tree.qut = timed_qut
            try:
                with tr.span("round", k=k) if traced else nullcontext():
                    run.phase = "insert"
                    clk = start_clock()
                    t0 = time.perf_counter()
                    with tr.span("insert") if traced else nullcontext(), \
                            patched(distance_mod, "sync_distance",
                                    counting(tr, "insert.sync_evals")) if traced else nullcontext():
                        stats = tree.insert(g)
                    t1 = time.perf_counter()
                    run.phase = "qut"
                    if traced:
                        probe.reads = []
                    with tr.span("hermes.sql") if traced else nullcontext():
                        res = hermes.sql(_qut_sql(tree, wi, we))
                    t2 = time.perf_counter()
                    _, cpu = stop_clock(clk)
            finally:
                if traced:
                    probe.counting = False
                    tree.qut = orig_qut
                run.phase = "loop"
            insert_lat.append(t1 - t0)
            qut_lat.append(t2 - t1)
            for c, ts in pieces.items():
                inserted[(tid, c)] = ts
            if stats["reclustered_chunks"]:
                reclustered.update(pieces)
            problems = []
            if stats["assigned"] + stats["outliers"] != len(pieces):
                problems.append(f"counters {stats} for {len(pieces)} pieces")
            if _outside(res.rows, wi, we):
                problems.append("polyline outside the window")
            if problems:
                run.op_failed(f"round {k}", "; ".join(problems))
            if traced:
                _trace_round(run, res, stats, pieces, probe, (t2 - t1) - qut_wall[-1],
                             bytes_before, root)
            return t2 - t0, cpu

        measure(run, request, ROUNDS, timed=True)
    run.phase = "post"
    _check_conservation(run, tree, inserted, reclustered)
    run.info.update(insert_p50_s=median(insert_lat), qut_reuse_p50_s=median(qut_lat))
    if not tr.enabled:
        return
    n = max(len(run.lat_traced), 1)
    c = tr.counters
    points_archived = len(base_pdf) + sum(len(ts) for ts in inserted.values())
    run.per_layer.update({
        "mod.points": len(full),
        "build.s": run.setup["build_s"],
        "build.s2t_calls": c["build.s2t_calls"],
        "build.s2t_s": c["build.s2t_s"],
        "build.archive_s": run.setup["build_s"] - c["build.s2t_s"],
        "insert.p50_s": median(insert_lat),
        "qut.reuse_p50_s": median(qut_lat),
        "storage.bytes_per_point": _dir_bytes(root) / points_archived,
        "qut.read_amplification": c["qut.rows_read"] / max(c["qut.rows_returned"], 1),
        "storage.write_amplification": c["storage.bytes_written"] / max(c["storage.bytes_grown"], 1),
    })
    for name in ("insert.pieces", "insert.assigned", "insert.outliers",
                 "insert.sync_evals", "qut.reuse_s",
                 "qut.merge_s", "qut.full_chunks", "qut.rows_read",
                 "qut.rows_returned", "hermes.sql_s", "storage.reads",
                 "storage.read_s", "storage.bytes_read", "storage.writes",
                 "storage.write_s", "storage.bytes_written", "storage.rtree_pkl_bytes"):
        run.per_layer[name] = c[name] / n
    with patched(tree_mod, "s2t_clustering", _s2t_by_phase(run)):
        _probe_recluster(run, tree, held)
    run.check("qut_reuse_faster_than_baseline",
              median(qut_lat) < run.per_layer["qut.baseline_s"],
              f"reuse p50 {median(qut_lat):.3f}s vs baseline "
              f"{run.per_layer['qut.baseline_s']:.3f}s")


def _s2t_by_phase(run: Run):
    """Time library S2T calls under ``<caller phase>.s2t_*``."""
    def wrap(fn):
        def inner(*a, **k):
            t0 = time.perf_counter()
            try:
                return fn(*a, **k)
            finally:
                run.tr.counters[f"{run.phase}.s2t_calls"] += 1
                run.tr.counters[f"{run.phase}.s2t_s"] += time.perf_counter() - t0
        return inner
    return wrap


def _trace_round(run, res, stats, pieces, probe, sql_s, bytes_before, root) -> None:
    tr = run.tr
    c = tr.counters
    c["insert.pieces"] += len(pieces)
    c["insert.assigned"] += stats["assigned"]
    c["insert.outliers"] += stats["outliers"]
    c["qut.reuse_s"] += res.timings["reuse"]
    c["qut.merge_s"] += res.timings["merge"]
    c["qut.full_chunks"] += res.n_full
    c["qut.rows_returned"] += len(res.rows)
    c["qut.rows_read"] += sum(n for _, n in probe.reads)  # reset after the insert
    c["hermes.sql_s"] += sql_s
    c["storage.bytes_grown"] += max(_dir_bytes(root) - bytes_before, 0)


def _probe_boundary(run: Run, tree: ReTraTree, hermes: Hermes, pts,
                    probe: _StoreProbe) -> None:
    """Traced run only: one half-chunk-offset QuT window (boundary
    re-clustering) and the rebuild baseline on it and on one aligned
    chunk -- the Table A parity rows."""
    tr = run.tr
    c0 = tree.chunks[min(tree.chunks)]
    width = c0.t_hi - c0.t_lo
    windows = {"aligned": (c0.t_lo, c0.t_hi),
               "boundary": (c0.t_lo + 0.5 * width, c0.t_lo + 1.5 * width)}
    run.phase = "probe"
    for tag, (wi, we) in windows.items():
        probe.reads = []
        with tr.span(f"probe.qut.{tag}"):
            t0 = time.perf_counter()
            q = hermes.sql(_qut_sql(tree, wi, we))
            q_s = time.perf_counter() - t0
        partial = {cid for cid, ch in tree.chunks.items()
                   if ch.t_lo < we and ch.t_hi > wi and not (ch.t_lo >= wi and ch.t_hi <= we)}
        slice_rows = sum(n for cid, n in probe.reads if cid in partial)
        run.check(f"probe_{tag}_rows_inside", _outside(q.rows, wi, we) == 0)
        with tr.span(f"probe.baseline.{tag}"):
            br = qut_baseline(pts, wi, we, TREE_PARAMS)
        m = q.point_labels().merge(br.labels, on=["traj_id", "t"], suffixes=("_q", "_b"))
        run.per_layer[f"qut.parity_ari_{tag}"] = (
            adjusted_rand_index(m["cluster_id_q"].to_numpy(), m["cluster_id_b"].to_numpy())
            if len(m) else 0.0)
        if tag == "aligned":
            run.per_layer["qut.baseline_s"] = br.timings["total"]
        else:
            run.per_layer.update({
                "qut.boundary_s": q_s,
                "qut.recluster_s": q.timings["recluster"],
                "qut.partial_chunks": q.n_partial,
                "qut.slice_rows": slice_rows,
            })
        br.s2t.unpersist()
    run.phase = "setup"


def _probe_recluster(run: Run, tree: ReTraTree, held: pd.DataFrame) -> None:
    """Traced run only, after the measured rounds: insert copies of the
    held-out noise trajectories (under unused ids) with ``tau = 0`` until
    an outlier piece triggers one outlier re-clustering."""
    noise = held.groupby("traj_id")["gt_label"].max()
    ids = noise.index[noise < 0].tolist() or held["traj_id"].unique()[:1].tolist()
    probe_id = FEED_ID_STRIDE * 999
    reps_before = sum(len(c.reps) for c in tree.chunks.values())
    run.phase, tree.tau = "recluster", 0
    reclusters = 0
    with run.tr.span("probe.recluster"):
        for tid in ids:
            g = held[held["traj_id"] == tid].assign(traj_id=tid + probe_id)
            reclusters += tree.insert(g)["reclustered_chunks"]
            if reclusters:
                break
    run.phase, tree.tau = "setup", LOOP_TAU
    c = run.tr.counters
    run.per_layer.update({
        "insert.reclusters": reclusters,
        "insert.recluster_s": c["recluster.s2t_s"] / max(reclusters, 1),
        "insert.recluster_yield": (sum(len(ch.reps) for ch in tree.chunks.values())
                                   - reps_before) / max(reclusters, 1),
    })
    run.info["recluster_probe_trajectories"] = len(ids)


def _check_conservation(run: Run, tree: ReTraTree, inserted, reclustered) -> None:
    """Every inserted piece is archived exactly once: in one partition of
    its chunk, or (after outlier re-clustering) as sub-trajectories that
    cover its time span."""
    rows: dict[int, pd.DataFrame] = {}
    for cid in tree.chunks:
        frames = [tree.store.read(cid, n)[["traj_id", "t_start", "t_end"]]
                  for n in tree.store.list_partitions(cid)]
        rows[cid] = pd.concat(frames, ignore_index=True) if frames else pd.DataFrame(
            columns=["traj_id", "t_start", "t_end"])
    bad = 0
    for (tid, cid), ts in inserted.items():
        mine = rows[cid][rows[cid]["traj_id"] == tid]
        if cid in reclustered:
            ok = len(mine) >= 1 and math.isclose(mine["t_start"].min(), ts[0]) and \
                math.isclose(mine["t_end"].max(), ts[-1])
        else:
            ok = len(mine) == 1
        bad += not ok
    run.check("inserted_pieces_conserved", bad == 0, f"{bad} of {len(inserted)} pieces")


# -------------------------------------------------------------- reporting
def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail(xs: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100.0 >= 10:
            return f"p{p}", float(np.percentile(xs, p))
    return None


def spark_layer(run: Run, log_dir: Path, spans: list[dict]) -> None:
    """Spark totals over the traced requests, per request."""
    events = eventlog.read_events(log_dir)
    totals = eventlog.attribute(spans, events)
    ops = [s for s in spans if s["name"] in ("s2t", "round")]
    n = max(len(ops), 1)
    agg = {k: sum(totals[s["id"]][k] for s in ops) for k in
           ("jobs", "stages", *eventlog.TASK_FIELDS)}
    wall = sum(s["end"] - s["start"] for s in ops)
    for k, v in agg.items():
        run.per_layer[f"spark.{k}"] = v / n
    run.per_layer["spark.idle_core_s"] = (wall * run.cores - agg["executor_run_s"]) / n
    for s in spans:
        s["spark"] = totals[s["id"]]
