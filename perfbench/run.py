"""Benchmark entry point.

    python3 perfbench/run.py --workload s2t-sf01 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Builds nothing: the library is
imported from ``src/`` (and put on the Python workers' path).  Prints
human-readable lines, then as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Everything it writes goes under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"s2t-sf01": 0.1, "retratree-sf01": 0.1}
TINY_SF = 0.01
MASTER = "local[4]"
SHUFFLE_PARTITIONS = 16
DRIVER_MEMORY = "2g"
JVM_FLAGS = ("-XX:TieredStopAtLevel=1", "-XX:+UseSerialGC")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help=f"self-test mode: every workload at sf {TINY_SF}")
    return ap.parse_args(argv)


def source_id() -> dict:
    """Git sha when the checkout is a repository, and always a digest of
    the library sources (a checkout without .git has no sha)."""
    sha = "unknown"
    if shutil.which("git") and (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        sha = out.stdout.strip() or sha
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return {"git_sha": sha, "src_sha256": h.hexdigest()[:16]}


def configure_environment(out: Path, event_dir: Path | None) -> None:
    """Spark and Python-worker environment; must run before pyspark loads."""
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # every JVM spark-submit starts: no hsperfdata files under /tmp.  C1-only
    # JIT and the serial collector keep the JVM's own CPU per request steady
    # (see NOTES.md).
    os.environ["JAVA_TOOL_OPTIONS"] = " ".join([
        "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
        *JVM_FLAGS])
    conf = {
        "spark.driver.host": "127.0.0.1",
        "spark.ui.enabled": "false",
        "spark.ui.showConsoleProgress": "false",
        "spark.local.dir": str(tmp),
    }
    if event_dir is not None:
        conf.update({"spark.eventLog.enabled": "true",
                     "spark.eventLog.dir": event_dir.as_uri(),
                     "spark.eventLog.compress": "false"})
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [f"--master {MASTER}", f"--driver-memory {DRIVER_MEMORY}"]
        + [f"--conf {k}={v}" for k, v in conf.items()] + ["pyspark-shell"])


def start_spark():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and the JVM it launched, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        if proc.stdin is not None:
            proc.stdin.close()  # the gateway JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def main(argv=None) -> int:
    args = parse_args(argv)
    bench_file = ROOT / "BENCHMARK.json"
    if not (SRC / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} is not a source checkout (need src/repro and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    specs = json.loads(bench_file.read_text())["per_layer" if args.trace else "end_to_end"]
    t_start = time.perf_counter()
    sf = TINY_SF if args.tiny else WORKLOADS[args.workload]
    out = ROOT / ".bench_out" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(out, ignore_errors=True)
    event_dir = out / "eventlog" if args.trace else None
    if event_dir is not None:
        event_dir.mkdir(parents=True)
    configure_environment(out, event_dir)
    sys.path.insert(0, str(SRC))

    import numpy as np
    import pandas as pd
    import pyarrow
    import pyspark

    import workloads as wl
    from spans import Tracer

    tracer = Tracer(enabled=bool(args.trace))
    t0 = time.perf_counter()
    spark = start_spark()
    spark_start_s = time.perf_counter() - t0
    cores = spark.sparkContext.defaultParallelism
    run = wl.Run(spark, workload=args.workload, sf=sf, seed=args.seed,
                 seconds=args.seconds, tracer=tracer, out_dir=out, cores=cores)
    run.setup["spark_start_s"] = spark_start_s
    env = {
        "workload": args.workload, "seed": args.seed, "sf": sf, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "master": MASTER, "cores": cores,
        "shuffle_partitions": SHUFFLE_PARTITIONS, "driver_memory": DRIVER_MEMORY,
        "jvm_flags": list(JVM_FLAGS),
        "arrow": True, "broadcast_join_threshold": -1,
        "params": {"sigma": wl.PARAMS.sigma, "eps": wl.PARAMS.eps_eff},
        "tree_params": {"max_reps": wl.TREE_PARAMS.max_reps,
                        "min_gain": wl.TREE_PARAMS.min_gain},
        "spark": pyspark.__version__, "python": platform.python_version(),
        "numpy": np.__version__, "pandas": pd.__version__, "pyarrow": pyarrow.__version__,
        **source_id(),
    }
    try:
        {"s2t-sf01": wl.run_s2t, "retratree-sf01": wl.run_retratree}[args.workload](run)
    finally:
        stop_spark(spark)
    env["tau"] = run.info.get("tau")

    setup_s = sum(run.setup.values())
    lat = run.lat
    if args.trace:
        spans = tracer.finish()
        wl.spark_layer(run, event_dir, spans)
        # odd requests ran without spans or wrappers (the event log stays on)
        untraced = [x for k, x in enumerate(lat) if not run.traced_op(k)]
        traced_p50, untraced_p50 = wl.median(run.lat_traced), wl.median(untraced)
        if not untraced:
            print("note: one request only, so no tracing overhead (reported as 0)")
        run.per_layer.update({
            "trace.op_p50_s": traced_p50,
            "trace.untraced_op_p50_s": untraced_p50,
            "trace.overhead_frac": traced_p50 / untraced_p50 - 1.0 if untraced else 0.0,
        })
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "env": env, "setup": run.setup, "info": run.info, "latencies_s": lat,
            "failures": run.failures, "counters": dict(tracer.counters),
            "per_layer": run.per_layer, "spans": spans}, indent=1, default=float))
        print(f"trace: {trace_file.relative_to(ROOT)} ({len(spans)} spans)")
    shutil.rmtree(out, ignore_errors=True)

    values = {
        "setup_s": setup_s,
        "op_cpu_p50_s": wl.median(run.cpu),
        "peak_rss_mb": wl.peak_rss_mb(),
        **run.per_layer,
    }
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": float(values.get(spec["name"], 0.0)), "unit": spec["unit"]}

    print("env: " + json.dumps(env, default=str))
    print("setup: " + json.dumps({k: round(v, 4) for k, v in run.setup.items()}))
    print("info: " + json.dumps(run.info, default=str))
    t = wl.tail(lat)
    print(f"requests: {len(lat)}, wall p50 {wl.median(lat):.4f} s"
          + (f", {t[0]} {t[1]:.4f} s" if t else ", no tail percentile (under 10 samples beyond p50)")
          + f"; CPU p50 {wl.median(run.cpu):.4f} s")
    for f in run.failures:
        print(f"FAILED {f}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"wall: {time.perf_counter() - t_start:.1f} s")
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        print(f"note: not measured on this workload, reported as 0: {', '.join(missing)}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
