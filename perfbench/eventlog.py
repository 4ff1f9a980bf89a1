"""Spark event-log reader for the traced run.

The traced run starts Spark with ``spark.eventLog.compress=false`` (the
default codec, zstd, needs a Python module this reader does not use).
Spark 4 writes a directory ``eventlog_v2_<app>/events_<n>_<app>``; older
layouts write one file per application.  Both are read.

Each ``SparkListenerTaskEnd`` is attributed to the innermost span whose
interval holds the task's launch time; jobs and stages to the span that
holds their submission time.
"""
from __future__ import annotations

import json
import re
from pathlib import Path

TASK_FIELDS = ("tasks", "executor_run_s", "executor_cpu_s", "gc_s", "shuffle_bytes")


def _event_files(log_dir: Path) -> list[Path]:
    files = []
    for p in sorted(log_dir.iterdir()):
        if p.is_dir() and p.name.startswith("eventlog_v2_"):
            parts = [q for q in p.iterdir() if q.name.startswith("events_")]
            files += sorted(parts, key=lambda q: int(re.match(r"events_(\d+)_", q.name).group(1)))
        elif p.is_file() and not p.name.startswith("."):
            files.append(p)
    return files


def read_events(log_dir: Path) -> dict[str, list[dict]]:
    """Tasks, stages and jobs of every application logged under ``log_dir``,
    with times in epoch seconds."""
    tasks, stages, jobs = [], [], []
    for f in _event_files(log_dir):
        with open(f) as fh:
            for line in fh:
                e = json.loads(line)
                kind = e.get("Event")
                if kind == "SparkListenerTaskEnd":
                    info, m = e["Task Info"], e.get("Task Metrics") or {}
                    sr = m.get("Shuffle Read Metrics", {})
                    sw = m.get("Shuffle Write Metrics", {})
                    tasks.append({
                        "t": info["Launch Time"] / 1e3,
                        "executor_run_s": m.get("Executor Run Time", 0) / 1e3,
                        "executor_cpu_s": m.get("Executor CPU Time", 0) / 1e9,
                        "gc_s": m.get("JVM GC Time", 0) / 1e3,
                        "shuffle_bytes": sw.get("Shuffle Bytes Written", 0)
                        + sr.get("Remote Bytes Read", 0) + sr.get("Local Bytes Read", 0),
                    })
                elif kind == "SparkListenerStageSubmitted":
                    t = e["Stage Info"].get("Submission Time")
                    if t is not None:
                        stages.append({"t": t / 1e3})
                elif kind == "SparkListenerJobStart":
                    jobs.append({"t": e["Submission Time"] / 1e3})
    return {"tasks": tasks, "stages": stages, "jobs": jobs}


def attribute(spans: list[dict], events: dict[str, list[dict]]) -> dict[int, dict]:
    """Per span id: Spark totals of the events inside its interval,
    children included (a parent's totals cover its children's)."""
    by_id = {s["id"]: s for s in spans}
    totals = {s["id"]: dict.fromkeys(("jobs", "stages", *TASK_FIELDS), 0.0) for s in spans}
    ordered = sorted(spans, key=lambda s: (s["start"], -s["end"]))

    def innermost(t: float) -> dict | None:
        best = None
        for s in ordered:
            if s["start"] <= t < s["end"] and (best is None or s["end"] - s["start"] < best["end"] - best["start"]):
                best = s
        return best

    def credit(t: float, key: str, value: float) -> None:
        s = innermost(t)
        while s is not None:
            totals[s["id"]][key] += value
            s = by_id.get(s["parent"]) if s["parent"] is not None else None

    for j in events["jobs"]:
        credit(j["t"], "jobs", 1)
    for st in events["stages"]:
        credit(st["t"], "stages", 1)
    for task in events["tasks"]:
        credit(task["t"], "tasks", 1)
        for k in TASK_FIELDS[1:]:
            credit(task["t"], k, task[k])
    return totals
