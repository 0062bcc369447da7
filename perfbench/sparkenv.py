"""A local Spark session for the traced Spark pass, and its engine metrics.

Spark's Python workers are separate processes that import ``repro``
themselves, so ``src`` must be on ``PYTHONPATH`` before the JVM starts
(``run.py`` sets it); span wrappers in the driver never reach them. The
engine side of the traced pass therefore comes from Spark's own event
log, restricted to the jobs submitted while the local property
``perfbench.run`` held the traced pass's id.
"""
from __future__ import annotations

import json
import os
from pathlib import Path

RUN_PROPERTY = "perfbench.run"

#: event-log task metrics summed into per-layer metrics, with their scale
_TASK_METRICS = {
    "spark.executor_run_s": (("Executor Run Time",), 1e-3),
    "spark.executor_cpu_s": (("Executor CPU Time",), 1e-9),
    "spark.gc_s": (("JVM GC Time",), 1e-3),
    "spark.result_bytes": (("Result Size",), 1),
    "spark.shuffle_write_bytes": (("Shuffle Write Metrics", "Shuffle Bytes Written"), 1),
}
_SHUFFLE_READ = ("Remote Bytes Read", "Local Bytes Read")


def start(work: Path, event_dir: Path):
    """Start a session that writes Spark's event log to ``event_dir``."""
    local = work / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    # Read when the JVM launches; the benchmark owns these, whatever the
    # calling environment set (SPARK_LOCAL_DIRS would override
    # spark.local.dir).
    os.environ["PYSPARK_SUBMIT_ARGS"] = "--driver-memory 2g pyspark-shell"
    os.environ["SPARK_LOCAL_DIRS"] = str(local)
    from pyspark.sql import SparkSession

    n = max(1, min(4, os.cpu_count() or 1))
    builder = (
        SparkSession.builder.appName("perfbench")
        .master(f"local[{n}]")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(work / "spark-warehouse"))
        .config("spark.sql.shuffle.partitions", str(2 * n))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
    )
    event_dir.mkdir(parents=True, exist_ok=True)
    session = (
        builder.config("spark.eventLog.enabled", "true")
        .config("spark.eventLog.dir", event_dir.resolve().as_uri())
        .config("spark.eventLog.compress", "false")
        .config("spark.eventLog.rolling.enabled", "false")
        .getOrCreate()
    )
    session.sparkContext.setLogLevel("ERROR")
    return session


def stop(session) -> None:
    """Stop the session and wait for the JVM the gateway launched to exit."""
    sc = session.sparkContext
    gateway = sc._gateway
    proc = getattr(gateway, "proc", None)
    session.stop()
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)


def engine_metrics(event_dir: Path, run_id: str) -> dict[str, float]:
    """Jobs, stages, tasks and summed task metrics of the jobs tagged with
    ``run_id``, read from the (closed) event log in ``event_dir``."""
    out = {k: 0.0 for k in ("spark.jobs", "spark.stages", "spark.tasks", "spark.failed_tasks",
                            "spark.shuffle_read_bytes", *_TASK_METRICS)}
    stages: set[int] = set()
    events = []
    for path in sorted(event_dir.iterdir()):
        with open(path) as fh:
            events.extend(json.loads(line) for line in fh if line.strip())
    for ev in events:
        if ev["Event"] == "SparkListenerJobStart" and \
                (ev.get("Properties") or {}).get(RUN_PROPERTY) == run_id:
            out["spark.jobs"] += 1
            stages.update(ev["Stage IDs"])
    for ev in events:
        kind = ev["Event"]
        if kind == "SparkListenerStageCompleted" and ev["Stage Info"]["Stage ID"] in stages:
            out["spark.stages"] += 1
        elif kind == "SparkListenerTaskEnd" and ev["Stage ID"] in stages:
            out["spark.tasks"] += 1
            out["spark.failed_tasks"] += bool(ev["Task Info"].get("Failed"))
            tm = ev.get("Task Metrics") or {}
            for name, (keys, scale) in _TASK_METRICS.items():
                val = tm
                for k in keys:
                    val = val.get(k, 0) if isinstance(val, dict) else 0
                out[name] += val * scale
            read = tm.get("Shuffle Read Metrics") or {}
            out["spark.shuffle_read_bytes"] += sum(read.get(k, 0) for k in _SHUFFLE_READ)
    return out
