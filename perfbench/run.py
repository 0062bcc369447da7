#!/usr/bin/env python3
"""Benchmark of the log-parsing service: train, stream-match, re-query.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout of the repository. It builds the
workload's inputs from the seed, sets up (corpus generation, warm-up),
then repeats measured iterations until their wall time reaches
``--seconds``. Every iteration passes the correctness gate. The last line
of standard output is one JSON object: ``correct``, ``attempted`` (stream
logs), ``failed`` (stream logs without a valid verdict) and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A traced run adds one traced iteration after the untraced
ones (and, on ``thunderbird-40k``, one traced pass of the Spark path) and
writes its spans to ``.perfbench_work/spans-<workload>.jsonl``. See
README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size relative to the benchmark's (smoke tests use less)")
    return ap.parse_args(argv)


def isolate() -> None:
    """Keep every file this run and its children write inside WORK, and
    put ``src`` on the import path of this process and Spark's workers."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    sys.path.insert(0, str(SRC))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "core" / "__init__.py").is_file():
        print(f"error: {SRC / 'repro'} not found: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    isolate()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    from bench import Bench

    result = Bench(args, WORK).run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
