"""One benchmark run: set-up, measured iterations, gate, metrics.

Imported by ``run.py`` once ``src`` is on the import path.
"""
from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
import pandas as pd

import gate as gates
import layers
import phases
import sparkenv
from repro.core.config import ParserConfig
from spans import SpanRecorder
from workloads import Workload, make_workload

#: end-to-end metric name -> unit (BENCHMARK.json lists the same)
END_TO_END = {
    "train_s": "s",
    "match_mb_per_s": "MB/s",
    "e2e_logs_per_s": "logs/s",
    "match_batch_p90_ms": "ms",
    "requery_ms": "ms",
    "model_bytes": "B",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: corpus generations per run: at least SETUP_REPS, and more until they
#: have taken SETUP_MIN_S together; setup_s reports their median. A
#: generation of hdfs-40k takes about 0.4 s, and the median of three such
#: short samples moved by 1.5x between back-to-back runs.
SETUP_REPS = 3
SETUP_MIN_S = 3.0
#: logs trained and matched once before timing, to warm code paths
WARMUP_LOGS = 500
#: re-query repetitions per batch; each batch counts their median, so a GC
#: pause lands in a single repetition
REQUERY_REPS = 5


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.cfg = ParserConfig()

    def _setup(self) -> tuple[Workload, float]:
        a = self.args
        gen = []
        while len(gen) < SETUP_REPS or sum(gen) < SETUP_MIN_S:
            t0 = perf_counter()
            wl = make_workload(a.workload, a.seed, a.scale)
            gen.append(perf_counter() - t0)
        t0 = perf_counter()
        phases.sequential(wl.train[:WARMUP_LOGS], wl.stream[:WARMUP_LOGS], self.cfg, 1)
        warm = perf_counter() - t0
        print(f"setup: corpus generation {statistics.median(gen):.3f} s (median of {len(gen)}), "
              f"warm-up {warm:.3f} s")
        return wl, statistics.median(gen) + warm

    def run(self) -> dict:
        a, cfg = self.args, self.cfg
        wl, setup_s = self._setup()
        gate = gates.Gate(gates.stream_tokens(wl.stream, cfg.replace_variables), wl.labels)

        # The inputs and tokens live for the whole run: keep them out of the
        # collector's way, and start every iteration from a collected heap,
        # so GC work reflects the program's own objects.
        gc.collect()
        gc.freeze()
        its: list[phases.Iteration] = []
        measured = 0.0
        # Start another iteration while at least half of it fits, so a run
        # overshoots --seconds by half an iteration at most.
        while not its or measured + its[-1].wall_s / 2 < a.seconds:
            if its:
                its[-1].release()
            gc.collect()
            its.append(phases.sequential(wl.train, wl.stream, cfg, REQUERY_REPS))
            measured += its[-1].wall_s
            gate.check(its[-1].verdicts, its[-1].served, its[-1].requery, phases.REQUERY_THRESHOLD)

        last = its[-1]
        n = len(wl.stream)
        batch_ms = [b for it in its for b in it.batch_ms]
        # Training and stream are one list on the LogHub workloads: reuse
        # the gate's tokens.
        props = corpus_properties(gate.tokens if wl.train is wl.stream else
                                  gates.stream_tokens(wl.train, cfg.replace_variables), cfg)
        self._print_properties(wl, props, last, len(batch_ms), gate)
        e2e = {
            "train_s": statistics.median(it.train_s for it in its),
            "match_mb_per_s": statistics.median(wl.stream_bytes / 1e6 / it.match_s for it in its),
            "e2e_logs_per_s": statistics.median(n / (it.train_s + it.match_s) for it in its),
            # Per match phase, then the median: one burst of host slowness
            # can slow 10% of a run's batches and move a pooled percentile
            # by itself (README.md, "Steadiness").
            "match_batch_p90_ms": statistics.median(
                float(np.percentile(it.batch_ms, 90)) for it in its),
            "requery_ms": statistics.median(it.requery_ms for it in its),
            "model_bytes": last.model_bytes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        for k, v in e2e.items():
            print(f"metric {k} = {v:.6g} {END_TO_END[k]}")
        # Reported per layer, without a bound: see README.md, "Steadiness".
        batch_p50 = float(np.percentile(batch_ms, 50))
        print(f"batch latency p50 = {batch_p50:.6g} ms")
        if a.trace:
            metrics = self._traced(wl, props, its, gate, batch_p50)
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        print(gate.report())
        return {"correct": gate.correct, "attempted": gate.n, "failed": gate.n_failed,
                "metrics": metrics}

    def _print_properties(self, wl, p: dict, it: phases.Iteration, n_batches: int,
                          gate: gates.Gate) -> None:
        """Input properties that claims of the form "helps only inputs with
        X" cite; all derived from the inputs and the run's models."""
        temps = len(it.served.nodes) - len(it.trained.nodes)
        n = len(wl.stream)
        print(f"workload {wl.name} seed {self.args.seed}: {len(wl.train)} training logs, "
              f"{n} stream logs, {wl.stream_bytes} stream bytes")
        print(f"property unique_logs={p['unique_logs']} unique_ratio={p['unique_ratio']:.4f} "
              f"groups={p['groups']} max_group_share={p['max_group_share']:.4f} "
              f"sampled_out={p['sampled_out']} nodes={len(it.trained.nodes)} "
              f"temp_templates={temps} temp_share={temps / n:.6f} batch_samples={n_batches}")
        if gate.ga is not None:
            print(f"property ga={gate.ga:.6f} (strict, at query_threshold={self.cfg.query_threshold})")

    def _traced(self, wl, props, its, gate, batch_p50: float) -> dict:
        """One traced iteration after the untraced ones, plus, where the
        workload asks for it, one traced pass of the Spark path."""
        a = self.args
        rec = SpanRecorder(f"{a.workload}-seed{a.seed}-pid{os.getpid()}")
        gc.collect()
        with layers.tracer(rec):
            traced = phases.sequential(wl.train, wl.stream, self.cfg, 1, rec)
        gate.check(traced.verdicts, traced.served, traced.requery, phases.REQUERY_THRESHOLD)

        m = {k: 0.0 for k in layers.PER_LAYER}
        m.update(layers.span_metrics(rec))
        for k in ("unique_logs", "unique_ratio", "groups", "max_group_unique", "sampled_out"):
            m[f"train.{k}"] = props[k]
        nodes = traced.trained.nodes
        m["model.nodes"] = len(nodes)
        m["cluster.max_depth"] = max((nd.depth for nd in nodes), default=0)
        m["saturation.node_stats.calls_per_node"] = (
            m["saturation.node_stats.calls"] / len(nodes) if nodes else 0.0)
        m["eval.ga"] = gate.ga if gate.ga is not None else 0.0
        m["match.batch_p50_ms"] = batch_p50
        untraced = statistics.median(it.wall_s for it in its)
        m["trace.untraced_s"] = untraced
        m["trace.overhead_s"] = traced.wall_s - untraced
        print(f"tracing overhead: traced {traced.wall_s:.3f} s - untraced {untraced:.3f} s = "
              f"{traced.wall_s - untraced:+.3f} s ({(traced.wall_s / untraced - 1) * 100:+.1f}%)")
        recs = [rec]
        if wl.spark:
            spark_rec = SpanRecorder(rec.run_id + "-spark")
            m.update(self._spark_pass(wl, traced, gate, spark_rec))
            recs.append(spark_rec)
        with open(self.work / f"spans-{wl.name}.jsonl", "w") as fh:
            for r in recs:
                r.write_jsonl(fh)
                print(f"self time by span ({r.run_id}):")
                for name, own, k in layers.self_time_table(r):
                    print(f"  {name:40s} {own:10.4f} s {k:9d} calls")
        return {k: {"value": float(m[k]), "unit": u} for k, u in layers.PER_LAYER.items()}

    def _spark_pass(self, wl, seq: phases.Iteration, gate: gates.Gate,
                    rec: SpanRecorder) -> dict[str, float]:
        """The training corpus through ``train_model`` and ``match_df`` on a
        warm local session. Spark must give the sequential iteration's
        template bank and verdicts (the parity gate)."""
        event_dir = self.work / f"spark-events-{os.getpid()}"
        session = sparkenv.start(self.work, event_dir)
        try:
            pdf = pd.DataFrame({"log_id": range(len(wl.train)), "message": wl.train})
            df = session.createDataFrame(pdf).cache()
            df.count()
            phases.spark(session, session.createDataFrame(pdf.iloc[:WARMUP_LOGS]), self.cfg)
            session.sparkContext.setLocalProperty(sparkenv.RUN_PROPERTY, rec.run_id)
            with layers.tracer(rec):
                sp = phases.spark(session, df, self.cfg, rec)
            sparkenv.stop(session)  # closes the event log
            session = None
            m = sparkenv.engine_metrics(event_dir, rec.run_id)
        finally:
            if session is not None:
                sparkenv.stop(session)
            shutil.rmtree(event_dir, ignore_errors=True)
        gate.check_parity(gate.rows_to_verdicts(*sp.rows), sp.trained, seq.verdicts, seq.trained)
        m["train.train_model.s"] = sp.train_s
        m["match.match_df.s"] = sp.match_s
        print(f"spark: train_model {sp.train_s:.3f} s, match_df {sp.match_s:.3f} s, "
              f"{int(m['spark.jobs'])} jobs, {int(m['spark.tasks'])} tasks")
        return m


def corpus_properties(train_tokens: list[tuple[str, ...]], cfg: ParserConfig) -> dict:
    """Unique token sequences of the training corpus and their initial
    groups (token count, plus the k-prefix when ``cfg.prefix_k`` is set),
    computed outside the program the way §4.1-§4.2 define them."""
    uniq = {t for t in train_tokens if t}
    groups: dict[tuple, int] = {}
    for t in uniq:
        key = (len(t), t[:cfg.prefix_k])
        groups[key] = groups.get(key, 0) + 1
    biggest = max(groups.values(), default=0)
    return {
        "unique_logs": len(uniq),
        "unique_ratio": len(uniq) / len(train_tokens) if train_tokens else 0.0,
        "groups": len(groups),
        "max_group_unique": biggest,
        "max_group_share": biggest / len(uniq) if uniq else 0.0,
        "sampled_out": sum(max(0, g - cfg.max_unique_per_group) for g in groups.values()),
    }
