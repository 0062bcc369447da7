"""Which ``repro.core`` functions the traced run wraps, and the per-layer
metrics derived from their spans.

Span names are ``<layer>.<function>``; the layer is the ``repro.core``
module. Spans opened by the benchmark itself are ``bench.*``: the
iteration, and its ``bench.train`` / ``bench.match`` / ``bench.requery``
/ ``bench.serialize`` phases, which attribute a layer's time to training
or matching.
"""
from __future__ import annotations

import numpy as np

from repro.core import cluster, distance, match, model, saturation, tokenizer, train
from repro.core.model import ParserModel

from spans import SpanRecorder, Tracer

FUNCTIONS = [
    (tokenizer, "replace_variables", "tokenizer.replace_variables", None),
    (tokenizer, "tokenize", "tokenizer.tokenize", None),
    (train, "train_model_sequential", "train.train_model_sequential", None),
    (train, "train_model", "train.train_model", None),
    (train, "_assemble", "train.assemble", None),
    (model, "hash_tokens", "model.hash_tokens", None),
    (cluster, "build_tree", "cluster.build_tree", None),
    (cluster, "split_node", "cluster.split_node", None),
    (cluster, "factorize", "cluster.factorize", None),
    (saturation, "node_stats", "saturation.node_stats", None),
    (saturation, "saturation", "saturation.saturation", None),
    (saturation, "resolved_masks", "saturation.resolved_masks", None),
    (distance, "similarity_matrix_codes", "distance.similarity_matrix_codes",
     lambda codes, vocab, counts, clusters, *a, **k: {"cells": codes.shape[0] * len(clusters)}),
    (match, "match_sequential", "match.match_sequential",
     lambda messages, *a, **k: {"logs": len(messages)}),
    (match, "_ancestor_map", "match.ancestor_map", None),
]

METHODS = [
    (ParserModel, "match_tokens", "model.match_tokens", "call"),
    (ParserModel, "add_temp_template", "model.add_temp_template", "call"),
    (ParserModel, "ancestor_at", "model.ancestor_at", "call"),
    (ParserModel, "to_json", "model.to_json", "call"),
    (ParserModel, "from_json", "model.from_json", "classmethod"),
    (ParserModel, "_ensure_index", "model.index_build", "lazy_build"),
]

#: per-layer metric name -> unit, in the order they are reported
PER_LAYER = {
    "tokenizer.replace_variables.self_s": "s",
    "tokenizer.replace_variables.calls": "count",
    "tokenizer.tokenize.self_s": "s",
    "tokenizer.tokenize.calls": "count",
    "train.self_s": "s",
    "train.assemble_s": "s",
    "train.unique_logs": "count",
    "train.unique_ratio": "ratio",
    "train.groups": "count",
    "train.max_group_unique": "count",
    "train.sampled_out": "count",
    "model.hash_tokens.train_s": "s",
    "model.hash_tokens.match_s": "s",
    "model.hash_tokens.calls": "count",
    "model.index_build_s": "s",
    "model.index_builds": "count",
    "model.match_tokens.self_s": "s",
    "model.match_tokens.calls": "count",
    "model.match_tokens.p50_us": "us",
    "model.match_tokens.p99_us": "us",
    "model.temp_templates": "count",
    "model.ancestor_at.self_s": "s",
    "model.to_json_s": "s",
    "model.from_json_s": "s",
    "model.nodes": "count",
    "cluster.build_tree.self_s": "s",
    "cluster.split_node.self_s": "s",
    "cluster.split_node.calls": "count",
    "cluster.factorize.self_s": "s",
    "cluster.max_depth": "count",
    "cluster.kernel_share": "ratio",
    "saturation.node_stats.self_s": "s",
    "saturation.node_stats.calls": "count",
    "saturation.node_stats.calls_per_node": "ratio",
    "saturation.saturation.self_s": "s",
    "saturation.saturation.calls": "count",
    "saturation.saturation.calls_in_split": "count",
    "saturation.resolved_masks.self_s": "s",
    "distance.similarity_matrix_codes.self_s": "s",
    "distance.similarity_matrix_codes.calls": "count",
    "distance.cells": "count",
    "match.self_s": "s",
    "match.memo_hit_ratio": "ratio",
    "match.ancestor_map_s": "s",
    "match.batch_p50_ms": "ms",
    "train.train_model.s": "s",
    "match.match_df.s": "s",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.failed_tasks": "count",
    "spark.shuffle_write_bytes": "B",
    "spark.shuffle_read_bytes": "B",
    "spark.result_bytes": "B",
    "spark.executor_run_s": "s",
    "spark.executor_cpu_s": "s",
    "spark.gc_s": "s",
    "eval.ga": "ratio",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_frac": "ratio",
}

#: layers whose self time is the clustering kernel
KERNEL_LAYERS = ("cluster", "saturation", "distance")


def tracer(rec: SpanRecorder) -> Tracer:
    return Tracer(rec, FUNCTIONS, METHODS)


def span_metrics(rec: SpanRecorder) -> dict[str, float]:
    """Per-layer times and counts from the spans of one traced iteration."""
    n = len(rec)
    names = rec.names
    dur = rec.durations()
    own = rec.self_times()
    # Phase of each span: the nearest enclosing bench.* phase span.
    phase = [""] * n
    for i in range(n):
        p = rec.parent[i]
        phase[i] = names[i] if names[i].startswith("bench.") else (phase[p] if p >= 0 else "")

    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, name in enumerate(names):
        self_s[name] = self_s.get(name, 0.0) + own[i]
        total_s[name] = total_s.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1

    def by_phase(name: str, ph: str) -> float:
        return sum(own[i] for i in range(n) if names[i] == name and phase[i] == ph)

    match_calls = [dur[i] for i in range(n) if names[i] == "model.match_tokens"]
    in_split = sum(
        1 for i in range(n)
        if names[i] == "saturation.saturation" and rec.parent[i] >= 0
        and names[rec.parent[i]] == "cluster.split_node"
    )
    matched_logs = sum(rec.attrs[i]["logs"] for i in range(n) if names[i] == "match.match_sequential")
    memo_misses = sum(
        1 for i in range(n)
        if names[i] == "model.match_tokens" and rec.parent[i] >= 0
        and names[rec.parent[i]] == "match.match_sequential"
    )
    train_span = sum(dur[i] for i in range(n) if names[i] == "bench.train")
    kernel = sum(own[i] for i in range(n)
                 if names[i].split(".")[0] in KERNEL_LAYERS and phase[i] == "bench.train")
    wall = sum(dur[i] for i in range(n) if rec.parent[i] < 0)
    layer_self = sum(own[i] for i in range(n) if not names[i].startswith("bench."))

    def q(vals: list[float], pct: float) -> float:
        return float(np.percentile(vals, pct)) * 1e6 if vals else 0.0

    return {
        "tokenizer.replace_variables.self_s": self_s.get("tokenizer.replace_variables", 0.0),
        "tokenizer.replace_variables.calls": calls.get("tokenizer.replace_variables", 0),
        "tokenizer.tokenize.self_s": self_s.get("tokenizer.tokenize", 0.0),
        "tokenizer.tokenize.calls": calls.get("tokenizer.tokenize", 0),
        "train.self_s": self_s.get("train.train_model_sequential", 0.0),
        "train.assemble_s": total_s.get("train.assemble", 0.0),
        "model.hash_tokens.train_s": by_phase("model.hash_tokens", "bench.train"),
        "model.hash_tokens.match_s": by_phase("model.hash_tokens", "bench.match"),
        "model.hash_tokens.calls": calls.get("model.hash_tokens", 0),
        "model.index_build_s": total_s.get("model.index_build", 0.0),
        "model.index_builds": calls.get("model.index_build", 0),
        "model.match_tokens.self_s": self_s.get("model.match_tokens", 0.0),
        "model.match_tokens.calls": len(match_calls),
        "model.match_tokens.p50_us": q(match_calls, 50),
        "model.match_tokens.p99_us": q(match_calls, 99),
        "model.temp_templates": calls.get("model.add_temp_template", 0),
        "model.ancestor_at.self_s": self_s.get("model.ancestor_at", 0.0),
        "model.to_json_s": total_s.get("model.to_json", 0.0),
        "model.from_json_s": total_s.get("model.from_json", 0.0),
        "cluster.build_tree.self_s": self_s.get("cluster.build_tree", 0.0),
        "cluster.split_node.self_s": self_s.get("cluster.split_node", 0.0),
        "cluster.split_node.calls": calls.get("cluster.split_node", 0),
        "cluster.factorize.self_s": self_s.get("cluster.factorize", 0.0),
        "cluster.kernel_share": kernel / train_span if train_span else 0.0,
        "saturation.node_stats.self_s": self_s.get("saturation.node_stats", 0.0),
        "saturation.node_stats.calls": calls.get("saturation.node_stats", 0),
        "saturation.saturation.self_s": self_s.get("saturation.saturation", 0.0),
        "saturation.saturation.calls": calls.get("saturation.saturation", 0),
        "saturation.saturation.calls_in_split": in_split,
        "saturation.resolved_masks.self_s": self_s.get("saturation.resolved_masks", 0.0),
        "distance.similarity_matrix_codes.self_s": self_s.get("distance.similarity_matrix_codes", 0.0),
        "distance.similarity_matrix_codes.calls": calls.get("distance.similarity_matrix_codes", 0),
        "distance.cells": sum(rec.attrs[i]["cells"] for i in range(n)
                              if names[i] == "distance.similarity_matrix_codes"),
        "match.self_s": self_s.get("match.match_sequential", 0.0),
        "match.memo_hit_ratio": 1.0 - memo_misses / matched_logs if matched_logs else 0.0,
        "match.ancestor_map_s": total_s.get("match.ancestor_map", 0.0),
        "trace.wall_s": wall,
        "trace.accounted_frac": layer_self / wall if wall else 0.0,
    }


def self_time_table(rec: SpanRecorder) -> list[tuple[str, float, int]]:
    """(span name, total self time, calls), largest self time first."""
    own = rec.self_times()
    agg: dict[str, list] = {}
    for i, name in enumerate(rec.names):
        a = agg.setdefault(name, [0.0, 0])
        a[0] += own[i]
        a[1] += 1
    return sorted(((k, v[0], v[1]) for k, v in agg.items()), key=lambda r: -r[1])
