"""Offline training (§3, §4): Spark job + sequential reference path.

The Spark path is pure Catalyst up to the clustering kernel: variable
replacement (`regexp_replace` chain), tokenization (`split`), dedup
(`groupBy` on the token array) and initial-group keys (§4.2). Each
initial group is then clustered independently inside ``applyInPandas``
— the paper's "hierarchical clustering can be performed concurrently
for each group". The sequential path runs the identical kernel
single-threaded (the paper's *ByteBrain Sequential*) and is asserted to
produce the same model JSON in tests.

A token sequence is a tuple of strings in Python and an
``array<string>`` column in Spark, from preprocessing through the tree
rows to the model; the kernel encodes the tokens itself
(``cluster.factorize``), so both paths feed it the same input and
differ only in data movement.
"""
from __future__ import annotations

import zlib
from collections import Counter

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.cluster import TreeRow, build_tree
from repro.core.config import ParserConfig
from repro.core.model import ParserModel, WILDCARD
from repro.core.tokenizer import preprocess_message, spark_replace_variables, spark_tokenize

_TREE_SCHEMA = (
    "group_key string, idx long, parent long, template array<string>, "
    "saturation double, n_logs long, n_unique long, depth long"
)


def _group_seed(group_key: str, seed: int) -> int:
    return (zlib.crc32(group_key.encode()) ^ (seed * 0x9E3779B1)) & 0x7FFFFFFF


def _canonicalize(counts, texts, cfg: ParserConfig):
    """Canonical row order + OOM sampling guard.

    The Spark path delivers unique logs in shuffle order, the sequential
    path in insertion order; sorting by token text makes the two paths
    produce bit-identical trees. Oversized groups keep their most
    frequent unique logs (the paper's random-sampling guard,
    deterministic here).
    """
    order = sorted(range(len(texts)), key=texts.__getitem__)
    counts = counts[order]
    texts = [texts[i] for i in order]
    if len(texts) > cfg.max_unique_per_group:
        keep = np.argsort(-counts, kind="stable")[: cfg.max_unique_per_group]
        counts = counts[keep]
        texts = [texts[i] for i in keep]
    return counts, texts


def _cluster_group(
    group_key: str,
    counts: np.ndarray,
    texts: list[tuple[str, ...]],
    cfg: ParserConfig,
) -> tuple[pd.DataFrame, list[TreeRow], list[tuple[str, ...]]]:
    """Cluster one initial group. Returns its tree rows as a pandas
    frame, the kernel's ``TreeRow``s, and the canonically ordered unique
    logs that the ``TreeRow.rows`` index."""
    counts, texts = _canonicalize(counts, texts, cfg)
    rng = np.random.default_rng(_group_seed(group_key, cfg.cluster.seed))
    rows = build_tree(counts, texts, cfg.cluster, rng, wildcard=WILDCARD)
    frame = pd.DataFrame(
        {
            "group_key": group_key,
            "idx": [r.idx for r in rows],
            "parent": [r.parent for r in rows],
            "template": [list(r.template) for r in rows],
            "saturation": [r.saturation for r in rows],
            "n_logs": [r.n_logs for r in rows],
            "n_unique": [r.n_unique for r in rows],
            "depth": [r.depth for r in rows],
        }
    )
    return frame, rows, texts


def _assemble(model: ParserModel, tree_rows: pd.DataFrame) -> ParserModel:
    """Tree rows (any group order) -> model nodes with global ids."""
    for gk, grp in tree_rows.groupby("group_key", sort=True):
        grp = grp.sort_values("idx")
        local_to_global: dict[int, int] = {}
        for row in grp.itertuples(index=False):
            node = model.add_node(
                parent=local_to_global.get(int(row.parent), -1) if row.parent >= 0 else -1,
                template=tuple(row.template),
                saturation=float(row.saturation),
                n_logs=int(row.n_logs),
                depth=int(row.depth),
                group_key=str(gk),
            )
            local_to_global[int(row.idx)] = node.nid
    return model


def preprocess_df(df: DataFrame, col: str, cfg: ParserConfig) -> DataFrame:
    """Catalyst preprocessing: variable replacement + tokenization."""
    msg = F.col(col)
    if cfg.replace_variables:
        msg = spark_replace_variables(msg)
    out = df.withColumn("tokens", spark_tokenize(msg))
    return out.withColumn("n_tokens", F.size("tokens")).filter(F.col("n_tokens") > 0)


def group_key_col(cfg: ParserConfig):
    """Initial-grouping key (§4.2): token count + k-prefix tokens,
    byte-identical to the sequential path's key."""
    key = F.col("n_tokens").cast("string")
    if cfg.prefix_k > 0:
        key = F.concat_ws("|", key, F.slice("tokens", 1, cfg.prefix_k))
    return key


def train_model(
    spark: SparkSession, df: DataFrame, *, col: str = "message", cfg: ParserConfig | None = None
) -> ParserModel:
    """Spark offline training: returns the template-tree model."""
    cfg = cfg or ParserConfig()
    if cfg.naive_match:
        raise ValueError(
            "naive_match needs the training assignment, which only "
            "train_model_sequential builds; use the sequential path"
        )
    pre = preprocess_df(df, col, cfg)
    if cfg.dedup:
        uniq = pre.groupBy("tokens", "n_tokens").agg(F.count(F.lit(1)).alias("cnt"))
    else:
        uniq = pre.select("tokens", "n_tokens").withColumn("cnt", F.lit(1))
    uniq = uniq.withColumn("group_key", group_key_col(cfg))

    def run_group(key: tuple, pdf: pd.DataFrame) -> pd.DataFrame:
        counts = pdf["cnt"].to_numpy(dtype=np.int64)
        texts = [tuple(t) for t in pdf["tokens"]]
        return _cluster_group(str(key[0]), counts, texts, cfg)[0]

    tree_rows = (
        uniq.groupBy("group_key")
        .applyInPandas(run_group, schema=_TREE_SCHEMA)
        .toPandas()
    )
    return _assemble(ParserModel(), tree_rows)


def train_model_sequential(
    messages: list[str], cfg: ParserConfig | None = None
) -> ParserModel:
    """Single-threaded training on a message list (*ByteBrain
    Sequential*): identical kernel, no Spark."""
    cfg = cfg or ParserConfig()
    tokenized = (
        toks for msg in messages
        if (toks := tuple(preprocess_message(msg, replace=cfg.replace_variables)))
    )
    # (token tuple, count) per clustered row: one per unique log with
    # dedup, one per log without it.
    entries = Counter(tokenized).items() if cfg.dedup else [(toks, 1) for toks in tokenized]
    groups: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for toks, cnt in entries:
        key = str(len(toks))
        if cfg.prefix_k > 0:
            key += "|" + "|".join(toks[: cfg.prefix_k])
        groups.setdefault(key, []).append((toks, cnt))

    frames = []
    assignment: dict[tuple[str, ...], tuple[str, int]] = {}
    for gk in sorted(groups):
        entries = groups[gk]
        counts = np.array([c for _, c in entries], dtype=np.int64)
        frame, rows, texts = _cluster_group(gk, counts, [t for t, _ in entries], cfg)
        frames.append(frame)
        if cfg.naive_match:
            # Deepest node containing each unique log = its training
            # assignment (the "w/ naive match" ablation, §5.4.1). A node
            # precedes its descendants in ``rows``, so the last write wins.
            deepest = np.empty(len(texts), dtype=np.int64)
            for r in rows:
                deepest[r.rows] = r.idx
            for toks, local in zip(texts, deepest.tolist()):
                assignment[toks] = (gk, local)
    model = _assemble(ParserModel(), pd.concat(frames, ignore_index=True) if frames else pd.DataFrame())
    if assignment:
        # _assemble adds each group's nodes contiguously in local order.
        first_nid: dict[str, int] = {}
        for nd in model.nodes:
            first_nid.setdefault(nd.group_key, nd.nid)
        model.train_assignment = {
            toks: first_nid[gk] + local for toks, (gk, local) in assignment.items()
        }
    return model
