"""Online matching (§4.8) — Spark job + sequential reference path.

Logs are matched against stored template tokens (never by recomputing
clustering distances): per length bucket, candidates are scanned in
descending saturation order with an equal-or-wildcard position test.
The Spark path deduplicates token arrays first (matching is a pure
function of the token sequence), matches the distinct arrays inside
``mapInPandas`` with the model broadcast to executors, and joins the
verdicts back — so duplicate-heavy streams pay once per unique log.
Logs that match nothing become temporary singleton templates (§3).
"""
from __future__ import annotations

import hashlib
from typing import Iterator

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.config import ParserConfig
from repro.core.model import ParserModel
from repro.core.tokenizer import preprocess_message
from repro.core.train import preprocess_df

#: executor-side model cache keyed by a digest of the broadcast model
#: JSON, so the matching index is built once per executor and model, not
#: once per task, and a different model never hits a stale entry.
_MODEL_CACHE: dict[str, ParserModel] = {}


def _ancestor_map(model: ParserModel, threshold: float | None) -> dict[int, int]:
    if threshold is None:
        return {}
    return {nd.nid: model.ancestor_at(nd.nid, threshold) for nd in model.nodes}


def match_sequential(
    messages: list[str],
    model: ParserModel,
    cfg: ParserConfig | None = None,
    *,
    threshold: float | None = None,
    add_unmatched: bool = True,
) -> list[int]:
    """Match each message; returns the node id per message (-1 only when
    ``add_unmatched`` is off and nothing matches)."""
    cfg = cfg or ParserConfig()
    memo: dict[tuple[str, ...], int] = {}
    out: list[int] = []
    for msg in messages:
        toks = tuple(preprocess_message(msg, replace=cfg.replace_variables))
        nid = memo.get(toks)
        if nid is None:
            if cfg.naive_match and model.train_assignment:
                nid = model.train_assignment.get(toks, -1)
                if nid < 0:
                    nid = model.match_tokens(toks)
            else:
                nid = model.match_tokens(toks)
            if nid < 0 and add_unmatched and toks:
                nid = model.add_temp_template(toks).nid
            memo[toks] = nid
        out.append(nid)
    if threshold is not None:
        anc = _ancestor_map(model, threshold)
        out = [anc.get(nid, nid) for nid in out]
    return out


def match_df(
    spark: SparkSession,
    df: DataFrame,
    model: ParserModel,
    cfg: ParserConfig | None = None,
    *,
    col: str = "message",
    id_col: str = "log_id",
    threshold: float | None = None,
) -> DataFrame:
    """Spark online matching.

    Returns ``(id_col, template_id, template)`` with ``template_id`` the
    matched node id (-1 for unmatched — call ``add_unmatched_df`` to
    absorb those as temporary templates first if desired).
    """
    cfg = cfg or ParserConfig()
    if cfg.naive_match:
        raise ValueError(
            "naive_match reads the model's training assignment, which only "
            "match_sequential does; use the sequential path"
        )
    pre = preprocess_df(df.select(id_col, col), col, cfg).select(id_col, "tokens")
    uniq = pre.select("tokens").distinct()
    blob = model.to_json()
    key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    b_model = spark.sparkContext.broadcast(blob)
    b_anc = spark.sparkContext.broadcast(_ancestor_map(model, threshold))

    def run(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        m = _MODEL_CACHE.get(key)
        if m is None:
            m = ParserModel.from_json(b_model.value)
            _MODEL_CACHE.clear()
            _MODEL_CACHE[key] = m
        anc = b_anc.value
        for pdf in batches:
            nids = [m.match_tokens(tuple(t)) for t in pdf["tokens"]]
            yield pd.DataFrame(
                {"tokens": pdf["tokens"], "template_id": [anc.get(n, n) for n in nids]}
            )

    verdicts = uniq.mapInPandas(run, schema="tokens array<string>, template_id long")
    templates = spark.createDataFrame(
        [(nd.nid, nd.text()) for nd in model.nodes], "template_id long, template string"
    )
    return (
        pre.join(verdicts, on="tokens", how="left")
        .join(F.broadcast(templates), on="template_id", how="left")
        .select(id_col, "template_id", F.coalesce("template", F.lit("")).alias("template"))
    )


def add_unmatched_df(
    spark: SparkSession, df: DataFrame, model: ParserModel, cfg: ParserConfig | None = None,
    *, col: str = "message",
) -> int:
    """Absorb logs that match no template as temporary templates (§3).
    Returns how many temporary templates were added."""
    cfg = cfg or ParserConfig()
    uniq = preprocess_df(df, col, cfg).select("tokens").distinct().collect()
    added = 0
    for r in uniq:
        toks = tuple(r["tokens"])
        if model.match_tokens(toks) < 0:
            model.add_temp_template(toks)
            added += 1
    return added
