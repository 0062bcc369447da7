"""Correctness gate: every run checks the verdicts it measured.

No check filters a log. Each failing log is marked once, with its first
cause, and ``failed_frac`` is the share of marked stream logs. A check
that concerns the whole run (the Spark template bank, the two GA
implementations) marks every log, since no verdict of that run can be
trusted.
"""
from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.model import WILDCARD, ParserModel
from repro.core.tokenizer import preprocess_message
from repro.eval.ga import grouping_accuracy


def stream_tokens(messages: list[str], replace: bool = True) -> list[tuple[str, ...]]:
    """Token sequence of every message, computed once per distinct message."""
    memo: dict[str, tuple[str, ...]] = {}
    out = []
    for msg in messages:
        toks = memo.get(msg)
        if toks is None:
            toks = memo[msg] = tuple(preprocess_message(msg, replace=replace))
        out.append(toks)
    return out


def strict_ga(pred: list, gt: list) -> float:
    """Strict grouping accuracy: a log counts when its predicted group and
    its true group contain exactly the same logs."""
    pair = Counter(zip(pred, gt))
    p_size, g_size = Counter(pred), Counter(gt)
    p_fan = Counter(p for p, _ in pair)
    g_fan = Counter(g for _, g in pair)
    ok = sum(c for (p, g), c in pair.items()
             if p_fan[p] == 1 and g_fan[g] == 1 and p_size[p] == g_size[g])
    return ok / len(pred) if pred else 1.0


def _template_fault(toks: tuple[str, ...], nid: int, model: ParserModel) -> str | None:
    if nid < 0 or nid >= len(model.nodes):
        return "no template (verdict -1 or unknown node id)"
    tmpl = model.nodes[nid].template
    if len(tmpl) != len(toks):
        return "template token count differs from the log's"
    if any(t != WILDCARD and t != x for t, x in zip(tmpl, toks)):
        return "template disagrees with the log at a non-wildcard position"
    return None


def _requery_fault(v: int, r: int, model: ParserModel, threshold: float) -> str | None:
    """``r`` must be the coarsest ancestor-or-self of ``v`` whose
    saturation meets ``threshold`` (``v`` itself when none does)."""
    nodes = model.nodes
    chain = [v]
    while nodes[chain[-1]].parent >= 0:
        chain.append(nodes[chain[-1]].parent)
    if r not in chain:
        return "requery verdict is not an ancestor of the match verdict"
    parent = nodes[r].parent
    if r != v and nodes[r].saturation < threshold:
        return "requery verdict is below the requested saturation"
    if parent >= 0 and nodes[parent].saturation >= threshold:
        return "requery verdict is not the coarsest qualifying ancestor"
    return None


class Gate:
    """Accumulates failures over every checked iteration of one run."""

    def __init__(self, tokens: list[tuple[str, ...]], labels: list | None):
        self.tokens = tokens
        self.labels = labels
        self.failed = np.zeros(len(tokens), dtype=bool)
        self.causes: Counter[str] = Counter()
        self.first_verdicts: list[int] | None = None
        self.ga: float | None = None

    @property
    def n(self) -> int:
        return len(self.tokens)

    def fail(self, idx, cause: str) -> None:
        idx = np.atleast_1d(np.asarray(idx, dtype=np.int64))
        new = idx[~self.failed[idx]]
        if len(new):
            self.failed[new] = True
            self.causes[cause] += len(new)

    def fail_all(self, cause: str) -> None:
        self.fail(np.arange(self.n), cause)

    def rows_to_verdicts(self, log_ids, template_ids) -> list[int]:
        """One verdict per input log from ``match_df`` output rows; a log
        with no row or with several rows fails."""
        seen = np.zeros(self.n, dtype=np.int64)
        verdicts = [-1] * self.n
        for lid, tid in zip(log_ids, template_ids):
            lid = int(lid)
            if not 0 <= lid < self.n:
                self.causes["output row for a log id not in the input"] += 1
                continue
            seen[lid] += 1
            verdicts[lid] = -1 if tid is None or tid != tid else int(tid)
        self.fail(np.flatnonzero(seen == 0), "no output row for the log")
        self.fail(np.flatnonzero(seen > 1), "more than one output row for the log")
        return verdicts

    def check(self, verdicts: list[int], model: ParserModel,
              requery: list[int], requery_threshold: float) -> None:
        """Verdict count, the equal-or-wildcard contract (§4.8), the query-
        time ancestor walk, determinism across iterations, and GA."""
        if len(verdicts) != self.n:
            self.fail_all(f"{len(verdicts)} verdicts for {self.n} logs")
            return
        seen: dict[tuple, str | None] = {}
        for i, (toks, v, r) in enumerate(zip(self.tokens, verdicts, requery)):
            key = (toks, v, r)
            if key not in seen:
                fault = _template_fault(toks, v, model)
                if fault is None:
                    fault = _requery_fault(v, r, model, requery_threshold)
                seen[key] = fault
            if seen[key] is not None:
                self.fail(i, seen[key])
        if self.first_verdicts is None:
            self.first_verdicts = list(verdicts)
        elif verdicts != self.first_verdicts:
            diff = [i for i, (a, b) in enumerate(zip(verdicts, self.first_verdicts)) if a != b]
            self.fail(diff, "verdict differs between iterations")
        if self.labels is not None:
            ga = strict_ga(verdicts, self.labels)
            if abs(ga - grouping_accuracy(verdicts, self.labels)) > 1e-9:
                self.fail_all("strict GA recomputed from the verdicts disagrees with repro.eval.ga")
            self.ga = ga

    def check_parity(self, verdicts: list[int], model: ParserModel,
                     ref_verdicts: list[int], ref_model: ParserModel) -> None:
        """The Spark path must give the sequential path's template bank and
        per-log verdicts on the same corpus."""
        if model.to_json() != ref_model.to_json():
            self.fail_all("Spark template bank differs from the sequential one")
        diff = [i for i, (a, b) in enumerate(zip(verdicts, ref_verdicts)) if a != b]
        self.fail(diff, "Spark verdict differs from the sequential verdict")

    @property
    def n_failed(self) -> int:
        return int(self.failed.sum())

    @property
    def correct(self) -> bool:
        return self.n_failed == 0 and not self.causes

    def report(self) -> str:
        frac = self.n_failed / self.n if self.n else 0.0
        line = f"gate: failed_frac={frac:.6g} ({self.n_failed} of {self.n} logs)"
        for cause, k in self.causes.most_common():
            line += f"\n  cause: {k} x {cause}"
        return line
