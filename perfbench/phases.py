"""One measured iteration: train, serialize, then the match phase with its
re-query.

The match phase is a closed-loop replay from one process: the stream is
cut into ``BATCH``-log batches and each batch is one call that waits for
its verdicts before the next is sent. It starts by loading a model fresh
from the trained model's JSON, so temporary templates accumulate across
the batches of this iteration only, as in a service after a retrain, and
the lazy match-index build is paid inside the phase.

Right after each batch, outside the batch's and the phase's time, the
batch's verdicts are resolved again to ``REQUERY_THRESHOLD``; the
re-query time of the stream is the sum over batches. Slicing it this way
spreads its samples over the whole match phase: timed in one block of a
few milliseconds, it swung by 1.6x with the host's cache contention.
Temporary templates are roots, so later batches cannot change an earlier
batch's re-query.

Library functions are called through their modules (``core_train.f``,
not ``from ... import f``) so the traced run's wrappers are seen.
"""
from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

from repro.core import match as core_match
from repro.core import train as core_train
from repro.core.config import ParserConfig
from repro.core.model import ParserModel

BATCH = 1000
#: second query-time threshold the re-query phase resolves to (§3)
REQUERY_THRESHOLD = 0.5


@dataclass
class Iteration:
    train_s: float
    match_s: float
    batch_ms: list[float]
    #: time to re-resolve every verdict of the stream (ms)
    requery_ms: float
    model_bytes: int
    wall_s: float
    trained: ParserModel | None
    #: the model the stream was matched against, temporary templates included
    served: ParserModel | None
    verdicts: list[int]
    requery: list[int]

    def release(self) -> None:
        """Drop the models and verdicts once checked; keep the timings."""
        self.trained = self.served = None
        self.verdicts, self.requery = [], []


def _spans(rec):
    return rec.span if rec is not None else (lambda name: contextlib.nullcontext())


def requery(model: ParserModel, verdicts: list[int], reps: int) -> tuple[list[int], float]:
    """Resolve every verdict to ``REQUERY_THRESHOLD`` with no re-matching;
    returns the new verdicts and the median wall time of ``reps``
    repetitions (ms)."""
    times, out = [], []
    for _ in range(reps):
        t0 = perf_counter()
        out = [model.ancestor_at(v, REQUERY_THRESHOLD) if v >= 0 else v for v in verdicts]
        times.append((perf_counter() - t0) * 1e3)
    return out, statistics.median(times)


def sequential(train_msgs: list[str], stream: list[str], cfg: ParserConfig,
               requery_reps: int, rec=None) -> Iteration:
    span = _spans(rec)
    w0 = perf_counter()
    with span("bench.iteration"):
        with span("bench.train"):
            t0 = perf_counter()
            trained = core_train.train_model_sequential(train_msgs, cfg)
            train_s = perf_counter() - t0
        with span("bench.serialize"):
            blob = trained.to_json()
        with span("bench.match"):
            t0 = perf_counter()
            served = ParserModel.from_json(blob)
            verdicts: list[int] = []
            again: list[int] = []
            batch_ms = []
            requery_ms = requery_s = 0.0
            for i in range(0, len(stream), BATCH):
                b0 = perf_counter()
                got = core_match.match_sequential(
                    stream[i:i + BATCH], served, cfg, threshold=cfg.query_threshold)
                b1 = perf_counter()
                batch_ms.append((b1 - b0) * 1e3)
                verdicts += got
                with span("bench.requery"):
                    out, ms = requery(served, got, requery_reps)
                again += out
                requery_ms += ms
                requery_s += perf_counter() - b1
            match_s = perf_counter() - t0 - requery_s
    return Iteration(train_s, match_s, batch_ms, requery_ms, len(blob), perf_counter() - w0,
                     trained, served, verdicts, again)


@dataclass
class SparkPass:
    train_s: float
    match_s: float
    trained: ParserModel
    #: ``match_df`` output columns, one entry per output row
    rows: tuple[list, list]


def spark(session, df, cfg: ParserConfig, rec=None) -> SparkPass:
    """``train_model`` on the cached input, then one ``match_df`` over all
    of it, collected to the driver, against a model loaded fresh from the
    trained model's JSON."""
    span = _spans(rec)
    with span("bench.spark"):
        with span("bench.train"):
            t0 = perf_counter()
            trained = core_train.train_model(session, df, cfg=cfg)
            train_s = perf_counter() - t0
        with span("bench.match"):
            t0 = perf_counter()
            served = ParserModel.from_json(trained.to_json())
            with span("match.match_df"):
                out = core_match.match_df(session, df, served, cfg,
                                          threshold=cfg.query_threshold).toPandas()
            match_s = perf_counter() - t0
    return SparkPass(train_s, match_s, trained, (out["log_id"].tolist(), out["template_id"].tolist()))
