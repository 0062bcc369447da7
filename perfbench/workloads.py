"""Seeded inputs for the benchmark workloads.

Every workload is a training corpus plus a match stream. The program sees
only these message lists; the seed decides what they are.

* ``thunderbird-40k`` / ``hdfs-40k``: the
  LogHub-2.0-lite corpus of that dataset (a fixed dataset, like the real
  LogHub release), replayed in a seeded arrival order. Training and the
  stream use the same logs. The corpus itself does not follow the seed:
  re-rendering it per seed moves the trained tree far more than any code
  change would (HDFS: 88 to 590 nodes and 12 kB to 102 kB of model over
  render seeds 0-9; Thunderbird GA 0.59 to 0.98), which would drown every
  bound in sampling noise.
* ``web-drift``: training on 1 MiB of ``web-access-high`` (the fixed
  dataset, rendered at seed 0), then a stream of a fresh 1 MiB of it
  rendered at seed + 1, with one ``go-http-api`` line at a seeded offset
  in every 1,000 lines. Each drifted line comes from a different
  template, so each is unseen and creates one temporary template. With a
  per-seed training corpus the tree's depth, and with it ``requery_ms``,
  moved by up to 2x between seeds. At 2 MiB an iteration took about 11 s,
  so a run held two or three and its ``train_s`` median spread past the
  0.25 bound; at 1 MiB a run holds seven to twelve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.logs.corpus import LOGHUB2, loghub2_lite_size
from repro.logs.production import production_corpus
from repro.logs.synthgen import make_bank, render_corpus

#: workload name -> (generator, whether its traced run also replays the
#: training corpus through the Spark path)
WORKLOADS = {
    "thunderbird-40k": ("Thunderbird", True),
    "hdfs-40k": ("HDFS", False),
    "web-drift": ("web", False),
}

#: one drifted line per this many stream lines in ``web-drift``
DRIFT_EVERY = 1000
#: size of the ``web-drift`` training corpus and of its stream (MiB)
WEB_MB = 1.0


@dataclass
class Workload:
    name: str
    #: the traced run also replays the training corpus through Spark
    spark: bool
    train: list[str]
    stream: list[str]
    #: ground-truth template per stream log, or None when unlabelled
    labels: list[int] | None

    @property
    def stream_bytes(self) -> int:
        """Input bytes of the stream, one newline per log included."""
        return sum(len(m.encode("utf-8")) + 1 for m in self.stream)


def _loghub2(dataset: str, seed: int, scale: float) -> tuple[list[str], list[int]]:
    bank = make_bank(dataset + "-2.0", LOGHUB2[dataset][1], seed=0, pool_scale=1.0)
    n = max(1000, round(loghub2_lite_size(dataset) * scale))
    pdf = render_corpus(bank, n, seed=0)
    order = np.random.default_rng((seed, 0xA881)).permutation(n)
    msgs = pdf["message"].to_numpy()[order].tolist()
    return msgs, pdf["template_id"].to_numpy()[order].tolist()


def _web_drift(seed: int, scale: float) -> tuple[list[str], list[str]]:
    mb = WEB_MB * scale
    train = production_corpus("web-access-high", target_mb=mb, seed=0)["message"].tolist()
    web = production_corpus("web-access-high", target_mb=mb, seed=seed + 1)["message"].tolist()
    n_drift = max(1, len(web) // DRIFT_EVERY)
    rng = np.random.default_rng((seed, 0xD21F7))
    bank = make_bank("prod-go-http-api", 90, seed=0, pool_scale=0.8)
    tids = rng.choice(bank.n_templates, n_drift, replace=False)
    drift = [bank.templates[int(t)].render(rng) for t in tids]
    # Every 1,000-log match batch but the short last one carries exactly
    # one unseen line. A stream shorter than one batch (smoke tests) still
    # gets its line.
    offsets = rng.integers(0, min(DRIFT_EVERY, len(web) + 1), n_drift)
    at = {k * DRIFT_EVERY + int(o) for k, o in enumerate(offsets)}
    web_it, drift_it = iter(web), iter(drift)
    stream = [next(drift_it) if i in at else next(web_it) for i in range(len(web) + n_drift)]
    return train, stream


def make_workload(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build the inputs of workload ``name`` at ``seed``; ``scale`` shrinks
    them for smoke tests (1.0 is the benchmark size)."""
    source, spark = WORKLOADS[name]
    if source == "web":
        train, stream = _web_drift(seed, scale)
        return Workload(name, spark, train, stream, None)
    msgs, labels = _loghub2(source, seed, scale)
    return Workload(name, spark, msgs, msgs, labels)
