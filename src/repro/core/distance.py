"""Positional similarity distance (§4.4, Eq. 2).

Eq. 2 combines, per position, the frequency of the log's token within
the cluster (weighted by duplicate counts) and a position-importance
weight ``w_i = 1/(n_i - 1)`` that discounts high-variability positions.
Its value grows with similarity, and the paper assigns each log to the
cluster of "smallest distance (i.e., the highest positional
similarity)" — we therefore treat Eq. 2 as a similarity and assign to
the argmax (DESIGN.md §4). Constant positions (``n_i = 1``) get the
finite cap ``W_CONST`` instead of the paper's infinite weight.

``similarity_matrix_codes`` computes it over the per-column dense codes
that ``cluster.factorize`` derives from a group's token strings; the
tests keep a reference implementation over raw 64-bit token hashes and
assert the two equal.
"""
from __future__ import annotations

import numpy as np

from repro.core.config import ClusterConfig

#: weight for fully-constant positions, whose paper weight 1/(n_i-1)
#: is infinite (DESIGN.md §4 deviation).
W_CONST = 2.0


def similarity_matrix_codes(
    codes: np.ndarray,
    vocab: np.ndarray,
    counts: np.ndarray,
    clusters: list[np.ndarray],
    cfg: ClusterConfig,
) -> np.ndarray:
    """(n, k) Eq.-2 similarity over factorized codes.

    ``codes``: (n, m) int32 with ``codes[:, i]`` in [0, vocab[i]);
    ``clusters``: row-index arrays. One ``bincount`` per (cluster,
    position) replaces a per-position ``np.unique``.
    """
    n, m = codes.shape
    k = len(clusters)
    sims = np.empty((n, k), dtype=np.float64)
    for j, member in enumerate(clusters):
        w_cnt = counts[member].astype(np.float64)
        total = w_cnt.sum()
        weights = np.empty(m, dtype=np.float64)
        acc = np.zeros(n, dtype=np.float64)
        sub = codes[member]
        for i in range(m):
            per_val = np.bincount(sub[:, i], weights=w_cnt, minlength=int(vocab[i]))
            n_i = int(np.count_nonzero(per_val))
            if cfg.position_importance:
                weights[i] = W_CONST if n_i <= 1 else 1.0 / (n_i - 1)
            else:
                weights[i] = 1.0
            acc += weights[i] * per_val[codes[:, i]]
        sims[:, j] = acc / (total * weights.sum())
    return sims
