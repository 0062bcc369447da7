"""Saturation score (§4.5, Eq. 3).

Saturation measures how fully the token positions of a node's logs are
resolved into constants or variables, and it terminates hierarchical
clustering. Implementation notes (DESIGN.md §4):

* a position is resolved when all its tokens are identical (constant)
  or when it is a *likely variable*. Likely variables must (a) have ≥3
  distinct tokens, (b) be near-uniform in true (duplicate-weighted) log
  frequency — a template mixture is skewed by the Zipf law of template
  frequencies — and (c) be pairwise independent of every other
  candidate position: mixture "constants" are structurally correlated
  across positions (the paper's Fig.-5 Set-2 discussion), while genuine
  variables vary freely. A fully-distinct position over otherwise
  constant logs (Set 1) passes all three and yields saturation 1;
* resolved positions play the role of ``m_c`` in ``f_c`` and ``p_c``;
* ``f_v`` follows the printed formula, clamped into [0, 1].

Entry points:

* ``node_stats`` computes a node's per-position statistics in one pass;
  ``resolved_masks`` and ``eq3`` derive the resolved positions and the
  score from them. ``cluster.build_tree`` calls the three once per
  multi-log node and reuses the same statistics for the node's template
  and its §4.7 early stops.
* ``saturation`` chains the three for one matrix; the
  ensure-saturation-increase check in ``cluster.split_node`` and the
  tests use it.

``node_stats``, ``resolved_masks`` and ``saturation`` take an ``(n, m)``
matrix of non-negative integer codes for the node's *unique* logs (the
per-column codes of ``cluster.factorize``) plus the optional duplicate
multiplicities. Any such encoding that maps equal tokens to equal codes
gives identical results, since every statistic is distinctness/count
based; the pairwise-independence test keys a pair of codes ``(a, b)``
exactly as ``a * (max(b) + 1) + b``.
"""
from __future__ import annotations

import math

import numpy as np

from repro.core.config import ClusterConfig

#: uniformity bound for the likely-variable test: a non-constant
#: position with >=3 distinct tokens is a resolved variable when its
#: most frequent token covers at most ``uniformity * n / n_u`` logs,
#: i.e. the value distribution looks like an independent variable
#: rather than a skewed template mixture (the paper's Set-2
#: "structural correlation" argument, DESIGN.md §4).
VARIABLE_UNIFORMITY = 3.0
#: absolute cap on the top value's share for the likely-variable
#: test (the relative bound is vacuous when n_u <= uniformity): a
#: position dominated by one value is a skewed enum/mixture, not a
#: free variable, and should keep driving splits (Table 4 pinning).
VARIABLE_MAX_SHARE = 0.5
#: independence bound for the likely-variable test: two candidate
#: positions must produce at least ``independence * min(n_unique,
#: n_i * n_j)`` distinct value pairs, otherwise they are structurally
#: correlated (a template mixture) and neither is credited.
VARIABLE_INDEPENDENCE = 0.6


def node_stats(
    mat: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Per-position (distinct count, top-value weighted count) plus the
    duplicate-weighted log total for a node matrix."""
    n, m = mat.shape
    w = np.ones(n) if counts is None else counts.astype(np.float64)
    nu = np.empty(m, dtype=np.int64)
    topc = np.empty(m, dtype=np.float64)
    for i in range(m):
        _, inv = np.unique(mat[:, i], return_inverse=True)
        per_val = np.bincount(inv, weights=w)
        nu[i] = len(per_val)
        topc[i] = per_val.max()
    return nu, topc, float(w.sum())


def _independent(mat: np.ndarray, nu: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Pairwise-independence filter over candidate positions.

    Returns a boolean mask over ``cand``: a candidate survives only if,
    against every other candidate, the observed distinct-pair count
    reaches ``VARIABLE_INDEPENDENCE * min(n_unique, n_i * n_j)`` —
    correlated mixture columns produce far fewer distinct pairs than
    independent variables.
    """
    n = mat.shape[0]
    k = len(cand)
    ok = np.ones(k, dtype=bool)
    cols = [mat[:, int(i)].astype(np.int64) for i in cand]
    for a in range(k):
        for b in range(a + 1, k):
            d = len(np.unique(cols[a] * (int(cols[b].max()) + 1) + cols[b]))
            if d < VARIABLE_INDEPENDENCE * min(n, int(nu[cand[a]]) * int(nu[cand[b]])):
                ok[a] = ok[b] = False
    return ok


def resolved_masks(
    mat: np.ndarray,
    cfg: ClusterConfig,
    stats: tuple[np.ndarray, np.ndarray, float],
) -> tuple[np.ndarray, np.ndarray]:
    """(constant_mask, likely_variable_mask) per position, given the
    node's ``node_stats``."""
    nu, topc, n_w = stats
    const = nu == 1
    m = len(nu)
    if not cfg.variable_credit or n_w <= 1:
        return const, np.zeros(m, dtype=bool)
    bound = np.minimum(
        np.ceil(VARIABLE_UNIFORMITY * n_w / np.maximum(nu, 1)),
        np.maximum(1.0, VARIABLE_MAX_SHARE * n_w),
    )
    # A binary position is indistinguishable from a two-template
    # mixture by these statistics, hence the >=3 floor.
    cand = np.flatnonzero((~const) & (nu >= 3) & (topc <= bound))
    var = np.zeros(m, dtype=bool)
    if len(cand):
        var[cand[_independent(mat, nu, cand)]] = True
    return const, var


def eq3(nu: np.ndarray, n_w: float, unresolved: np.ndarray, cfg: ClusterConfig) -> float:
    """Eq. 3 with resolved-variable credit, from a node's per-position
    distinct counts ``nu``, its duplicate-weighted log total ``n_w`` and
    the indices of its unresolved positions: 1.0 when every position is
    resolved, strictly below 1.0 otherwise."""
    m = len(nu)
    m_r = m - len(unresolved)
    if m_r == m:
        return 1.0
    f_c = m_r / m
    if not cfg.variable_credit:
        # Ablation "w/o variable in saturation": s(C) = f_c.
        return f_c
    log_n = math.log(max(n_w, 2.0))
    f_v = min(
        min(max((math.log(int(u)) - 1.0) / log_n, 0.0), 1.0)
        for u in nu[unresolved]
    )
    if not cfg.confidence_factor:
        # Ablation "w/o confidence factor": s(C) = f_v * f_c.
        return f_v * f_c
    p_c = 1.0 / (2 * m - m_r - 1)
    return (f_v * p_c + (1.0 - p_c)) * f_c


def saturation(
    mat: np.ndarray, cfg: ClusterConfig, counts: np.ndarray | None = None
) -> float:
    """Eq. 3 of one node matrix; 1.0 for singletons."""
    if mat.shape[0] <= 1:
        return 1.0
    stats = node_stats(mat, counts)
    const, var = resolved_masks(mat, cfg, stats)
    return eq3(stats[0], stats[2], np.flatnonzero(~(const | var)), cfg)
