"""Hierarchical clustering (§4.3) and the single clustering process (§4.4).

One *single clustering process* splits a node's unique logs into ≥2
clusters with a K-Means-like loop over the Eq.-2 positional similarity:
K-Means++-style seeding (random first centre, farthest log second),
iterative reassignment with balanced tie-breaking (§4.6), and cluster
injection whenever a converged cluster fails to improve the parent's
saturation (§4.4 "ensure saturation increase"). Early-stop shortcuts
(§4.7) skip the loop entirely for trivial nodes.

The kernel realizes §4.1.4's fixed-width token encoding by factorizing
the group's token strings once into per-column dense integer codes:
Eq.-2 frequencies reduce to ``bincount`` over the code vocabulary, and
the saturation statistics operate on the code matrix directly. Every
decision depends only on which tokens are equal, never on code values,
so the trees do not depend on how codes are numbered.

``build_tree`` applies the process recursively until every node reaches
the saturation target, producing the template tree rows that
``ParserModel`` assembles. It computes each multi-log node's statistics
once (``node_stats`` + ``resolved_masks``) and derives everything the
node needs from them: its template (the ``nu == 1`` positions), its
Eq.-3 saturation, and the distinct counts and unresolved positions that
``split_node`` hands to the early stops. A singleton node computes no
statistics: its template is its tokens and its saturation is 1.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ClusterConfig
from repro.core.distance import similarity_matrix_codes
from repro.core.saturation import eq3, node_stats, resolved_masks, saturation

_EPS = 1e-12
#: stop refining a node once its saturation reaches this value.
SAT_TARGET = 1.0 - 1e-9
#: max refinement iterations inside one single-clustering process.
MAX_ITERS = 12
#: hard cap on clusters created by one split (safety bound; the
#: paper's bound is the number of token positions).
MAX_CLUSTERS = 64


def factorize(texts: list[tuple[str, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """Equal-length token tuples -> (codes, vocab): per-column dense
    integer codes, numbered in order of first appearance."""
    m = len(texts[0])
    codes = np.empty((len(texts), m), dtype=np.int32)
    vocab = np.empty(m, dtype=np.int64)
    for i, col in enumerate(zip(*texts)):
        ids: dict[str, int] = {}
        codes[:, i] = [ids.setdefault(t, len(ids)) for t in col]
        vocab[i] = len(ids)
    return codes, vocab


def _assign(sims: np.ndarray, rng: np.random.Generator, balanced: bool) -> np.ndarray:
    """Cluster index per log: argmax similarity, ties broken uniformly
    at random when ``balanced`` (§4.6), else first-cluster-wins."""
    mx = sims.max(axis=1, keepdims=True)
    ties = sims >= mx - _EPS
    if not balanced:
        return ties.argmax(axis=1)
    noise = rng.random(sims.shape)
    return np.where(ties, noise, -1.0).argmax(axis=1)


def _early_split(
    codes: np.ndarray,
    rows: np.ndarray,
    nu: np.ndarray,
    unresolved: np.ndarray,
) -> list[np.ndarray] | None:
    """§4.7 early stops, on node-relative indices, from the node's
    per-position distinct counts ``nu`` and unresolved positions.
    Returns a partition (list of relative row-index arrays) or None when
    the full clustering process is required."""
    n = len(rows)
    if n == 2:
        return [np.array([0]), np.array([1])]
    if len(unresolved) == 1:
        # Single unresolved position: split directly by its values.
        # Children ordered by first row so the split is independent of
        # how the codes are numbered.
        p = int(unresolved[0])
        vals, inv = np.unique(codes[rows, p], return_inverse=True)
        if len(vals) < 2:
            return None
        children = [np.flatnonzero(inv == j) for j in range(len(vals))]
        return sorted(children, key=lambda c: int(c[0]))
    if len(unresolved) > 1 and bool((nu[unresolved] >= n).all()):
        # Completely distinct unresolved positions: each log separate.
        return [np.array([i]) for i in range(n)]
    return None


def split_node(
    codes: np.ndarray,
    vocab: np.ndarray,
    counts: np.ndarray,
    rows: np.ndarray,
    parent_sat: float,
    nu: np.ndarray,
    unresolved: np.ndarray,
    cfg: ClusterConfig,
    rng: np.random.Generator,
) -> list[np.ndarray] | None:
    """One single clustering process on ``rows`` of the node, whose
    saturation is ``parent_sat``, per-position distinct counts ``nu`` and
    unresolved positions ``unresolved`` (from ``build_tree``'s one
    statistics pass over the node).

    Returns the partition as absolute row-index arrays, or None when the
    node cannot (or need not) be split further.
    """
    n = len(rows)
    if n <= 1:
        return None
    if cfg.early_stop:
        early = _early_split(codes, rows, nu, unresolved)
        if early is not None:
            return [rows[c] for c in early] if len(early) > 1 else None

    sub = codes[rows]
    cnt = counts[rows].astype(np.float64)

    def sims_for(clusters: list[np.ndarray]) -> np.ndarray:
        return similarity_matrix_codes(sub, vocab, counts[rows], clusters, cfg)

    # --- K-Means++-like seeding (§4.4) -------------------------------
    if cfg.kmeanspp:
        c0 = int(rng.choice(n, p=cnt / cnt.sum()))
        s0 = sims_for([np.array([c0])])[:, 0]
        s0[c0] = np.inf
        c1 = int(s0.argmin())
    else:
        c0, c1 = map(int, rng.choice(n, size=2, replace=False))
    clusters = [np.array([c0]), np.array([c1])]

    prev_assign: np.ndarray | None = None
    sims = sims_for(clusters)
    for _ in range(MAX_ITERS):
        assign = _assign(sims, rng, cfg.balanced)
        clusters = [c for j in range(sims.shape[1]) if len(c := np.flatnonzero(assign == j))]
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            if not cfg.ensure_sat_increase or len(clusters) >= min(n, MAX_CLUSTERS):
                break
            # Converged: inject a new cluster if some multi-log cluster
            # failed to improve on the parent's saturation (§4.4).
            bad = [
                c for c in clusters
                if len(c) > 1
                and saturation(codes[rows[c]], cfg, counts[rows[c]])
                <= parent_sat + _EPS
            ]
            if not bad:
                break
            pool = np.concatenate(bad)
            if cfg.kmeanspp:
                worst = pool[sims[pool].max(axis=1).argmin()]
            else:
                worst = rng.choice(pool)
            clusters.append(np.array([int(worst)]))
            prev_assign = None  # force another reassignment round
        else:
            prev_assign = assign
        sims = sims_for(clusters)
    if len(clusters) < 2:
        return None
    # Deterministic child order regardless of centroid history.
    return [rows[c] for c in sorted(clusters, key=lambda c: int(c[0]))]


@dataclass
class TreeRow:
    """One clustering-tree node produced by ``build_tree``."""

    idx: int
    parent: int  # -1 for the group root
    template: tuple[str, ...]
    saturation: float
    n_logs: int
    n_unique: int
    depth: int
    rows: np.ndarray  # unique-log indices (training assignment)


def build_tree(
    counts: np.ndarray,
    texts: list[tuple[str, ...]],
    cfg: ClusterConfig,
    rng: np.random.Generator,
    wildcard: str = "*",
) -> list[TreeRow]:
    """Hierarchically cluster one initial group into a template tree.

    ``counts``: duplicate count per unique log; ``texts``: the unique
    logs' token tuples, all of one length. Node saturations are clamped
    to be non-decreasing along root→leaf paths so query-time ancestor
    walks are well-defined.
    """
    codes, vocab = factorize(texts)
    out: list[TreeRow] = []
    stack: list[tuple[np.ndarray, int]] = [(np.arange(len(texts)), -1)]
    while stack:
        rows, parent = stack.pop()
        first = texts[int(rows[0])]
        if len(rows) == 1:
            template, sat = first, 1.0
        else:
            sub = codes[rows]
            stats = node_stats(sub, counts[rows])
            nu = stats[0]
            const, var = resolved_masks(sub, cfg, stats)
            unresolved = np.flatnonzero(~(const | var))
            sat = eq3(nu, stats[2], unresolved, cfg)
            template = tuple(first[i] if nu[i] == 1 else wildcard for i in range(len(nu)))
        if parent >= 0:
            sat = max(sat, out[parent].saturation)  # monotone down the tree
        idx = len(out)
        out.append(
            TreeRow(
                idx=idx,
                parent=parent,
                template=template,
                saturation=float(sat),
                n_logs=int(counts[rows].sum()),
                n_unique=len(rows),
                depth=0 if parent < 0 else out[parent].depth + 1,
                rows=rows,
            )
        )
        if sat >= SAT_TARGET:  # singletons included: their saturation is 1
            continue
        children = split_node(codes, vocab, counts, rows, sat, nu, unresolved, cfg, rng)
        if children is None:
            continue
        for child in children:
            stack.append((child, idx))
    return out
