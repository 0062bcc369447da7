"""Configuration for training, clustering and matching.

Every §5.4 ablation variant in the paper maps to one flag here:

=============================  =========================================
paper variant                  flag
=============================  =========================================
w/ naive match                 ``ParserConfig.naive_match``
w/o position importance        ``ClusterConfig.position_importance=False``
w/o variable in saturation     ``ClusterConfig.variable_credit=False``
w/o confidence factor          ``ClusterConfig.confidence_factor=False``
random centroid selection      ``ClusterConfig.kmeanspp=False``
w/o ensure saturation increase ``ClusterConfig.ensure_sat_increase=False``
w/o balanced group             ``ClusterConfig.balanced=False``
w/o early stopping             ``ClusterConfig.early_stop=False``
w/o deduplication & related    ``ParserConfig.dedup=False`` (dedup alone:
                               balanced grouping and early stopping stay
                               on; ablate them with their own flags)
=============================  =========================================

``naive_match`` is honoured by the sequential path only
(``train_model_sequential`` / ``match_sequential``); the Spark
``train_model`` and ``match_df`` reject it rather than silently measure
text matching under its label.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ClusterConfig:
    """Switches for the hierarchical clustering kernel (§4.3–§4.7): the
    seven cluster-level §5.4 ablation flags plus the RNG seed. The
    kernel's numeric bounds are module constants next to their readers:
    ``distance.W_CONST``; ``saturation.VARIABLE_UNIFORMITY``,
    ``VARIABLE_MAX_SHARE`` and ``VARIABLE_INDEPENDENCE``;
    ``cluster.SAT_TARGET``, ``MAX_ITERS`` and ``MAX_CLUSTERS``."""

    #: weight positions by 1/(n_i - 1) in Eq. 2 (w_i = 1 when off).
    position_importance: bool = True
    #: count high-variability positions as resolved variables in Eq. 3.
    variable_credit: bool = True
    #: apply the paper's confidence factor p_c in Eq. 3.
    confidence_factor: bool = True
    #: K-Means++-style initial/new centroid selection (farthest log).
    kmeanspp: bool = True
    #: keep adding clusters until every child improves on the parent.
    ensure_sat_increase: bool = True
    #: break distance ties uniformly at random (§4.6).
    balanced: bool = True
    #: §4.7 early-stop shortcuts.
    early_stop: bool = True
    #: RNG seed (combined with the group key for per-group streams).
    seed: int = 0


@dataclass(frozen=True)
class ParserConfig:
    """End-to-end parser configuration (preprocess + train + match)."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    #: first-k-token prefix for initial grouping (§4.2; paper default 0).
    prefix_k: int = 0
    #: deduplicate identical token sequences before clustering (§4.1.3).
    dedup: bool = True
    #: apply the built-in common-variable regexes (§4.1.2).
    replace_variables: bool = True
    #: assign training logs the template of the tree node they landed in
    #: instead of re-matching against template texts ("w/ naive match").
    naive_match: bool = False
    #: default query-time saturation threshold (§5.5.1 sweeps this; 0.8
    #: sits on the stable plateau of our sensitivity sweep).
    query_threshold: float = 0.8
    #: cap on unique logs per initial group fed to clustering (the
    #: paper's random-sampling OOM guard; generous default).
    max_unique_per_group: int = 50_000

    def ablate(self, **kw) -> "ParserConfig":
        """Return a copy with cluster- or parser-level fields replaced."""
        ckw = {k: v for k, v in kw.items() if hasattr(ClusterConfig, k)}
        pkw = {k: v for k, v in kw.items() if k not in ckw}
        cfg = replace(self, cluster=replace(self.cluster, **ckw)) if ckw else self
        return replace(cfg, **pkw) if pkw else cfg
