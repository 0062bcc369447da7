"""§5.4 ablation variants: every paper variant maps to a config flag
and changes behaviour in the direction the paper reports."""
from dataclasses import fields

import pytest

from repro.core import ParserConfig, match_sequential, train, train_model_sequential
from repro.core.config import ClusterConfig
from repro.eval.ga import grouping_accuracy
from repro.logs import loghub_lite


@pytest.fixture(scope="module")
def corpus():
    pdf, _ = loghub_lite("Zookeeper")
    return pdf


def ga_with(pdf, cfg: ParserConfig) -> float:
    msgs = pdf["message"].tolist()
    model = train_model_sequential(msgs, cfg)
    nids = match_sequential(msgs, model, cfg, threshold=cfg.query_threshold)
    return grouping_accuracy(nids, pdf["template_id"].tolist())


class TestAblationFlags:
    def test_ablate_helper_routes_fields(self):
        cfg = ParserConfig().ablate(balanced=False, dedup=False)
        assert cfg.cluster.balanced is False
        assert cfg.dedup is False

    def test_cluster_config_is_ablation_flags_and_seed(self):
        """The kernel's numeric bounds are module constants; the config
        holds only the cluster-level §5.4 switches and the seed."""
        assert [f.name for f in fields(ClusterConfig)] == [
            "position_importance", "variable_credit", "confidence_factor", "kmeanspp",
            "ensure_sat_increase", "balanced", "early_stop", "seed",
        ]

    def test_full_config_beats_no_variable_saturation(self, corpus):
        full = ga_with(corpus, ParserConfig())
        ablated = ga_with(corpus, ParserConfig().ablate(variable_credit=False))
        assert full >= ablated

    def test_no_position_importance_changes_results(self, corpus):
        full = ga_with(corpus, ParserConfig())
        ablated = ga_with(corpus, ParserConfig().ablate(position_importance=False))
        assert full >= ablated - 0.1  # paper: small but consistent gain

    def test_random_centroid_not_better(self, corpus):
        full = ga_with(corpus, ParserConfig())
        ablated = ga_with(corpus, ParserConfig().ablate(kmeanspp=False))
        assert full >= ablated - 0.05

    def test_no_confidence_factor_runs(self, corpus):
        assert 0.0 <= ga_with(corpus, ParserConfig().ablate(confidence_factor=False)) <= 1.0

    def test_no_early_stop_same_ballpark_slower(self, corpus):
        import time

        msgs = corpus["message"].tolist()
        t0 = time.perf_counter()
        train_model_sequential(msgs, ParserConfig())
        fast = time.perf_counter() - t0
        t0 = time.perf_counter()
        train_model_sequential(msgs, ParserConfig().ablate(early_stop=False))
        slow = time.perf_counter() - t0
        # Early stop must not be a slowdown (paper: it is a speedup).
        assert slow >= 0.5 * fast

    def test_no_dedup_clusters_every_log(self, corpus, monkeypatch):
        """§5.4.3: dedup shrinks the clustering input to the unique logs
        (1,290 of Zookeeper-lite's 2,000); without it the kernel gets
        every log. Wall time is left to benchmarks/test_bench_ablation.py."""
        rows = []
        build_tree = train.build_tree

        def counting(counts, *a, **k):
            rows.append(len(counts))
            return build_tree(counts, *a, **k)

        monkeypatch.setattr(train, "build_tree", counting)
        msgs = corpus["message"].tolist()
        train_model_sequential(msgs, ParserConfig())
        with_dedup = sum(rows)
        rows.clear()
        train_model_sequential(msgs, ParserConfig().ablate(dedup=False))
        assert (with_dedup, sum(rows)) == (1290, 2000)

    def test_no_balanced_group_runs(self, corpus):
        assert 0.0 <= ga_with(corpus, ParserConfig().ablate(balanced=False)) <= 1.0

    def test_no_ensure_sat_increase_runs(self, corpus):
        assert 0.0 <= ga_with(corpus, ParserConfig().ablate(ensure_sat_increase=False)) <= 1.0
