"""Golden digests of sequential training output.

Each digest pins the full node list of a sequentially trained model —
``(parent, template, saturation, n_logs, depth, group_key)`` per node —
so a refactor of the token representation, the clustering kernel or
the model format cannot change a tree by even one bit without failing
here. The digest covers node tuples, not ``to_json()`` text, so the
serialization format may change while the trees stay pinned.
"""
import hashlib

import pytest

from repro.core import ParserConfig, train_model_sequential
from repro.logs import loghub_lite

GOLDEN = {
    ("HDFS", 0): "5230c56ea4f181b5",
    ("HDFS", 1): "832f7309cba8bf4d",
    ("HDFS", 2): "557bc2ac8661b286",
    ("Zookeeper", 0): "ad661275485972b6",
    ("Zookeeper", 1): "dd360a6476074c8d",
    ("Zookeeper", 2): "211c3e712f1da82a",
    ("Apache", 0): "125af8e5b08b3121",
    ("Apache", 1): "31f80d8a532e89a3",
    ("Apache", 2): "89849c72acf65fa4",
}
GOLDEN_NAIVE = ("ad661275485972b6", "cbab8e32368b61ab")


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode("utf-8")).hexdigest()[:16]


def node_digest(model) -> str:
    return _digest(
        (nd.parent, nd.template, nd.saturation, nd.n_logs, nd.depth, nd.group_key)
        for nd in model.nodes
    )


def assignment_digest(model) -> str:
    return _digest(sorted(model.train_assignment.items()))


@pytest.mark.parametrize("prefix_k", [0, 1, 2])
@pytest.mark.parametrize("dataset", ["HDFS", "Zookeeper", "Apache"])
def test_sequential_tree_digest(dataset, prefix_k):
    pdf, _ = loghub_lite(dataset)
    model = train_model_sequential(pdf["message"].tolist(), ParserConfig(prefix_k=prefix_k))
    assert node_digest(model) == GOLDEN[(dataset, prefix_k)]


def test_naive_match_digest():
    pdf, _ = loghub_lite("Zookeeper")
    model = train_model_sequential(pdf["message"].tolist(), ParserConfig(naive_match=True))
    assert (node_digest(model), assignment_digest(model)) == GOLDEN_NAIVE
