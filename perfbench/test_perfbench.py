"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -p no:cacheprovider

Smoke runs of every workload at 5% of the benchmark's input size check
that each metric BENCHMARK.json names is printed with its unit; the gate
must trip on corrupted verdicts; a traced iteration must leave no wrapper
behind.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import layers  # noqa: E402
import phases  # noqa: E402
import spans  # noqa: E402
from repro.core.config import ParserConfig  # noqa: E402
from repro.core.model import ParserModel  # noqa: E402
from workloads import make_workload  # noqa: E402

SMOKE_SCALE = "0.05"


def installed_wrappers(classes=()) -> list[str]:
    """Every binding in ``repro`` modules (and in ``classes``) that is still
    a span wrapper."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("repro"):
            continue
        found += [f"{mod_name}.{k}" for k, v in vars(mod).items() if hasattr(v, spans.MARK)]
    for cls in classes:
        found += [f"{cls.__qualname__}.{k}" for k, v in vars(cls).items()
                  if hasattr(getattr(v, "__func__", v), spans.MARK)]
    return found


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    p = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
              "--trace", str(trace), "--scale", SMOKE_SCALE])
    assert p.returncode == 0, p.stderr[-3000:]
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] > 0
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
    if trace == 0:
        assert all(v["value"] > 0 for v in res["metrics"].values())
    else:
        assert "tracing overhead:" in p.stdout


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run(["--workload", "hdfs-40k", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout == ""


@pytest.fixture(scope="module")
def small_run():
    wl = make_workload("hdfs-40k", 0, 0.05)
    it = phases.sequential(wl.train, wl.stream, ParserConfig(), 1)
    return wl, it


def _gate(wl) -> gate.Gate:
    return gate.Gate(gate.stream_tokens(wl.stream), wl.labels)


def test_gate_passes_true_verdicts(small_run):
    wl, it = small_run
    g = _gate(wl)
    g.check(it.verdicts, it.served, it.requery, phases.REQUERY_THRESHOLD)
    assert g.correct and g.n_failed == 0
    assert g.ga == pytest.approx(gate.strict_ga(it.verdicts, wl.labels))


def test_gate_trips_on_a_corrupted_verdict(small_run):
    wl, it = small_run
    g = _gate(wl)
    wrong = next(nd.nid for nd in it.served.nodes
                 if gate._template_fault(g.tokens[0], nd.nid, it.served) is not None)
    bad = [wrong] + it.verdicts[1:]
    g.check(bad, it.served, it.requery, phases.REQUERY_THRESHOLD)
    assert not g.correct and g.n_failed == 1
    assert "1 of" in g.report()


def test_gate_trips_on_missing_verdicts_and_bad_requery(small_run):
    wl, it = small_run
    g = _gate(wl)
    g.check(it.verdicts[:-1], it.served, it.requery, phases.REQUERY_THRESHOLD)
    assert g.n_failed == g.n
    g = _gate(wl)
    verdicts = [-1] + it.verdicts[1:]
    requery = list(it.requery)
    leaf = next(i for i, v in enumerate(it.verdicts) if it.served.nodes[v].parent >= 0
                and it.requery[i] != v)
    requery[leaf] = it.verdicts[leaf]  # not the coarsest qualifying ancestor
    g.check(verdicts, it.served, requery, phases.REQUERY_THRESHOLD)
    assert g.n_failed == 2


def test_gate_counts_spark_rows_per_log(small_run):
    wl, it = small_run
    g = _gate(wl)
    ids = list(range(g.n))
    tids = list(it.verdicts)
    ids[5] = 4  # log 4 gets two rows, log 5 none
    verdicts = g.rows_to_verdicts(ids, tids)
    assert g.n_failed == 2 and verdicts[5] == -1


def test_gate_parity_fails_every_log_on_a_different_bank(small_run):
    wl, it = small_run
    g = _gate(wl)
    other = ParserModel.from_json(it.trained.to_json())
    other.nodes[0].saturation = 0.123
    g.check_parity(it.verdicts, it.trained, it.verdicts, other)
    assert g.n_failed == g.n


def test_traced_iteration_leaves_no_wrapper_installed(small_run):
    wl, _ = small_run
    from repro.core import cluster, saturation, train

    originals = (cluster.node_stats, saturation.node_stats, train.build_tree,
                 ParserModel.__dict__["from_json"], ParserModel.__dict__["match_tokens"])
    rec = spans.SpanRecorder("test")
    with layers.tracer(rec):
        assert installed_wrappers([ParserModel])
        assert cluster.node_stats is saturation.node_stats is not originals[0]
        it = phases.sequential(wl.train, wl.stream, ParserConfig(), 1, rec)
    assert installed_wrappers([ParserModel]) == []
    assert (cluster.node_stats, saturation.node_stats, train.build_tree,
            ParserModel.__dict__["from_json"], ParserModel.__dict__["match_tokens"]) == originals
    names = set(rec.names)
    for layer in ("tokenizer", "train", "model", "cluster", "saturation", "distance", "match"):
        assert any(n.startswith(layer + ".") for n in names), layer
    m = layers.span_metrics(rec)
    assert m["model.match_tokens.calls"] > 0 and m["cluster.split_node.calls"] > 0
    assert m["trace.wall_s"] == pytest.approx(it.wall_s, rel=0.05)
    assert sum(rec.self_times()) == pytest.approx(m["trace.wall_s"])


def test_tracer_restores_after_an_exception():
    rec = spans.SpanRecorder("test")
    with pytest.raises(RuntimeError):
        with layers.tracer(rec):
            raise RuntimeError("boom")
    assert installed_wrappers([ParserModel]) == []


def test_benchmark_json_matches_the_code():
    import bench

    assert [m["name"] for m in SPEC["end_to_end"]] == list(bench.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.PER_LAYER)
