"""Spark pipeline integration: Catalyst preprocessing, applyInPandas
training, mapInPandas matching — asserted equal to the sequential path
and oracle-checked where a SQL equivalent exists."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core import ParserConfig, match_df, match_sequential, train_model, train_model_sequential
from repro.core.match import add_unmatched_df
from repro.core.model import ParserModel
from repro.core.train import preprocess_df
from repro.logs import loghub_lite
from repro.logs.corpus import to_spark
from repro.oracle import assert_equivalent


@pytest.fixture(scope="module")
def corpus(spark):
    pdf, bank = loghub_lite("HDFS")
    return to_spark(spark, pdf).cache(), pdf


class TestPreprocessDF:
    def test_dedup_counts_against_duckdb(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        pre = preprocess_df(df, "message", cfg)
        agg = (
            pre.withColumn("tok_key", F.concat_ws("␟", "tokens"))
            .groupBy("n_tokens")
            .agg(F.count(F.lit(1)).alias("n"), F.countDistinct("tok_key").alias("uniq"))
        )
        # DuckDB reference over the pure-Python preprocessing.
        from repro.core.tokenizer import preprocess_message

        rows = []
        for m in pdf["message"]:
            toks = preprocess_message(m)
            if toks:
                rows.append({"n_tokens": len(toks), "tok_key": "␟".join(toks)})
        ref = pd.DataFrame(rows)
        assert_equivalent(
            agg,
            "SELECT n_tokens, COUNT(*) AS n, COUNT(DISTINCT tok_key) AS uniq "
            "FROM ref GROUP BY 1",
            ref=ref,
        )

    def test_empty_token_rows_dropped(self, spark):
        df = spark.createDataFrame(pd.DataFrame({"message": ["a b", " ,; "]}))
        pre = preprocess_df(df, "message", ParserConfig())
        assert pre.count() == 1


class TestTrainParity:
    @staticmethod
    def assert_parity(spark, dataset, cfg):
        pdf, _ = loghub_lite(dataset)
        m_spark = train_model(spark, to_spark(spark, pdf), cfg=cfg)
        m_seq = train_model_sequential(pdf["message"].tolist(), cfg)
        assert m_spark.to_json() == m_seq.to_json()

    @pytest.mark.parametrize("prefix_k", [0, 1, 2])
    @pytest.mark.parametrize("dataset", ["HDFS", "Zookeeper"])
    def test_spark_equals_sequential(self, spark, dataset, prefix_k):
        self.assert_parity(spark, dataset, ParserConfig(prefix_k=prefix_k))

    def test_spark_equals_sequential_without_dedup(self, spark):
        """``dedup=False`` feeds every log to the kernel as its own row on
        both paths, so the models still agree byte for byte."""
        self.assert_parity(spark, "HDFS", ParserConfig(dedup=False))

    def test_naive_match_rejected(self, spark, corpus):
        """The Spark path builds no training assignment, so it must not
        run under the naive-match label."""
        with pytest.raises(ValueError, match="sequential"):
            train_model(spark, corpus[0], cfg=ParserConfig(naive_match=True))

    def test_separator_char_stays_inside_token(self, spark):
        """Java's split keeps a token holding the unit separator (U+001F)
        whole; it must stay one token through the tree rows, so every
        template keeps its group's token count."""
        pdf = pd.DataFrame({"message": ["user a\x1fb logged in", "user c logged in"]})
        model = train_model(spark, spark.createDataFrame(pdf), cfg=ParserConfig())
        assert model.nodes
        assert all(len(nd.template) == int(nd.group_key) for nd in model.nodes)

    def test_prefix_grouping_spark(self, spark):
        pdf = pd.DataFrame({"message": ["alpha x1 y", "beta x2 y"] * 5, "log_id": range(10)})
        cfg = ParserConfig(prefix_k=1)
        model = train_model(spark, spark.createDataFrame(pdf), cfg=cfg)
        assert len({nd.group_key for nd in model.nodes}) == 2


class TestMatchDF:
    def test_match_equals_sequential(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        out = (
            match_df(spark, df, model, cfg, threshold=0.8)
            .toPandas()
            .sort_values("log_id")
        )
        seq = match_sequential(
            pdf["message"].tolist(), model, cfg, threshold=0.8, add_unmatched=False
        )
        texts_spark = out["template"].tolist()
        texts_seq = [model.nodes[i].text() if i >= 0 else "" for i in seq]
        assert texts_spark == texts_seq

    def test_all_training_logs_matched(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        out = match_df(spark, df, model, cfg)
        assert out.filter(F.col("template_id") < 0).count() == 0

    def test_models_differing_by_one_template(self, spark, corpus):
        """Two calls in one session, against models that differ by one
        temporary template, each give the sequential verdicts."""
        df, pdf = corpus
        cfg = ParserConfig()
        base = train_model(spark, df, cfg=cfg)
        extended = ParserModel.from_json(base.to_json())
        extended.add_temp_template(("never", "seen", "message", "body", "qq"))
        extra = pd.DataFrame(
            {"message": ["never seen message body qq"], "log_id": [len(pdf)]}
        )
        both = pd.concat([pdf[["message", "log_id"]], extra], ignore_index=True)
        sdf = spark.createDataFrame(both)
        msgs = both["message"].tolist()
        for model, extra_nid in ((base, -1), (extended, len(base.nodes)), (base, -1)):
            out = match_df(spark, sdf, model, cfg).toPandas().sort_values("log_id")
            seq = match_sequential(msgs, model, cfg, add_unmatched=False)
            assert out["template_id"].tolist() == seq
            assert seq[-1] == extra_nid

    def test_naive_match_rejected(self, spark, corpus):
        with pytest.raises(ValueError, match="sequential"):
            match_df(spark, corpus[0], ParserModel(), ParserConfig(naive_match=True))

    def test_add_unmatched_df(self, spark, corpus):
        df, pdf = corpus
        cfg = ParserConfig()
        model = train_model(spark, df, cfg=cfg)
        extra = spark.createDataFrame(
            pd.DataFrame({"message": ["never seen message body qq"], "log_id": [0]})
        )
        added = add_unmatched_df(spark, extra, model, cfg)
        assert added == 1
        out = match_df(spark, extra, model, cfg).toPandas()
        assert (out["template_id"] >= 0).all()
