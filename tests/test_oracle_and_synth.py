"""Oracle self-tests.

The DuckDB oracle is the correctness net for every SQL-expressible stage;
these tests pin its own behaviour (it must catch real mismatches) and
exercise it on a shuffle join over the synthetic Abt-Buy frames.
"""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.data import er_synth
from repro.oracle import assert_equivalent


class TestOracleSelf:
    def test_accepts_equivalent(self, spark):
        df = spark.createDataFrame([(1, "a"), (2, "b")], ["k", "v"])
        assert_equivalent(df.select("k", "v"), "SELECT k, v FROM t", t=df)

    def test_order_insensitive(self, spark):
        df = spark.createDataFrame([(1,), (2,), (3,)], ["k"])
        assert_equivalent(df.orderBy(F.desc("k")), "SELECT k FROM t ORDER BY k", t=df)

    def test_detects_wrong_rows(self, spark):
        df = spark.createDataFrame([(1,), (2,)], ["k"])
        with pytest.raises(AssertionError):
            assert_equivalent(df, "SELECT k + 1 AS k FROM t", t=df)

    def test_detects_column_mismatch(self, spark):
        df = spark.createDataFrame([(1,)], ["k"])
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(df, "SELECT k AS wrong FROM t", t=df)

    def test_accepts_pandas_tables(self, spark):
        pdf = pd.DataFrame({"k": [1, 2]})
        df = spark.createDataFrame(pdf)
        assert_equivalent(df, "SELECT k FROM t", t=pdf)


class TestOracleOnJoin:
    def test_join_agg_oracle(self, spark):
        """A representative shuffle join + aggregate on the synthetic
        Abt-Buy frames, checked via DuckDB."""
        a, b, gt = er_synth.to_spark(spark, er_synth.generate(n_entities=100, seed=1))
        got = (
            gt.join(a, gt["p1"] == a["id"])
            .join(b, gt["p2"] == b["id"])
            .groupBy("manufacturer")
            .agg(
                F.count(F.lit(1)).alias("n"),
                F.round(F.sum(F.col("price") - F.col("cost")), 2).alias("gap"),
            )
        )
        sql = """
            SELECT manufacturer, COUNT(*) AS n,
                   ROUND(SUM(price - cost), 2) AS gap
            FROM gt JOIN a ON p1 = a.id JOIN b ON p2 = b.id
            GROUP BY manufacturer
        """
        assert_equivalent(got, sql, a=a, b=b, gt=gt)
