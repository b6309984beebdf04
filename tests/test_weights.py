"""Tests for the edge-weighting schemes (one formula, on Spark Columns and
on numpy arrays)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.meta_blocking import build_graph
from repro.core.weights import REL_TOL, keep, weight
from tests.oracle import assert_equivalent


def np_weight(scheme, *, cbs, b1, b2, n_blocks, ent=None):
    """``weight`` on numpy float64 arrays made from lists."""
    cbs, b1, b2 = (np.asarray(x, np.float64) for x in (cbs, b1, b2))
    ent = None if ent is None else np.asarray(ent, np.float64)
    return weight(scheme, cbs=cbs, b1=b1, b2=b2, n_blocks=n_blocks, ent=ent, where=np.where)


def spark_where(cond, a, b):
    """The element-wise select ``build_graph`` passes to ``weight``."""
    return F.when(cond, a).otherwise(b)


class TestNumpyFormulas:
    def test_cbs_is_identity(self):
        w = np_weight("cbs", cbs=[1, 3, 7], b1=[9, 9, 9], b2=[9, 9, 9], n_blocks=100)
        assert w.tolist() == [1.0, 3.0, 7.0]

    def test_js_formula(self):
        w = np_weight("js", cbs=[2], b1=[4], b2=[6], n_blocks=100)
        assert w[0] == pytest.approx(2 / (4 + 6 - 2))

    def test_js_identical_block_sets(self):
        w = np_weight("js", cbs=[5], b1=[5], b2=[5], n_blocks=100)
        assert w[0] == pytest.approx(1.0)

    def test_chi2_formula(self):
        cbs, b1, b2, n = 3.0, 5.0, 6.0, 50.0
        num = n * (cbs * n - b1 * b2) ** 2
        den = b1 * b2 * (n - b1) * (n - b2)
        w = np_weight("chi2", cbs=[cbs], b1=[b1], b2=[b2], n_blocks=int(n))
        assert w[0] == pytest.approx(num / den)

    def test_chi2_guard_degenerate(self):
        # b1 == n_blocks -> denominator zero -> weight 0, not NaN/inf.
        w = np_weight("chi2", cbs=[3], b1=[10], b2=[5], n_blocks=10)
        assert w[0] == 0.0

    def test_chi2_independence_is_zero(self):
        # cbs * N == b1 * b2 -> observed == expected -> chi2 == 0.
        w = np_weight("chi2", cbs=[2], b1=[4], b2=[5], n_blocks=10)
        assert w[0] == pytest.approx(0.0)

    def test_entropy_scales(self):
        w = np_weight("cbs", cbs=[4], b1=[1], b2=[1], n_blocks=10, ent=[0.5])
        assert w[0] == pytest.approx(2.0)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            np_weight("nope", cbs=[1], b1=[1], b2=[1], n_blocks=1)


class TestKeepRule:
    def test_equal_weights_kept_although_mean_rounds_up(self):
        w = np.full(3, 0.1)
        t = w.mean()
        assert t > 0.1  # 0.10000000000000002
        assert keep("wnp", w, t, t).all()

    def test_either_and_blast_rules(self):
        w = np.array([1.0, 3.0, 5.0])
        t1, t2 = np.array([2.0, 4.0, 6.0]), np.array([1.0, 5.0, 4.0])
        assert keep("wnp", w, t1, t2).tolist() == [True, False, True]
        assert keep("blast", w, t1, t2).tolist() == [False, False, True]
        assert keep("wep", w, 3.0, 3.0).tolist() == [False, True, True]

    def test_slack_is_relative(self):
        assert keep("wnp", np.array([1.0 - REL_TOL / 2]), 1.0, 1.0).all()
        assert not keep("wnp", np.array([1.0 - 2 * REL_TOL]), 1.0, 1.0).any()


@pytest.mark.parametrize("scheme", ["cbs", "js", "chi2"])
@pytest.mark.parametrize("use_ent", [False, True])
def test_spark_and_numpy_agree(spark, scheme, use_ent):
    """The formula gives bit-identical weights as a Column expression over
    long counts (as ``build_graph`` has them) and on numpy int64 arrays
    (as ``broadcast_mb`` has them), matched by row id. A quarter of the
    rows have ``b1`` or ``b2`` equal to ``n_blocks``: a χ² denominator of 0."""
    g = np.random.default_rng(0)
    n, n_blocks = 2000, 40
    b1, b2 = g.integers(10, 30, n), g.integers(10, 30, n)
    b1[: n // 8] = n_blocks
    b2[n // 8 : n // 4] = n_blocks
    pdf = pd.DataFrame(
        {
            "id": np.arange(n),
            "cbs": g.integers(1, 10, n),
            "b1": b1,
            "b2": b2,
            "ent": g.random(n),
        }
    )
    df = spark.createDataFrame(pdf, "id long, cbs long, b1 long, b2 long, ent double")
    col = weight(
        scheme,
        cbs=F.col("cbs"),
        b1=F.col("b1"),
        b2=F.col("b2"),
        n_blocks=n_blocks,
        ent=F.col("ent") if use_ent else None,
        where=spark_where,
    )
    got = dict(df.select("id", col.alias("w")).collect())
    want = weight(
        scheme,
        cbs=pdf["cbs"].to_numpy(),
        b1=pdf["b1"].to_numpy(),
        b2=pdf["b2"].to_numpy(),
        n_blocks=n_blocks,
        ent=pdf["ent"].to_numpy() if use_ent else None,
        where=np.where,
    )
    assert [got[i] for i in range(n)] == want.tolist()
    if scheme == "chi2":
        assert (want[: n // 4] == 0.0).all()


def test_unknown_scheme_rejected_spark():
    with pytest.raises(ValueError):
        weight("nope", cbs=F.lit(1), b1=F.lit(1), b2=F.lit(1), n_blocks=1, ent=None,
               where=spark_where)


class TestFigure1Graph:
    """Figure 1(c): CBS weights of the bibliography toy."""

    @pytest.fixture(scope="class")
    def edges(self, toy_blocks):
        df = build_graph(toy_blocks, scheme="cbs")
        return {(r["p1"], r["p2"]): r for r in df.collect()}

    def test_edge_set(self, edges):
        assert set(edges) == {(1, 3), (1, 4), (2, 3), (2, 4)}

    @pytest.mark.parametrize(
        "pair,cbs",
        [((1, 3), 3), ((1, 4), 1), ((2, 3), 2), ((2, 4), 2)],
    )
    def test_cbs_weights(self, edges, pair, cbs):
        assert edges[pair]["weight"] == cbs

    def test_block_counts(self, edges):
        # p1 in {blast, simonini, blocking} -> b1 = 3;
        # p4 in {blast, gagliardelli, sparker} -> b2 = 3.
        assert edges[(1, 4)]["b1"] == 3
        assert edges[(1, 4)]["b2"] == 3

    def test_entropy_defaults_to_one(self, edges):
        assert all(r["ent"] == 1.0 for r in edges.values())

    def test_oracle_cbs(self, toy_blocks):
        got = build_graph(toy_blocks, scheme="cbs").select(
            "p1", "p2", F.col("cbs").cast("long").alias("cbs")
        )
        sql = """
            SELECT a.pid AS p1, b.pid AS p2, COUNT(*) AS cbs
            FROM blocks a JOIN blocks b ON a.key = b.key
            WHERE a.source = 1 AND b.source = 2
            GROUP BY a.pid, b.pid
        """
        assert_equivalent(got, sql, blocks=toy_blocks)
