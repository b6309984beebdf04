"""Tests for the debug-evaluation layer (metrics + lost-pair drilldown)."""
import pandas as pd
import pytest

from repro.debug.evaluation import (
    PairMetrics,
    cluster_pair_metrics,
    explain_lost_pair,
    lost_pairs,
    pair_metrics,
)


class TestPairMetricsMath:
    def test_perfect(self):
        m = PairMetrics(n_pairs=10, n_gt=10, n_true=10)
        assert m.precision == m.recall == m.f1 == 1.0
        assert m.n_lost == 0

    def test_half_and_half(self):
        m = PairMetrics(n_pairs=20, n_gt=10, n_true=5)
        assert m.precision == 0.25
        assert m.recall == 0.5
        assert m.f1 == pytest.approx(2 * 0.25 * 0.5 / 0.75)
        assert m.n_lost == 5

    def test_empty_pairs(self):
        m = PairMetrics(n_pairs=0, n_gt=10, n_true=0)
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0

    def test_empty_gt(self):
        m = PairMetrics(n_pairs=5, n_gt=0, n_true=0)
        assert m.recall == 0.0


class TestPairMetricsSpark:
    def test_counts(self, spark):
        pairs = spark.createDataFrame([(1, 11), (2, 12), (3, 13)], ["p1", "p2"])
        gt = spark.createDataFrame([(1, 11), (4, 14)], ["p1", "p2"])
        m = pair_metrics(pairs, gt)
        assert (m.n_pairs, m.n_gt, m.n_true) == (3, 2, 1)

    def test_duplicates_ignored(self, spark):
        pairs = spark.createDataFrame([(1, 11), (1, 11)], ["p1", "p2"])
        gt = spark.createDataFrame([(1, 11)], ["p1", "p2"])
        assert pair_metrics(pairs, gt).n_pairs == 1

    def test_extra_columns_tolerated(self, spark):
        pairs = spark.createDataFrame([(1, 11, 0.9)], ["p1", "p2", "weight"])
        gt = spark.createDataFrame([(1, 11)], ["p1", "p2"])
        assert pair_metrics(pairs, gt).recall == 1.0


def _pandas_recount(pairs, gt):
    """(n_pairs, n_gt, n_true) over distinct pairs; a null id never matches."""
    p = pd.DataFrame(pairs, columns=["p1", "p2"], dtype="float").drop_duplicates()
    g = pd.DataFrame(gt, columns=["p1", "p2"], dtype="float").drop_duplicates()
    return len(p), len(g), len(p.dropna().merge(g.dropna(), on=["p1", "p2"]))


@pytest.mark.parametrize(
    "pairs,gt",
    [
        ([(1, 11), (1, 11), (2, 12)], [(1, 11), (1, 11), (3, 13)]),
        ([], [(1, 11), (2, 12)]),
        ([(1, 11), (2, 12)], []),
        ([(1, 11), (2, 12)], [(3, 13), (4, 14)]),
        ([(None, 11), (None, 11), (1, 11), (2, None)], [(None, 11), (1, 11)]),
    ],
    ids=["duplicates", "empty-pairs", "empty-gt", "disjoint", "null-id"],
)
def test_pair_metrics_matches_pandas_recount(spark, pairs, gt):
    schema = "p1 long, p2 long"
    m = pair_metrics(spark.createDataFrame(pairs, schema), spark.createDataFrame(gt, schema))
    assert (m.n_pairs, m.n_gt, m.n_true) == _pandas_recount(pairs, gt)


class TestLostPairs:
    def test_lost_listed(self, spark):
        pairs = spark.createDataFrame([(1, 11)], ["p1", "p2"])
        gt = spark.createDataFrame([(1, 11), (2, 12)], ["p1", "p2"])
        lost = {(r["p1"], r["p2"]) for r in lost_pairs(pairs, gt).collect()}
        assert lost == {(2, 12)}

    def test_none_lost(self, spark):
        pairs = spark.createDataFrame([(1, 11), (2, 12)], ["p1", "p2"])
        gt = spark.createDataFrame([(1, 11)], ["p1", "p2"])
        assert lost_pairs(pairs, gt).count() == 0

    def test_explain_shows_shared_tokens(self, spark, toy_tokens):
        """Figure 6(d): clicking a lost pair shows the shared blocking
        keys and the attributes carrying them."""
        lost = spark.createDataFrame([(1, 3)], ["p1", "p2"])
        rows = {r["token"]: r for r in explain_lost_pair(lost, toy_tokens).collect()}
        assert set(rows) == {"blast", "simonini", "blocking"}
        assert rows["simonini"]["attrs_1"] == ["1.authors"]
        assert rows["simonini"]["attrs_2"] == ["2.author"]

    def test_explain_empty_for_disjoint_pair(self, spark, toy_tokens):
        lost = spark.createDataFrame([(1, 999)], ["p1", "p2"])
        assert explain_lost_pair(lost, toy_tokens).count() == 0


class TestClusterMetrics:
    def test_cluster_pairs_scored(self, spark):
        clusters = spark.createDataFrame(
            [(1, 1), (11, 1), (2, 2), (12, 2), (22, 2)], ["pid", "entity"]
        )
        gt = spark.createDataFrame([(1, 11), (2, 12)], ["p1", "p2"])
        m = cluster_pair_metrics(clusters, gt)
        # intra-cluster pairs: (1,11), (2,12), (2,22), (12,22) -> 4
        assert m.n_pairs == 4
        assert m.n_true == 2
        assert m.recall == 1.0


class TestBlockerDebugNumbersOnDataset:
    def test_default_blocker_high_recall(self, blocker_out, er):
        m = pair_metrics(blocker_out["candidates"], er[2])
        assert m.recall > 0.93
        assert m.n_pairs < 40_000

    def test_lost_pairs_consistent_with_metrics(self, blocker_out, er):
        m = pair_metrics(blocker_out["candidates"], er[2])
        assert lost_pairs(blocker_out["candidates"], er[2]).count() == m.n_lost
