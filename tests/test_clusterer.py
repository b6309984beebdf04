"""Tests for the Entity Clusterer (Figure 5)."""
import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clusterer import cluster_entities
from repro.debug.evaluation import cluster_pair_metrics


def _nx_entities(edges) -> dict[int, int]:
    """networkx oracle: each pid in some edge -> min pid of its component."""
    g = nx.Graph()
    g.add_edges_from(edges)
    return {v: min(c) for c in nx.connected_components(g) for v in c}


def _entities(clusters) -> dict[int, int]:
    return {r["pid"]: r["entity"] for r in clusters.collect()}


def _clusters(spark, matches):
    df = spark.createDataFrame(matches, ["p1", "p2"])
    out = cluster_entities(df)
    groups: dict[int, set[int]] = {}
    for r in out.collect():
        groups.setdefault(r["entity"], set()).add(r["pid"])
    return groups


class TestClusterEntities:
    def test_single_match(self, spark):
        groups = _clusters(spark, [(1, 11)])
        assert list(groups.values()) == [{1, 11}]

    def test_transitivity(self, spark):
        """p1~p2, p2~p3 => all three in one entity (the paper's stated
        assumption for connected components)."""
        groups = _clusters(spark, [(1, 11), (11, 21)])
        assert list(groups.values()) == [{1, 11, 21}]

    def test_separate_entities(self, spark):
        groups = _clusters(spark, [(1, 11), (2, 12)])
        assert sorted(groups.values(), key=min) == [{1, 11}, {2, 12}]

    def test_entity_id_is_min_pid(self, spark):
        groups = _clusters(spark, [(5, 3), (3, 9)])
        assert groups == {3: {3, 5, 9}}

    def test_unmatched_profiles_absent(self, spark):
        out = cluster_entities(spark.createDataFrame([(1, 2)], ["p1", "p2"]))
        assert {r["pid"] for r in out.collect()} == {1, 2}

    def test_long_path(self, spark):
        """A 10⁴-node path: the diameter does not bound the answer."""
        n = 10_000
        df = spark.createDataFrame([(i, i + 1) for i in range(n - 1)], "p1 long, p2 long")
        got = _entities(cluster_entities(df))
        assert len(got) == n and set(got.values()) == {0}

    def test_null_endpoint_contributes_nothing(self, spark):
        df = spark.createDataFrame([(1, 2), (2, None), (None, 3), (None, None)], "p1 long, p2 long")
        assert _entities(cluster_entities(df)) == {1: 1, 2: 1}

    def test_output_schema(self, spark):
        for rows in ([(1, 2)], []):
            out = cluster_entities(spark.createDataFrame(rows, "p1 int, p2 int"))
            assert out.schema.simpleString() == "struct<pid:bigint,entity:bigint>"

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 10**12), st.integers(0, 10**12))
            | st.tuples(st.integers(0, 30), st.integers(0, 30)),
            max_size=40,
        )
    )
    def test_matches_networkx(self, spark, edges):
        df = spark.createDataFrame(edges, "p1 long, p2 long")
        assert _entities(cluster_entities(df)) == _nx_entities(edges)


class TestEntityPairs:
    """``cluster_pair_metrics`` counts the intra-cluster pairs without
    listing them: a triple holds three pairs, and a pair is scored in
    (smaller pid, larger pid) order."""

    def test_pairs_of_triple(self, spark):
        cl = cluster_entities(spark.createDataFrame([(1, 2), (2, 3)], ["p1", "p2"]))
        gt = spark.createDataFrame([(1, 2), (1, 3), (2, 3)], ["p1", "p2"])
        m = cluster_pair_metrics(cl, gt)
        assert (m.n_pairs, m.n_gt, m.n_true) == (3, 3, 3)

    def test_pairs_ordered(self, spark):
        cl = cluster_entities(spark.createDataFrame([(9, 1)], ["p1", "p2"]))
        gt = spark.createDataFrame([(1, 9), (9, 1)], ["p1", "p2"])
        m = cluster_pair_metrics(cl, gt)
        assert (m.n_pairs, m.n_gt, m.n_true) == (1, 2, 1)


class TestOnDataset:
    def test_clusters_cover_all_matched_profiles(self, pipeline_out):
        matched = (
            pipeline_out["matches"].select("p1").union(pipeline_out["matches"].select("p2"))
        ).distinct()
        assert pipeline_out["clusters"].count() == matched.count()

    def test_clusters_equal_networkx_on_matches(self, pipeline_out):
        matches = [(r["p1"], r["p2"]) for r in pipeline_out["matches"].collect()]
        assert _entities(pipeline_out["clusters"]) == _nx_entities(matches)

    def test_runs_at_most_three_jobs(self, spark, pipeline_out):
        """One collect of the matches, not a job per round."""
        sc = spark.sparkContext
        group = "cluster-entities-jobs"
        sc.setJobGroup(group, "cluster the dataset's matches")
        try:
            cluster_entities(pipeline_out["matches"])
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) <= 3

    def test_cluster_quality(self, pipeline_out, er):
        m = cluster_pair_metrics(pipeline_out["clusters"], er[2])
        assert m.f1 > 0.75

    def test_most_clusters_are_pairs(self, pipeline_out):
        """Clean-clean ER: entities should mostly be {a-side, b-side}."""
        sizes = [
            r["n"]
            for r in pipeline_out["clusters"].groupBy("entity").count()
            .withColumnRenamed("count", "n").collect()
        ]
        assert sum(1 for s in sizes if s == 2) / len(sizes) > 0.8
