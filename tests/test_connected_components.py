"""Tests for the connected-components substrate (GraphX substitute): the
driver-side union-find, and the clusterer that runs it on a match graph."""
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.clusterer import cluster_entities
from repro.graph.connected_components import connected_components


def _union_find(edges: list[tuple[int, int]]) -> dict[int, int]:
    """Independent oracle: component = min node id, via union-find."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _cc(spark, edges: list[tuple[int, int]]) -> dict[int, int]:
    df = spark.createDataFrame(edges, "p1 long, p2 long")
    return {r["pid"]: r["entity"] for r in cluster_entities(df).collect()}


def _roots(n: int, edges: list[tuple[int, int]]) -> list[int]:
    src, dst = np.array(edges, np.int64).reshape(-1, 2).T
    return connected_components(n, src, dst).tolist()


class TestUnionFind:
    def test_no_rows(self):
        assert _roots(0, []) == []

    def test_isolated_rows_are_their_own_root(self):
        assert _roots(5, [(3, 1)]) == [0, 1, 2, 1, 4]

    def test_self_loop(self):
        assert _roots(3, [(2, 2)]) == [0, 1, 2]

    def test_root_is_smallest_row(self):
        assert _roots(6, [(5, 4), (4, 2), (3, 0), (1, 3)]) == [0, 0, 2, 0, 2, 2]


class TestSmallGraphs:
    def test_single_edge(self, spark):
        assert _cc(spark, [(1, 2)]) == {1: 1, 2: 1}

    def test_two_components(self, spark):
        got = _cc(spark, [(1, 2), (3, 4)])
        assert got == {1: 1, 2: 1, 3: 3, 4: 3}

    def test_chain(self, spark):
        got = _cc(spark, [(1, 2), (2, 3), (3, 4), (4, 5)])
        assert set(got.values()) == {1}

    def test_chain_reversed_direction(self, spark):
        got = _cc(spark, [(5, 4), (4, 3), (3, 2), (2, 1)])
        assert set(got.values()) == {1}

    def test_star(self, spark):
        got = _cc(spark, [(10, i) for i in range(1, 6)])
        assert set(got.values()) == {1}

    def test_triangle_with_tail(self, spark):
        got = _cc(spark, [(1, 2), (2, 3), (3, 1), (3, 9)])
        assert got == {1: 1, 2: 1, 3: 1, 9: 1}

    def test_self_loop(self, spark):
        assert _cc(spark, [(7, 7)]) == {7: 7}

    def test_duplicate_edges(self, spark):
        got = _cc(spark, [(1, 2), (1, 2), (2, 1)])
        assert got == {1: 1, 2: 1}

    def test_empty_graph(self, spark):
        df = spark.createDataFrame([], "p1 long, p2 long")
        assert cluster_entities(df).count() == 0

    def test_component_label_is_min_member(self, spark):
        got = _cc(spark, [(42, 17), (17, 99), (3, 8)])
        assert got[42] == got[17] == got[99] == 17
        assert got[3] == got[8] == 3


class TestConvergence:
    def test_long_chain_converges(self, spark):
        n = 30
        got = _cc(spark, [(i, i + 1) for i in range(n)])
        assert set(got.values()) == {0}


class TestAgainstUnionFind:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_graph_matches_oracle(self, spark, seed):
        g = np.random.default_rng(seed)
        n_nodes, n_edges = 60, 50
        edges = [
            (int(a), int(b))
            for a, b in zip(g.integers(0, n_nodes, n_edges), g.integers(0, n_nodes, n_edges))
        ]
        assert _cc(spark, edges) == _union_find(edges)

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 25), st.integers(0, 25)),
            min_size=1,
            max_size=40,
        )
    )
    def test_hypothesis_matches_oracle(self, spark, edges):
        assert _cc(spark, edges) == _union_find(edges)
