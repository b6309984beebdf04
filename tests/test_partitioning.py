"""Tests for loose-schema attribute partitioning."""
import itertools
import random

import networkx as nx
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.looseschema import minhash
from repro.looseschema.partitioning import (
    BLOB_CLUSTER,
    attribute_tokens,
    best_partners,
    closure,
    manual_partition,
    partition_attributes,
)


@pytest.fixture(scope="module")
def attr_tokens(spark):
    """Four attributes: two near-identical text pairs + one loner."""
    def toks(prefix, n, start=0):
        return {f"{prefix}{i}" for i in range(start, start + n)}

    sets = {
        "1.name": toks("w", 100),
        "2.title": toks("w", 100, start=10),   # J = 9/11 with 1.name
        "1.price": toks("p", 80),
        "2.cost": toks("p", 80, start=8),      # J = 9/11 with 1.price
        "2.blurb": toks("z", 60),              # similar to nothing
    }
    rows = [(a, t) for a, s in sets.items() for t in s]
    return spark.createDataFrame(rows, "attribute string, token string")


class TestLearnedPartition:
    @pytest.fixture(scope="class")
    def partition(self, attr_tokens):
        return partition_attributes(attr_tokens, threshold=0.5).localCheckpoint(
            eager=True
        )

    def test_every_attribute_assigned_once(self, partition, attr_tokens):
        attrs = attribute_tokens(attr_tokens).select("attribute").distinct().count()
        assert partition.count() == attrs
        assert partition.select("attribute").distinct().count() == attrs

    def test_similar_attributes_clustered(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["1.name"] == c["2.title"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER

    def test_clusters_are_distinct(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["1.name"] != c["1.price"]

    def test_loner_in_blob(self, partition):
        c = {r["attribute"]: r["cluster"] for r in partition.collect()}
        assert c["2.blurb"] == BLOB_CLUSTER

    def test_cluster_ids_dense_from_one(self, partition):
        ids = sorted(
            r["cluster"]
            for r in partition.select("cluster").distinct().collect()
            if r["cluster"] != BLOB_CLUSTER
        )
        assert ids == list(range(1, len(ids) + 1))

    def test_threshold_one_degenerates_to_blob(self, attr_tokens):
        p = partition_attributes(attr_tokens, threshold=1.0)
        assert {r["cluster"] for r in p.collect()} == {BLOB_CLUSTER}

    def test_tiny_threshold_merges_more(self, attr_tokens):
        p = partition_attributes(attr_tokens, threshold=0.01)
        non_blob = {r["attribute"] for r in p.collect() if r["cluster"] != BLOB_CLUSTER}
        assert {"1.name", "2.title", "1.price", "2.cost"} <= non_blob

    def test_deterministic(self, attr_tokens):
        p1 = sorted(map(tuple, partition_attributes(attr_tokens, threshold=0.5).collect()))
        p2 = sorted(map(tuple, partition_attributes(attr_tokens, threshold=0.5).collect()))
        assert p1 == p2


class TestDriverSteps:
    def test_best_partner_tie_goes_to_largest_name(self):
        pairs = np.array([[0, 1], [0, 2], [1, 2]], np.int64)
        src, dst = best_partners(pairs, np.array([0.5, 0.5, 0.2]), 0.3)
        assert dict(zip(src.tolist(), dst.tolist())) == {0: 2, 1: 0, 2: 0}

    def test_best_partner_below_threshold_dropped(self):
        pairs = np.array([[0, 1]], np.int64)
        src, dst = best_partners(pairs, np.array([0.29]), 0.3)
        assert len(src) == len(dst) == 0

    def test_closure_numbers_by_smallest_row(self):
        # rows 4-5 and 1-3-0 linked; 2 alone
        cluster = closure(6, np.array([5, 3, 1]), np.array([4, 1, 0]))
        assert cluster.tolist() == [1, 1, BLOB_CLUSTER, 1, 2, 2]

    def test_closure_without_pairs_is_all_blob(self):
        empty = np.empty(0, np.int64)
        assert closure(3, empty, empty).tolist() == [BLOB_CLUSTER] * 3


def _reference_partition(attrs, sig, threshold, rows_per_band):
    """Pure-Python partition over collected signatures: any shared band
    makes a candidate, each attribute keeps its best partner (highest sim,
    then largest name), networkx closes the pairs transitively."""
    rows = dict(zip(attrs, map(tuple, sig.tolist())))
    h = sig.shape[1]
    best = {}
    for a, b in itertools.combinations(attrs, 2):
        ra, rb = rows[a], rows[b]
        if not any(ra[s:s + rows_per_band] == rb[s:s + rows_per_band]
                   for s in range(0, h, rows_per_band)):
            continue
        sim = sum(x == y for x, y in zip(ra, rb)) / h
        if sim >= threshold:
            best[a] = max(best.get(a, (-1.0, "")), (sim, b))
            best[b] = max(best.get(b, (-1.0, "")), (sim, a))
    g = nx.Graph((a, b) for a, (_, b) in best.items())
    comps = sorted(sorted(c) for c in nx.connected_components(g))
    cluster = dict.fromkeys(attrs, BLOB_CLUSTER)
    cluster.update({a: k for k, c in enumerate(comps, 1) for a in c})
    return cluster


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_reference_on_random_sets(spark, seed):
    """~20 random attribute token sets over a shared vocabulary, at several
    thresholds and band widths, against the pure-Python reference."""
    g = random.Random(seed)
    vocab = [f"t{i}" for i in range(60)]
    sets = {f"{g.randint(1, 2)}.a{k:02d}": g.sample(vocab, g.randint(3, 30)) for k in range(20)}
    tokens = spark.createDataFrame(
        [(a, t) for a, ts in sets.items() for t in ts], "attribute string, token string"
    ).localCheckpoint(eager=True)
    attrs, sig = minhash.signature_matrix(
        minhash.signatures(tokens, item_col="attribute", num_hashes=64), 64
    )
    for threshold, rows_per_band in [(0.2, 2), (0.4, 2), (0.3, 5)]:
        got = {
            r["attribute"]: r["cluster"]
            for r in partition_attributes(
                tokens, threshold=threshold, num_hashes=64, rows_per_band=rows_per_band
            ).collect()
        }
        assert got == _reference_partition(attrs, sig, threshold, rows_per_band)


class TestOnDataset:
    def test_demo_clusters_learned(self, blocker_out):
        """The demo's 6(b) structure on the synthetic Abt-Buy: one text
        cluster {A.name, B.title, B.descr}, one price cluster
        {A.price, B.cost}; description & manufacturer in the blob."""
        c = {r["attribute"]: r["cluster"] for r in blocker_out["attr_clusters"].collect()}
        assert c["1.name"] == c["2.title"] == c["2.descr"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER
        assert c["1.price"] != c["1.name"]
        assert c["2.manufacturer"] == BLOB_CLUSTER

    def test_transitive_closure_applied(self, blocker_out):
        """B.descr joins the text cluster only through A.name (its token
        set is dissimilar from B.title's) — evidence that the closure over
        best-partner pairs ran."""
        c = {r["attribute"]: r["cluster"] for r in blocker_out["attr_clusters"].collect()}
        assert c["2.descr"] == c["2.title"]


# The D1 dataset's partition (n_entities=1500, seed 7), as computed by the
# earlier all-DataFrame implementation (Spark LSH buckets and
# connected-components closure).
D1_PARTITIONS = {
    0.3: {
        "1.description": BLOB_CLUSTER, "1.name": 1, "1.price": 2, "2.cost": 2,
        "2.descr": 1, "2.manufacturer": BLOB_CLUSTER, "2.title": 1,
    },
    1.0: dict.fromkeys(
        ["1.description", "1.name", "1.price", "2.cost", "2.descr",
         "2.manufacturer", "2.title"], BLOB_CLUSTER,
    ),
}


@pytest.fixture(scope="module")
def d1_tokens(spark):
    from repro.core.profiles import load_clean_clean
    from repro.core.tokens import tokenize
    from repro.data import er_synth

    ds = er_synth.generate(n_entities=1500, seed=7)
    a, b, _ = er_synth.to_spark(spark, ds)
    return tokenize(load_clean_clean(a, b), min_len=2).localCheckpoint(eager=True)


@pytest.mark.parametrize("threshold", sorted(D1_PARTITIONS))
def test_d1_partition_pinned(d1_tokens, threshold):
    got = {r["attribute"]: r["cluster"]
           for r in partition_attributes(d1_tokens, threshold=threshold).collect()}
    assert got == D1_PARTITIONS[threshold]


class TestManualPartition:
    def test_assignment_and_blob_default(self, spark, toy_tokens):
        p = manual_partition(
            spark, toy_tokens.select("attribute"), {"1.name": 1, "2.title": 1}
        )
        c = {r["attribute"]: r["cluster"] for r in p.collect()}
        assert c["1.name"] == c["2.title"] == 1
        assert c["1.abstract"] == BLOB_CLUSTER
        assert c["2.year"] == BLOB_CLUSTER

    def test_every_attribute_covered(self, spark, toy_tokens):
        p = manual_partition(spark, toy_tokens.select("attribute"), {"1.name": 5})
        n_attrs = toy_tokens.select("attribute").distinct().count()
        assert p.count() == n_attrs

    def test_unknown_attribute_in_map_is_ignored(self, spark, toy_tokens):
        p = manual_partition(
            spark, toy_tokens.select("attribute"), {"no.such": 9, "1.name": 1}
        )
        assert p.where(F.col("attribute") == "no.such").count() == 0
