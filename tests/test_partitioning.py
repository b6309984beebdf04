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
    attribute_token_counts,
    best_partners,
    closure,
    manual_partition,
    partition_attributes,
)


def _clusters(part) -> dict[str, int]:
    """A pyarrow partition as ``{attribute: cluster}``."""
    return dict(zip(part["attribute"].to_pylist(), part["cluster"].to_pylist()))


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


@pytest.fixture(scope="module")
def attr_counts(attr_tokens):
    return attribute_token_counts(attr_tokens)


class TestLearnedPartition:
    @pytest.fixture(scope="class")
    def partition(self, attr_counts):
        return partition_attributes(attr_counts, threshold=0.5)

    def test_every_attribute_assigned_once(self, partition, attr_tokens):
        attrs = attr_tokens.select("attribute").distinct().count()
        assert partition.num_rows == attrs
        assert len(set(partition["attribute"].to_pylist())) == attrs

    def test_similar_attributes_clustered(self, partition):
        c = _clusters(partition)
        assert c["1.name"] == c["2.title"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER

    def test_clusters_are_distinct(self, partition):
        c = _clusters(partition)
        assert c["1.name"] != c["1.price"]

    def test_loner_in_blob(self, partition):
        c = _clusters(partition)
        assert c["2.blurb"] == BLOB_CLUSTER

    def test_cluster_ids_dense_from_one(self, partition):
        ids = sorted(set(partition["cluster"].to_pylist()) - {BLOB_CLUSTER})
        assert ids == list(range(1, len(ids) + 1))

    def test_threshold_one_degenerates_to_blob(self, attr_counts):
        p = partition_attributes(attr_counts, threshold=1.0)
        assert set(p["cluster"].to_pylist()) == {BLOB_CLUSTER}

    def test_threshold_one_keeps_identical_token_sets(self, attr_tokens):
        """Similarity 1.0 clears a threshold of 1.0: two attributes with
        the same token set have the same signature and stay linked."""
        twin = attr_tokens.where(F.col("attribute") == "1.name").select(
            F.lit("2.name").alias("attribute"), "token"
        )
        p = partition_attributes(
            attribute_token_counts(attr_tokens.unionByName(twin)), threshold=1.0
        )
        c = _clusters(p)
        assert c.pop("1.name") == c.pop("2.name") == 1
        assert set(c.values()) == {BLOB_CLUSTER}

    def test_tiny_threshold_merges_more(self, attr_counts):
        p = partition_attributes(attr_counts, threshold=0.01)
        non_blob = {a for a, c in _clusters(p).items() if c != BLOB_CLUSTER}
        assert {"1.name", "2.title", "1.price", "2.cost"} <= non_blob

    def test_deterministic(self, attr_counts):
        p1 = partition_attributes(attr_counts, threshold=0.5)
        p2 = partition_attributes(attr_counts, threshold=0.5)
        assert p1.equals(p2)


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
    counts = attribute_token_counts(spark.createDataFrame(
        [(a, t) for a, ts in sets.items() for t in ts], "attribute string, token string"
    ))
    attrs, sig = minhash.signatures(counts, num_hashes=64)
    for threshold, rows_per_band in [(0.2, 2), (0.4, 2), (0.3, 5)]:
        got = _clusters(partition_attributes(
            counts, threshold=threshold, num_hashes=64, rows_per_band=rows_per_band
        ))
        assert got == _reference_partition(attrs, sig, threshold, rows_per_band)


class TestOnDataset:
    def test_demo_clusters_learned(self, blocker_out):
        """The demo's 6(b) structure on the synthetic Abt-Buy: one text
        cluster {A.name, B.title, B.descr}, one price cluster
        {A.price, B.cost}; description & manufacturer in the blob."""
        c = _clusters(blocker_out["attr_clusters"])
        assert c["1.name"] == c["2.title"] == c["2.descr"] != BLOB_CLUSTER
        assert c["1.price"] == c["2.cost"] != BLOB_CLUSTER
        assert c["1.price"] != c["1.name"]
        assert c["2.manufacturer"] == BLOB_CLUSTER

    def test_transitive_closure_applied(self, blocker_out):
        """B.descr joins the text cluster only through A.name (its token
        set is dissimilar from B.title's) — evidence that the closure over
        best-partner pairs ran."""
        c = _clusters(blocker_out["attr_clusters"])
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
def d1_counts(spark):
    from repro.core.profiles import load_clean_clean
    from repro.core.tokens import tokenize
    from repro.data import er_synth

    ds = er_synth.generate(n_entities=1500, seed=7)
    a, b, _ = er_synth.to_spark(spark, ds)
    return attribute_token_counts(tokenize(load_clean_clean(a, b), min_len=2))


@pytest.mark.parametrize("threshold", sorted(D1_PARTITIONS))
def test_d1_partition_pinned(d1_counts, threshold):
    got = _clusters(partition_attributes(d1_counts, threshold=threshold))
    assert got == D1_PARTITIONS[threshold]


class TestManualPartition:
    def test_assignment_and_blob_default(self, toy_tokens):
        p = manual_partition(attribute_token_counts(toy_tokens), {"1.name": 1, "2.title": 1})
        c = _clusters(p)
        assert c["1.name"] == c["2.title"] == 1
        assert c["1.abstract"] == BLOB_CLUSTER
        assert c["2.year"] == BLOB_CLUSTER

    def test_every_attribute_covered(self, toy_tokens):
        p = manual_partition(attribute_token_counts(toy_tokens), {"1.name": 5})
        n_attrs = toy_tokens.select("attribute").distinct().count()
        assert p.num_rows == n_attrs

    def test_unknown_attribute_in_map_is_ignored(self, toy_tokens):
        p = manual_partition(attribute_token_counts(toy_tokens), {"no.such": 9, "1.name": 1})
        assert "no.such" not in p["attribute"].to_pylist()
