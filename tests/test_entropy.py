"""Tests for the Entropy Extractor."""
import math
from collections import Counter, defaultdict

import pyarrow as pa
import pytest

from repro.looseschema.entropy import cluster_entropies


def _ent(clusters: dict[int, list[str]], attrs_per_cluster: int = 1):
    """Entropies of clusters given as token occurrence lists. Occurrence
    ``i`` of cluster ``c`` goes to attribute ``c.(i % attrs_per_cluster)``,
    and the counts table holds each ``(attribute, token)`` once with its
    occurrences ``n``."""
    occ = Counter(
        (f"{c}.{i % attrs_per_cluster}", t)
        for c, toks in clusters.items() for i, t in enumerate(toks)
    )
    counts = pa.table({
        "attribute": [a for a, _ in occ], "token": [t for _, t in occ],
        "n": pa.array(list(occ.values()), pa.int64()),
    })
    attrs = sorted({a for a, _ in occ})
    part = pa.table({
        "attribute": attrs, "cluster": pa.array([int(a.split(".")[0]) for a in attrs], pa.int32()),
    })
    return {
        r["cluster"]: (r["entropy"], r["entropy_norm"])
        for r in cluster_entropies(counts, part).to_pylist()
    }


class TestShannonEntropy:
    def test_uniform_two_tokens(self):
        e = _ent({1: ["a", "b"]})
        assert e[1][0] == pytest.approx(1.0)

    def test_uniform_four_tokens(self):
        e = _ent({1: ["a", "b", "c", "d"]})
        assert e[1][0] == pytest.approx(2.0)

    def test_constant_cluster_has_zero_entropy(self):
        e = _ent({1: ["a", "a", "a"]})
        assert e[1][0] == pytest.approx(0.0)

    def test_skewed_distribution(self):
        # p = (3/4, 1/4) -> H = 0.8113
        e = _ent({1: ["a", "a", "a", "b"]})
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert e[1][0] == pytest.approx(expected)

    def test_attributes_of_a_cluster_pool_their_counts(self):
        # "a" three times and "b" once, spread over two attributes
        e = _ent({1: ["a", "a", "a", "b"], 2: ["a", "b", "b", "b"]}, attrs_per_cluster=2)
        expected = -(0.75 * math.log2(0.75) + 0.25 * math.log2(0.25))
        assert e[1][0] == pytest.approx(expected) and e[2][0] == pytest.approx(expected)

    def test_high_variability_beats_low(self):
        e = _ent({1: [f"t{i}" for i in range(32)], 2: ["x"] * 16 + ["y"] * 16})
        assert e[1][0] > e[2][0]


class TestNormalization:
    def test_max_cluster_normalizes_to_one(self):
        e = _ent({1: [f"t{i}" for i in range(8)], 2: ["a", "a", "b"]})
        assert e[1][1] == pytest.approx(1.0)
        assert 0 < e[2][1] < 1

    def test_all_zero_entropy_normalizes_to_one(self):
        e = _ent({1: ["a", "a"], 2: ["b", "b", "b"]})
        assert e[1][1] == 1.0 and e[2][1] == 1.0

    def test_constant_clusters_are_exactly_zero(self):
        """In floats 13 * log2(13) / 13 is an ulp below log2(13); a one-type
        cluster must still score exactly 0, so both normalize to 1.0."""
        e = _ent({1: ["a"] * 13, 2: ["b"] * 3})
        assert e[1] == (0.0, 1.0) and e[2] == (0.0, 1.0)

    def test_ratio_preserved(self):
        e = _ent({1: ["a", "b", "c", "d"], 2: ["x", "y"]})
        assert e[2][1] == pytest.approx(e[2][0] / e[1][0])


class TestOnDataset:
    def test_every_cluster_scored(self, blocker_out):
        n_clusters = len(set(blocker_out["attr_clusters"]["cluster"].to_pylist()))
        assert blocker_out["entropies"].num_rows == n_clusters

    def test_norms_in_unit_interval(self, blocker_out):
        for norm in blocker_out["entropies"]["entropy_norm"].to_pylist():
            assert 0 < norm <= 1.0

    def test_text_cluster_outranks_price_cluster(self, blocker_out):
        """Blast's motivation: name-like clusters have higher variability
        than narrow-domain ones. Our text cluster draws on a much larger
        vocabulary than the price grid."""
        part, ents = blocker_out["attr_clusters"], blocker_out["entropies"]
        c = dict(zip(part["attribute"].to_pylist(), part["cluster"].to_pylist()))
        ent = dict(zip(ents["cluster"].to_pylist(), ents["entropy"].to_pylist()))
        assert ent[c["1.name"]] > ent[c["1.price"]]

    def test_entropies_match_python_reference(self, blocker_out):
        """Shannon entropy and its normalization, recomputed with math.log2
        from the (cluster, token) occurrences of the blocker run."""
        part = blocker_out["attr_clusters"]
        cluster = dict(zip(part["attribute"].to_pylist(), part["cluster"].to_pylist()))
        occ = Counter(
            (cluster[r["attribute"]], r["token"])
            for r in blocker_out["tokens"].select("attribute", "token").collect()
        )
        counts = defaultdict(list)
        for (c, _), n in occ.items():
            counts[c].append(n)
        want = {}
        for c, ns in counts.items():
            total = sum(ns)
            want[c] = -sum(n / total * math.log2(n / total) for n in ns)
        top = max(want.values())
        got = {r["cluster"]: r for r in blocker_out["entropies"].to_pylist()}
        assert set(got) == set(want)
        for c, h in want.items():
            assert abs(got[c]["entropy"] - h) <= 1e-12
            assert abs(got[c]["entropy_norm"] - h / top) <= 1e-12
