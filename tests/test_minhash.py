"""Tests for the MinHash/LSH substrate."""
import itertools

import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.looseschema import minhash


def _sets_df(spark, sets: dict[str, set[str]]):
    rows = [(k, t) for k, toks in sets.items() for t in toks]
    return spark.createDataFrame(rows, ["item", "token"])


def _exact_jaccard(sets: dict[str, set[str]]) -> dict[tuple[str, str], float]:
    return {
        (a, b): len(sets[a] & sets[b]) / len(sets[a] | sets[b])
        for a, b in itertools.combinations(sorted(sets), 2)
    }


@pytest.fixture(scope="module")
def word_sets():
    base = [f"tok{i}" for i in range(200)]
    return {
        "high_a": set(base[:100]),
        "high_b": set(base[20:120]),        # J(high_a, high_b) = 2/3
        "half": set(base[:50]) | {f"x{i}" for i in range(50)},  # J vs high_a = 1/3
        "disjoint": {f"y{i}" for i in range(80)},
        "identical": set(base[:100]),        # J vs high_a = 1
    }


@pytest.fixture(scope="module")
def sigs(spark, word_sets):
    return minhash.signatures(
        _sets_df(spark, word_sets), num_hashes=256
    ).localCheckpoint(eager=True)


class TestSignatures:
    def test_one_row_per_item_and_hash(self, sigs, word_sets):
        assert sigs.count() == len(word_sets) * 256

    def test_deterministic(self, spark, word_sets):
        df = _sets_df(spark, word_sets)
        s1 = {tuple(r) for r in minhash.signatures(df, num_hashes=32).collect()}
        s2 = {tuple(r) for r in minhash.signatures(df, num_hashes=32).collect()}
        assert s1 == s2

    def test_seed_changes_signature(self, spark, word_sets):
        df = _sets_df(spark, word_sets)
        s1 = {tuple(r) for r in minhash.signatures(df, num_hashes=32, seed=1).collect()}
        s2 = {tuple(r) for r in minhash.signatures(df, num_hashes=32, seed=2).collect()}
        assert s1 != s2

    def test_identical_sets_identical_signatures(self, sigs):
        a = {r["hash_id"]: r["min_hash"] for r in sigs.where("item = 'high_a'").collect()}
        b = {r["hash_id"]: r["min_hash"] for r in sigs.where("item = 'identical'").collect()}
        assert a == b

    def test_signature_values_in_range(self, sigs):
        lo, hi = sigs.agg(F.min("min_hash"), F.max("min_hash")).first()
        assert 0 <= lo <= hi < (1 << 31) - 1

    def test_signatures_vary_across_hash_ids(self, sigs):
        """Regression for the monotone-hash bug: an item's min-hash must
        not collapse to a single token's image for every hash function."""
        n = (
            sigs.where("item = 'high_a'")
            .select("min_hash").distinct().count()
        )
        assert n > 200  # 256 hash ids, near-all distinct values


@pytest.fixture(scope="module")
def matrix(sigs):
    """``(items, signature matrix)`` collected from ``sigs``."""
    return minhash.signature_matrix(sigs, 256)


def _rows(matrix, *names):
    items = matrix[0]
    return np.array([[items.index(a), items.index(b)] for a, b in names], np.int64)


def _named_pairs(matrix, pairs):
    items = matrix[0]
    return {(items[i], items[j]) for i, j in pairs.tolist()}


class TestSignatureMatrix:
    def test_rows_in_name_order(self, matrix, word_sets):
        items, sig = matrix
        assert items == sorted(word_sets)
        assert sig.shape == (len(word_sets), 256) and sig.dtype == np.int64

    def test_matches_signature_rows(self, matrix, sigs):
        items, sig = matrix
        for r in sigs.collect():
            assert sig[items.index(r["item"]), r["hash_id"]] == r["min_hash"]


class TestEstimation:
    def test_estimates_track_exact(self, matrix, word_sets):
        exact = _exact_jaccard(word_sets)
        est = minhash.estimated_similarity(matrix[1], _rows(matrix, *exact))
        for (pair, j), e in zip(exact.items(), est):
            assert e == pytest.approx(j, abs=0.09), pair

    def test_identical_estimates_one(self, matrix):
        [sim] = minhash.estimated_similarity(matrix[1], _rows(matrix, ("high_a", "identical")))
        assert sim == 1.0

    def test_disjoint_estimates_zero(self, matrix):
        [sim] = minhash.estimated_similarity(matrix[1], _rows(matrix, ("disjoint", "high_a")))
        assert sim < 0.05


class TestBanding:
    def test_bucket_count(self, matrix, word_sets):
        keys = minhash.band_keys(matrix[1], rows_per_band=2)
        assert keys.shape == (len(word_sets), 128)  # 256/2 bands

    def test_short_last_band(self, matrix, word_sets):
        keys = minhash.band_keys(matrix[1], rows_per_band=3)
        assert keys.shape == (len(word_sets), 86)  # 85 full bands + 1 hash

    def test_bucket_ids_follow_band_equality(self, matrix):
        sig = matrix[1]
        keys = minhash.band_keys(sig, rows_per_band=2)
        for i, j in itertools.combinations(range(len(sig)), 2):
            for b in range(keys.shape[1]):
                same = (sig[i, 2 * b:2 * b + 2] == sig[j, 2 * b:2 * b + 2]).all()
                assert (keys[i, b] == keys[j, b]) == same

    def test_similar_pairs_proposed(self, matrix):
        keys = minhash.band_keys(matrix[1], rows_per_band=2)
        pairs = _named_pairs(matrix, minhash.banded_pairs(keys))
        assert ("high_a", "high_b") in pairs
        assert ("high_a", "identical") in pairs

    def test_disjoint_pairs_not_proposed(self, matrix):
        keys = minhash.band_keys(matrix[1], rows_per_band=4)
        pairs = _named_pairs(matrix, minhash.banded_pairs(keys))
        assert all("disjoint" not in p for p in pairs)

    def test_pairs_are_ordered_and_distinct(self, matrix):
        pairs = minhash.banded_pairs(minhash.band_keys(matrix[1]))
        assert len(pairs) > 0
        assert (pairs[:, 0] < pairs[:, 1]).all()
        assert len(np.unique(pairs, axis=0)) == len(pairs)

    def test_no_items_no_pairs(self):
        sig = np.zeros((0, 8), np.int64)
        keys = minhash.band_keys(sig)
        assert keys.shape == (0, 4)
        assert minhash.banded_pairs(keys).shape == (0, 2)


class TestCoefficients:
    def test_deterministic_in_seed(self):
        assert minhash._coefficients(16, 1) == minhash._coefficients(16, 1)
        assert minhash._coefficients(16, 1) != minhash._coefficients(16, 2)

    def test_a_nonzero(self):
        a, _ = minhash._coefficients(64, 0)
        assert all(v >= 1 for v in a)
