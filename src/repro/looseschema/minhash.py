"""MinHash signatures in Spark; LSH banding and similarity estimation in numpy.

Used by loose-schema attribute partitioning: each attribute is represented
by the set of tokens occurring in its values; MinHash signatures estimate
Jaccard similarity between attributes, and LSH banding proposes candidate
attribute pairs without the quadratic all-pairs comparison.

Only the signature step scales with the data, so ``signatures`` is the one
distributed step (pure DataFrame, no UDFs). Everything after it works on
one row per item: ``signature_matrix`` collects the signatures to the
driver as an ``items × num_hashes`` int64 matrix, and banding, candidate
pairs and similarity estimates are computed on that matrix. The driver
bound is the matrix itself: 10⁵ attributes × 128 hashes ≈ 100 MB of int64.

Hash family: ``h_i(t) = (a_i * x + b_i) mod P`` over
``x = xxhash64(token) mod P``, with ``a_i, b_i`` drawn from a seeded
generator and ``P = 2^31 - 1`` (Mersenne prime). The modulus must be the
same size as the ``x`` domain so the affine map wraps around many times
and behaves like a random permutation — with a modulus much larger than
``a_i * x`` the map is monotone in ``x`` and every hash function elects
the same minimum token, collapsing the signature (we hit exactly that bug
with a 2^61-1 modulus). ``a_i * x < 2^62`` fits a signed 64-bit long.

Banding buckets items by exact equality of each band's min-hash tuple. An
earlier DataFrame implementation bucketed by ``xxhash64`` of the
concatenated min-hashes, where a 64-bit hash collision could add a
spurious candidate pair; exact equality cannot.
"""
from __future__ import annotations

import itertools

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

_P = (1 << 31) - 1


def _coefficients(num_hashes: int, seed: int) -> tuple[list[int], list[int]]:
    g = np.random.default_rng(seed)
    a = g.integers(1, _P, num_hashes).tolist()
    b = g.integers(0, _P, num_hashes).tolist()
    return a, b


def signatures(
    item_tokens: DataFrame,
    *,
    item_col: str = "item",
    token_col: str = "token",
    num_hashes: int = 128,
    seed: int = 42,
) -> DataFrame:
    """MinHash signatures: one row per ``(item, hash_id, min_value)``.

    ``item_tokens`` must be distinct per (item, token).
    """
    a, b = _coefficients(num_hashes, seed)
    # xxhash64 is signed; fold into [0, P) before the affine map.
    x = (F.xxhash64(F.col(token_col)) % _P + _P) % _P
    hashed = item_tokens.select(
        F.col(item_col).alias("item"),
        x.alias("x"),
        F.posexplode(F.array([F.lit(v) for v in a])).alias("hash_id", "a"),
    ).withColumn("b", F.element_at(F.array([F.lit(v) for v in b]), F.col("hash_id") + 1))
    val = (F.col("a") * F.col("x") + F.col("b")) % _P
    return (
        hashed.select("item", "hash_id", val.alias("h"))
        .groupBy("item", "hash_id")
        .agg(F.min("h").alias("min_hash"))
    )


def signature_matrix(sigs: DataFrame, num_hashes: int) -> tuple[list[str], np.ndarray]:
    """Collect ``signatures`` to the driver: the items in name order and the
    ``items × num_hashes`` int64 matrix whose row ``i`` is item ``i``'s
    signature."""
    pdf = sigs.select("item", "hash_id", "min_hash").toPandas()
    items, row = np.unique(pdf["item"].to_numpy(object), return_inverse=True)
    sig = np.zeros((len(items), num_hashes), np.int64)
    sig[row, pdf["hash_id"].to_numpy(np.int64)] = pdf["min_hash"].to_numpy(np.int64)
    return items.tolist(), sig


def band_keys(sig: np.ndarray, *, rows_per_band: int = 2) -> np.ndarray:
    """LSH banding: an ``items × bands`` matrix of bucket ids. Two rows get
    the same id in band ``b`` iff their min-hashes in that band are equal;
    the last band is short when ``rows_per_band`` does not divide the
    number of hashes."""
    starts = range(0, sig.shape[1], rows_per_band)
    keys = np.empty((sig.shape[0], len(starts)), np.int64)
    for b, s in enumerate(starts):
        _, inverse = np.unique(sig[:, s:s + rows_per_band], axis=0, return_inverse=True)
        keys[:, b] = inverse.reshape(-1)
    return keys


def banded_pairs(keys: np.ndarray) -> np.ndarray:
    """Distinct row pairs ``(i, j)``, ``i < j``, that share a bucket in some
    band, as an ``n × 2`` int64 array in lexicographic order."""
    pairs: set[tuple[int, int]] = set()
    for col in keys.T:
        # A stable sort keeps each bucket's rows in ascending order.
        order = np.argsort(col, kind="stable")
        for bucket in np.split(order, np.flatnonzero(np.diff(col[order])) + 1):
            pairs.update(itertools.combinations(bucket.tolist(), 2))
    return np.array(sorted(pairs), np.int64).reshape(-1, 2)


def estimated_similarity(sig: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Estimated Jaccard of each row pair: the fraction of matching
    signature positions."""
    return (sig[pairs[:, 0]] == sig[pairs[:, 1]]).sum(axis=1) / sig.shape[1]
