"""Loose Schema Generator — Attribute Partitioning (Blast / SparkER §2.1).

Pipeline, as described in the paper:

1. LSH over attribute *values'* token sets groups attributes into
   overlapping similarity buckets (``repro.looseschema.minhash``).
2. Candidate attribute pairs get a similarity estimate; **for each
   attribute only the most similar partner is kept** (if it clears the
   threshold), yielding attribute pairs.
3. The transitive closure of those pairs partitions attributes into
   non-overlapping clusters (``repro.graph.connected_components``, the
   union-find the Entity Clusterer uses too).
4. Attributes in no cluster fall into the **blob** partition, cluster 0.

The one Spark step is :func:`attribute_token_counts`, one aggregation of
the tokens into ``(attribute, token, x, n)`` rows collected as a pyarrow
table. The partition and the cluster entropies (``repro.looseschema.entropy``)
read it on the driver in numpy and are pyarrow tables too; ``run_blocker``
hands the partition to Spark for its join with the tokens. The driver
holds a string and two int64 per distinct ``(attribute, token)``: no
more rows than ``add_similarities`` collects.

A ``manual`` override lets the demo's supervised mode (Figure 6c) replace
the learned partition with a user-drawn one.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.connected_components import connected_components
from repro.looseschema import minhash

BLOB_CLUSTER = 0
PARTITION = pa.schema([("attribute", pa.string()), ("cluster", pa.int32())])


def attribute_token_counts(tokens: DataFrame) -> pa.Table:
    """One collected row per distinct ``(attribute, token)``: ``x`` is the
    token's ``minhash.fold`` and ``n`` its number of token rows."""
    return (
        tokens.groupBy("attribute", "token")
        .agg(F.count(F.lit(1)).alias("n"))
        .select("attribute", "token", minhash.fold(F.col("token")).alias("x"), "n")
        .toArrow()
    )


def best_partners(
    pairs: np.ndarray, sim: np.ndarray, threshold: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's most similar partner among ``pairs`` with ``sim >=
    threshold``, as ``(rows, partners)``. Ties go to the largest partner,
    i.e. the lexicographically largest attribute name."""
    keep = sim >= threshold
    i, j, s = pairs[keep, 0], pairs[keep, 1], sim[keep]
    src, dst, s = np.r_[i, j], np.r_[j, i], np.r_[s, s]
    order = np.lexsort((dst, s, src))  # by row, then sim, then partner
    src, dst = src[order], dst[order]
    last = np.ones(len(src), bool)
    last[:-1] = src[1:] != src[:-1]
    return src[last], dst[last]


def closure(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Transitive closure of the pairs ``(src, dst)`` over rows ``0..n-1``.

    Returns each row's cluster: 1..k ordered by the cluster's smallest row,
    and ``BLOB_CLUSTER`` for rows in no pair.
    """
    root = connected_components(n, src, dst)
    linked = np.unique(np.r_[src, dst])
    cluster = np.full(n, BLOB_CLUSTER, np.int64)
    cluster[linked] = np.unique(root[linked], return_inverse=True)[1] + 1
    return cluster


def partition_attributes(
    counts: pa.Table,
    *,
    threshold: float = 0.3,
    num_hashes: int = 128,
    rows_per_band: int = 2,
) -> pa.Table:
    """Learn the attribute partition of the :func:`attribute_token_counts`
    rows; returns ``(attribute: string, cluster: int32)``.

    Every attribute of ``counts`` appears exactly once, in name order;
    cluster ids are 1..k for learned clusters, ordered by each cluster's
    smallest attribute name, and 0 for the blob. A pair links at ``sim >=
    threshold``, so at 1.0 only attributes with identical MinHash
    signatures (e.g. identical token sets) form a cluster; when none
    agree, everything is the blob: schema-agnostic blocking.
    """
    attrs, sig = minhash.signatures(counts, num_hashes=num_hashes)
    pairs = minhash.banded_pairs(minhash.band_keys(sig, rows_per_band=rows_per_band))
    sim = minhash.estimated_similarity(sig, pairs)
    cluster = closure(len(attrs), *best_partners(pairs, sim, threshold))
    return pa.table([attrs, cluster], schema=PARTITION)


def manual_partition(counts: pa.Table, clusters: dict[str, int]) -> pa.Table:
    """Supervised mode: the user assigns attributes to clusters by hand.

    ``clusters`` maps source-qualified attribute names to cluster ids
    (use ids >= 1; unlisted attributes fall into the blob). Like
    ``partition_attributes``, the table has one row per distinct
    attribute of the :func:`attribute_token_counts` rows, in name order.
    """
    names = np.unique(counts["attribute"].to_numpy(zero_copy_only=False)).tolist()
    cluster = [int(clusters.get(a, BLOB_CLUSTER)) for a in names]
    return pa.table([names, cluster], schema=PARTITION)
