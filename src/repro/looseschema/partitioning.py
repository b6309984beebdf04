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

Only the MinHash signatures are computed in Spark. Steps 1-3 work on one
row per attribute (a handful here, about 10⁵ at Blast's DBpedia scale),
so they run in numpy on the driver over the collected signature matrix,
and the partition table is handed to Spark as a pyarrow table.

A ``manual`` override lets the demo's supervised mode (Figure 6c) replace
the learned partition with a user-drawn one.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.graph.connected_components import connected_components
from repro.looseschema import minhash

BLOB_CLUSTER = 0


def attribute_tokens(tokens: DataFrame) -> DataFrame:
    """Distinct ``(attribute, token)`` pairs — each attribute's token set."""
    return tokens.select("attribute", "token").distinct()


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
    tokens: DataFrame,
    *,
    threshold: float = 0.3,
    num_hashes: int = 128,
    rows_per_band: int = 2,
) -> DataFrame:
    """Learn the attribute partition; returns ``(attribute, cluster)``.

    Every attribute present in ``tokens`` appears in the output exactly
    once; cluster ids are 1..k for learned clusters, ordered by each
    cluster's smallest attribute name, and 0 for the blob. A pair links
    at ``sim >= threshold``, so at 1.0 only attributes with identical
    MinHash signatures (e.g. identical token sets) form a cluster; when
    none agree, everything is the blob: schema-agnostic blocking.
    """
    sigs = minhash.signatures(
        attribute_tokens(tokens), item_col="attribute", token_col="token",
        num_hashes=num_hashes,
    )
    attrs, sig = minhash.signature_matrix(sigs, num_hashes)
    pairs = minhash.banded_pairs(minhash.band_keys(sig, rows_per_band=rows_per_band))
    sim = minhash.estimated_similarity(sig, pairs)
    cluster = closure(len(attrs), *best_partners(pairs, sim, threshold))
    return tokens.sparkSession.createDataFrame(
        pa.table({"attribute": attrs, "cluster": cluster}), "attribute string, cluster int"
    )


def manual_partition(
    spark: SparkSession,
    attributes: DataFrame,
    clusters: dict[str, int],
) -> DataFrame:
    """Supervised mode: the user assigns attributes to clusters by hand.

    ``clusters`` maps source-qualified attribute names to cluster ids
    (use ids >= 1; unlisted attributes fall into the blob). Like
    ``partition_attributes``, the table is built on the driver, one row
    per distinct attribute in name order.
    """
    names = sorted(attributes.select("attribute").distinct().toArrow()["attribute"].to_pylist())
    cluster = [int(clusters.get(a, BLOB_CLUSTER)) for a in names]
    return spark.createDataFrame(
        pa.table({"attribute": names, "cluster": cluster}), "attribute string, cluster int"
    )
