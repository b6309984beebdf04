"""Loose Schema Generator — Entropy Extractor (SparkER §2.1).

Computes the Shannon entropy of each attribute cluster's token
distribution. Blast's intuition: co-occurrence inside a high-entropy
cluster (high value variability, e.g. product names) is stronger evidence
of a match than co-occurrence inside a low-entropy cluster (e.g. a status
flag), so meta-blocking edge weights are scaled by the entropy of the
cluster that generated the block.

Entropies are normalized to (0, 1] by the maximum cluster entropy so the
re-weighting rescales rather than changes units; a degenerate collection
where every cluster has zero entropy normalizes to 1.0 everywhere (no-op).
Spark computes the entropies; the k cluster rows are then collected and
normalized on the driver, and handed back to Spark as a pyarrow table.
"""
from __future__ import annotations

import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def cluster_entropies(tokens_with_cluster: DataFrame) -> DataFrame:
    """Shannon entropy per cluster; returns ``(cluster, entropy, entropy_norm)``,
    a table built on the driver.

    Input must carry ``(cluster, token)`` rows — one per token *occurrence
    assignment* (pid, attribute, token), i.e. the tokenizer output joined
    with the attribute partition. The distribution is over token types
    within the cluster.
    """
    counts = tokens_with_cluster.groupBy("cluster", "token").count()
    # H = -sum(n/T * log2(n/T)) = log2(T) - S/T with T = sum(n), S = sum(n * log2(n)).
    # A cluster of one token type has H = 0 exactly; in floats S/T can come
    # out an ulp below log2(T) (e.g. T = 13), so it is not left to the formula.
    ent = counts.groupBy("cluster").agg(
        F.count(F.lit(1)).alias("types"),
        F.sum("count").alias("t"),
        F.sum(F.col("count") * F.log2("count")).alias("s"),
    ).select(
        "cluster",
        F.when(F.col("types") > 1, F.log2("t") - F.col("s") / F.col("t"))
        .otherwise(F.lit(0.0))
        .alias("entropy"),
    )
    pdf = ent.toPandas()  # one row per cluster
    m = pdf["entropy"].max()  # NaN when there is no cluster
    pdf["entropy_norm"] = pdf["entropy"] / m if m > 0 else 1.0
    return tokens_with_cluster.sparkSession.createDataFrame(
        pa.table(pdf), "cluster int, entropy double, entropy_norm double"
    )
