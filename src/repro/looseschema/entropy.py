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
The entropies are numpy sums over the collected per-``(attribute, token)``
counts (``partitioning.attribute_token_counts``), joined to the partition
in pyarrow; the k cluster rows are a pyarrow table, which meta-blocking's
``build_graph`` hands to Spark for its join.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa

ENTROPIES = pa.schema(
    [("cluster", pa.int32()), ("entropy", pa.float64()), ("entropy_norm", pa.float64())]
)


def cluster_entropies(counts: pa.Table, attr_clusters: pa.Table) -> pa.Table:
    """Shannon entropy per cluster; returns ``(cluster: int32, entropy:
    double, entropy_norm: double)`` in cluster order.

    ``counts`` holds ``attribute_token_counts``' ``(attribute, token, n)``
    rows, and ``attr_clusters`` the ``(attribute, cluster)`` partition. A
    cluster's distribution is over token types, each counted by the sum
    of ``n`` over the cluster's attributes.
    """
    occ = (
        counts.join(attr_clusters.select(["attribute", "cluster"]), "attribute")
        .group_by(["cluster", "token"])
        .aggregate([("n", "sum")])
    )
    cluster, k = np.unique(occ["cluster"].to_numpy(), return_inverse=True)
    n = occ["n_sum"].to_numpy().astype(np.float64)
    # H = -sum(n/T * log2(n/T)) = log2(T) - S/T with T = sum(n), S = sum(n * log2(n)).
    # A cluster of one token type has H = 0 exactly; in floats S/T can come
    # out an ulp below log2(T) (e.g. T = 13), so it is not left to the formula.
    t = np.bincount(k, n, len(cluster))
    s = np.bincount(k, n * np.log2(n), len(cluster))
    entropy = np.where(np.bincount(k, minlength=len(cluster)) > 1, np.log2(t) - s / t, 0.0)
    m = entropy.max(initial=0.0)
    norm = entropy / m if m > 0 else np.ones_like(entropy)
    return pa.table([cluster, entropy, norm], schema=ENTROPIES)
