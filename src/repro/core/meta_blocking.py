"""Meta-blocking on the DataFrame API (SparkER Blocker, final stage).

The blocking graph has profiles as nodes and co-occurring clean-clean
pairs as edges. Edges are weighted (``repro.core.weights``), optionally
re-weighted by attribute-cluster entropy (Blast), then pruned:

    wep    global:     keep w >= mean over all edges (the Fig. 1c toy rule)
    wnp    node-local: t_p = mean of p's edge weights;    keep-if-either
    blast  node-local: t_p = c * max of p's edge weights; keep w >= (t1+t2)/2
    cnp    node-local: t_p = k-th largest of p's weights; keep-if-either

All node-local strategies share one shape — a per-node threshold plus a
combine rule — which is also exactly how the broadcast implementation
(`repro.core.broadcast_mb`) computes them, so the two implementations can
be tested for equality.

The paper implements this stage over RDDs with a broadcast-join-inspired
scheme; here the primary implementation is native Catalyst (self-join on
block key + aggregation), per the reproduction guidelines. See DESIGN.md.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.weights import SCHEMES, weight_col

PRUNINGS = ("wep", "wnp", "blast", "cnp")


def check_options(scheme: str, pruning: str) -> None:
    """Reject an unknown weighting scheme or pruning strategy up front, on
    the driver, before any Spark job runs."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if pruning not in PRUNINGS:
        raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")


def build_graph(
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: DataFrame | None = None,
) -> DataFrame:
    """Materialize the weighted blocking graph.

    Returns ``(p1, p2, cbs, b1, b2, ent, weight)``, one row per candidate
    pair. ``entropies`` is the ``(cluster, entropy_norm)`` table from the
    Entropy Extractor and is required when ``use_entropy`` is set.
    """
    if use_entropy and entropies is None:
        raise ValueError("use_entropy=True requires the entropies table")

    assignments = blocks.select("key", "cluster", "pid", "source").distinct()
    if use_entropy:
        assignments = assignments.join(
            entropies.select("cluster", "entropy_norm"), "cluster", "left"
        ).fillna({"entropy_norm": 1.0})
    else:
        assignments = assignments.withColumn("entropy_norm", F.lit(1.0))

    n_blocks = assignments.select("key").distinct().count()
    b_counts = assignments.groupBy("pid").agg(F.countDistinct("key").alias("b"))

    s1 = assignments.where(F.col("source") == 1).select(
        "key", F.col("pid").alias("p1"), F.col("entropy_norm").alias("e")
    )
    s2 = assignments.where(F.col("source") == 2).select("key", F.col("pid").alias("p2"))
    edges = (
        s1.join(s2, "key")
        .groupBy("p1", "p2")
        .agg(F.count(F.lit(1)).alias("cbs"), F.avg("e").alias("ent"))
    )
    edges = (
        edges.join(b_counts.select(F.col("pid").alias("p1"), F.col("b").alias("b1")), "p1")
        .join(b_counts.select(F.col("pid").alias("p2"), F.col("b").alias("b2")), "p2")
    )
    w = weight_col(
        scheme,
        cbs=F.col("cbs"),
        b1=F.col("b1"),
        b2=F.col("b2"),
        n_blocks=n_blocks,
        ent=F.col("ent") if use_entropy else None,
    )
    return edges.withColumn("weight", w)


def _node_thresholds(edges: DataFrame, *, pruning: str, blast_c: float, cnp_k: int) -> DataFrame:
    """Per-node pruning threshold ``(node, t)`` for the node-local strategies."""
    per_node = edges.select(F.col("p1").alias("node"), "weight").unionByName(
        edges.select(F.col("p2").alias("node"), "weight")
    )
    if pruning == "wnp":
        return per_node.groupBy("node").agg(F.avg("weight").alias("t"))
    if pruning == "blast":
        return per_node.groupBy("node").agg((F.lit(blast_c) * F.max("weight")).alias("t"))
    if pruning == "cnp":
        # k-th largest weight (or the minimum when a node has < k edges).
        return (
            per_node.groupBy("node")
            .agg(F.sort_array(F.collect_list("weight"), asc=False).alias("ws"))
            .select(
                "node",
                F.element_at("ws", F.least(F.lit(cnp_k), F.size("ws"))).alias("t"),
            )
        )
    raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")


def prune(
    edges: DataFrame,
    *,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Apply the pruning strategy; returns retained ``(p1, p2, weight)``."""
    if pruning == "wep":
        mean = edges.agg(F.avg("weight").alias("t"))
        return (
            edges.crossJoin(mean)
            .where(F.col("weight") >= F.col("t"))
            .select("p1", "p2", "weight")
        )
    t = _node_thresholds(edges, pruning=pruning, blast_c=blast_c, cnp_k=cnp_k)
    joined = (
        edges.join(t.select(F.col("node").alias("p1"), F.col("t").alias("t1")), "p1")
        .join(t.select(F.col("node").alias("p2"), F.col("t").alias("t2")), "p2")
    )
    if pruning == "blast":
        cond = F.col("weight") >= (F.col("t1") + F.col("t2")) / 2
    else:  # wnp, cnp: redundancy-positive, keep if either endpoint keeps it
        cond = (F.col("weight") >= F.col("t1")) | (F.col("weight") >= F.col("t2"))
    return joined.where(cond).select("p1", "p2", "weight")


def meta_blocking(
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: DataFrame | None = None,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Full meta-blocking: weighted graph construction + pruning."""
    check_options(scheme, pruning)
    edges = build_graph(
        blocks, scheme=scheme, use_entropy=use_entropy, entropies=entropies
    )
    # The pruning stage reads the edge list twice (thresholds + filter);
    # materialize it once instead of re-running the blocking self-join.
    edges = edges.localCheckpoint(eager=True)
    return prune(edges, pruning=pruning, blast_c=blast_c, cnp_k=cnp_k)
