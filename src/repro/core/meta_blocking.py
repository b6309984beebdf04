"""Meta-blocking on the DataFrame API (SparkER Blocker, final stage).

The blocking graph has profiles as nodes and co-occurring clean-clean
pairs as edges. Edges are weighted by ``weights.weight`` as a Column
expression, optionally re-weighted by attribute-cluster entropy (Blast),
then pruned:

    wep    global:     keep w >= mean over all edges (the Fig. 1c toy rule)
    wnp    node-local: t_p = mean of p's edge weights;    keep-if-either
    blast  node-local: t_p = c * max of p's edge weights; keep w >= (t1+t2)/2
    cnp    node-local: t_p = k-th largest of p's weights; keep-if-either

Every strategy has one shape — thresholds for the two endpoints plus the
combine rule ``weights.keep`` (which allows a relative float slack of
``weights.REL_TOL``) — and the broadcast implementation
(`repro.core.broadcast_mb`) applies the same weight formula and rule to
numpy arrays, so the two implementations can be tested for equality.

The paper implements this stage over RDDs with a broadcast-join-inspired
scheme; here the primary implementation is one Catalyst plan (DESIGN.md):
a window count over ``pid`` puts ``b`` on the assignment rows, the self-
join on the block key (entropies broadcast-joined to its rows) is summed
per ``(p1, p2)``, and each endpoint's threshold is a window over ``p1`` or
``p2`` (WEP: over all edges). That
window is the node's whole neighbourhood because a pid belongs to one
source only, which ``run_blocker`` enforces; ``blocks`` has one row per
(key, pid), as the blocking stages produce.
"""
from __future__ import annotations

from numbers import Integral

import pyarrow as pa
from pyspark.sql import Column, DataFrame, Window
from pyspark.sql import functions as F

from repro.core.weights import SCHEMES, keep, weight

PRUNINGS = ("wep", "wnp", "blast", "cnp")


def check_options(scheme: str, pruning: str, *, blast_c: float = 0.35, cnp_k: int = 10) -> None:
    """Reject an unknown weighting scheme or pruning strategy, a ``cnp_k``
    that is not an int >= 1 or a ``blast_c`` outside (0, 1], up front, on
    the driver, before any Spark job runs."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if pruning not in PRUNINGS:
        raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")
    if not isinstance(cnp_k, Integral) or cnp_k < 1:
        raise ValueError(f"cnp_k must be an int >= 1, got {cnp_k!r}")
    if not 0 < blast_c <= 1:
        raise ValueError(f"blast_c must be in (0, 1], got {blast_c!r}")


def build_graph(
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: pa.Table | None = None,
) -> DataFrame:
    """The weighted blocking graph.

    Returns ``(p1, p2, b1, b2, cbs, ent, weight)``, one row per candidate
    pair. ``entropies`` is the Entropy Extractor's pyarrow table with
    ``cluster`` and ``entropy_norm`` columns, required when ``use_entropy``
    is set.
    """
    if use_entropy and entropies is None:
        raise ValueError("use_entropy=True requires the entropies table")

    # only chi2 needs the number of blocks, and it is a driver-side literal
    n_blocks = blocks.select("key").distinct().count() if scheme == "chi2" else 0

    # Both sides project the same columns, so Spark plans the pid exchange
    # and window once; a key's cluster is a function of the key.
    assignments = blocks.select(
        "key", "cluster", "pid", "source",
        F.count(F.lit(1)).over(Window.partitionBy("pid")).alias("b"),
    )
    s1, s2 = (
        assignments.where(F.col("source") == s)
        .select("key", "cluster", F.col("pid").alias(f"p{s}"), F.col("b").alias(f"b{s}"))
        for s in (1, 2)
    )
    pairs = s1.join(s2, ["key", "cluster"])
    if use_entropy:
        # k rows, one per attribute cluster: broadcast, not shuffled
        ent = blocks.sparkSession.createDataFrame(
            pa.table(entropies.select(["cluster", "entropy_norm"])),
            "cluster int, entropy_norm double",
        )
        pairs = pairs.join(F.broadcast(ent), "cluster", "left")
        e = F.coalesce("entropy_norm", F.lit(1.0))
    else:
        e = F.lit(1.0)
    edges = pairs.groupBy("p1", "p2", "b1", "b2").agg(
        F.count(F.lit(1)).alias("cbs"), F.avg(e).alias("ent"),
    )
    w = weight(scheme, cbs=F.col("cbs"), b1=F.col("b1"), b2=F.col("b2"), n_blocks=n_blocks,
               ent=F.col("ent") if use_entropy else None,
               where=lambda cond, a, b: F.when(cond, a).otherwise(b))
    return edges.withColumn("weight", w)


def _threshold(node: str, *, pruning: str, blast_c: float, cnp_k: int) -> Column:
    """Threshold of each edge's ``node`` endpoint (``"p1"`` or ``"p2"``),
    a window aggregate over that node's edges."""
    if pruning == "wep":
        return F.avg("weight").over(Window.partitionBy())
    nbhd = Window.partitionBy(node)
    if pruning == "wnp":
        return F.avg("weight").over(nbhd)
    if pruning == "blast":
        return F.lit(blast_c) * F.max("weight").over(nbhd)
    if pruning == "cnp":
        # k-th largest weight, or the minimum when the node has < k edges
        ranked = nbhd.orderBy(F.desc("weight")).rowsBetween(
            Window.unboundedPreceding, Window.unboundedFollowing
        )
        return F.coalesce(F.nth_value("weight", cnp_k).over(ranked), F.min("weight").over(ranked))
    raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")


def prune(
    edges: DataFrame,
    *,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Apply the pruning strategy; returns retained ``(p1, p2, weight)``."""
    opts = dict(pruning=pruning, blast_c=blast_c, cnp_k=cnp_k)
    edges = edges.withColumn("t1", _threshold("p1", **opts))
    # WEP's threshold is global: one window, shared by both endpoints
    t2 = F.col("t1") if pruning == "wep" else _threshold("p2", **opts)
    return edges.withColumn("t2", t2).where(
        keep(pruning, F.col("weight"), F.col("t1"), F.col("t2"))
    ).select("p1", "p2", "weight")


def meta_blocking(
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: pa.Table | None = None,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Full meta-blocking: weighted graph construction + pruning."""
    check_options(scheme, pruning, blast_c=blast_c, cnp_k=cnp_k)
    edges = build_graph(blocks, scheme=scheme, use_entropy=use_entropy, entropies=entropies)
    return prune(edges, pruning=pruning, blast_c=blast_c, cnp_k=cnp_k)
