"""Broadcast-join-inspired parallel meta-blocking (the paper's algorithm).

SparkER §2.1: *"The parallel meta-blocking, implemented on Apache Spark,
is inspired by the broadcast join: it partitions the nodes of the blocking
graph and sends in broadcast (i.e., to each partition) all the information
needed to materialize the neighborhood of each node one at a time. Once
the neighborhood of a node is materialized, the pruning function is
applied."*

This module is a faithful PySpark port of that scheme (the one deliberate
non-Catalyst code path in this reproduction — see DESIGN.md "Layering"):

1. a compact block index (block → profile arrays, profile → block ids,
   per-block entropy) is built once and ``sc.broadcast`` to every executor;
2. the graph's *nodes* are a DataFrame, partitioned by Spark; inside
   ``mapInPandas`` each partition materializes one node neighborhood at a
   time from the broadcast index and computes its edge weights with the
   same numpy formulas the Catalyst implementation uses (`weights.weight_np`);
3. node-local pruning needs both endpoints' thresholds, so the scheme runs
   two passes: pass A computes every node's threshold (broadcast back),
   pass B re-materializes source-1 neighborhoods and applies the combined
   pruning rule.

Results are tested to be identical to ``repro.core.meta_blocking``.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.meta_blocking import PRUNINGS, check_options
from repro.core.weights import weight_np


def _build_index(blocks: DataFrame, entropies: DataFrame | None):
    """Collect the broadcastable block index to the driver.

    Returns ``(block_s1, block_s2, block_ent, profile_blocks, b_count,
    n_blocks)`` where blocks are densely re-numbered ints.
    """
    assignments = blocks.select("key", "cluster", "pid", "source").distinct()
    pdf = assignments.toPandas()
    keys = {k: i for i, k in enumerate(sorted(pdf["key"].unique()))}
    pdf["bid"] = pdf["key"].map(keys)

    ent_by_cluster: dict[int, float] = {}
    if entropies is not None:
        epdf = entropies.select("cluster", "entropy_norm").toPandas()
        ent_by_cluster = dict(zip(epdf["cluster"], epdf["entropy_norm"]))

    n_blocks = len(keys)
    block_s1: list[np.ndarray] = [None] * n_blocks
    block_s2: list[np.ndarray] = [None] * n_blocks
    block_ent = np.ones(n_blocks, dtype=np.float64)
    for (bid, cluster), grp in pdf.groupby(["bid", "cluster"]):
        block_s1[bid] = grp.loc[grp["source"] == 1, "pid"].to_numpy(np.int64)
        block_s2[bid] = grp.loc[grp["source"] == 2, "pid"].to_numpy(np.int64)
        block_ent[bid] = ent_by_cluster.get(cluster, 1.0)

    profile_blocks: dict[int, np.ndarray] = {
        pid: grp["bid"].to_numpy(np.int64) for pid, grp in pdf.groupby("pid")
    }
    b_count = {pid: len(bids) for pid, bids in profile_blocks.items()}
    return block_s1, block_s2, block_ent, profile_blocks, b_count, n_blocks


def _neighborhood(node: int, source: int, index, *, scheme: str, use_entropy: bool):
    """Materialize one node's neighborhood: (neighbors, weights) arrays."""
    block_s1, block_s2, block_ent, profile_blocks, b_count, n_blocks = index
    other = block_s2 if source == 1 else block_s1
    bids = profile_blocks.get(node)
    if bids is None or len(bids) == 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    nbr_parts, ent_parts = [], []
    for bid in bids:
        arr = other[bid]
        if arr is None or len(arr) == 0:
            continue
        nbr_parts.append(arr)
        ent_parts.append(np.full(len(arr), block_ent[bid]))
    if not nbr_parts:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    nbrs_all = np.concatenate(nbr_parts)
    ents_all = np.concatenate(ent_parts)
    order = np.argsort(nbrs_all, kind="stable")
    nbrs_all, ents_all = nbrs_all[order], ents_all[order]
    uniq, start, cbs = np.unique(nbrs_all, return_index=True, return_counts=True)
    ent_mean = np.add.reduceat(ents_all, start) / cbs
    b_self = np.full(len(uniq), b_count[node], dtype=np.float64)
    b_other = np.array([b_count[p] for p in uniq], dtype=np.float64)
    b1, b2 = (b_self, b_other) if source == 1 else (b_other, b_self)
    w = weight_np(
        scheme, cbs=cbs, b1=b1, b2=b2, n_blocks=n_blocks,
        ent=ent_mean if use_entropy else None,
    )
    return uniq, w


def _threshold(weights: np.ndarray, *, pruning: str, blast_c: float, cnp_k: int) -> float:
    if pruning == "wnp":
        return float(weights.mean())
    if pruning == "blast":
        return float(blast_c * weights.max())
    if pruning == "cnp":
        ws = np.sort(weights)[::-1]
        return float(ws[min(cnp_k, len(ws)) - 1])
    raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")


def meta_blocking_broadcast(
    spark: SparkSession,
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: DataFrame | None = None,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Paper-faithful parallel meta-blocking; same contract as
    :func:`repro.core.meta_blocking.meta_blocking`."""
    check_options(scheme, pruning)
    if use_entropy and entropies is None:
        raise ValueError("use_entropy=True requires the entropies table")

    index = _build_index(blocks, entropies if use_entropy else None)
    sc = spark.sparkContext
    b_index = sc.broadcast(index)

    nodes = (
        blocks.select("pid", "source").distinct()
        .select(F.col("pid").cast("long"), F.col("source").cast("int"))
    )

    def pass_a(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx = b_index.value
        for batch in batches:
            out_node, out_t = [], []
            for node, source in zip(batch["pid"], batch["source"]):
                _, w = _neighborhood(
                    int(node), int(source), idx, scheme=scheme, use_entropy=use_entropy
                )
                if len(w) == 0:
                    continue
                out_node.append(int(node))
                out_t.append(_threshold(w, pruning=pruning, blast_c=blast_c, cnp_k=cnp_k))
            yield pd.DataFrame({"node": pd.Series(out_node, dtype="int64"),
                                "t": pd.Series(out_t, dtype="float64")})

    def pass_a_wep(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx = b_index.value
        for batch in batches:
            s, n = 0.0, 0
            # source-1 nodes only, so every edge is counted exactly once
            for node in batch.loc[batch["source"] == 1, "pid"]:
                _, w = _neighborhood(int(node), 1, idx, scheme=scheme, use_entropy=use_entropy)
                s += float(w.sum())
                n += len(w)
            yield pd.DataFrame({"s": [s], "n": [n]})

    if pruning == "wep":
        agg = (
            nodes.mapInPandas(pass_a_wep, "s double, n long")
            .agg(F.sum("s").alias("s"), F.sum("n").alias("n"))
            .collect()[0]
        )
        global_t = (agg["s"] / agg["n"]) if agg["n"] else 0.0
        thresholds: dict[int, float] = {}
    else:
        tdf = nodes.mapInPandas(pass_a, "node long, t double").toPandas()
        thresholds = dict(zip(tdf["node"].astype(int), tdf["t"]))
        global_t = 0.0
    b_thresh = sc.broadcast(thresholds)

    def pass_b(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx = b_index.value
        t = b_thresh.value
        for batch in batches:
            p1s, p2s, ws = [], [], []
            for node in batch.loc[batch["source"] == 1, "pid"]:
                node = int(node)
                nbrs, w = _neighborhood(node, 1, idx, scheme=scheme, use_entropy=use_entropy)
                if len(w) == 0:
                    continue
                if pruning == "wep":
                    keep = w >= global_t
                else:
                    t1 = t[node]
                    t2 = np.array([t[p] for p in nbrs])
                    if pruning == "blast":
                        keep = w >= (t1 + t2) / 2
                    else:  # wnp, cnp
                        keep = (w >= t1) | (w >= t2)
                p1s.extend([node] * int(keep.sum()))
                p2s.extend(nbrs[keep].tolist())
                ws.extend(w[keep].tolist())
            yield pd.DataFrame({"p1": pd.Series(p1s, dtype="int64"),
                                "p2": pd.Series(p2s, dtype="int64"),
                                "weight": pd.Series(ws, dtype="float64")})

    return nodes.mapInPandas(pass_b, "p1 long, p2 long, weight double")
