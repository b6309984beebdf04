"""Broadcast-join-inspired parallel meta-blocking (the paper's algorithm).

SparkER §2.1: *"The parallel meta-blocking, implemented on Apache Spark,
is inspired by the broadcast join: it partitions the nodes of the blocking
graph and sends in broadcast (i.e., to each partition) all the information
needed to materialize the neighborhood of each node one at a time. Once
the neighborhood of a node is materialized, the pruning function is
applied."*

This module is a faithful PySpark port of that scheme (DESIGN.md "Layering"):

1. the block assignments are collected once into an :class:`Index` over
   compact node ids ``0..n-1`` (``np.unique`` of the pids) — CSR arrays
   node → blocks and block → source-1 then source-2 members, one entropy
   per block — and ``sc.broadcast`` to every executor;
2. the graph's nodes are ``spark.range(n)``; inside ``mapInPandas`` each
   partition materializes one node neighborhood at a time with array
   slices of the index and weighs its edges with `weights.weight` on numpy
   arrays, the formula the Catalyst plan evaluates as Columns;
3. pass A emits ``(u, t, Σw, |w|)`` for every node, and the driver
   broadcasts one dense threshold array back (WEP: the global mean
   Σ(Σw) / Σ|w|, which counts each edge once from each end). Pass B
   re-materializes the source-1 neighborhoods and applies
   ``weights.keep`` to ``t[u]`` and ``t[nbrs]``.

Results are tested to be identical to ``repro.core.meta_blocking``.
"""
from __future__ import annotations

from typing import Iterator, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.csr import offsets, ranges
from repro.core.meta_blocking import PRUNINGS, check_options
from repro.core.weights import keep, weight


class Index(NamedTuple):
    """The broadcast block index. Node ``u``'s blocks are
    ``node_blocks[node_ptr[u]:node_ptr[u + 1]]``; block ``k``'s source-1
    members are ``members[block_ptr[k]:block_mid[k]]`` and its source-2
    members ``members[block_mid[k]:block_ptr[k + 1]]``."""

    pids: np.ndarray  # node -> pid
    source: np.ndarray  # node -> 1 or 2
    b: np.ndarray  # node -> number of its blocks, np.diff(node_ptr)
    node_ptr: np.ndarray
    node_blocks: np.ndarray
    block_ptr: np.ndarray
    block_mid: np.ndarray
    members: np.ndarray
    block_ent: np.ndarray  # block -> entropy of its cluster (1.0 without entropy)


def _build_index(blocks: DataFrame, entropies: pa.Table | None) -> Index:
    """Collect the block assignments and build the broadcast index."""
    pdf = blocks.select("key", "cluster", "pid", "source").toPandas()
    pdf = pdf.drop_duplicates().sort_values(["pid", "key"])
    pids, node = np.unique(pdf["pid"].to_numpy(np.int64), return_inverse=True)
    _, first, block = np.unique(pdf["key"].to_numpy(), return_index=True, return_inverse=True)
    src = pdf["source"].to_numpy(np.int64)
    ent = np.ones(len(pdf))
    if entropies is not None:
        ent = pdf["cluster"].map(entropies.to_pandas().set_index("cluster")["entropy_norm"])
        ent = ent.fillna(1.0).to_numpy(np.float64)
    n, n_blocks = len(pids), len(first)
    node_ptr, block_ptr = offsets(node, n), offsets(block, n_blocks)
    block_mid = block_ptr[:-1] + np.bincount(block[src == 1], minlength=n_blocks)
    # the rows are sorted by (pid, key), so `block` lists each node's blocks in order
    return Index(pids, src[node_ptr[:-1]], np.diff(node_ptr), node_ptr, block,
                 block_ptr, block_mid, node[np.lexsort((src, block))], ent[first])


def _neighborhood(u: int, idx: Index, *, scheme: str, use_entropy: bool):
    """Materialize node ``u``'s neighborhood: (neighbor nodes, weights)."""
    bids = idx.node_blocks[idx.node_ptr[u]:idx.node_ptr[u + 1]]
    if idx.source[u] == 1:
        lo, hi = idx.block_mid[bids], idx.block_ptr[bids + 1]
    else:
        lo, hi = idx.block_ptr[bids], idx.block_mid[bids]
    lens = hi - lo
    nbrs, inv, cbs = np.unique(idx.members[ranges(lo, hi)], return_inverse=True, return_counts=True)
    b1, b2 = (idx.b[u], idx.b[nbrs]) if idx.source[u] == 1 else (idx.b[nbrs], idx.b[u])
    ent = np.bincount(inv, np.repeat(idx.block_ent[bids], lens)) / cbs if use_entropy else None
    w = weight(scheme, cbs=cbs, b1=b1, b2=b2, n_blocks=len(idx.block_ent), ent=ent, where=np.where)
    return nbrs, w


def _threshold(weights: np.ndarray, *, pruning: str, blast_c: float, cnp_k: int) -> float:
    """A node's threshold from its edge weights. WEP's per-node mean is
    not used: the driver replaces it by the global mean."""
    if pruning in ("wep", "wnp"):
        return float(weights.mean())
    if pruning == "blast":
        return float(blast_c * weights.max())
    if pruning == "cnp":
        return float(np.sort(weights)[-min(cnp_k, len(weights))])
    raise ValueError(f"unknown pruning {pruning!r}; pick one of {PRUNINGS}")


def meta_blocking_broadcast(
    spark: SparkSession,
    blocks: DataFrame,
    *,
    scheme: str = "cbs",
    use_entropy: bool = False,
    entropies: pa.Table | None = None,
    pruning: str = "wnp",
    blast_c: float = 0.35,
    cnp_k: int = 10,
) -> DataFrame:
    """Paper-faithful parallel meta-blocking; same contract as
    :func:`repro.core.meta_blocking.meta_blocking`."""
    check_options(scheme, pruning, blast_c=blast_c, cnp_k=cnp_k)
    if use_entropy and entropies is None:
        raise ValueError("use_entropy=True requires the entropies table")

    sc = spark.sparkContext
    b_index = sc.broadcast(_build_index(blocks, entropies if use_entropy else None))
    n = len(b_index.value.pids)
    nodes = spark.range(n)
    mb = dict(scheme=scheme, use_entropy=use_entropy)

    def pass_a(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx = b_index.value
        for batch in batches:
            ws = ((u, _neighborhood(u, idx, **mb)[1]) for u in batch["id"])
            rows = [(u, _threshold(w, pruning=pruning, blast_c=blast_c, cnp_k=cnp_k),
                     w.sum(), len(w)) for u, w in ws if len(w)]
            yield pd.DataFrame(rows, columns=["u", "t", "s", "c"])

    a = nodes.mapInPandas(pass_a, "u long, t double, s double, c long").toPandas()
    t = np.zeros(n)
    t[a["u"].to_numpy(np.int64)] = a["t"].to_numpy(np.float64)
    if pruning == "wep" and len(a):
        t[:] = a["s"].sum() / a["c"].sum()
    b_thresh = sc.broadcast(t)

    def pass_b(batches: Iterator[pd.DataFrame]) -> Iterator[pd.DataFrame]:
        idx, t = b_index.value, b_thresh.value
        for batch in batches:
            us = batch["id"].to_numpy(np.int64)
            parts = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
            for u in us[idx.source[us] == 1]:
                nbrs, w = _neighborhood(u, idx, **mb)
                kept = keep(pruning, w, t[u], t[nbrs])
                parts.append((np.full(kept.sum(), u), nbrs[kept], w[kept]))
            u, v, w = (np.concatenate(col) for col in zip(*parts))
            yield pd.DataFrame({"p1": idx.pids[u], "p2": idx.pids[v], "weight": w})

    return nodes.mapInPandas(pass_b, "p1 long, p2 long, weight double")
