"""Table D5 — parallel meta-blocking implementations (§2.1).

The paper's meta-blocking is "inspired by the broadcast join": node
partitions receive a broadcast block index and materialize one
neighborhood at a time. This table runs that implementation
(``repro.core.broadcast_mb``) and the Catalyst DataFrame implementation
(``repro.core.meta_blocking``) on the same blocking graph and reports
retained candidates, result equality, and wall time for each.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core.broadcast_mb import meta_blocking_broadcast
from repro.core.meta_blocking import meta_blocking
from repro.core.pipeline import BlockerConfig, run_blocker
from repro.data import er_synth
from repro.debug.evaluation import pair_metrics


def run(spark: SparkSession, *, n_entities: int = 1500) -> list[dict]:
    """Two rows: DataFrame-native vs broadcast-index implementation, both
    χ²·entropy weights with WNP pruning (the 6e configuration)."""
    ds = er_synth.generate(n_entities=n_entities)
    a, b, gt = er_synth.to_spark(spark, ds)
    out = run_blocker(
        spark, a, b, BlockerConfig(lsh_threshold=0.3, run_meta_blocking=False)
    )
    kw = dict(scheme="chi2", use_entropy=True, entropies=out["entropies"])

    t0 = time.perf_counter()
    df_cands = meta_blocking(out["blocks"], **kw).localCheckpoint(eager=True)
    df_secs = time.perf_counter() - t0

    t0 = time.perf_counter()
    bc_cands = meta_blocking_broadcast(spark, out["blocks"], **kw).localCheckpoint(
        eager=True
    )
    bc_secs = time.perf_counter() - t0

    both = pair_metrics(df_cands, bc_cands)
    sym_diff = both.n_pairs + both.n_gt - 2 * both.n_true

    rows = []
    for label, cands, secs in [
        ("DataFrame (Catalyst joins)", df_cands, df_secs),
        ("broadcast index (paper §2.1)", bc_cands, bc_secs),
    ]:
        m = pair_metrics(cands, gt)
        rows.append({
            "implementation": label,
            "candidates": m.n_pairs,
            "recall": m.recall,
            "precision": m.precision,
            "secs": secs,
            "result_sym_diff": sym_diff,
        })
    return rows
