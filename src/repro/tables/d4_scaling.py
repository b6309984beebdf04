"""Table D4 — scaling the blocker (the paper's title claim).

SparkER's reason to exist is that the naive all-pairs comparison "is
impracticable when the data volume increases" and that blocking +
meta-blocking keep the comparison count tractable. This table grows the
synthetic dataset (``size_mult``) and reports, per size: profiles, naive
cross-source comparisons, candidates after blocking and after
meta-blocking, the recall retained, and the wall time of ``run_blocker``
(which materialises the candidates) on the local Spark session, after one
untimed warm-up run at mult=1.
"""
from __future__ import annotations

import time

from pyspark.sql import SparkSession

from repro.core import blocking
from repro.core.pipeline import BlockerConfig, run_blocker
from repro.data import er_synth
from repro.debug.evaluation import pair_metrics


def run(
    spark: SparkSession,
    *,
    n_entities: int = 1500,
    size_mults: tuple[int, ...] = (1, 2, 4),
) -> list[dict]:
    """One row per dataset size."""
    a, b, _ = er_synth.to_spark(spark, er_synth.generate(n_entities=n_entities))
    run_blocker(spark, a, b, BlockerConfig())  # warm-up
    rows = []
    for mult in size_mults:
        ds = er_synth.generate(n_entities=n_entities, size_mult=mult)
        a, b, gt = er_synth.to_spark(spark, ds)
        n_a, n_b = len(ds.source_a), len(ds.source_b)
        t0 = time.perf_counter()
        out = run_blocker(spark, a, b, BlockerConfig())
        wall = time.perf_counter() - t0
        mb = pair_metrics(out["candidates"], gt)
        rows.append({
            "size_mult": mult,
            "profiles": ds.n_profiles,
            "naive_pairs": n_a * n_b,
            # candidate_pairs is distinct: its count is the number of pairs
            "block_cands": blocking.candidate_pairs(out["blocks"]).count(),
            "mb_cands": mb.n_pairs,
            "mb_recall": mb.recall,
            "vs_naive": (n_a * n_b) / max(mb.n_pairs, 1),
            "blocker_secs": wall,
        })
    return rows
