"""Table D1 — blocking-debug sweep (demo Figure 6a-6d).

The demo walks three attribute-partitioning configurations on Abt-Buy and
displays, for each: the attribute clusters, recall, precision, number of
blocks, number of candidate pairs, and the number of ground-truth pairs
lost during blocking (the paper's "false positives"). The configurations:

  6(a)  clustering threshold 1.0  -> every attribute in the blob cluster,
        i.e. plain schema-agnostic token blocking (two attributes with
        identical MinHash signatures would still form a cluster);
  6(b)  threshold 0.3             -> learned clusters (text vs prices);
        "precision slightly increases [and] candidate pairs reduced";
  6(c)  manual name/description split -> "the number of false positives
        increases"; the Debug view (6d) shows the lost pairs match on
        keys referring to the name and description attributes.

All three rows run the blocker *without* meta-blocking (that is Figure
6e, Table D2). Measured on the synthetic Abt-Buy (see DESIGN.md).
"""
from __future__ import annotations

from pyspark.sql import SparkSession

from repro.core.pipeline import BlockerConfig, run_blocker
from repro.data import er_synth
from repro.debug.evaluation import pair_metrics
from repro.looseschema.partitioning import BLOB_CLUSTER

# The demo user's (ill-advised) edit: split name-ish attributes from
# description-ish ones; manufacturer is left unassigned (blob).
MANUAL_SPLIT = {
    "1.name": 1, "2.title": 1,
    "1.description": 2, "2.descr": 2,
    "1.price": 3, "2.cost": 3,
}

CONFIGS: list[tuple[str, BlockerConfig]] = [
    (
        "6a schema-agnostic (t=1.0)",
        BlockerConfig(lsh_threshold=1.0, run_meta_blocking=False),
    ),
    (
        "6b auto partition (t=0.3)",
        BlockerConfig(lsh_threshold=0.3, run_meta_blocking=False),
    ),
    (
        "6c manual name/desc split",
        BlockerConfig(manual_clusters=MANUAL_SPLIT, run_meta_blocking=False),
    ),
]


def run(spark: SparkSession, *, n_entities: int = 1500) -> list[dict]:
    """One row per demo configuration."""
    ds = er_synth.generate(n_entities=n_entities)
    a, b, gt = er_synth.to_spark(spark, ds)
    rows = []
    for label, cfg in CONFIGS:
        out = run_blocker(spark, a, b, cfg)
        m = pair_metrics(out["candidates"], gt)
        n_clusters = len(set(out["attr_clusters"]["cluster"].to_pylist()) - {BLOB_CLUSTER})
        rows.append({
            "config": label,
            "clusters": n_clusters,
            "blocks": out["blocks"].select("key").distinct().count(),
            "candidates": m.n_pairs,
            "recall": m.recall,
            "precision": m.precision,
            "lost_pairs": m.n_lost,
        })
    return rows
