"""Table D3 — end-to-end ER: matcher sweep + clustering (Figures 3 and 5).

The demo lets the user "try different similarity techniques (e.g.
Jaccard, cosine, etc.) with different thresholds" in the matching phase
(§3), then clusters the matches with connected components. This table
sweeps the unsupervised matchers and adds the supervised
logistic-regression row (the Magellan-style mode), reporting match-pair
precision/recall/F1 and the final clustered-entity pair quality.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from repro.core.clusterer import cluster_entities
from repro.core.pipeline import BlockerConfig, run_pipeline
from repro.data import er_synth
from repro.debug.evaluation import cluster_pair_metrics, pair_metrics
from repro.matching.matcher import (
    logistic_matcher,
    threshold_matcher,
    train_logistic,
)

SWEEP: list[tuple[str, str, float]] = [
    ("jaccard @ 0.30", "jaccard", 0.30),
    ("cosine @ 0.30", "cosine", 0.30),
    ("cosine @ 0.40", "cosine", 0.40),
    ("cosine @ 0.50", "cosine", 0.50),
    ("levenshtein @ 0.60", "lev_norm", 0.60),
]
# The sweep row whose matcher ``run_pipeline`` runs: its matches and
# clusters are the pipeline's own.
PIPELINE_ROW = 2


def run(spark: SparkSession, *, n_entities: int = 1500) -> list[dict]:
    """One row per matcher configuration (threshold sweep + supervised)."""
    ds = er_synth.generate(n_entities=n_entities)
    a, b, gt = er_synth.to_spark(spark, ds)
    _, feature, threshold = SWEEP[PIPELINE_ROW]
    out = run_pipeline(
        spark, a, b, BlockerConfig(), match_feature=feature, match_threshold=threshold
    )
    sims = out["similarities"]

    rows = []

    def add_row(label: str, matches, clusters) -> None:
        mm = pair_metrics(matches, gt)
        cm = cluster_pair_metrics(clusters, gt)
        rows.append({
            "matcher": label,
            "matches": mm.n_pairs,
            "match_p": mm.precision,
            "match_r": mm.recall,
            "match_f1": mm.f1,
            "cluster_p": cm.precision,
            "cluster_r": cm.recall,
            "cluster_f1": cm.f1,
        })

    def clustered(matches):
        """``matches``, materialized, and their clusters."""
        matches = matches.localCheckpoint(eager=True)
        return matches, cluster_entities(matches)

    for i, (label, feature, threshold) in enumerate(SWEEP):
        if i == PIPELINE_ROW:
            add_row(label, out["matches"], out["clusters"])
        else:
            add_row(label, *clustered(threshold_matcher(sims, feature=feature, threshold=threshold)))

    # Supervised mode: label a sample of candidates from the ground truth
    # (standing in for the user's manual labels), train, score everything.
    labeled = (
        sims.join(gt.withColumn("label", F.lit(1)), ["p1", "p2"], "left")
        .fillna({"label": 0})
        .toPandas()
    )
    train = labeled.sample(frac=0.3, random_state=7)
    model = train_logistic(train)
    add_row("logistic (supervised)", *clustered(logistic_matcher(sims, model)))
    return rows
