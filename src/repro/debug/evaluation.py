"""Process-debugging metrics (SparkER §3 and Figure 6).

Per-step assessment against a ground truth: pair recall ("pairs
completeness"), pair precision ("pairs quality"), F1, counts, and the
lost-pair drilldown behind the demo's *Debug* button — the ground-truth
pairs missing after blocking (the paper calls them "false positives"),
each with the tokens the two profiles share, so the user can see *why*
the pair was lost under the current attribute partition.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class PairMetrics:
    """Recall/precision of a set of pairs w.r.t. the ground truth."""

    n_pairs: int
    n_gt: int
    n_true: int

    @property
    def recall(self) -> float:
        return self.n_true / self.n_gt if self.n_gt else 0.0

    @property
    def precision(self) -> float:
        return self.n_true / self.n_pairs if self.n_pairs else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0

    @property
    def n_lost(self) -> int:
        """Ground-truth pairs not covered (the demo's "false positives")."""
        return self.n_gt - self.n_true


def _norm_pairs(pairs: DataFrame) -> DataFrame:
    return pairs.select(
        F.col("p1").cast("long").alias("p1"), F.col("p2").cast("long").alias("p2")
    ).distinct()


def pair_metrics(pairs: DataFrame, ground_truth: DataFrame) -> PairMetrics:
    """Score candidate/match pairs against the ground truth, in one action
    over a full outer join of the distinct pair sets (null ids never match)."""
    p = _norm_pairs(pairs).withColumn("in_p", F.lit(1))
    gt = _norm_pairs(ground_truth).withColumn("in_gt", F.lit(1))
    both = F.col("in_p") + F.col("in_gt")  # null unless the pair is on both sides
    n_pairs, n_gt, n_true = (
        p.join(gt, ["p1", "p2"], "full_outer")
        .agg(F.count("in_p"), F.count("in_gt"), F.count(both))
        .first()
    )
    return PairMetrics(n_pairs=n_pairs, n_gt=n_gt, n_true=n_true)


def lost_pairs(pairs: DataFrame, ground_truth: DataFrame) -> DataFrame:
    """Ground-truth pairs absent from ``pairs`` — Figure 6d's list."""
    return _norm_pairs(ground_truth).join(_norm_pairs(pairs), ["p1", "p2"], "left_anti")


def explain_lost_pair(lost: DataFrame, tokens: DataFrame) -> DataFrame:
    """For each lost pair, the tokens the two profiles share and the
    attributes each side carries them under — enough to see which blocking
    keys *would* have covered the pair (the demo's per-pair drilldown)."""
    t1 = tokens.select(
        F.col("pid").alias("p1"), "token", F.col("attribute").alias("attr1")
    )
    t2 = tokens.select(
        F.col("pid").alias("p2"), "token", F.col("attribute").alias("attr2")
    )
    return (
        lost.join(t1, "p1")
        .join(t2, ["p2", "token"])
        .groupBy("p1", "p2", "token")
        .agg(
            F.sort_array(F.collect_set("attr1")).alias("attrs_1"),
            F.sort_array(F.collect_set("attr2")).alias("attrs_2"),
        )
    )


def cluster_pair_metrics(clusters: DataFrame, ground_truth: DataFrame) -> PairMetrics:
    """End-to-end entity quality as pair metrics over the intra-cluster
    pairs ``(p1, p2)``, p1 < p2, counted on the driver without listing
    them: a cluster of s profiles holds s(s−1)/2 pairs, and a distinct
    ground-truth pair is true when p1 < p2 and both pids are in one
    cluster. ``clusters`` needs columns (pid, entity); a row with a null
    is ignored, and a pid under two entities raises ``ValueError``."""
    cl = (
        clusters.select(F.col("pid").cast("long"), F.col("entity").cast("long"))
        .dropna()
        .toPandas()
        .drop_duplicates()
    )
    if cl["pid"].duplicated().any():
        raise ValueError("clusters put a pid under two entities")
    # Null ids are kept for n_gt (pair_metrics counts them) as flags
    # beside a 0 placeholder, so the id columns stay exact int64.
    p1, p2 = (F.col(c).cast("long") for c in ("p1", "p2"))
    gt = (
        ground_truth.select(
            F.coalesce(p1, F.lit(0)).alias("p1"), F.coalesce(p2, F.lit(0)).alias("p2"),
            p1.isNull().alias("null1"), p2.isNull().alias("null2"),
        )
        .toPandas()
        .drop_duplicates()
    )
    n_gt = len(gt)
    gt = gt[~(gt["null1"] | gt["null2"]) & (gt["p1"] < gt["p2"])]
    both = gt.merge(cl.rename(columns={"pid": "p1"}), on="p1").merge(
        cl.rename(columns={"pid": "p2"}), on="p2"
    )
    n_true = int((both["entity_x"] == both["entity_y"]).sum())
    sizes = cl["entity"].value_counts().to_numpy()
    n_pairs = int((sizes * (sizes - 1) // 2).sum())
    return PairMetrics(n_pairs=n_pairs, n_gt=n_gt, n_true=n_true)
