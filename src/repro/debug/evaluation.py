"""Process-debugging metrics (SparkER §3 and Figure 6).

Per-step assessment against a ground truth: pair recall ("pairs
completeness"), pair precision ("pairs quality"), F1, counts, and the
lost-pair drilldown behind the demo's *Debug* button — the ground-truth
pairs missing after blocking (the paper calls them "false positives"),
each with the tokens the two profiles share, so the user can see *why*
the pair was lost under the current attribute partition.

Every metric compares pair sets with the ground truth in one way: the
two id columns, cast to long, are collected as one Arrow table, reduced
to their distinct rows and joined on the driver with pyarrow. The driver
holds 16 B per distinct pair (≈38 MB at 2.4 M pairs). A null id is kept:
two pairs with a null in the same place are one pair, and a null never
joins, so such a pair counts on its own side and is never true. The
drilldown also collects the token rows of the lost pairs' profiles.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
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


def _distinct(df: DataFrame, cols: tuple[str, str] = ("p1", "p2")) -> pa.Table:
    """The distinct rows of ``cols``, cast to long, collected in one job."""
    ids = df.select(*(F.col(c).cast("long").alias(c) for c in cols)).toArrow()
    return ids.group_by(list(cols)).aggregate([])


def pair_metrics(pairs: DataFrame, ground_truth: DataFrame) -> PairMetrics:
    """Score candidate/match pairs against the ground truth."""
    p, gt = _distinct(pairs), _distinct(ground_truth)
    n_true = p.join(gt, ["p1", "p2"], join_type="inner").num_rows
    return PairMetrics(n_pairs=p.num_rows, n_gt=gt.num_rows, n_true=n_true)


def lost_pairs(pairs: DataFrame, ground_truth: DataFrame) -> DataFrame:
    """Ground-truth pairs absent from ``pairs`` — Figure 6d's list."""
    lost = _distinct(ground_truth).join(_distinct(pairs), ["p1", "p2"], join_type="left anti")
    return ground_truth.sparkSession.createDataFrame(pa.table(lost), "p1 long, p2 long")


def explain_lost_pair(lost: DataFrame, tokens: DataFrame) -> DataFrame:
    """For each lost pair, the tokens the two profiles share and the
    sorted attributes each side carries them under — enough to see which
    blocking keys *would* have covered the pair (the demo's per-pair
    drilldown). A pair with a null id, or whose profiles share no token,
    gives no row."""
    pairs = _distinct(lost).drop_null().to_pandas()
    ids = np.union1d(pairs["p1"], pairs["p2"]).tolist()
    tok = tokens.where(F.col("pid").isin(ids)).select("pid", "token", "attribute").toPandas()
    attrs = tok.groupby(["pid", "token"])["attribute"].agg(lambda a: sorted(set(a))).reset_index()
    side = {p: attrs.rename(columns={"pid": p, "attribute": f"attrs_{p[1]}"}) for p in ("p1", "p2")}
    shared = pairs.merge(side["p1"], on="p1").merge(side["p2"], on=["p2", "token"])
    return lost.sparkSession.createDataFrame(
        pa.table(shared.sort_values(["p1", "p2", "token"], ignore_index=True)),
        "p1 long, p2 long, token string, attrs_1 array<string>, attrs_2 array<string>",
    )


def cluster_pair_metrics(clusters: DataFrame, ground_truth: DataFrame) -> PairMetrics:
    """End-to-end entity quality as pair metrics over the intra-cluster
    pairs ``(p1, p2)``, p1 < p2, counted without listing them: a cluster
    of s profiles holds s(s−1)/2 pairs, and a distinct ground-truth pair
    is true when p1 < p2 and both pids are in one cluster. ``clusters``
    needs columns (pid, entity); a row with a null is ignored, and a pid
    under two entities raises ``ValueError``."""
    cl = _distinct(clusters, ("pid", "entity")).drop_null()
    if pc.count_distinct(cl["pid"]).as_py() != cl.num_rows:
        raise ValueError("clusters put a pid under two entities")
    gt = _distinct(ground_truth)
    n_true = (
        gt.filter(pc.less(gt["p1"], gt["p2"]))
        .join(cl.rename_columns(["p1", "entity"]), "p1", join_type="inner")
        .join(cl.rename_columns(["p2", "entity"]), ["p2", "entity"], join_type="inner")
        .num_rows
    )
    sizes = pc.value_counts(cl["entity"]).field("counts").to_numpy()
    n_pairs = int((sizes * (sizes - 1) // 2).sum())
    return PairMetrics(n_pairs=n_pairs, n_gt=gt.num_rows, n_true=n_true)
