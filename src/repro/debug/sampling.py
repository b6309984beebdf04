"""Debug-time data sampling (SparkER §3, after Magellan [9]).

Supervised tuning iterates quickly, so it runs on a sample that must
still contain matching pairs. The paper adopts Magellan's scheme: pick K
random profiles; for each picked profile take k/2 profiles that *could*
match it (high token overlap) and k/2 random profiles.

The random draws run on the driver: one ``np.random.default_rng(seed)``
over the profile ids sorted by pid, so the sample depends only on the
data and ``seed``, not on how Spark partitions or orders the rows. The
driver holds one int64 per profile. Only the token overlap of the seeds
with every other-source profile runs in Spark, as one join that
broadcasts the seeds' token rows (K profiles). The sample goes back to
Spark as a pyarrow table.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window


def debug_sample(
    profiles: DataFrame,
    tokens: DataFrame,
    *,
    big_k: int = 50,
    small_k: int = 10,
    seed: int = 17,
) -> DataFrame:
    """Return the sampled profile ids, one row per ``pid`` with a
    ``reason`` column in {seed, likely, random}.

    - ``seed``: the K randomly picked profiles;
    - ``likely``: for each seed profile, the ``small_k/2`` other-source
      profiles sharing the most tokens with it (ties to the smaller pid);
    - ``random``: ``small_k/2`` uniformly random non-seed profiles per
      seed, drawn without replacement.

    A profile picked for several reasons keeps the alphabetically first.
    """
    spark = profiles.sparkSession
    pids = np.sort(profiles.select("pid").distinct().toArrow()["pid"].to_numpy().astype(np.int64))
    rng = np.random.default_rng(seed)
    seeds = rng.choice(pids, size=min(big_k, len(pids)), replace=False)
    rest = np.setdiff1d(pids, seeds)
    randoms = rng.choice(rest, size=min(big_k * (small_k // 2), len(rest)), replace=False)

    # A token under several attributes repeats a row; countDistinct below
    # counts it once.
    t_seed = tokens.where(F.col("pid").isin(seeds.tolist())).select(
        F.col("pid").alias("seed_pid"), F.col("source").alias("seed_source"), "token"
    )
    w = Window.partitionBy("seed_pid").orderBy(F.desc("shared"), F.asc("pid"))
    likely = (
        tokens.join(F.broadcast(t_seed), "token")
        .where(F.col("source") != F.col("seed_source"))
        .groupBy("seed_pid", "pid")
        .agg(F.countDistinct("token").alias("shared"))
        .withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= small_k // 2)
        .select("pid")
        .toArrow()["pid"]
        .to_pylist()
    )

    # Seeds and randoms are disjoint; a later reason wins, which keeps the
    # alphabetically first one (likely < random < seed).
    reason = {
        **dict.fromkeys(seeds.tolist(), "seed"),
        **dict.fromkeys(randoms.tolist(), "random"),
        **dict.fromkeys(likely, "likely"),
    }
    pid = sorted(reason)
    return spark.createDataFrame(
        pa.table({"pid": pid, "reason": [reason[p] for p in pid]}), "pid long, reason string"
    )


def restrict_to_sample(df: DataFrame, sample: DataFrame, *, cols: tuple[str, ...] = ("pid",)) -> DataFrame:
    """Keep only rows whose profile columns all fall in the sample
    (broadcast semi-joins: the sample is small)."""
    out = df
    for c in cols:
        out = out.join(F.broadcast(sample.select(F.col("pid").alias(c))), c, "semi")
    return out
