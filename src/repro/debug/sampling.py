"""Debug-time data sampling (SparkER §3, after Magellan [9]).

Supervised tuning iterates quickly, so it runs on a sample that must
still contain matching pairs. The paper adopts Magellan's scheme: pick K
random profiles; for each picked profile take k/2 profiles that *could*
match it (high token overlap) and k/2 random profiles.

Deterministic in ``seed`` (Spark-side randomness uses seeded functions).
``F.rand`` runs over shuffled rows, whose order may differ between
evaluations, so the sample is drawn once and returned materialized.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window

from repro.core.tokens import profile_token_sets


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
      profiles sharing the most tokens with it;
    - ``random``: ``small_k/2`` uniformly random other profiles per seed.
    """
    ids = profiles.select("pid", "source").distinct()
    seeds = (
        ids.withColumn("r", F.rand(seed))
        .orderBy("r", "pid")
        .limit(big_k)
        .select("pid", "source")
    )

    ts = profile_token_sets(tokens)
    seed_keys = seeds.select(
        F.col("pid").alias("seed_pid"), F.col("source").alias("seed_source")
    )
    t_seed = seed_keys.join(
        ts.select(F.col("pid").alias("seed_pid"), "token"), "seed_pid"
    )
    overlap = (
        t_seed.join(
            ts.select(F.col("pid").alias("cand_pid"), F.col("source"), "token"),
            "token",
        )
        .where(F.col("source") != F.col("seed_source"))
        .groupBy("seed_pid", "cand_pid")
        .agg(F.count(F.lit(1)).alias("shared"))
    )
    w = Window.partitionBy("seed_pid").orderBy(F.desc("shared"), F.asc("cand_pid"))
    likely = (
        overlap.withColumn("rank", F.row_number().over(w))
        .where(F.col("rank") <= small_k // 2)
        .select(F.col("cand_pid").alias("pid"))
    )

    n_random = big_k * (small_k // 2)
    randoms = (
        ids.join(seeds.select("pid"), "pid", "left_anti")
        .withColumn("r", F.rand(seed + 1))
        .orderBy("r", "pid")
        .limit(n_random)
        .select("pid")
    )

    return (
        seeds.select("pid").withColumn("reason", F.lit("seed"))
        .unionByName(likely.withColumn("reason", F.lit("likely")))
        .unionByName(randoms.withColumn("reason", F.lit("random")))
        .groupBy("pid")
        .agg(F.min("reason").alias("reason"))
        .localCheckpoint(eager=True)
    )


def restrict_to_sample(df: DataFrame, sample: DataFrame, *, cols: tuple[str, ...] = ("pid",)) -> DataFrame:
    """Keep only rows whose profile columns all fall in the sample."""
    s = sample.select("pid")
    out = df
    for c in cols:
        out = out.join(s.withColumnRenamed("pid", c), c, "semi")
    return out
