"""Debug-time data sampling (SparkER §3, after Magellan [9]).

Supervised tuning runs on a sample that must still contain matching
pairs. It is drawn on the driver from one collect of the profile ids and
one of the ``(pid, source, token)`` rows, so it depends only on the data
and the seed, not on Spark's partitioning. The driver holds one int64 per
profile, the token rows, and the postings of one seed's tokens at a time.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.csr import offsets, ranges


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
    pids = np.unique(profiles.select("pid").toArrow()["pid"].to_numpy().astype(np.int64))
    rng = np.random.default_rng(seed)
    seeds = rng.choice(pids, size=min(big_k, len(pids)), replace=False)
    rest = np.setdiff1d(pids, seeds)
    randoms = rng.choice(rest, size=min(big_k * (small_k // 2), len(rest)), replace=False)

    tok = tokens.select("pid", "source", "token").toPandas()
    pid, src = tok["pid"].to_numpy(np.int64), tok["source"].to_numpy(np.int64)
    tok_pids, row = np.unique(pid, return_inverse=True)
    source = np.empty(len(tok_pids), np.int64)
    source[row] = src
    term, vocab = pd.factorize(tok["token"])
    # postings: each token's profile rows, distinct and ascending, so a
    # token under several attributes is shared once
    keys = np.unique(term * len(tok_pids) + row)
    posting, ptr = keys % len(tok_pids), offsets(keys // len(tok_pids), len(vocab))
    likely = []
    for s in seeds:
        mine = pid == s
        own = np.unique(term[mine])
        other = posting[ranges(ptr[own], ptr[own + 1])]
        other = other[~np.isin(source[other], src[mine])]
        partners, shared = np.unique(other, return_counts=True)
        likely += tok_pids[partners[np.argsort(-shared, kind="stable")[: small_k // 2]]].tolist()

    # Seeds and randoms are disjoint; a later reason wins, which keeps the
    # alphabetically first one (likely < random < seed).
    reason = dict.fromkeys(seeds.tolist(), "seed") | dict.fromkeys(randoms.tolist(), "random")
    reason |= dict.fromkeys(likely, "likely")
    sampled = sorted(reason)
    return profiles.sparkSession.createDataFrame(
        pa.table({"pid": sampled, "reason": [reason[p] for p in sampled]}), "pid long, reason string"
    )


def restrict_to_sample(df: DataFrame, sample: DataFrame, *, cols: tuple[str, ...] = ("pid",)) -> DataFrame:
    """Keep only rows whose profile columns all fall in the sample
    (broadcast semi-joins: the sample is small), with ``df``'s columns in
    their order."""
    out = df
    for c in cols:
        out = out.join(F.broadcast(sample.select(F.col("pid").alias(c))), c, "semi")
    return out.select(*df.columns)
