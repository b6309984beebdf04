"""Token blocking — schema-agnostic and loose-schema (SparkER Blocker).

A *block collection* is represented long-form as one row per block
assignment:

    key: str     -- the blocking key (token, or token ⧺ "_" ⧺ cluster id)
    cluster: int -- attribute cluster the key came from (0 = blob)
    pid: long, source: int
    size: long   -- distinct profiles in the block; filtering drops it

Blocks that cannot generate a clean-clean comparison (all profiles from
one source, which includes every one-profile block) are dropped eagerly —
they can never contribute a candidate pair. The same window over the key
that finds them also yields ``size``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from repro.looseschema.partitioning import BLOB_CLUSTER


def _prune_useless(blocks: DataFrame) -> DataFrame:
    """Drop blocks that cannot produce any cross-source comparison and
    attach the ``size`` of the blocks that stay.

    One window over the key: ``size`` is its row count and a block stays
    iff it holds both sources. That is exact because ``blocks`` has one
    row per (key, pid), as the blocking functions' ``distinct`` makes it,
    and a pid belongs to one source only, which ``run_blocker`` enforces:
    rows are then distinct profiles, and two sources imply two profiles.
    """
    w = Window.partitionBy("key")
    return (
        blocks.select(
            "*",
            F.count(F.lit(1)).over(w).alias("size"),
            (F.min("source").over(w) != F.max("source").over(w)).alias("useful"),
        )
        .where("useful")
        .drop("useful")
    )


def token_blocking(tokens: DataFrame) -> DataFrame:
    """Schema-agnostic token blocking (Figure 1b): key = token."""
    blocks = tokens.select(
        F.col("token").alias("key"),
        F.lit(BLOB_CLUSTER).alias("cluster"),
        "pid",
        "source",
    ).distinct()
    return _prune_useless(blocks)


def loose_schema_blocking(tagged_tokens: DataFrame) -> DataFrame:
    """Loose-schema blocking (Figure 2b): key = token ⧺ "_" ⧺ cluster id.

    The same token under attributes in different clusters yields distinct
    keys ("simonini_1" vs "simonini_2"), disambiguating its role.
    ``tagged_tokens`` is the tokenizer output joined with the
    ``(attribute, cluster)`` partition: ``(pid, source, token, cluster)``.
    """
    blocks = (
        tagged_tokens.select(
            F.concat_ws("_", "token", F.col("cluster").cast("string")).alias("key"),
            "cluster",
            "pid",
            "source",
        )
        .distinct()
    )
    return _prune_useless(blocks)


def candidate_pairs(blocks: DataFrame) -> DataFrame:
    """Distinct cross-source comparisons induced by a block collection:
    ``(p1, p2)`` with p1 from source 1 and p2 from source 2."""
    s1 = blocks.where(F.col("source") == 1).select("key", F.col("pid").alias("p1"))
    s2 = blocks.where(F.col("source") == 2).select("key", F.col("pid").alias("p2"))
    return s1.join(s2, "key").select("p1", "p2").distinct()
