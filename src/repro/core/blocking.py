"""Token blocking — schema-agnostic and loose-schema (SparkER Blocker).

A *block collection* is represented long-form as one row per block
assignment:

    key: str     -- the blocking key (token, or token ⧺ "_" ⧺ cluster id)
    cluster: int -- attribute cluster the key came from (0 = blob)
    pid: long, source: int
    size: long   -- distinct profiles in the block; filtering drops it

Blocks that cannot generate a clean-clean comparison (fewer than two
profiles, or all profiles from one source) are dropped eagerly — they can
never contribute a candidate pair. That aggregation also yields ``size``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.looseschema.partitioning import BLOB_CLUSTER


def _prune_useless(blocks: DataFrame) -> DataFrame:
    """Drop blocks that cannot produce any cross-source comparison and
    attach the ``size`` of the blocks that stay."""
    stats = blocks.groupBy("key").agg(
        F.countDistinct("pid").alias("size"),
        F.countDistinct("source").alias("n_sources"),
    )
    kept = stats.where((F.col("size") >= 2) & (F.col("n_sources") == 2))
    return blocks.join(kept.select("key", "size"), "key")


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
