"""Block Filtering (SparkER §2.1, after [10]).

For each profile, drop it from the largest ``1 - ratio`` fraction of the
blocks it appears in (paper: largest 20 %, i.e. ratio = 0.8). Smaller
blocks carry more discriminative keys, so trimming each profile's largest
blocks raises precision with little recall cost.

Implemented with a window over each profile's blocks ordered by
blocking's ``size`` column (ties broken by key for determinism); the
output drops ``size``, which removing profiles makes stale.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window


def filter_blocks(blocks: DataFrame, *, ratio: float = 0.8) -> DataFrame:
    """Keep each profile only in the ``ceil(ratio * |B(p)|)`` smallest of
    its blocks. ``ratio=1.0`` keeps every row. Returns
    ``(key, cluster, pid, source)``."""
    if not 0 < ratio <= 1:
        raise ValueError(f"ratio must be in (0, 1], got {ratio}")
    w = Window.partitionBy("pid").orderBy(F.asc("size"), F.asc("key"))
    wc = Window.partitionBy("pid")
    return (
        blocks.withColumn("rank", F.row_number().over(w))
        .withColumn("n_blocks", F.count(F.lit(1)).over(wc))
        .where(F.col("rank") <= F.ceil(F.col("n_blocks") * ratio))
        .select("key", "cluster", "pid", "source")
    )
