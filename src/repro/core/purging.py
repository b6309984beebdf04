"""Block Purging (SparkER §2.1, after [10]).

Discards oversized blocks corresponding to highly frequent blocking keys
(stop words): any block containing more than ``max_frac`` of all profiles
in the collection (paper default: one half) is removed wholesale. Purging
trades a negligible amount of recall — a pair co-occurring *only* under a
stop word was never a credible candidate — for a large cut in comparisons.
It filters rows on blocking's ``size`` column; as it removes whole blocks,
the sizes it leaves stay exact for filtering.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def purge_blocks(
    blocks: DataFrame,
    *,
    num_profiles: int,
    max_frac: float = 0.5,
) -> DataFrame:
    """Remove blocks with more than ``max_frac * num_profiles`` profiles.

    ``num_profiles`` is the size of the whole profile collection (both
    sources), passed explicitly so the threshold does not silently shift
    when purging runs on an already-reduced collection.
    """
    if not 0 < max_frac <= 1:
        raise ValueError(f"max_frac must be in (0, 1], got {max_frac}")
    return blocks.where(F.col("size") <= max_frac * num_profiles)
