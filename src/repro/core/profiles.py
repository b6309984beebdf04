"""Schema-agnostic entity-profile model (SparkER "Entity Profiles Loading").

SparkER treats each profile as a bag of ``attribute → value`` pairs and
ignores schema alignment. The canonical internal representation is a *long*
DataFrame with one row per (profile, attribute, value):

    pid: long      -- globally unique profile id (across both sources)
    source: int    -- 1 or 2 (clean-clean ER)
    attribute: str -- source-qualified attribute name, e.g. "1.name"
    value: str     -- the attribute value, cast to string

Attribute names are qualified with the source id because the two sources
have heterogeneous schemas; loose-schema partitioning clusters these
qualified attributes.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def attr_name(source: int, column: str) -> str:
    """Source-qualified attribute name used throughout the blocker."""
    return f"{source}.{column}"


def to_profiles(df: DataFrame, *, source: int, id_col: str = "id") -> DataFrame:
    """Melt a wide source DataFrame into the long profile representation.

    Every non-id column becomes an attribute; values are cast to string;
    null and empty values are dropped (a missing attribute simply does not
    exist in a schema-agnostic profile).
    """
    value_cols = [c for c in df.columns if c != id_col]
    if not value_cols:
        raise ValueError("source DataFrame has no attribute columns")
    long = df.unpivot(
        ids=[id_col],
        values=[F.col(c).cast("string").alias(c) for c in value_cols],
        variableColumnName="attribute",
        valueColumnName="value",
    )
    return (
        long.where(F.col("value").isNotNull() & (F.trim("value") != ""))
        .select(
            F.col(id_col).cast("long").alias("pid"),
            F.lit(source).alias("source"),
            F.concat(F.lit(f"{source}."), F.col("attribute")).alias("attribute"),
            F.col("value"),
        )
    )


def load_clean_clean(df_a: DataFrame, df_b: DataFrame, *, id_col: str = "id") -> DataFrame:
    """Union the two sources into one profile collection.

    Profile ids must already be globally unique across the sources (the
    synthetic generator guarantees this). This function does not check it;
    ``repro.core.pipeline.run_blocker`` does, in the aggregation that
    counts the profiles, and raises ``ValueError`` on a collision.
    """
    return to_profiles(df_a, source=1, id_col=id_col).unionByName(
        to_profiles(df_b, source=2, id_col=id_col)
    )
