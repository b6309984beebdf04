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
from pyspark.sql.types import IntegralType


def attr_name(source: int, column: str) -> str:
    """Source-qualified attribute name used throughout the blocker."""
    return f"{source}.{column}"


def to_profiles(df: DataFrame, *, source: int) -> DataFrame:
    """Melt a wide source DataFrame into the long profile representation.

    Every column but ``id`` becomes an attribute; values are cast to string;
    null and empty values are dropped (a missing attribute simply does not
    exist in a schema-agnostic profile). Raises ``ValueError`` on the
    driver, before any Spark job, when ``id`` is not of an integral type.
    """
    id_type = df.schema["id"].dataType
    if not isinstance(id_type, IntegralType):
        raise ValueError(
            f"profile ids of source {source} are null or not integers: id is {id_type.simpleString()}"
        )
    value_cols = [c for c in df.columns if c != "id"]
    if not value_cols:
        raise ValueError("source DataFrame has no attribute columns")
    long = df.unpivot(
        ids=["id"],
        values=[F.col(c).cast("string").alias(attr_name(source, c)) for c in value_cols],
        variableColumnName="attribute",
        valueColumnName="value",
    )
    return (
        long.where(F.col("value").isNotNull() & (F.trim("value") != ""))
        .select(
            F.col("id").cast("long").alias("pid"),
            F.lit(source).alias("source"),
            "attribute",
            "value",
        )
    )


def load_clean_clean(df_a: DataFrame, df_b: DataFrame) -> DataFrame:
    """Union the two sources into one profile collection.

    Profile ids must be non-null integers, unique within and across the
    sources (the synthetic generator guarantees this). ``to_profiles``
    rejects an id column that is not of an integral type;
    ``repro.core.pipeline.run_blocker`` checks the rest in the aggregation
    that counts the profiles, and raises ``ValueError`` otherwise.
    """
    return to_profiles(df_a, source=1).unionByName(to_profiles(df_b, source=2))
