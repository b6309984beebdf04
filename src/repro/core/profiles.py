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

from functools import reduce
from operator import or_

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import IntegralType


def attr_name(source: int, column: str) -> str:
    """Source-qualified attribute name used throughout the blocker."""
    return f"{source}.{column}"


def _wide(df: DataFrame, source: int) -> DataFrame:
    """``df`` as ``(pid, source)`` and one string column per attribute,
    named by ``attr_name``. Raises ``ValueError`` on the driver, before any
    Spark job, when ``id`` is not of an integral type."""
    id_type = df.schema["id"].dataType
    if not isinstance(id_type, IntegralType):
        raise ValueError(
            f"profile ids of source {source} are null or not integers: id is {id_type.simpleString()}"
        )
    attrs = [F.col(c).cast("string").alias(attr_name(source, c)) for c in df.columns if c != "id"]
    if not attrs:
        raise ValueError("source DataFrame has no attribute columns")
    return df.select(F.col("id").cast("long").alias("pid"), F.lit(source).alias("source"), *attrs)


def _has_value(value: Column) -> Column:
    """Non-null and not blank: a missing attribute simply does not exist in
    a schema-agnostic profile."""
    return value.isNotNull() & (F.trim(value) != "")


def to_profiles(df: DataFrame, *, source: int) -> DataFrame:
    """Melt a wide source DataFrame into the long profile representation:
    every column but ``id`` becomes an attribute, and only the values the
    profile has are kept. Raises ``ValueError`` as ``_wide`` does."""
    wide = _wide(df, source)
    return wide.unpivot(
        ids=["pid", "source"],
        values=[F.col(f"`{c}`") for c in wide.columns[2:]],
        variableColumnName="attribute",
        valueColumnName="value",
    ).where(_has_value(F.col("value")))


def load_clean_clean(df_a: DataFrame, df_b: DataFrame) -> DataFrame:
    """Union the two sources into one profile collection, lazily. Profile
    ids must be non-null integers, unique within and across the sources:
    ``to_profiles`` rejects an ``id`` type, ``count_profiles`` the rest."""
    return to_profiles(df_a, source=1).unionByName(to_profiles(df_b, source=2))


def count_profiles(df_a: DataFrame, df_b: DataFrame) -> int:
    """The number of rows of the two wide sources that have a value, in one
    aggregation that also checks the ids: raises ``ValueError`` unless each
    id is a non-null integer that occurs once in the two sources."""
    def rows(df: DataFrame, source: int) -> DataFrame:
        wide = _wide(df, source)
        present = reduce(or_, (_has_value(F.col(f"`{c}`")) for c in wide.columns[2:]))
        return wide.select("pid", "source", present.alias("present"))

    n_rows, n_ids, n_id_sources, n_distinct, n_profiles = rows(df_a, 1).unionByName(rows(df_b, 2)).agg(
        F.count("*"), F.count("pid"), F.countDistinct("pid", "source"), F.countDistinct("pid"),
        F.count_if("present"),
    ).first()
    for bad, what in [
        (n_rows - n_ids, "are null or not integers"),
        (n_ids - n_id_sources, "repeat within a source"),
        (n_id_sources - n_distinct, "occur in both sources"),
    ]:
        if bad:
            raise ValueError(
                f"{bad} profile ids {what}; clean-clean ER needs one integer id "
                "per profile, unique within and across the sources"
            )
    return n_profiles
