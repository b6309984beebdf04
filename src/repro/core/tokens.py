"""Tokenization for schema-agnostic blocking.

Blocking keys in SparkER are the tokens appearing anywhere in a profile,
regardless of attribute (Figure 1b). The tokenizer lowercases, splits on
any non-alphanumeric run, and drops tokens shorter than ``min_len``.

The one case fold of the package is :func:`fold_case`, which the
tokenizer and the matcher's name fold (``repro.matching.similarity``)
share. It is ``lower`` on values with a non-ASCII character and maps
``A-Z`` to ``a-z`` on the rest, which is what ``lower`` does to ASCII
text, without the ICU case-mapping start-up of the first ``lower`` in a
JVM (≈2 s). Data that holds non-ASCII text pays that start-up once per
JVM.
"""
from __future__ import annotations

from string import ascii_lowercase, ascii_uppercase

from pyspark.sql import Column, DataFrame
from pyspark.sql import functions as F

TOKEN_SPLIT_RE = "[^a-z0-9]+"


def fold_case(value: Column) -> Column:
    """``lower(value)``; a value is non-ASCII exactly when its UTF-8
    encoding is longer than its number of characters."""
    return F.when(F.octet_length(value) != F.length(value), F.lower(value)).otherwise(
        F.translate(value, ascii_uppercase, ascii_lowercase)
    )


def tokenize(profiles: DataFrame, *, min_len: int = 2) -> DataFrame:
    """Explode profile values into ``(pid, source, attribute, token)`` rows.

    The output is distinct per (pid, attribute, token): repeating a token
    inside one attribute value does not create extra blocking assignments,
    but the same token under two attributes is kept twice because loose-
    schema blocking derives *different* keys from it (token ⧺ partition id).
    """
    return (
        profiles.select(
            "pid",
            "source",
            "attribute",
            F.explode(F.split(fold_case(F.col("value")), TOKEN_SPLIT_RE)).alias("token"),
        )
        .where(F.length("token") >= min_len)
        .distinct()
    )
