"""Tokenization for schema-agnostic blocking.

Blocking keys in SparkER are the tokens appearing anywhere in a profile,
regardless of attribute (Figure 1b). The tokenizer lowercases, splits on
any non-alphanumeric run, and drops tokens shorter than ``min_len``.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

TOKEN_SPLIT_RE = "[^a-z0-9]+"


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
            F.explode(F.split(F.lower("value"), TOKEN_SPLIT_RE)).alias("token"),
        )
        .where(F.length("token") >= min_len)
        .distinct()
    )

