"""Tokenization for schema-agnostic blocking.

Blocking keys in SparkER are the tokens appearing anywhere in a profile,
regardless of attribute (Figure 1b). The tokenizer lowercases, splits on
any non-alphanumeric run, and drops tokens shorter than ``min_len``.

Only ``[a-z0-9]`` runs survive the split, so the case fold needs to be
exact on ASCII letters only. It maps ``A-Z`` and the two non-ASCII code
points whose lowercase contains an ASCII letter (U+0130 İ → ``i̇``,
U+212A Kelvin sign → ``k``), which gives the same tokens as a full
Unicode ``lower`` without its ICU case-mapping start-up in the JVM.
"""
from __future__ import annotations

from string import ascii_lowercase, ascii_uppercase

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
    # F.lower on everything that can reach a token (module docstring),
    # without the ICU start-up of the first lower() in a JVM.
    folded = F.translate(
        F.regexp_replace("value", "\u0130", "i\u0307"),
        ascii_uppercase + "\u212a",
        ascii_lowercase + "k",
    )
    return (
        profiles.select(
            "pid",
            "source",
            "attribute",
            F.explode(F.split(folded, TOKEN_SPLIT_RE)).alias("token"),
        )
        .where(F.length("token") >= min_len)
        .distinct()
    )
