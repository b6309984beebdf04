"""Profile-pair similarity measures for the Entity Matcher.

SparkER delegates matching to "any existing tool" and demos Magellan's;
the substitute here computes the classic string-similarity features that
such tools use, in one pass over per-profile token maps (no per-pair
UDF loops):

    jaccard   -- Jaccard of the profiles' full token sets
    cosine    -- cosine over TF-IDF token vectors
    lev_norm  -- normalized Levenshtein similarity of a designated
                 "name-like" attribute (Spark's built-in ``levenshtein``)

Each profile is one row: its token → TF-IDF weight map, distinct-token
count and norm. The pairs join that table once per side; the shared
tokens are the ``array_intersect`` of the two maps' keys.
``add_similarities`` decorates a candidate-pair DataFrame with all three.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.window import Window


def _profile_vectors(tokens: DataFrame) -> DataFrame:
    """``(pid, vec, n, norm)``, one row per profile in ``tokens``.

    TF counts each token once per (profile, attribute) — the tokenizer's
    granularity; IDF = ln(N / df) over the N profiles in ``tokens``.
    ``vec`` maps token → TF-IDF weight with entries sorted by token, so
    the sums over it run in the same order on every evaluation.
    """
    n_profiles = tokens.select("pid").distinct().count()
    tf = tokens.groupBy("pid", "token").agg(F.count(F.lit(1)).alias("tf"))
    idf = F.log(F.lit(float(n_profiles)) / F.count(F.lit(1)).over(Window.partitionBy("token")))
    entries = tf.select("pid", F.struct("token", (F.col("tf") * idf).alias("w")).alias("e"))
    vec = F.map_from_entries(F.array_sort(F.collect_list("e")))
    return entries.groupBy("pid").agg(vec.alias("vec")).select(
        "pid",
        "vec",
        F.size("vec").alias("n"),
        F.sqrt(F.aggregate(F.map_values("vec"), F.lit(0.0), lambda a, x: a + x * x)).alias("norm"),
    )


def _join_sides(pairs: DataFrame, table: DataFrame) -> DataFrame:
    """``pairs`` joined to the per-profile ``table`` on ``p1`` and on
    ``p2``; each other column ``c`` of ``table`` comes back as ``c1``/``c2``."""
    for i in (1, 2):
        side = table.select(
            *[F.col(c).alias(f"p{i}" if c == "pid" else f"{c}{i}") for c in table.columns]
        )
        pairs = pairs.join(side, f"p{i}")
    return pairs


def name_values(profiles: DataFrame, name_attrs: list[str]) -> DataFrame:
    """One representative "name" string per profile: the first non-null
    value among ``name_attrs`` (source-qualified), lowercased."""
    order = {a: i for i, a in enumerate(name_attrs)}
    mapping = F.create_map(
        *[x for a in name_attrs for x in (F.lit(a), F.lit(order[a]))]
    )
    ranked = (
        profiles.where(F.col("attribute").isin(name_attrs))
        .withColumn("prio", mapping[F.col("attribute")])
    )
    return (
        ranked.groupBy("pid")
        .agg(F.min_by(F.lower("value"), "prio").alias("name"))
    )


def add_similarities(
    pairs: DataFrame,
    tokens: DataFrame,
    profiles: DataFrame,
    *,
    name_attrs: list[str],
) -> DataFrame:
    """Distinct candidate pairs decorated with all three features; pairs
    with a token-less profile drop out, and a missing name gives
    ``lev_norm`` 0."""
    table = _profile_vectors(tokens).join(name_values(profiles, name_attrs), "pid", "left")
    shared = F.array_intersect(F.map_keys("vec1"), F.map_keys("vec2"))
    dot = F.aggregate(shared, F.lit(0.0), lambda a, t: a + F.col("vec1")[t] * F.col("vec2")[t])
    cosine = F.when(
        (F.col("norm1") > 0) & (F.col("norm2") > 0), dot / (F.col("norm1") * F.col("norm2"))
    ).otherwise(F.lit(0.0))
    name1, name2 = F.col("name1"), F.col("name2")
    lev = 1.0 - F.levenshtein(name1, name2) / F.greatest(F.length(name1), F.length(name2))
    return (
        _join_sides(pairs.select("p1", "p2").distinct(), table)
        .withColumn("inter", F.size(shared))
        .select(
            "p1",
            "p2",
            (F.col("inter") / (F.col("n1") + F.col("n2") - F.col("inter"))).alias("jaccard"),
            cosine.alias("cosine"),
            F.when(name1.isNotNull() & name2.isNotNull(), lev).otherwise(F.lit(0.0)).alias("lev_norm"),
        )
    )
