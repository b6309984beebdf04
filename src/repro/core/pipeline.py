"""End-to-end SparkER pipeline (Figure 3: Blocker → Matcher → Clusterer).

``run_blocker`` wires the Figure 4 sub-modules: tokenization → (optional)
loose-schema generation (attribute partitioning + entropy extraction) →
token blocking → block purging → block filtering → meta-blocking.
``run_pipeline`` adds matching and clustering on top.

Both return plain dicts of named DataFrames, driver-built pyarrow tables
and metrics so the debug layer and the table harnesses can inspect every
intermediate product, the way the demo GUI displays them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import blocking, filtering, meta_blocking, purging
from repro.core.clusterer import cluster_entities
from repro.core.profiles import count_profiles, load_clean_clean
from repro.core.tokens import tokenize
from repro.looseschema import entropy as entropy_mod
from repro.looseschema import partitioning
from repro.matching.matcher import check_feature, threshold_matcher
from repro.matching.similarity import add_similarities


def _mat(df: DataFrame) -> DataFrame:
    """Eagerly materialize a stage boundary.

    ``localCheckpoint`` truncates lineage; downstream metrics and the
    meta-blocking self-joins re-read the materialized partitions instead
    of re-optimizing and re-running the whole upstream DAG (deep plans
    under lazy ``cache()`` caused pathological re-planning).
    """
    return df.localCheckpoint(eager=True)


@dataclass(frozen=True)
class BlockerConfig:
    """Tuning knobs of the Blocker, mirroring the demo's settings panel."""

    loose_schema: bool = True
    lsh_threshold: float = 0.3
    purge_max_frac: float = 0.5
    filter_ratio: float = 0.8
    run_meta_blocking: bool = True
    weight_scheme: str = "chi2"
    use_entropy: bool = True
    pruning: str = "wnp"
    blast_c: float = 0.35
    cnp_k: int = 10
    manual_clusters: dict[str, int] | None = field(default=None)

    def __post_init__(self) -> None:
        if self.manual_clusters is not None and not self.loose_schema:
            raise ValueError(
                "manual_clusters needs loose_schema=True; schema-agnostic "
                "blocking has no attribute clusters"
            )
        meta_blocking.check_options(
            self.weight_scheme, self.pruning, blast_c=self.blast_c, cnp_k=self.cnp_k
        )
        for name in ("lsh_threshold", "purge_max_frac", "filter_ratio"):
            if not 0 < (value := getattr(self, name)) <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value!r}")


def run_blocker(
    spark: SparkSession,
    source_a: DataFrame,
    source_b: DataFrame,
    cfg: BlockerConfig = BlockerConfig(),
) -> dict:
    """Run the full Blocker; returns every intermediate product.

    Raises ``ValueError`` when a profile id is null or not an integer,
    repeats within a source, or occurs in both sources.

    Keys: profiles (lazy, re-derived from the sources by each reader),
    tokens, attr_clusters and entropies (pyarrow tables, or ``None``
    when not computed), blocks_raw, blocks_purged, blocks, candidates
    (post-meta-blocking when enabled, else the post-filtering
    comparisons), n_profiles (the number of profiles, an int).
    """
    profiles = load_clean_clean(source_a, source_b)
    n_profiles = count_profiles(source_a, source_b)
    tokens = _mat(tokenize(profiles))

    attr_clusters = entropies = None
    if cfg.loose_schema:
        # one row per (attribute, token), read by the partition and the entropies
        counts = partitioning.attribute_token_counts(tokens)
        if cfg.manual_clusters is not None:
            attr_clusters = partitioning.manual_partition(counts, cfg.manual_clusters)
        else:
            attr_clusters = partitioning.partition_attributes(counts, threshold=cfg.lsh_threshold)
        # one row per attribute, built on the driver: broadcast, not shuffled
        part = spark.createDataFrame(pa.table(attr_clusters), "attribute string, cluster int")
        blocks_raw = blocking.loose_schema_blocking(tokens.join(F.broadcast(part), "attribute"))
        if cfg.use_entropy:
            entropies = entropy_mod.cluster_entropies(counts, attr_clusters)
    else:
        blocks_raw = blocking.token_blocking(tokens)

    blocks_purged = purging.purge_blocks(
        blocks_raw, num_profiles=n_profiles, max_frac=cfg.purge_max_frac
    )
    blocks = _mat(filtering.filter_blocks(blocks_purged, ratio=cfg.filter_ratio))

    if cfg.run_meta_blocking:
        candidates = meta_blocking.meta_blocking(
            blocks,
            scheme=cfg.weight_scheme,
            use_entropy=cfg.use_entropy and entropies is not None,
            entropies=entropies,
            pruning=cfg.pruning,
            blast_c=cfg.blast_c,
            cnp_k=cfg.cnp_k,
        )
    else:
        candidates = blocking.candidate_pairs(blocks)

    return {
        "profiles": profiles,
        "tokens": tokens,
        "attr_clusters": attr_clusters,
        "entropies": entropies,
        "blocks_raw": blocks_raw,
        "blocks_purged": blocks_purged,
        "blocks": blocks,
        "candidates": _mat(candidates),
        "n_profiles": n_profiles,
    }


# The name-like attribute of each source, for the ``lev_norm`` feature.
NAME_ATTRS = ["1.name", "2.title"]


def run_pipeline(
    spark: SparkSession,
    source_a: DataFrame,
    source_b: DataFrame,
    cfg: BlockerConfig = BlockerConfig(),
    *,
    match_feature: str = "cosine",
    match_threshold: float = 0.4,
) -> dict:
    """Blocker → Entity Matcher (threshold mode) → Entity Clusterer."""
    check_feature(match_feature)
    out = run_blocker(spark, source_a, source_b, cfg)
    # Not materialised: the pairs are Arrow-backed, and a reader that does
    # not select ``lev_norm`` (the cosine matcher) does not compute it.
    sims = add_similarities(
        out["candidates"], out["tokens"], out["profiles"], name_attrs=NAME_ATTRS
    )
    matches = _mat(threshold_matcher(
        sims, feature=match_feature, threshold=match_threshold
    ))
    clusters = cluster_entities(matches)
    out.update({"similarities": sims, "matches": matches, "clusters": clusters})
    return out
