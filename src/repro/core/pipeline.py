"""End-to-end SparkER pipeline (Figure 3: Blocker → Matcher → Clusterer).

``run_blocker`` wires the Figure 4 sub-modules: tokenization → (optional)
loose-schema generation (attribute partitioning + entropy extraction) →
token blocking → block purging → block filtering → meta-blocking.
``run_pipeline`` adds matching and clustering on top.

Both return plain dicts of named DataFrames/metrics so the debug layer
and the table harnesses can inspect every intermediate product, the way
the demo GUI displays them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core import blocking, filtering, meta_blocking, purging
from repro.core.clusterer import cluster_entities
from repro.core.profiles import load_clean_clean
from repro.core.tokens import tokenize
from repro.looseschema import entropy as entropy_mod
from repro.looseschema import partitioning
from repro.matching.matcher import threshold_matcher
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
    num_hashes: int = 128
    rows_per_band: int = 2
    purge_max_frac: float = 0.5
    filter_ratio: float = 0.8
    run_meta_blocking: bool = True
    weight_scheme: str = "chi2"
    use_entropy: bool = True
    pruning: str = "wnp"
    blast_c: float = 0.35
    cnp_k: int = 10
    token_min_len: int = 2
    manual_clusters: dict[str, int] | None = field(default=None)


def run_blocker(
    spark: SparkSession,
    source_a: DataFrame,
    source_b: DataFrame,
    cfg: BlockerConfig = BlockerConfig(),
) -> dict:
    """Run the full Blocker; returns every intermediate product.

    Raises ``ValueError`` when a profile id occurs in both sources.

    Keys: profiles, tokens, attr_clusters, entropies, blocks_raw,
    blocks_purged, blocks, candidates (post-meta-blocking when enabled,
    else the post-filtering comparisons).
    """
    profiles = _mat(load_clean_clean(source_a, source_b))
    n_profiles, n_pid_sources = profiles.agg(
        F.countDistinct("pid"), F.countDistinct("pid", "source")
    ).first()
    if n_profiles != n_pid_sources:
        raise ValueError(
            f"{n_pid_sources - n_profiles} profile ids occur in both sources; "
            "clean-clean ER needs ids that are unique across the sources"
        )
    tokens = _mat(tokenize(profiles, min_len=cfg.token_min_len))

    attr_clusters = entropies = None
    if cfg.loose_schema:
        if cfg.manual_clusters is not None:
            attr_clusters = partitioning.manual_partition(
                spark, tokens.select("attribute"), cfg.manual_clusters
            )
        else:
            attr_clusters = partitioning.partition_attributes(
                tokens,
                threshold=cfg.lsh_threshold,
                num_hashes=cfg.num_hashes,
                rows_per_band=cfg.rows_per_band,
            )
        attr_clusters = _mat(attr_clusters)
        blocks_raw = blocking.loose_schema_blocking(tokens, attr_clusters)
        if cfg.use_entropy:
            entropies = _mat(entropy_mod.cluster_entropies(
                tokens.join(attr_clusters, "attribute").select("cluster", "token")
            ))
    else:
        blocks_raw = blocking.token_blocking(tokens)

    blocks_raw = _mat(blocks_raw)
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


def run_pipeline(
    spark: SparkSession,
    source_a: DataFrame,
    source_b: DataFrame,
    cfg: BlockerConfig = BlockerConfig(),
    *,
    name_attrs: list[str] | None = None,
    match_feature: str = "cosine",
    match_threshold: float = 0.4,
) -> dict:
    """Blocker → Entity Matcher (threshold mode) → Entity Clusterer."""
    out = run_blocker(spark, source_a, source_b, cfg)
    if name_attrs is None:
        name_attrs = ["1.name", "2.title"]
    sims = _mat(add_similarities(
        out["candidates"], out["tokens"], out["profiles"], name_attrs=name_attrs
    ))
    matches = _mat(threshold_matcher(
        sims, feature=match_feature, threshold=match_threshold
    ))
    clusters = _mat(cluster_entities(matches))
    out.update({"similarities": sims, "matches": matches, "clusters": clusters})
    return out
