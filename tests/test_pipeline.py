"""End-to-end pipeline tests (Figure 3 stack on the synthetic Abt-Buy)."""
import pytest
from pyspark.sql import functions as F

from repro.core.blocking import candidate_pairs
from repro.core.meta_blocking import meta_blocking
from repro.core.pipeline import BlockerConfig, run_blocker, run_pipeline
from repro.debug.evaluation import cluster_pair_metrics, pair_metrics


class TestBlockerOutputs:
    def test_all_products_returned(self, blocker_out):
        for key in (
            "profiles", "tokens", "attr_clusters", "entropies",
            "blocks_raw", "blocks_purged", "blocks", "candidates",
        ):
            assert blocker_out[key] is not None, key

    def test_stage_monotonicity(self, blocker_out):
        """purging and filtering only ever remove block assignments."""
        raw = blocker_out["blocks_raw"].count()
        purged = blocker_out["blocks_purged"].count()
        filtered = blocker_out["blocks"].count()
        assert raw >= purged >= filtered

    def test_meta_blocking_reduces_candidates(self, blocker_out):
        pre = candidate_pairs(blocker_out["blocks"]).count()
        post = blocker_out["candidates"].count()
        assert post < pre

    def test_candidate_schema(self, blocker_out):
        assert {"p1", "p2"} <= set(blocker_out["candidates"].columns)

    def test_candidates_are_cross_source(self, blocker_out, ds_small):
        n_a = len(ds_small.source_a)
        bad = blocker_out["candidates"].where(
            (F.col("p1") >= n_a) | (F.col("p2") < n_a)
        )
        assert bad.count() == 0

    def test_schema_agnostic_mode(self, spark, er):
        out = run_blocker(
            spark, er[0], er[1], BlockerConfig(loose_schema=False, run_meta_blocking=False)
        )
        assert out["attr_clusters"] is None
        assert out["entropies"] is None
        m = pair_metrics(out["candidates"], er[2])
        assert m.recall > 0.97

    def test_manual_clusters_mode(self, spark, er):
        cfg = BlockerConfig(
            manual_clusters={"1.name": 1, "2.title": 1}, run_meta_blocking=False
        )
        out = run_blocker(spark, er[0], er[1], cfg)
        part = out["attr_clusters"]
        c = dict(zip(part["attribute"].to_pylist(), part["cluster"].to_pylist()))
        assert c["1.name"] == c["2.title"] == 1
        assert c["1.price"] == 0

    def test_no_entropy_mode(self, spark, er):
        out = run_blocker(
            spark, er[0], er[1], BlockerConfig(use_entropy=False, weight_scheme="cbs")
        )
        assert out["entropies"] is None
        assert out["candidates"].count() > 0


def test_pid_collision_across_sources_raises(spark):
    """Both sources use id 1: the union would merge two profiles into one."""
    a = spark.createDataFrame([(1, "sony tv"), (2, "canon camera")], ["id", "name"])
    b = spark.createDataFrame([(1, "sony tv"), (3, "nikon camera")], ["id", "title"])
    with pytest.raises(ValueError, match="1 profile ids occur in both sources"):
        run_blocker(spark, a, b, BlockerConfig())


def test_pid_repeated_within_a_source_raises(spark):
    """Two rows of source A share id 1: they would merge into one profile."""
    a = spark.createDataFrame([(1, "sony tv"), (1, "canon camera")], ["id", "name"])
    b = spark.createDataFrame([(3, "sony tv"), (4, "nikon camera")], ["id", "title"])
    with pytest.raises(ValueError, match="1 profile ids repeat within a source"):
        run_blocker(spark, a, b, BlockerConfig())


def test_repeated_id_rejected_within_three_jobs(spark):
    """The id check reads only the two sources, in one aggregation: a
    repeated id fails before any profile or token is materialised."""
    a = spark.createDataFrame([(1, "sony tv"), (1, "canon camera")], ["id", "name"])
    b = spark.createDataFrame([(3, "sony tv"), (4, "nikon camera")], ["id", "title"])
    sc = spark.sparkContext
    sc.setJobGroup("repeated-id", "run_blocker")
    try:
        with pytest.raises(ValueError, match="1 profile ids repeat within a source"):
            run_blocker(spark, a, b, BlockerConfig())
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup("repeated-id")) <= 3


def test_row_without_values_is_not_a_profile(spark):
    """A source row whose values are all null or blank has no attribute, so
    it is not counted among the profiles that purging divides by."""
    a = spark.createDataFrame([(1, "sony tv", None), (2, " ", None)], "id long, name string, price double")
    b = spark.createDataFrame([(3, "sony tv", "tv"), (4, None, "")], "id long, title string, kind string")
    out = run_blocker(spark, a, b, BlockerConfig(loose_schema=False, run_meta_blocking=False))
    assert out["n_profiles"] == 2


def test_null_pid_raises(spark):
    """A null id would become a profile with a null pid whose tokens block."""
    a = spark.createDataFrame([(None, "sony tv"), (2, "canon camera")], "id long, name string")
    b = spark.createDataFrame([(3, "sony tv"), (4, "nikon camera")], ["id", "title"])
    with pytest.raises(ValueError, match="1 profile ids are null"):
        run_blocker(spark, a, b, BlockerConfig())


@pytest.mark.parametrize("ddl, ids", [
    ("id double, name string", (1.5, 2.5)),
    ("id string, name string", ("x1", "2")),
], ids=["fractional", "string"])
def test_non_integer_id_type_raises_before_any_job(spark, ddl, ids):
    """An id column that is not of an integral type is rejected from the
    schema: a fractional id would be truncated into a pid, a string id
    would fail inside a Spark job."""
    a = spark.createDataFrame([(ids[0], "sony tv"), (ids[1], "canon camera")], ddl)
    b = spark.createDataFrame([(3, "sony tv"), (4, "nikon camera")], ["id", "title"])
    sc = spark.sparkContext
    group = f"id-type {ddl}"
    sc.setJobGroup(group, "run_blocker")
    try:
        with pytest.raises(ValueError, match="profile ids of source 1 are null or not integers"):
            run_blocker(spark, a, b, BlockerConfig())
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


@pytest.mark.parametrize("feature", ["p2", "score", "nope"])
def test_unknown_match_feature_rejected_before_any_job(spark, er, feature):
    """``run_pipeline`` checks its matcher feature as the matcher does,
    before the Blocker runs: an id column would match every candidate."""
    sc = spark.sparkContext
    group = f"match-feature-{feature}"
    sc.setJobGroup(group, "run_pipeline")
    try:
        with pytest.raises(ValueError, match=f"feature '{feature}' not in"):
            run_pipeline(spark, er[0], er[1], BlockerConfig(), match_feature=feature)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


def test_manual_clusters_without_loose_schema_raises():
    """Schema-agnostic blocking has no attribute clusters, so a manual
    partition would be ignored: the config is rejected before any Spark
    job. Entropy without loose schema stays allowed (it is skipped)."""
    with pytest.raises(ValueError, match="manual_clusters needs loose_schema=True"):
        BlockerConfig(loose_schema=False, manual_clusters={"1.name": 1, "2.title": 1})
    BlockerConfig(loose_schema=False, use_entropy=True)


@pytest.mark.parametrize("kw, message", [
    ({"pruning": "bogus"}, "unknown pruning"),
    ({"weight_scheme": "bogus"}, "unknown scheme"),
    ({"cnp_k": 0}, "cnp_k must be"),
    ({"blast_c": 1.5}, "blast_c must be"),
], ids=["pruning", "scheme", "cnp_k", "blast_c"])
def test_bad_meta_blocking_options_rejected_by_config(kw, message):
    """The meta-blocking options are checked when the config is built,
    not after the Blocker's first Spark jobs."""
    with pytest.raises(ValueError, match=message):
        BlockerConfig(**kw)


@pytest.mark.parametrize("name, value", [
    ("filter_ratio", 0), ("filter_ratio", 1.5),
    ("purge_max_frac", 0), ("purge_max_frac", float("nan")),
    ("lsh_threshold", 1.5), ("lsh_threshold", -0.2), ("lsh_threshold", float("nan")),
])
def test_out_of_range_blocking_settings_rejected_by_config(name, value):
    """Purging, filtering and the LSH threshold take a fraction in (0, 1];
    any other value is rejected when the config is built, before the
    Blocker's first Spark job, and 1 is accepted."""
    with pytest.raises(ValueError, match=f"{name} must be in"):
        BlockerConfig(**{name: value})
    BlockerConfig(**{name: 1.0})


def test_blast_c_reaches_meta_blocking(spark, er):
    """``BlockerConfig.blast_c`` is the BLAST pruning constant the Blocker
    uses: its candidates are meta-blocking's with that constant, and a
    larger constant keeps fewer pairs."""
    out = run_blocker(spark, er[0], er[1], BlockerConfig(pruning="blast", blast_c=0.5))

    def direct(c):
        cands = meta_blocking(
            out["blocks"], scheme="chi2", use_entropy=True, entropies=out["entropies"],
            pruning="blast", blast_c=c,
        )
        return {(r["p1"], r["p2"]) for r in cands.collect()}

    got = {(r["p1"], r["p2"]) for r in out["candidates"].collect()}
    assert got == direct(0.5)
    assert got < direct(0.35)


@pytest.mark.parametrize("cfg, budget", [
    (BlockerConfig(), 23),
    (BlockerConfig(loose_schema=False), 19),
], ids=["loose-schema", "schema-agnostic"])
def test_blocker_job_budget(spark, er, cfg, budget):
    """The Blocker, id check included, runs at most ``budget`` Spark jobs
    on the test dataset in each blocking mode."""
    sc = spark.sparkContext
    group = f"blocker-budget-loose{int(cfg.loose_schema)}"
    sc.setJobGroup(group, "run_blocker")
    try:
        run_blocker(spark, er[0], er[1], cfg)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= budget


class TestFullPipeline:
    def test_products_present(self, pipeline_out):
        for key in ("similarities", "matches", "clusters"):
            assert pipeline_out[key] is not None

    def test_match_quality(self, pipeline_out, er):
        m = pair_metrics(pipeline_out["matches"], er[2])
        assert m.f1 > 0.8

    def test_cluster_quality(self, pipeline_out, er):
        m = cluster_pair_metrics(pipeline_out["clusters"], er[2])
        assert m.f1 > 0.75

    def test_matches_subset_of_candidates(self, pipeline_out, blocker_out):
        extra = pipeline_out["matches"].join(
            pipeline_out["candidates"], ["p1", "p2"], "left_anti"
        )
        assert extra.count() == 0

    def test_similarity_features_complete(self, pipeline_out):
        sims = pipeline_out["similarities"]
        assert sims.count() == pipeline_out["candidates"].select("p1", "p2").distinct().count()
        for c in ("jaccard", "cosine", "lev_norm"):
            assert sims.where(F.col(c).isNull()).count() == 0

    def test_jaccard_matcher_variant(self, spark, er):
        out = run_pipeline(
            spark, er[0], er[1], BlockerConfig(),
            match_feature="jaccard", match_threshold=0.3,
        )
        m = pair_metrics(out["matches"], er[2])
        assert m.recall > 0.2


class TestDemoShapeSmallScale:
    """The Figure 6 claims hold on the small test instance too."""

    @pytest.fixture(scope="class")
    def sweep(self, spark, er):
        def run_cfg(cfg):
            out = run_blocker(spark, er[0], er[1], cfg)
            return pair_metrics(out["candidates"], er[2])

        return {
            "blob": run_cfg(BlockerConfig(lsh_threshold=1.0, run_meta_blocking=False)),
            "auto": run_cfg(BlockerConfig(lsh_threshold=0.3, run_meta_blocking=False)),
        }

    def test_auto_reduces_candidates(self, sweep):
        # Strictly fewer candidates; the full ~2x factor only materializes
        # at demo scale (n_entities=1500) — see Table D1 in EXPERIMENTS.md.
        assert sweep["auto"].n_pairs < sweep["blob"].n_pairs

    def test_auto_improves_precision(self, sweep):
        assert sweep["auto"].precision > sweep["blob"].precision

    def test_auto_preserves_recall(self, sweep):
        assert sweep["auto"].recall > sweep["blob"].recall - 0.02
