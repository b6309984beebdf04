"""Tests for the Magellan-style debug sampler (§3)."""
import pytest
from pyspark.sql import functions as F

from repro.debug.sampling import debug_sample, restrict_to_sample


@pytest.fixture(scope="module")
def sample(profiles, tokens):
    return debug_sample(
        profiles, tokens, big_k=20, small_k=6, seed=5
    ).localCheckpoint(eager=True)


class TestDebugSample:
    def test_reasons_partition_the_sample(self, sample):
        reasons = {r["reason"] for r in sample.select("reason").distinct().collect()}
        assert reasons <= {"seed", "likely", "random"}
        assert "seed" in reasons and "likely" in reasons

    def test_each_pid_once(self, sample):
        assert sample.count() == sample.select("pid").distinct().count()

    def test_seed_count(self, sample):
        # Seeds are sampled first; overlaps resolve in favour of "likely"
        # (alphabetical min) so count seeds + likely >= big_k.
        n = sample.where(F.col("reason").isin("seed", "likely")).count()
        assert n >= 20

    def test_sample_size_bounded(self, sample):
        # At most K seeds + K*k/2 likely + K*k/2 random.
        assert sample.count() <= 20 + 20 * 3 + 20 * 3

    def test_deterministic(self, profiles, tokens):
        s1 = sorted(map(tuple, debug_sample(profiles, tokens, big_k=10, small_k=4, seed=9).collect()))
        s2 = sorted(map(tuple, debug_sample(profiles, tokens, big_k=10, small_k=4, seed=9).collect()))
        assert s1 == s2

    def test_seed_changes_sample(self, profiles, tokens):
        s1 = {r["pid"] for r in debug_sample(profiles, tokens, big_k=10, small_k=4, seed=1).collect()}
        s2 = {r["pid"] for r in debug_sample(profiles, tokens, big_k=10, small_k=4, seed=2).collect()}
        assert s1 != s2

    def test_likely_profiles_share_tokens_with_a_seed(self, sample, profiles, tokens):
        """Every 'likely' pick must actually overlap some seed profile."""
        ts = tokens.select("pid", "source", "token").distinct()
        seeds = sample.where("reason = 'seed'").select("pid")
        likely = sample.where("reason = 'likely'").select("pid")
        seed_toks = ts.join(seeds, "pid").select("token").distinct()
        overlapping = (
            ts.join(likely, "pid").join(seed_toks, "token").select("pid").distinct()
        )
        assert overlapping.count() == likely.count()

    def test_sample_contains_matchable_pairs(self, sample, er):
        """The point of the scheme: the sample must contain ground-truth
        pairs (a uniform sample of this size would usually contain ~0)."""
        gt = er[2]
        s = sample.select("pid")
        both = (
            gt.join(s.withColumnRenamed("pid", "p1"), "p1", "semi")
            .join(s.withColumnRenamed("pid", "p2"), "p2", "semi")
        )
        assert both.count() >= 3


class TestRestrictToSample:
    def test_profiles_restricted(self, profiles, sample):
        r = restrict_to_sample(profiles, sample)
        assert r.select("pid").distinct().count() == sample.count()

    def test_pairs_restricted_both_sides(self, spark, sample):
        ids = [r["pid"] for r in sample.limit(2).collect()]
        pairs = spark.createDataFrame(
            [(ids[0], ids[1]), (ids[0], -1), (-2, -3)], ["p1", "p2"]
        )
        r = restrict_to_sample(pairs, sample, cols=("p1", "p2"))
        assert r.count() == 1

    def test_columns_keep_their_order(self, spark, sample):
        """Each semi-join would move its key to the front; a positional
        reader must still see (p1, p2, weight)."""
        ids = [r["pid"] for r in sample.limit(2).collect()]
        pairs = spark.createDataFrame([(ids[0], ids[1], 0.5)], "p1 long, p2 long, weight double")
        r = restrict_to_sample(pairs, sample, cols=("p1", "p2"))
        assert r.columns == ["p1", "p2", "weight"]
        assert [tuple(row) for row in r.collect()] == [(ids[0], ids[1], 0.5)]


def test_sample_is_drawn_once(spark, profiles, tokens):
    """The returned sample is materialized: collecting it again gives the
    same profiles and runs no job, because the rows are a local relation
    built on the driver.

    The second collect goes through a new DataFrame over the sample, as
    ``restrict_to_sample`` and ``toPandas`` callers build; re-collecting
    the same object would reuse its finished shuffle stages either way.
    """
    s = debug_sample(profiles, tokens, big_k=10, small_k=4, seed=9)
    first = sorted(map(tuple, s.collect()))
    sc = spark.sparkContext
    group = "debug-sample-second-collect"
    sc.setJobGroup(group, "second collect of a drawn sample")
    try:
        second = sorted(map(tuple, s.select("pid", "reason").collect()))
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert second == first
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 0


def _jobs_run(spark, label, action):
    """Run ``action()`` under its own job group; return the number of
    jobs it ran and its result."""
    sc = spark.sparkContext
    sc.setJobGroup(label, label)
    try:
        out = action()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    return len(sc.statusTracker().getJobIdsForGroup(label)), out


def test_sample_independent_of_partitioning(spark, profiles, tokens):
    """The same seed draws the same sample however Spark partitions the
    inputs or the shuffles."""
    def draw(p, t):
        return sorted(map(tuple, debug_sample(p, t, big_k=20, small_k=6, seed=5).collect()))

    key = "spark.sql.shuffle.partitions"
    old = spark.conf.get(key)
    try:
        spark.conf.set(key, "16")
        s16 = draw(profiles, tokens)
        spark.conf.set(key, "64")
        s64 = draw(profiles, tokens)
    finally:
        spark.conf.set(key, old)
    assert s16 == s64
    assert draw(profiles.repartition(3), tokens.repartition(5)) == s64


def test_debug_sample_job_budget(spark, profiles, tokens, er):
    n_draw, s = _jobs_run(
        spark, "debug-sample-draw",
        lambda: debug_sample(profiles, tokens, big_k=20, small_k=6, seed=5),
    )
    n_restrict, _ = _jobs_run(
        spark, "debug-sample-restrict",
        lambda: restrict_to_sample(er[2], s, cols=("p1", "p2")).count(),
    )
    assert n_draw <= 2
    assert n_restrict <= 3


def test_big_k_beyond_collection_takes_every_profile(toy_profiles, toy_tokens):
    s = debug_sample(toy_profiles, toy_tokens, big_k=50, small_k=4, seed=3).collect()
    pids = [r["pid"] for r in s]
    all_pids = {r["pid"] for r in toy_profiles.select("pid").distinct().collect()}
    assert sorted(pids) == sorted(all_pids)
