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
        from repro.core.tokens import profile_token_sets

        ts = profile_token_sets(tokens)
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


def test_sample_is_drawn_once(spark, profiles, tokens):
    """The returned sample is materialized: collecting it again gives the
    same profiles and runs exactly one job, a scan of the stored rows.

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
    assert len(sc.statusTracker().getJobIdsForGroup(group)) == 1
