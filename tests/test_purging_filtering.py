"""Tests for Block Purging and Block Filtering."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.blocking import candidate_pairs, token_blocking
from repro.core.filtering import filter_blocks
from repro.core.purging import purge_blocks
from tests.oracle import assert_equivalent, block_sizes


def _with_sizes(blocks):
    """Attach the ``size`` column that blocking gives its output."""
    return blocks.join(block_sizes(blocks), "key")


@pytest.fixture(scope="module")
def handmade_blocks(spark):
    """A block collection with controlled sizes over 10 profiles.

    key "stop" holds 8 of 10 profiles (a stop word), "mid" holds 4,
    "rare" holds 2.
    """
    rows = []
    for pid in range(8):
        rows.append(("stop", 0, pid, 1 if pid < 4 else 2))
    for pid in [0, 1, 8, 9]:
        rows.append(("mid", 0, pid, 1 if pid in (0, 1) else 2))
    for pid in [2, 8]:
        rows.append(("rare", 0, pid, 1 if pid == 2 else 2))
    return _with_sizes(spark.createDataFrame(rows, ["key", "cluster", "pid", "source"]))


class TestPurging:
    def test_oversized_block_removed(self, handmade_blocks):
        purged = purge_blocks(handmade_blocks, num_profiles=10, max_frac=0.5)
        keys = {r["key"] for r in purged.select("key").distinct().collect()}
        assert keys == {"mid", "rare"}

    def test_threshold_is_inclusive(self, handmade_blocks):
        # max_frac 0.8 -> limit 8; the size-8 block survives.
        purged = purge_blocks(handmade_blocks, num_profiles=10, max_frac=0.8)
        keys = {r["key"] for r in purged.select("key").distinct().collect()}
        assert "stop" in keys

    def test_all_blocks_survive_with_frac_1(self, handmade_blocks):
        assert (
            purge_blocks(handmade_blocks, num_profiles=10, max_frac=1.0).count()
            == handmade_blocks.count()
        )

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5])
    def test_invalid_frac_rejected(self, handmade_blocks, bad):
        with pytest.raises(ValueError):
            purge_blocks(handmade_blocks, num_profiles=10, max_frac=bad)

    def test_purging_on_dataset_removes_stopword_blocks(self, tokens, ds_small):
        raw = token_blocking(tokens)
        n = ds_small.n_profiles
        purged = purge_blocks(raw, num_profiles=n, max_frac=0.5)
        worst = block_sizes(purged).agg(F.max("size")).first()[0]
        assert worst <= n / 2
        assert purged.count() < raw.count()

    def test_oracle_purging(self, handmade_blocks):
        got = purge_blocks(handmade_blocks, num_profiles=10, max_frac=0.5).select(
            "key", "pid"
        )
        sql = """
            SELECT key, pid FROM blocks
            WHERE key IN (
                SELECT key FROM blocks GROUP BY key
                HAVING COUNT(DISTINCT pid) <= 5.0
            )
        """
        assert_equivalent(got, sql, blocks=handmade_blocks)


class TestFiltering:
    @pytest.fixture(scope="class")
    def skewed(self, spark):
        """One profile (0) in five blocks of sizes 5,4,3,2,2."""
        rows = []
        for i, (key, size) in enumerate(
            [("b5", 5), ("b4", 4), ("b3", 3), ("b2a", 2), ("b2b", 2)]
        ):
            rows.append((key, 0, 0, 1))
            for j in range(size - 1):
                rows.append((key, 0, 100 + i * 10 + j, 2))
        return _with_sizes(spark.createDataFrame(rows, ["key", "cluster", "pid", "source"]))

    def test_drops_largest_fifth(self, skewed):
        filtered = filter_blocks(skewed, ratio=0.8)
        kept = {r["key"] for r in filtered.where("pid = 0").collect()}
        # ceil(5 * 0.8) = 4 -> the largest block (b5) is dropped for pid 0.
        assert kept == {"b4", "b3", "b2a", "b2b"}

    def test_other_profiles_unaffected(self, skewed):
        filtered = filter_blocks(skewed, ratio=0.8)
        # profiles appearing in one block keep it (ceil(0.8) = 1).
        assert filtered.where("pid != 0").count() == skewed.where("pid != 0").count()

    def test_ratio_one_is_noop(self, skewed):
        assert filter_blocks(skewed, ratio=1.0).count() == skewed.count()

    @pytest.mark.parametrize("ratio,kept", [(0.2, 1), (0.4, 2), (0.6, 3), (0.8, 4)])
    def test_kept_count_formula(self, skewed, ratio, kept):
        filtered = filter_blocks(skewed, ratio=ratio)
        assert filtered.where("pid = 0").count() == kept

    def test_smallest_blocks_preferred(self, skewed):
        filtered = filter_blocks(skewed, ratio=0.4)
        kept = {r["key"] for r in filtered.where("pid = 0").collect()}
        assert kept == {"b2a", "b2b"}

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.01])
    def test_invalid_ratio_rejected(self, skewed, bad):
        with pytest.raises(ValueError):
            filter_blocks(skewed, ratio=bad)

    def test_filtering_reduces_candidates_not_much_recall(self, tokens, ds_small, er):
        from repro.debug.evaluation import pair_metrics

        raw = token_blocking(tokens)
        purged = purge_blocks(raw, num_profiles=ds_small.n_profiles)
        unf = pair_metrics(candidate_pairs(purged), er[2])
        fil = pair_metrics(candidate_pairs(filter_blocks(purged)), er[2])
        assert fil.n_pairs < unf.n_pairs
        assert fil.recall > unf.recall - 0.05

    def test_oracle_filtering(self, skewed):
        got = filter_blocks(skewed, ratio=0.8).select("key", "pid")
        sql = """
            WITH sized AS (
                SELECT b.key, b.pid, s.size
                FROM blocks b JOIN (
                    SELECT key, COUNT(DISTINCT pid) AS size FROM blocks GROUP BY key
                ) s USING (key)
            ), ranked AS (
                SELECT key, pid,
                       ROW_NUMBER() OVER (PARTITION BY pid ORDER BY size ASC, key ASC) AS rnk,
                       COUNT(*) OVER (PARTITION BY pid) AS n
                FROM sized
            )
            SELECT key, pid FROM ranked WHERE rnk <= CEIL(n * 0.8)
        """
        assert_equivalent(got, sql, blocks=skewed)

    def test_output_drops_size(self, skewed):
        assert filter_blocks(skewed).columns == ["key", "cluster", "pid", "source"]


class TestBlockStatsOnce:
    """Blocking attaches ``size`` once; purging and filtering read it."""

    def test_blocks_raw_size_matches_duckdb(self, blocker_out):
        raw = blocker_out["blocks_raw"]
        sql = "SELECT key, COUNT(DISTINCT pid) AS size FROM blocks GROUP BY key"
        assert_equivalent(raw.select("key", "size").distinct(), sql, blocks=raw.select("key", "pid"))

    def test_blocker_products_match_recomputed_sizes(self, blocker_out):
        """The default Blocker's raw, purged and filtered blocks equal a
        DuckDB pipeline that recomputes the block sizes before purging and
        again before filtering."""
        n = blocker_out["n_profiles"]
        sql = f"""
            WITH b AS (
                SELECT DISTINCT token || '_' || CAST(cluster AS VARCHAR) AS key,
                       cluster, pid, source
                FROM tokens JOIN clusters USING (attribute)
            ), raw AS (
                SELECT * FROM b WHERE key IN (
                    SELECT key FROM b GROUP BY key
                    HAVING COUNT(DISTINCT pid) >= 2 AND COUNT(DISTINCT source) = 2
                )
            ), purged AS (
                SELECT * FROM raw WHERE key IN (
                    SELECT key FROM raw GROUP BY key
                    HAVING COUNT(DISTINCT pid) <= CAST(0.5 AS DOUBLE) * {n}
                )
            ), ranked AS (
                SELECT p.*,
                       ROW_NUMBER() OVER (PARTITION BY pid ORDER BY s.size ASC, key ASC) AS rnk,
                       COUNT(*) OVER (PARTITION BY pid) AS n
                FROM purged p JOIN (
                    SELECT key, COUNT(DISTINCT pid) AS size FROM purged GROUP BY key
                ) s USING (key)
            ), filtered AS (
                SELECT key, cluster, pid, source FROM ranked
                WHERE rnk <= CEIL(n * CAST(0.8 AS DOUBLE))
            )
            SELECT key, cluster, pid, source FROM {{stage}}
        """
        tables = {"tokens": blocker_out["tokens"], "clusters": blocker_out["attr_clusters"]}
        for name, stage in [("blocks_raw", "raw"), ("blocks_purged", "purged"), ("blocks", "filtered")]:
            got = blocker_out[name].select("key", "cluster", "pid", "source")
            assert_equivalent(got, sql.format(stage=stage), **tables)
