"""Tests for token blocking and loose-schema blocking (paper Figures 1-2)."""
import pytest
from pyspark.sql import functions as F

from repro.core.blocking import (
    candidate_pairs,
    loose_schema_blocking,
    token_blocking,
)
from repro.looseschema.partitioning import attribute_token_counts, manual_partition
from tests.oracle import assert_equivalent, block_sizes


def _blocks_dict(blocks) -> dict[str, set[int]]:
    out: dict[str, set[int]] = {}
    for r in blocks.collect():
        out.setdefault(r["key"], set()).add(r["pid"])
    return out


class TestFigure1TokenBlocking:
    """The toy of Figure 1(b): exactly five clean-clean blocks."""

    def test_block_keys(self, toy_blocks):
        assert set(_blocks_dict(toy_blocks)) == {
            "blast", "simonini", "blocking", "gagliardelli", "sparker",
        }

    @pytest.mark.parametrize(
        "key,members",
        [
            ("blast", {1, 3, 4}),
            ("simonini", {1, 2, 3}),
            ("blocking", {1, 2, 3}),
            ("gagliardelli", {2, 4}),
            ("sparker", {2, 4}),
        ],
    )
    def test_block_members(self, toy_blocks, key, members):
        assert _blocks_dict(toy_blocks)[key] == members

    def test_single_source_blocks_dropped(self, toy_blocks):
        # "giovanni" (p3 only), "meta" (p1 only), "2016" (p3 only) …
        keys = set(_blocks_dict(toy_blocks))
        assert {"giovanni", "luca", "meta", "2016", "2017"} & keys == set()

    def test_cluster_column_is_blob(self, toy_blocks):
        assert {r["cluster"] for r in toy_blocks.select("cluster").collect()} == {0}

    def test_candidate_pairs(self, toy_blocks):
        pairs = {(r["p1"], r["p2"]) for r in candidate_pairs(toy_blocks).collect()}
        assert pairs == {(1, 3), (1, 4), (2, 3), (2, 4)}

    def test_block_sizes(self, toy_blocks):
        sizes = {r["key"]: r["size"] for r in block_sizes(toy_blocks).collect()}
        assert sizes == {
            "blast": 3, "simonini": 3, "blocking": 3,
            "gagliardelli": 2, "sparker": 2,
        }


class TestLooseSchemaBlocking:
    """Figure 2(b): keys become token ⧺ '_' ⧺ cluster id."""

    @pytest.fixture(scope="class")
    def partition(self, spark, toy_tokens):
        # Names with titles (cluster 1), authors together (cluster 2);
        # abstracts and year in the blob.
        return spark.createDataFrame(manual_partition(
            attribute_token_counts(toy_tokens),
            {"1.name": 1, "2.title": 1, "1.authors": 2, "2.author": 2},
        ))

    @pytest.fixture(scope="class")
    def loose_blocks(self, toy_tokens, partition):
        return loose_schema_blocking(toy_tokens.join(partition, "attribute")).localCheckpoint(eager=True)

    def test_simonini_disambiguated(self, loose_blocks):
        """Fig 2(b): the author Simonini (cluster 2) separates from the
        cited Simonini (blob): p1/p3 share the author key, p2 does not."""
        d = _blocks_dict(loose_blocks)
        assert d["simonini_2"] == {1, 3}
        assert "simonini_0" not in d  # p2's cited mention alone -> dropped

    def test_name_keys_split_from_blob(self, loose_blocks):
        d = _blocks_dict(loose_blocks)
        assert d["blast_1"] == {1, 3, 4}  # name/title cluster
        assert "blast_0" not in d

    def test_blocking_key_stays_in_blob(self, loose_blocks):
        # "blocking" appears in abstracts (blob) and in p3's title
        # (cluster 1) — the blob block loses p3 and keeps {p1, p2}… which
        # is single-source, so it is dropped entirely.
        d = _blocks_dict(loose_blocks)
        assert "blocking_0" not in d
        assert "blocking_1" not in d

    def test_candidates_shrink_vs_schema_agnostic(self, toy_blocks, loose_blocks):
        agnostic = candidate_pairs(toy_blocks).count()
        loose = candidate_pairs(loose_blocks).count()
        assert loose < agnostic

    def test_every_assignment_has_cluster(self, loose_blocks):
        assert loose_blocks.where(F.col("cluster").isNull()).count() == 0


class TestOracle:
    def test_candidates_match_duckdb(self, toy_profiles, toy_blocks):
        """Token-blocking candidates == independent SQL derivation."""
        got = candidate_pairs(toy_blocks)
        sql = """
            WITH toks AS (
                SELECT DISTINCT pid, source, token FROM (
                    SELECT pid, source,
                           unnest(string_split_regex(lower(value), '[^a-z0-9]+')) AS token
                    FROM profiles
                ) WHERE length(token) >= 2
            )
            SELECT DISTINCT a.pid AS p1, b.pid AS p2
            FROM toks a JOIN toks b ON a.token = b.token
            WHERE a.source = 1 AND b.source = 2
        """
        assert_equivalent(got, sql, profiles=toy_profiles)

    def test_block_sizes_match_duckdb(self, toy_profiles, toy_blocks):
        got = block_sizes(toy_blocks)
        sql = """
            WITH toks AS (
                SELECT DISTINCT pid, source, token FROM (
                    SELECT pid, source,
                           unnest(string_split_regex(lower(value), '[^a-z0-9]+')) AS token
                    FROM profiles
                ) WHERE length(token) >= 2
            )
            SELECT token AS key, COUNT(DISTINCT pid) AS size
            FROM toks
            GROUP BY token
            HAVING COUNT(DISTINCT pid) >= 2 AND COUNT(DISTINCT source) = 2
        """
        assert_equivalent(got, sql, profiles=toy_profiles)


class TestOnDataset:
    def test_every_raw_block_is_cross_source(self, tokens):
        """Straight out of token blocking every block can generate a
        clean-clean comparison. (Filtering may later strand a block's
        last profile of one source — such blocks simply yield no pairs.)"""
        raw = token_blocking(tokens)
        bad = (
            raw.groupBy("key")
            .agg(F.countDistinct("source").alias("s"), F.countDistinct("pid").alias("n"))
            .where("s < 2 OR n < 2")
        )
        assert bad.count() == 0

    def test_blocking_recall_is_high(self, blocks, er):
        from repro.debug.evaluation import pair_metrics

        m = pair_metrics(candidate_pairs(blocks), er[2])
        assert m.recall > 0.97

    def test_candidates_well_below_naive(self, blocks, ds_small):
        n = candidate_pairs(blocks).count()
        naive = len(ds_small.source_a) * len(ds_small.source_b)
        assert n < naive * 0.6
