"""Tests for the table harnesses (small-scale runs of D1-D5) and jobs.

Each table's *shape claims* (which config wins, direction of changes) are
asserted here at reduced scale; EXPERIMENTS.md records the full-scale
numbers that `jobs/run_table.py` prints into `benchmarks/results/`.
"""
import pytest

from repro.tables import (
    d1_blocking_debug,
    d2_entropy_mb,
    d3_end_to_end,
    d4_scaling,
    d5_mb_impls,
)
from repro.tables.common import format_table

N = 250  # entities; keeps each harness to a few blocker runs


@pytest.fixture(scope="module")
def t1(spark):
    return d1_blocking_debug.run(spark, n_entities=N)


@pytest.fixture(scope="module")
def t2(spark):
    return d2_entropy_mb.run(spark, n_entities=N)


class TestTableD1:
    def test_three_rows(self, t1):
        assert [r["config"][:2] for r in t1] == ["6a", "6b", "6c"]

    def test_blob_config_has_no_clusters(self, t1):
        assert t1[0]["clusters"] == 0

    def test_auto_learns_two_clusters(self, t1):
        assert t1[1]["clusters"] == 2

    def test_auto_cuts_candidates(self, t1):
        # Strictly fewer at this reduced scale; the ~2x factor shows at
        # the benchmark scale (n_entities=1500, EXPERIMENTS.md Table D1).
        assert t1[1]["candidates"] < t1[0]["candidates"]

    def test_auto_improves_precision(self, t1):
        assert t1[1]["precision"] > t1[0]["precision"]

    def test_auto_holds_recall(self, t1):
        assert t1[1]["recall"] >= t1[0]["recall"] - 0.02

    def test_manual_split_loses_more_pairs(self, t1):
        """Figure 6c/6d: 'the number of false positives increases'."""
        assert t1[2]["lost_pairs"] >= t1[1]["lost_pairs"]
        assert t1[2]["recall"] <= t1[1]["recall"]

    def test_format_table_renders(self, t1):
        text = format_table(t1, title="D1")
        assert "candidates" in text and "6b" in text


class TestTableD2:
    def test_rows(self, t2):
        assert len(t2) == 4
        assert t2[0]["config"].startswith("blocking only")

    def test_meta_blocking_large_decrease(self, t2):
        """Figure 6e: 'a large decrease in the number of candidate
        pairs w.r.t. 6(b)'."""
        for row in t2[1:]:
            assert row["candidates"] < t2[0]["candidates"] * 0.6

    def test_entropy_config_prunes_most(self, t2):
        ent = next(r for r in t2 if "entropy (6e)" in r["config"])
        cbs = next(r for r in t2 if "cbs" in r["config"])
        assert ent["candidates"] <= cbs["candidates"]

    def test_recall_mostly_preserved(self, t2):
        for row in t2[1:]:
            assert row["recall"] > 0.9

    def test_reduction_factors_consistent(self, t2):
        for row in t2[1:]:
            assert row["reduction"] == pytest.approx(
                t2[0]["candidates"] / row["candidates"], rel=1e-6
            )


class TestTableD3:
    @pytest.fixture(scope="class")
    def t3(self, spark):
        return d3_end_to_end.run(spark, n_entities=N)

    def test_all_matchers_present(self, t3):
        names = [r["matcher"] for r in t3]
        assert any("jaccard" in n for n in names)
        assert any("cosine" in n for n in names)
        assert any("logistic" in n for n in names)
        assert len(t3) == 6

    def test_best_f1_decent(self, t3):
        assert max(r["match_f1"] for r in t3) > 0.8

    def test_cosine_threshold_tradeoff(self, t3):
        by = {r["matcher"]: r for r in t3}
        lo, hi = by["cosine @ 0.30"], by["cosine @ 0.50"]
        assert lo["match_r"] >= hi["match_r"]
        assert lo["matches"] >= hi["matches"]

    def test_cluster_metrics_filled(self, t3):
        for r in t3:
            assert 0 <= r["cluster_f1"] <= 1


class TestTableD4:
    @pytest.fixture(scope="class")
    def t4(self, spark):
        return d4_scaling.run(spark, n_entities=N, size_mults=(1, 2))

    def test_rows_and_growth(self, t4):
        assert [r["size_mult"] for r in t4] == [1, 2]
        assert t4[1]["profiles"] > t4[0]["profiles"] * 1.9

    def test_blocking_beats_naive(self, t4):
        for r in t4:
            assert r["mb_cands"] < r["block_cands"] < r["naive_pairs"]

    def test_reduction_large_at_every_scale(self, t4):
        """Blocking keeps a large comparison saving at every data size
        (the paper's scaling motivation). The ratio is roughly constant on
        the synthetic data because scaling reuses the token vocabulary."""
        for r in t4:
            assert r["vs_naive"] > 5

    def test_recall_retained(self, t4):
        for r in t4:
            assert r["mb_recall"] > 0.9

    def test_wall_time_recorded(self, t4):
        for r in t4:
            assert r["blocker_secs"] > 0


class TestTableD5:
    @pytest.fixture(scope="class")
    def t5(self, spark):
        return d5_mb_impls.run(spark, n_entities=N)

    def test_two_rows(self, t5):
        assert len(t5) == 2

    def test_results_identical(self, t5):
        assert t5[0]["result_sym_diff"] == 0
        assert t5[0]["candidates"] == t5[1]["candidates"]

    def test_timings_recorded(self, t5):
        assert all(r["secs"] > 0 for r in t5)


class TestJobs:
    def test_job_modules_import_and_expose_main(self):
        import importlib
        import sys
        from pathlib import Path

        root = str(Path(__file__).resolve().parents[1])
        sys.path.insert(0, root)
        try:
            mod = importlib.import_module("jobs.run_table")
            assert callable(mod.main)
            assert sorted(mod.TABLES) == ["d1", "d2", "d3", "d4", "d5"]
            for name in mod.TABLES:
                assert callable(mod.table_module(name).run), name
        finally:
            sys.path.remove(root)
