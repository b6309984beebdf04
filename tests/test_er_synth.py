"""Tests for the synthetic Abt-Buy generator (pure driver-side)."""
import numpy as np
import pandas as pd
import pytest

from repro.data import er_synth


@pytest.fixture(scope="module")
def ds():
    return er_synth.generate(n_entities=300, seed=3)


class TestStructure:
    def test_source_a_schema(self, ds):
        assert list(ds.source_a.columns) == ["id", "name", "description", "price"]

    def test_source_b_schema(self, ds):
        assert list(ds.source_b.columns) == [
            "id", "title", "descr", "manufacturer", "cost",
        ]

    def test_ids_are_globally_unique(self, ds):
        ids = pd.concat([ds.source_a["id"], ds.source_b["id"]])
        assert ids.is_unique

    def test_ids_are_disjoint_ranges(self, ds):
        assert ds.source_a["id"].max() < ds.source_b["id"].min()

    def test_n_profiles(self, ds):
        assert ds.n_profiles == len(ds.source_a) + len(ds.source_b)

    def test_source_sizes_near_requested(self, ds):
        # 300 entities at 0.72 overlap -> each source has 216 + ~42.
        assert 250 <= len(ds.source_a) <= 300
        assert 250 <= len(ds.source_b) <= 300

    def test_gt_size_matches_overlap(self, ds):
        assert len(ds.ground_truth) == int(round(300 * 0.72))

    def test_gt_references_valid_ids(self, ds):
        assert set(ds.ground_truth["p1"]) <= set(ds.source_a["id"])
        assert set(ds.ground_truth["p2"]) <= set(ds.source_b["id"])

    def test_gt_pairs_unique_per_side(self, ds):
        # Clean-clean: each profile matches at most one on the other side.
        assert ds.ground_truth["p1"].is_unique
        assert ds.ground_truth["p2"].is_unique

    def test_prices_positive(self, ds):
        assert (ds.source_a["price"] > 0).all()
        assert (ds.source_b["cost"] > 0).all()

    def test_prices_on_psychological_grid(self, ds):
        cents = (ds.source_a["price"] * 100).round() % 1000
        assert (cents % 10 == 9).all()  # every A price ends in 9.99-style


class TestDeterminismAndKnobs:
    def test_same_seed_same_data(self):
        d1 = er_synth.generate(n_entities=100, seed=5)
        d2 = er_synth.generate(n_entities=100, seed=5)
        pd.testing.assert_frame_equal(d1.source_a, d2.source_a)
        pd.testing.assert_frame_equal(d1.source_b, d2.source_b)
        pd.testing.assert_frame_equal(d1.ground_truth, d2.ground_truth)

    def test_different_seed_different_data(self):
        d1 = er_synth.generate(n_entities=100, seed=5)
        d2 = er_synth.generate(n_entities=100, seed=6)
        assert not d1.source_a["name"].equals(d2.source_a["name"])

    def test_size_mult_scales(self):
        d1 = er_synth.generate(n_entities=100, seed=5, size_mult=1)
        d2 = er_synth.generate(n_entities=100, seed=5, size_mult=3)
        assert abs(d2.n_profiles / d1.n_profiles - 3) < 0.1

    def test_overlap_zero_gives_empty_gt(self):
        d = er_synth.generate(n_entities=100, seed=5, overlap=0.0)
        assert len(d.ground_truth) == 0

    def test_overlap_one_matches_everything(self):
        d = er_synth.generate(n_entities=100, seed=5, overlap=1.0)
        assert len(d.ground_truth) == 100 == len(d.source_a)


class TestContent:
    def test_matched_pairs_usually_share_a_token(self, ds):
        """Ground-truth pairs must be findable by token blocking."""
        a = ds.source_a.set_index("id")
        b = ds.source_b.set_index("id")

        def toks(row) -> set[str]:
            import re

            text = " ".join(str(v) for v in row)
            return {t for t in re.split(r"[^a-z0-9]+", text.lower()) if len(t) >= 2}

        shared = [
            bool(toks(a.loc[p1]) & toks(b.loc[p2]))
            for p1, p2 in ds.ground_truth.itertuples(index=False)
        ]
        assert np.mean(shared) > 0.98

    def test_titles_are_corrupted(self, ds):
        """Some matched B titles differ from the A name (dirty data)."""
        a = ds.source_a.set_index("id")
        b = ds.source_b.set_index("id")
        same = [
            a.loc[p1, "name"].lower() == b.loc[p2, "title"].lower()
            for p1, p2 in ds.ground_truth.itertuples(index=False)
        ]
        # Clean survivors exist (word drops are probabilistic) but a solid
        # majority of titles must differ from the A-side name.
        assert 0.02 < np.mean(same) < 0.6

    def test_sparse_titles_exist(self, ds):
        """~30-35% of B rows lack the model code in the title (it migrated
        to the description) — the Figure 6c/6d scenario."""
        import re

        has_model = ds.source_b["title"].str.contains(r"[A-Z]{2}\d{3,4}", regex=True)
        frac = 1 - has_model.mean()
        assert 0.2 < frac < 0.5

    def test_migrated_model_is_in_descr(self, ds):
        import re

        no_model = ds.source_b[
            ~ds.source_b["title"].str.contains(r"[A-Z]{2}\d{3,4}", regex=True)
        ]
        in_descr = no_model["descr"].str.contains(r"[A-Z]{2}\d{3,4}", regex=True)
        assert in_descr.all()

    def test_manufacturer_mostly_filled(self, ds):
        assert 0.8 < (ds.source_b["manufacturer"] != "").mean() <= 1.0

    def test_typo_helper_swaps_adjacent(self):
        g = np.random.default_rng(0)
        w = "sonitron"
        t = er_synth._typo(w, g)
        assert sorted(t) == sorted(w) and len(t) == len(w)

    def test_typo_helper_short_words_unchanged(self):
        g = np.random.default_rng(0)
        assert er_synth._typo("ab", g) == "ab"

    def test_model_code_format(self):
        g = np.random.default_rng(0)
        import re

        for _ in range(20):
            assert re.fullmatch(r"[A-Z]{2}\d{3,4}", er_synth._model_code(g))

    def test_zipf_weights_sum_to_one(self):
        w = er_synth._zipf_weights(50)
        assert abs(w.sum() - 1) < 1e-12
        assert (np.diff(w) < 0).all()


class TestSparkLift:
    def test_to_spark_roundtrip(self, spark):
        ds = er_synth.generate(n_entities=30, seed=1)
        a, b, gt = er_synth.to_spark(spark, ds)
        assert a.count() == len(ds.source_a)
        assert b.count() == len(ds.source_b)
        assert gt.count() == len(ds.ground_truth)
