"""Tests for the Entity Matcher (threshold + supervised logistic)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.matching.matcher import (
    FEATURES,
    LogisticModel,
    logistic_matcher,
    score_logistic,
    threshold_matcher,
    train_logistic,
)


@pytest.fixture(scope="module")
def sim_pairs(spark):
    pdf = pd.DataFrame(
        {
            "p1": [1, 2, 3, 4],
            "p2": [11, 12, 13, 14],
            "jaccard": [0.9, 0.5, 0.2, 0.0],
            "cosine": [0.95, 0.6, 0.1, 0.05],
            "lev_norm": [1.0, 0.7, 0.3, 0.1],
        }
    )
    return spark.createDataFrame(pdf).localCheckpoint(eager=True)


class TestThresholdMatcher:
    @pytest.mark.parametrize(
        "feature,threshold,expected",
        [
            ("jaccard", 0.5, {(1, 11), (2, 12)}),
            ("jaccard", 0.95, set()),
            ("cosine", 0.6, {(1, 11), (2, 12)}),
            ("cosine", 0.0, {(1, 11), (2, 12), (3, 13), (4, 14)}),
            ("lev_norm", 0.9, {(1, 11)}),
        ],
    )
    def test_thresholds(self, sim_pairs, feature, threshold, expected):
        got = threshold_matcher(sim_pairs, feature=feature, threshold=threshold)
        assert {(r["p1"], r["p2"]) for r in got.collect()} == expected

    def test_score_column_carries_feature(self, sim_pairs):
        [top] = (
            threshold_matcher(sim_pairs, feature="jaccard", threshold=0.85).collect()
        )
        assert top["score"] == pytest.approx(0.9)

    def test_unknown_feature_rejected(self, sim_pairs):
        with pytest.raises(ValueError):
            threshold_matcher(sim_pairs, feature="nope", threshold=0.5)

    @pytest.mark.parametrize("column", ["p1", "p2"])
    def test_id_column_is_not_a_feature(self, sim_pairs, column):
        """An id column is in the table but is no similarity: thresholding
        it would keep every pair with a large enough id."""
        with pytest.raises(ValueError, match="not in"):
            threshold_matcher(sim_pairs, feature=column, threshold=0.5)


def _separable_sample(n=400, seed=0) -> pd.DataFrame:
    """Synthetic training set: matches cluster near (0.8,.8,.8)."""
    g = np.random.default_rng(seed)
    n_pos = n // 4
    pos = g.normal(0.8, 0.08, (n_pos, 3)).clip(0, 1)
    neg = g.normal(0.2, 0.08, (n - n_pos, 3)).clip(0, 1)
    x = np.vstack([pos, neg])
    return pd.DataFrame(
        {
            "jaccard": x[:, 0],
            "cosine": x[:, 1],
            "lev_norm": x[:, 2],
            "label": [1] * n_pos + [0] * (n - n_pos),
        }
    )


class TestLogisticTraining:
    def test_learns_separable_data(self):
        df = _separable_sample()
        model = train_logistic(df)
        x = df[list(FEATURES)].to_numpy()
        p = 1 / (1 + np.exp(-(x @ np.array(model.weights) + model.bias)))
        acc = ((p >= 0.5).astype(int) == df["label"]).mean()
        assert acc > 0.97

    def test_positive_features_get_positive_weights(self):
        model = train_logistic(_separable_sample())
        assert all(w > 0 for w in model.weights)

    def test_deterministic(self):
        df = _separable_sample()
        m1, m2 = train_logistic(df), train_logistic(df)
        assert m1 == m2

    def test_single_class_rejected(self):
        df = _separable_sample().assign(label=1)
        with pytest.raises(ValueError):
            train_logistic(df)

    def test_balanced_handles_heavy_imbalance(self):
        """1:40 imbalance — balanced training must still find positives."""
        g = np.random.default_rng(1)
        pos = g.normal(0.8, 0.08, (10, 3)).clip(0, 1)
        neg = g.normal(0.2, 0.08, (400, 3)).clip(0, 1)
        df = pd.DataFrame(
            np.vstack([pos, neg]), columns=list(FEATURES)
        ).assign(label=[1] * 10 + [0] * 400)
        model = train_logistic(df)
        x = pos @ np.array(model.weights) + model.bias
        assert (1 / (1 + np.exp(-x)) >= 0.5).mean() > 0.8


class TestDistributedScoring:
    def test_score_matches_numpy(self, sim_pairs):
        model = LogisticModel(weights=(1.0, 2.0, -0.5), bias=-1.0)
        got = {
            (r["p1"], r["p2"]): r["score"] for r in score_logistic(sim_pairs, model).collect()
        }
        pdf = sim_pairs.toPandas()
        for _, row in pdf.iterrows():
            z = 1 * row["jaccard"] + 2 * row["cosine"] - 0.5 * row["lev_norm"] - 1
            assert got[(row["p1"], row["p2"])] == pytest.approx(1 / (1 + np.exp(-z)))

    def test_logistic_matcher_thresholds(self, sim_pairs):
        model = LogisticModel(weights=(0.0, 20.0, 0.0), bias=-10.0)  # cosine > .5
        got = {(r["p1"], r["p2"]) for r in logistic_matcher(sim_pairs, model).collect()}
        assert got == {(1, 11), (2, 12)}

    def test_supervised_end_to_end(self, spark, pipeline_out, er):
        """Train on half the labeled candidates, match the rest well."""
        from repro.debug.evaluation import pair_metrics

        sims = pipeline_out["similarities"]
        labeled = (
            sims.join(er[2].withColumn("label", F.lit(1)), ["p1", "p2"], "left")
            .fillna({"label": 0})
            .toPandas()
        )
        model = train_logistic(labeled.sample(frac=0.5, random_state=0))
        m = pair_metrics(logistic_matcher(sims, model), er[2])
        assert m.f1 > 0.7
