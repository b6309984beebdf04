"""Entity Matcher (SparkER §2.2).

Labels candidate pairs as match / no-match and emits the *similarity
graph* (matching pairs with scores) consumed by the Entity Clusterer.

Two modes, mirroring the demo:

- **unsupervised**: threshold on one similarity feature (the demo's
  "different similarity techniques with different thresholds");
- **supervised**: a small logistic-regression classifier over the three
  features, trained driver-side with numpy on a labeled sample (the
  Magellan-style workflow: the debug sample is labeled from the ground
  truth, the model then scores all candidates *distributively* as a pure
  Spark column expression — the weights travel as literals, no UDF).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

FEATURES = ("jaccard", "cosine", "lev_norm")


def check_feature(feature: str) -> None:
    """Raise ``ValueError`` unless ``feature`` is one of ``FEATURES``."""
    if feature not in FEATURES:
        raise ValueError(f"feature {feature!r} not in {FEATURES}")


def threshold_matcher(sim_pairs: DataFrame, *, feature: str = "jaccard", threshold: float = 0.5) -> DataFrame:
    """Unsupervised matcher: keep pairs with ``feature >= threshold``."""
    check_feature(feature)
    return sim_pairs.where(F.col(feature) >= threshold).select(
        "p1", "p2", F.col(feature).alias("score")
    )


@dataclass(frozen=True)
class LogisticModel:
    """Weights of the tiny logistic classifier over ``FEATURES``:
    score = σ(w·x + b)."""

    weights: tuple[float, ...]
    bias: float


def train_logistic(labeled: pd.DataFrame) -> LogisticModel:
    """Batch-gradient-descent logistic regression on a labeled sample.

    ``labeled`` is a pandas frame with the ``FEATURES`` columns and a 0/1
    ``label`` column. Driver-side by design: the supervised sample is small
    (the user labels it), only scoring is distributed. Fixed settings:
    2000 epochs at learning rate 1.0, L2 1e-4, initial weights from
    ``default_rng(0)``.
    """
    x = labeled[list(FEATURES)].to_numpy(np.float64)
    y = labeled["label"].to_numpy(np.float64)
    n_pos = float(y.sum())
    if n_pos == 0 or n_pos == len(y):
        raise ValueError("training sample needs both classes")
    # Candidate sets are heavily match-poor, so classes are re-weighted
    # inversely to their frequency; unweighted, the model predicts
    # "no match" everywhere.
    sw = np.where(y == 1, len(y) / (2 * n_pos), len(y) / (2 * (len(y) - n_pos)))
    sw = sw / sw.sum()
    w = np.random.default_rng(0).normal(0, 0.01, x.shape[1])
    b = 0.0
    for _ in range(2000):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-z))
        w -= x.T @ ((p - y) * sw) + 1e-4 * w
        b -= float(np.sum((p - y) * sw))
    return LogisticModel(weights=tuple(float(v) for v in w), bias=float(b))


def score_logistic(sim_pairs: DataFrame, model: LogisticModel) -> DataFrame:
    """Score every candidate with the trained model as a column expression."""
    z = F.lit(model.bias)
    for w, feat in zip(model.weights, FEATURES):
        z = z + F.lit(w) * F.col(feat)
    return sim_pairs.withColumn("score", 1.0 / (1.0 + F.exp(-z)))


def logistic_matcher(sim_pairs: DataFrame, model: LogisticModel) -> DataFrame:
    """Supervised matcher: σ(w·x) >= 0.5."""
    return (
        score_logistic(sim_pairs, model)
        .where(F.col("score") >= 0.5)
        .select("p1", "p2", "score")
    )
