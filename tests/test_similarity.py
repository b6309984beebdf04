"""Tests for the matcher's similarity measures."""
import math

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.profiles import load_clean_clean
from repro.core.tokens import tokenize
from repro.matching.similarity import (
    add_similarities,
    cosine_tfidf,
    jaccard,
    levenshtein_norm,
    name_values,
)


@pytest.fixture(scope="module")
def sim_profiles(spark):
    """Small controlled profile set (ids 1-3 source A, 11-13 source B)."""
    a = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": [1, 2, 3],
                "name": ["alpha beta gamma", "delta epsilon", "zeta"],
                "note": ["shared words here", "unique stuff", "zeta again"],
            }
        )
    )
    b = spark.createDataFrame(
        pd.DataFrame(
            {
                "id": [11, 12, 13],
                "title": ["alpha beta gamma", "delta epsilonX", None],
                "blurb": ["shared words here", "other things", "totally different"],
            }
        )
    )
    return load_clean_clean(a, b).localCheckpoint(eager=True)


@pytest.fixture(scope="module")
def sim_tokens(sim_profiles):
    return tokenize(sim_profiles).localCheckpoint(eager=True)


def _pairs(spark, *pairs):
    return spark.createDataFrame(list(pairs), ["p1", "p2"])


class TestJaccard:
    def test_identical_token_sets(self, spark, sim_tokens):
        [r] = jaccard(_pairs(spark, (1, 11)), sim_tokens).collect()
        assert r["jaccard"] == pytest.approx(1.0)

    def test_disjoint(self, spark, sim_tokens):
        [r] = jaccard(_pairs(spark, (3, 13)), sim_tokens).collect()
        assert r["jaccard"] == 0.0

    def test_partial_overlap(self, spark, sim_tokens):
        # p2: {delta, epsilon, unique, stuff}; p12: {delta, epsilonx,
        # other, things} -> 1 shared of 7 distinct.
        [r] = jaccard(_pairs(spark, (2, 12)), sim_tokens).collect()
        assert r["jaccard"] == pytest.approx(1 / 7)

    def test_multiple_pairs_at_once(self, spark, sim_tokens):
        got = jaccard(_pairs(spark, (1, 11), (3, 13)), sim_tokens)
        assert got.count() == 2


class TestCosine:
    def test_identical_profiles_score_one(self, spark, sim_tokens):
        [r] = cosine_tfidf(_pairs(spark, (1, 11)), sim_tokens).collect()
        assert r["cosine"] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_profiles_score_zero(self, spark, sim_tokens):
        [r] = cosine_tfidf(_pairs(spark, (3, 13)), sim_tokens).collect()
        assert r["cosine"] == 0.0

    def test_between_zero_and_one(self, spark, sim_tokens):
        rows = cosine_tfidf(
            _pairs(spark, (1, 11), (2, 12), (3, 13), (1, 12)), sim_tokens
        ).collect()
        assert all(0 <= r["cosine"] <= 1 + 1e-9 for r in rows)

    def test_rare_token_overlap_beats_common(self, spark):
        """IDF weighting: sharing a rare token scores higher than sharing
        an equally-sized set of ubiquitous tokens."""
        a = spark.createDataFrame(
            pd.DataFrame({"id": [1, 2], "t": ["rare common", "common onlyhere"]})
        )
        b = spark.createDataFrame(
            pd.DataFrame({"id": [11, 12], "t": ["rare somethingelse", "common elsewhere"]})
        )
        prof = load_clean_clean(a, b)
        toks = tokenize(prof)
        got = {
            (r["p1"], r["p2"]): r["cosine"]
            for r in cosine_tfidf(_pairs(spark, (1, 11), (2, 12)), toks).collect()
        }
        assert got[(1, 11)] > got[(2, 12)]


class TestLevenshtein:
    def test_equal_names(self, spark, sim_profiles):
        [r] = levenshtein_norm(
            _pairs(spark, (1, 11)), sim_profiles, ["1.name", "2.title"]
        ).collect()
        assert r["lev_norm"] == pytest.approx(1.0)

    def test_one_char_difference(self, spark, sim_profiles):
        # "delta epsilon" vs "delta epsilonx": 1 edit over max len 14.
        [r] = levenshtein_norm(
            _pairs(spark, (2, 12)), sim_profiles, ["1.name", "2.title"]
        ).collect()
        assert r["lev_norm"] == pytest.approx(1 - 1 / 14)

    def test_missing_name_scores_zero(self, spark, sim_profiles):
        # p13 has no title value.
        [r] = levenshtein_norm(
            _pairs(spark, (3, 13)), sim_profiles, ["1.name", "2.title"]
        ).collect()
        assert r["lev_norm"] == 0.0

    def test_name_values_picks_first_available(self, spark, sim_profiles):
        nv = {
            r["pid"]: r["name"]
            for r in name_values(sim_profiles, ["2.title", "2.blurb"]).collect()
        }
        assert nv[12] == "delta epsilonx"
        assert nv[13] == "totally different"  # falls back to blurb


class TestAddSimilarities:
    def test_all_features_present(self, spark, sim_tokens, sim_profiles):
        got = add_similarities(
            _pairs(spark, (1, 11), (2, 12)),
            sim_tokens,
            sim_profiles,
            name_attrs=["1.name", "2.title"],
        )
        assert set(got.columns) == {"p1", "p2", "jaccard", "cosine", "lev_norm"}
        assert got.count() == 2

    def test_on_dataset_matches_score_higher(self, pipeline_out, er):
        """Mean similarity of true matches must dominate non-matches."""
        sims = pipeline_out["similarities"]
        gt = er[2].withColumn("label", F.lit(1))
        j = sims.join(gt, ["p1", "p2"], "left").fillna({"label": 0})
        means = {
            r["label"]: r["m"]
            for r in j.groupBy("label").agg(F.avg("cosine").alias("m")).collect()
        }
        assert means[1] > means[0] + 0.3


def _levenshtein(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _reference_features(tokens, profiles, pairs, name_attrs):
    """Pure-Python (jaccard, cosine, lev_norm) per pair from collected rows;
    pairs with a profile that has no token are left out."""
    tf: dict[int, dict[str, int]] = {}
    for pid, token in tokens[["pid", "token"]].itertuples(index=False):
        tf.setdefault(pid, {}).setdefault(token, 0)
        tf[pid][token] += 1
    n = len(tf)
    df: dict[str, int] = {}
    for vec in tf.values():
        for t in vec:
            df[t] = df.get(t, 0) + 1
    w = {p: {t: c * math.log(n / df[t]) for t, c in vec.items()} for p, vec in tf.items()}
    norm = {p: math.sqrt(sum(x * x for x in vec.values())) for p, vec in w.items()}
    names: dict[int, tuple[int, str]] = {}
    for pid, attr, value in profiles[["pid", "attribute", "value"]].itertuples(index=False):
        if attr in name_attrs:
            cand = (name_attrs.index(attr), value.lower())
            names[pid] = min(names.get(pid, cand), cand)
    out = {}
    for p1, p2 in pairs:
        if p1 not in tf or p2 not in tf:
            continue
        shared = tf[p1].keys() & tf[p2].keys()
        jac = len(shared) / len(tf[p1].keys() | tf[p2].keys())
        cos = 0.0
        if norm[p1] > 0 and norm[p2] > 0:
            cos = sum(w[p1][t] * w[p2][t] for t in shared) / (norm[p1] * norm[p2])
        lev = 0.0
        if p1 in names and p2 in names:
            s1, s2 = names[p1][1], names[p2][1]
            lev = 1.0 - _levenshtein(s1, s2) / max(len(s1), len(s2))
        out[(p1, p2)] = (jac, cos, lev)
    return out


class TestAgainstReference:
    """The one-pass features on the test dataset's candidates, checked
    against a pure-Python recomputation."""

    NAME_ATTRS = ["1.name", "2.title"]

    @pytest.fixture(scope="class")
    def cand_pairs(self, pipeline_out):
        return pipeline_out["candidates"].select("p1", "p2").distinct()

    def test_features_match_reference(self, pipeline_out, cand_pairs):
        pairs = [(r["p1"], r["p2"]) for r in cand_pairs.collect()]
        ref = _reference_features(
            pipeline_out["tokens"].toPandas(), pipeline_out["profiles"].toPandas(),
            pairs, self.NAME_ATTRS,
        )
        got = {
            (r["p1"], r["p2"]): (r["jaccard"], r["cosine"], r["lev_norm"])
            for r in pipeline_out["similarities"].collect()
        }
        assert got.keys() == ref.keys()
        assert len(got) > 100
        for pair, (jac, cos, lev) in got.items():
            rjac, rcos, rlev = ref[pair]
            assert jac == rjac, pair
            assert lev == rlev, pair
            assert abs(cos - rcos) <= 1e-9, pair

    def test_single_features_are_columns_of_add_similarities(
        self, pipeline_out, cand_pairs
    ):
        sims = add_similarities(
            cand_pairs, pipeline_out["tokens"], pipeline_out["profiles"],
            name_attrs=self.NAME_ATTRS,
        ).localCheckpoint(eager=True)
        for fn, col in [(jaccard, "jaccard"), (cosine_tfidf, "cosine")]:
            got = sorted(map(tuple, fn(cand_pairs, pipeline_out["tokens"]).collect()))
            assert got == sorted(map(tuple, sims.select("p1", "p2", col).collect()))
