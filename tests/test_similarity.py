"""Tests for the matcher's similarity measures."""
import math

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.profiles import load_clean_clean
from repro.core.tokens import tokenize
from repro.matching.similarity import add_similarities, name_values


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


def _features(spark, tokens, profiles, *pairs):
    """``add_similarities`` of ``pairs``, with 1.name and 2.title as names."""
    return add_similarities(
        _pairs(spark, *pairs), tokens, profiles, name_attrs=["1.name", "2.title"]
    )


class TestJaccard:
    def test_identical_token_sets(self, spark, sim_tokens, sim_profiles):
        [r] = _features(spark, sim_tokens, sim_profiles, (1, 11)).collect()
        assert r["jaccard"] == pytest.approx(1.0)

    def test_disjoint(self, spark, sim_tokens, sim_profiles):
        [r] = _features(spark, sim_tokens, sim_profiles, (3, 13)).collect()
        assert r["jaccard"] == 0.0

    def test_partial_overlap(self, spark, sim_tokens, sim_profiles):
        # p2: {delta, epsilon, unique, stuff}; p12: {delta, epsilonx,
        # other, things} -> 1 shared of 7 distinct.
        [r] = _features(spark, sim_tokens, sim_profiles, (2, 12)).collect()
        assert r["jaccard"] == pytest.approx(1 / 7)

    def test_multiple_pairs_at_once(self, spark, sim_tokens, sim_profiles):
        got = _features(spark, sim_tokens, sim_profiles, (1, 11), (3, 13))
        assert got.count() == 2


class TestCosine:
    def test_identical_profiles_score_one(self, spark, sim_tokens, sim_profiles):
        [r] = _features(spark, sim_tokens, sim_profiles, (1, 11)).collect()
        assert r["cosine"] == pytest.approx(1.0, abs=1e-9)

    def test_disjoint_profiles_score_zero(self, spark, sim_tokens, sim_profiles):
        [r] = _features(spark, sim_tokens, sim_profiles, (3, 13)).collect()
        assert r["cosine"] == 0.0

    def test_between_zero_and_one(self, spark, sim_tokens, sim_profiles):
        rows = _features(
            spark, sim_tokens, sim_profiles, (1, 11), (2, 12), (3, 13), (1, 12)
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
            for r in _features(spark, toks, prof, (1, 11), (2, 12)).collect()
        }
        assert got[(1, 11)] > got[(2, 12)]


class TestLevenshtein:
    def test_equal_names(self, spark, sim_tokens, sim_profiles):
        [r] = _features(spark, sim_tokens, sim_profiles, (1, 11)).collect()
        assert r["lev_norm"] == pytest.approx(1.0)

    def test_one_char_difference(self, spark, sim_tokens, sim_profiles):
        # "delta epsilon" vs "delta epsilonx": 1 edit over max len 14.
        [r] = _features(spark, sim_tokens, sim_profiles, (2, 12)).collect()
        assert r["lev_norm"] == pytest.approx(1 - 1 / 14)

    def test_missing_name_scores_zero(self, spark, sim_tokens, sim_profiles):
        # p13 has no title value.
        [r] = _features(spark, sim_tokens, sim_profiles, (3, 13)).collect()
        assert r["lev_norm"] == 0.0

    def test_name_values_one_per_profile(self, spark, sim_profiles):
        nv = name_values(sim_profiles, ["1.name", "2.title"])
        assert dict(zip(nv["pid"], nv["name"])) == {
            1: "alpha beta gamma", 2: "delta epsilon", 3: "zeta",
            11: "alpha beta gamma", 12: "delta epsilonx",
        }

    def test_two_name_attributes_of_one_source_raise(self, spark, sim_profiles):
        # p11 and p12 have both a title and a blurb
        with pytest.raises(ValueError, match="profile 1[12] has a value for more than one"):
            name_values(sim_profiles, ["2.title", "2.blurb"])


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


# Names and notes over code points whose case mapping is special: U+0130
# İ (lowercase "i" + U+0307), U+212A Kelvin sign, ß/ẞ, Σ/σ/ς (final sigma
# depends on context) and combining marks; "!" and single letters make
# token-less values. Python's str.lower and the JVM's lower agree on all
# of them. They disagree on U+1C89, U+A7CB, U+A7CC, U+A7DA and U+A7DC,
# which the JVM's newer Unicode tables map to lowercase and Python 3.11
# keeps; the alphabet leaves those out.
_TRICKY = "aZkKiI09 !\u0130\u0131\u212a\u00df\u1e9e\u03a3\u03c3\u03c2\u0307\u0301\u00c9"
_VALUE = st.none() | st.text(alphabet=_TRICKY, min_size=1, max_size=12)


@st.composite
def _sources(draw):
    """(source-1 rows, source-2 rows, pairs). Profile i of source 1 and
    profile 10 + i of source 2 often carry the same name in another case,
    so that a wrong fold shows in ``lev_norm``; pairs may repeat and may
    name a pid (7, 17) that no profile has."""
    a = draw(st.lists(st.tuples(_VALUE, _VALUE), min_size=1, max_size=6))
    b = [
        (draw(st.sampled_from([n, n.upper(), n.swapcase()]) | _VALUE if n else _VALUE), draw(_VALUE))
        for n, _ in a
    ]
    pairs = draw(st.lists(
        st.integers(1, 7).flatmap(lambda i: st.tuples(st.just(i), st.sampled_from([10 + i, 11, 17]))),
        max_size=12,
    ))
    return a, b, pairs


class TestTrickyInputsAgainstReference:
    """``add_similarities`` on drawn profiles and pairs against the
    pure-Python ``_reference_features``: exact Jaccard and ``lev_norm``,
    cosine within the rounding of ``np.log`` against the JVM's ``log``.
    Missing names, token-less profiles, pairs with an unknown pid,
    duplicate pairs and an empty pair set are all drawn."""

    NAME_ATTRS = ["1.name", "2.title"]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(drawn=_sources())
    def test_features_match_reference(self, spark, drawn):
        a, b, pairs = drawn

        def source(first_id, rows, name):
            return spark.createDataFrame(
                pd.DataFrame({
                    "id": range(first_id, first_id + len(rows)),
                    name: [r[0] for r in rows],
                    "note": [r[1] for r in rows],
                }),
                f"id long, {name} string, note string",
            )

        prof = load_clean_clean(source(1, a, "name"), source(11, b, "title")).localCheckpoint(eager=True)
        toks = tokenize(prof).localCheckpoint(eager=True)
        got = {
            (r["p1"], r["p2"]): (r["jaccard"], r["cosine"], r["lev_norm"])
            for r in add_similarities(
                spark.createDataFrame(pairs, "p1 long, p2 long"), toks, prof,
                name_attrs=self.NAME_ATTRS,
            ).collect()
        }
        ref = _reference_features(toks.toPandas(), prof.toPandas(), pairs, self.NAME_ATTRS)
        assert got.keys() == ref.keys()
        for pair, (jac, cos, lev) in got.items():
            rjac, rcos, rlev = ref[pair]
            assert jac == rjac, pair
            assert lev == rlev, pair
            assert abs(cos - rcos) <= 1e-15, pair
