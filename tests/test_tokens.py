"""Tests for the tokenizer."""
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from pyspark.sql import functions as F

from repro.core.profiles import to_profiles
from repro.core.tokens import TOKEN_SPLIT_RE, fold_case, tokenize
from tests.oracle import assert_equivalent


def _profiles(spark, values: list[str]):
    return to_profiles(
        spark.createDataFrame(pd.DataFrame({"id": range(len(values)), "v": values})), source=1
    )


def _tok(spark, value: str, min_len: int = 2) -> set[str]:
    return {r["token"] for r in tokenize(_profiles(spark, [value]), min_len=min_len).collect()}


@pytest.mark.parametrize(
    "value,expected",
    [
        ("Blast", {"blast"}),
        ("G. Simonini", {"simonini"}),
        ("meta-blocking", {"meta", "blocking"}),
        ("SparkER: parallel Blast", {"sparker", "parallel", "blast"}),
        ("499.99", {"499", "99"}),
        ("a b c", set()),  # all below min_len
        ("ab ab ab", {"ab"}),  # dedup within a value
        ("X1-2Y", {"x1", "2y"}),
        ("  spaced   out  ", {"spaced", "out"}),
        ("UPPER lower MiXeD", {"upper", "lower", "mixed"}),
        ("tab\tand\nnewline", {"tab", "and", "newline"}),
        ("émile zola", {"mile", "zola"}),  # non-ascii acts as separator
        ("12345", {"12345"}),
        ("..!!..", set()),
    ],
)
def test_tokenize_cases(spark, value, expected):
    assert _tok(spark, value) == expected


@pytest.mark.parametrize("min_len,expected", [(1, {"a", "bb", "ccc"}), (2, {"bb", "ccc"}), (3, {"ccc"})])
def test_min_len(spark, min_len, expected):
    assert _tok(spark, "a bb ccc", min_len=min_len) == expected


class TestOnDataset:
    def test_schema(self, tokens):
        assert tokens.columns == ["pid", "source", "attribute", "token"]

    def test_distinct_per_attribute(self, tokens):
        dup = (
            tokens.groupBy("pid", "attribute", "token")
            .agg(F.count(F.lit(1)).alias("n"))
            .where("n > 1")
        )
        assert dup.count() == 0

    def test_same_token_kept_across_attributes(self, toy_tokens):
        # "simonini" occurs under 1.authors (p1) and 1.abstract (p2) — and
        # for p1 only under authors; loose-schema blocking relies on the
        # attribute column surviving tokenization.
        rows = toy_tokens.where(F.col("token") == "simonini").collect()
        attrs = {(r["pid"], r["attribute"]) for r in rows}
        assert attrs == {(1, "1.authors"), (2, "1.abstract"), (3, "2.author")}

    def test_no_short_tokens(self, tokens):
        assert tokens.where(F.length("token") < 2).count() == 0

    def test_all_lowercase(self, tokens):
        assert tokens.where(F.col("token") != F.lower("token")).count() == 0

    def test_oracle_tokenization(self, spark, toy_profiles):
        got = tokenize(toy_profiles).select("pid", "token").distinct()
        sql = """
            SELECT DISTINCT pid, token FROM (
                SELECT pid,
                       unnest(string_split_regex(lower(value), '[^a-z0-9]+')) AS token
                FROM profiles
            ) WHERE length(token) >= 2
        """
        assert_equivalent(got, sql, profiles=toy_profiles)


def _pairs(df) -> set[tuple[int, str]]:
    return {(r["pid"], r["token"]) for r in df.select("pid", "token").collect()}


def _lower_reference(profiles, min_len: int):
    """The tokenizer with Spark's full Unicode ``lower`` as its case fold."""
    token = F.explode(F.split(F.lower("value"), TOKEN_SPLIT_RE)).alias("token")
    return profiles.select("pid", token).where(F.length("token") >= min_len)


class TestCaseFoldEqualsLower:
    """The tokenizer's case fold gives the same tokens as ``lower``.

    ``min_len=1`` so that a single stray letter would show.
    """

    def test_fold_case_is_lower_on_every_bmp_code_point(self, spark):
        """``fold_case`` equals ``lower`` on the whole value, not just on
        what survives the split, so the matcher's name fold can use it."""
        points = [c for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
        values = [f"Ab{chr(c)}Cd" for c in points] + [None]
        df = spark.createDataFrame(pd.DataFrame({"v": values}), "v string")
        v = F.col("v")
        assert df.count() == len(values)
        assert df.where(~fold_case(v).eqNullSafe(F.lower(v))).count() == 0

    def test_every_bmp_code_point_between_letters(self, spark):
        points = [c for c in range(0x10000) if not 0xD800 <= c <= 0xDFFF]
        p = _profiles(spark, [f"Ab{chr(c)}Cd" for c in points])
        assert _pairs(tokenize(p, min_len=1)) == _pairs(_lower_reference(p, 1))

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        values=st.lists(
            st.text(
                # U+0130 İ and U+212A Kelvin lowercase to ASCII letters;
                # the rest are case pairs, expansions and combining marks
                # whose lowercase stays outside ASCII.
                alphabet="aZkKiI09 -.\u0130\u0131\u212a\u212b\u03a3\u03c3\u03c2"
                "\u00df\u1e9e\u0307\u0301\u01c5\ufb01\u00c9",
                min_size=1,
                max_size=16,
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_tricky_text(self, spark, values):
        p = _profiles(spark, values)
        assert _pairs(tokenize(p, min_len=1)) == _pairs(_lower_reference(p, 1))
