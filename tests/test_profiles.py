"""Tests for the schema-agnostic profile model."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.profiles import attr_name, load_clean_clean, to_profiles
from tests.oracle import assert_equivalent


@pytest.fixture(scope="module")
def wide(spark):
    return spark.createDataFrame(
        pd.DataFrame(
            {
                "id": [10, 11, 12],
                "name": ["ab", None, "cd"],
                "note": ["x y", "z", "  "],
                "num": [1.5, 2.0, None],
            }
        )
    )


class TestToProfiles:
    def test_columns(self, spark, wide):
        p = to_profiles(wide, source=1)
        assert p.columns == ["pid", "source", "attribute", "value"]

    def test_attribute_names_are_source_qualified(self, spark, wide):
        p = to_profiles(wide, source=1)
        attrs = {r["attribute"] for r in p.select("attribute").distinct().collect()}
        assert attrs == {"1.name", "1.note", "1.num"}

    def test_nulls_and_blanks_dropped(self, spark, wide):
        p = to_profiles(wide, source=1).collect()
        vals = {(r["pid"], r["attribute"]): r["value"] for r in p}
        assert (11, "1.name") not in vals  # null
        assert (12, "1.note") not in vals  # whitespace-only
        assert (12, "1.num") not in vals  # null numeric

    def test_numbers_cast_to_string(self, spark, wide):
        p = to_profiles(wide, source=1)
        v = p.where((F.col("pid") == 10) & (F.col("attribute") == "1.num")).first()
        assert v["value"] == "1.5"

    def test_row_count(self, spark, wide):
        # 3 rows x 3 attrs - 3 dropped cells (null name, blank note, null num)
        assert to_profiles(wide, source=1).count() == 6

    def test_requires_attribute_columns(self, spark):
        only_id = spark.createDataFrame(pd.DataFrame({"id": [1]}))
        with pytest.raises(ValueError):
            to_profiles(only_id, source=1)

    def test_oracle_melt(self, spark, wide):
        """The unpivot agrees with a DuckDB UNPIVOT over the same frame."""
        p = to_profiles(wide, source=1).select("pid", "attribute", "value")
        sql = """
            SELECT id AS pid, '1.' || attribute AS attribute, value
            FROM (
                UNPIVOT (SELECT id, CAST(name AS VARCHAR) AS name,
                                CAST(note AS VARCHAR) AS note,
                                CAST(num AS VARCHAR) AS num FROM wide)
                ON name, note, num INTO NAME attribute VALUE value
            )
            WHERE value IS NOT NULL AND trim(value) != ''
        """
        assert_equivalent(p, sql, wide=wide)


class TestLoadCleanClean:
    def test_sources_tagged(self, profiles):
        assert {r["source"] for r in profiles.select("source").distinct().collect()} == {1, 2}

    def test_all_profiles_present(self, profiles, ds_small):
        assert profiles.select("pid").distinct().count() == ds_small.n_profiles

    def test_pid_source_consistent(self, profiles):
        # Each pid belongs to exactly one source.
        multi = (
            profiles.groupBy("pid")
            .agg(F.countDistinct("source").alias("n"))
            .where("n > 1")
        )
        assert multi.count() == 0

    def test_empty_manufacturer_dropped(self, profiles, ds_small):
        n_empty = int((ds_small.source_b["manufacturer"] == "").sum())
        have = profiles.where(F.col("attribute") == "2.manufacturer").count()
        assert have == len(ds_small.source_b) - n_empty

    def test_attr_name_helper(self):
        assert attr_name(1, "name") == "1.name"
        assert attr_name(2, "cost") == "2.cost"

    def test_toy_profile_count(self, toy_profiles):
        # p1..p4, 3 attributes each, no nulls.
        assert toy_profiles.count() == 12
