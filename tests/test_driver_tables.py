"""Tables built on the driver reach Spark as Arrow batches.

The debug sample, the similarity features, the entity clusters, the lost
pairs and their explanation are handed to Spark as pyarrow tables, so no
Python worker has to unpickle their rows for a job that reads them,
whether they have rows or not. A zero-row input still gives a zero-row
table with the documented schema.

The attribute partition and the cluster entropies stay pyarrow tables:
the Loose Schema Generator builds them from one collect of counts and
runs no Spark job of its own.
"""
import pyarrow as pa
import pytest

from repro.core.clusterer import cluster_entities
from repro.core.pipeline import NAME_ATTRS
from repro.debug.evaluation import explain_lost_pair, lost_pairs
from repro.debug.sampling import debug_sample
from repro.looseschema.entropy import cluster_entropies
from repro.looseschema.partitioning import (
    attribute_token_counts,
    manual_partition,
    partition_attributes,
)
from repro.matching.similarity import add_similarities

PARTITION = pa.schema([("attribute", pa.string()), ("cluster", pa.int32())])
LOOSE_SCHEMA = {
    "partition_attributes": PARTITION,
    "manual_partition": PARTITION,
    "cluster_entropies": pa.schema(
        [("cluster", pa.int32()), ("entropy", pa.float64()), ("entropy_norm", pa.float64())]
    ),
}
SCHEMAS = {
    "debug_sample": "struct<pid:bigint,reason:string>",
    "cluster_entities": "struct<pid:bigint,entity:bigint>",
    "add_similarities": "struct<p1:bigint,p2:bigint,jaccard:double,cosine:double,lev_norm:double>",
    "lost_pairs": "struct<p1:bigint,p2:bigint>",
    "explain_lost_pair": (
        "struct<p1:bigint,p2:bigint,token:string,attrs_1:array<string>,attrs_2:array<string>>"
    ),
}


def _loose_schema(name, counts):
    if name == "partition_attributes":
        return partition_attributes(counts)
    part = manual_partition(counts, {"1.name": 1, "2.title": 1})
    return part if name == "manual_partition" else cluster_entropies(counts, part)


@pytest.mark.parametrize("name", sorted(LOOSE_SCHEMA))
@pytest.mark.parametrize("empty", [False, True], ids=["fixture", "empty"])
def test_loose_schema_table_is_pyarrow(name, empty, tokens):
    """The table has the documented schema, with rows or without."""
    t = _loose_schema(name, attribute_token_counts(tokens.limit(0) if empty else tokens))
    assert isinstance(t, pa.Table)
    assert t.schema == LOOSE_SCHEMA[name]
    assert (t.num_rows == 0) == empty


@pytest.mark.parametrize("name", sorted(LOOSE_SCHEMA))
def test_loose_schema_table_runs_no_job(name, spark, tokens):
    """From the collected counts on, the partition and the entropies are
    numpy and pyarrow work on the driver: no Spark job."""
    counts = attribute_token_counts(tokens)
    sc = spark.sparkContext
    group = f"loose-schema-jobs-{name}"
    sc.setJobGroup(group, name)
    try:
        _loose_schema(name, counts)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


def _build(name, spark, profiles, tokens, matches):
    if name == "add_similarities":
        return add_similarities(matches, tokens, profiles, name_attrs=NAME_ATTRS)
    if name == "debug_sample":
        return debug_sample(profiles, tokens, big_k=10, small_k=4, seed=9)
    if name == "lost_pairs":
        return lost_pairs(matches.limit(0), matches)
    if name == "explain_lost_pair":
        # candidates share a blocking token, so each has a row
        return explain_lost_pair(matches, tokens)
    return cluster_entities(matches)


def _python_rdd(df) -> bool:
    return "PythonRDD" in df._jdf.queryExecution().toRdd().toDebugString()


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_no_python_rdd_behind_table(name, spark, profiles, tokens, blocker_out):
    df = _build(name, spark, profiles, tokens, blocker_out["candidates"])
    assert df.count() > 0
    assert not _python_rdd(df)


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_empty_input_gives_empty_table(name, spark, profiles, tokens, blocker_out):
    """A zero-row table has the schema, and is a local relation too, not
    a pickled RDD."""
    df = _build(name, spark, profiles.limit(0), tokens.limit(0), blocker_out["candidates"].limit(0))
    assert df.schema.simpleString() == SCHEMAS[name]
    assert not _python_rdd(df)
    assert df.collect() == []


def test_add_similarities_job_budget(spark, profiles, tokens, blocker_out):
    """The features of the fixture's candidates, collected, take one
    collect each of the tokens, the pairs and the names, and the jobs of
    collecting the result; no job joins pairs to profiles."""
    sc = spark.sparkContext
    group = "add-similarities-budget"
    sc.setJobGroup(group, "add_similarities")
    try:
        add_similarities(
            blocker_out["candidates"], tokens, profiles, name_attrs=NAME_ATTRS
        ).collect()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 3
