"""Equivalence tests: broadcast meta-blocking (paper §2.1) vs Catalyst."""
import functools
import warnings

import numpy as np
import pytest

from repro.core.broadcast_mb import (
    _build_index,
    _neighborhood,
    _threshold,
    meta_blocking_broadcast,
)
from repro.core.meta_blocking import meta_blocking


def _pairs(df) -> set[tuple[int, int]]:
    return {(r["p1"], r["p2"]) for r in df.select("p1", "p2").collect()}


CONFIGS = [
    dict(scheme="cbs", use_entropy=False, pruning="wnp"),
    dict(scheme="cbs", use_entropy=False, pruning="wep"),
    dict(scheme="cbs", use_entropy=False, pruning="cnp"),
    dict(scheme="js", use_entropy=False, pruning="wnp"),
    dict(scheme="js", use_entropy=False, pruning="blast"),
    dict(scheme="chi2", use_entropy=False, pruning="wnp"),
    dict(scheme="chi2", use_entropy=True, pruning="wnp"),
    dict(scheme="chi2", use_entropy=True, pruning="blast"),
    dict(scheme="js", use_entropy=True, pruning="wep"),
    dict(scheme="chi2", use_entropy=True, pruning="cnp"),
    dict(scheme="cbs", use_entropy=False, pruning="blast"),
]


@pytest.mark.parametrize("cfg", CONFIGS, ids=lambda c: f"{c['scheme']}-ent{int(c['use_entropy'])}-{c['pruning']}")
def test_implementations_agree_on_dataset(spark, blocker_out, cfg):
    """Both implementations retain the same candidate set on the synthetic
    Abt-Buy blocking graph, across schemes × entropy × pruning."""
    kw = dict(cfg, entropies=blocker_out["entropies"])
    df = meta_blocking(blocker_out["blocks"], **kw)
    bc = meta_blocking_broadcast(spark, blocker_out["blocks"], **kw)
    assert _pairs(df) == _pairs(bc)


def test_implementations_agree_on_toy(spark, toy_blocks):
    df = meta_blocking(toy_blocks, scheme="cbs", pruning="wep")
    bc = meta_blocking_broadcast(spark, toy_blocks, scheme="cbs", pruning="wep")
    assert _pairs(df) == _pairs(bc) == {(1, 3), (2, 3), (2, 4)}


def test_weights_agree(spark, blocker_out):
    kw = dict(scheme="js", use_entropy=False, pruning="wnp")
    df = {
        (r["p1"], r["p2"]): r["weight"]
        for r in meta_blocking(blocker_out["blocks"], **kw).collect()
    }
    bc = {
        (r["p1"], r["p2"]): r["weight"]
        for r in meta_blocking_broadcast(spark, blocker_out["blocks"], **kw).collect()
    }
    assert set(df) == set(bc)
    for k in df:
        assert df[k] == pytest.approx(bc[k], rel=1e-9)


def _node(index, pid: int) -> int:
    return int(np.searchsorted(index.pids, pid))


class TestIndex:
    def test_index_shapes(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        assert len(index.block_ent) == 5  # Figure 1 blocks
        assert set(index.pids.tolist()) == {1, 2, 3, 4}
        b = dict(zip(index.pids.tolist(), index.b.tolist()))
        assert b[1] == 3 and b[4] == 3

    def test_neighborhood_weights(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        nbrs, w = _neighborhood(_node(index, 1), index, scheme="cbs", use_entropy=False)
        got = dict(zip(index.pids[nbrs].tolist(), w.tolist()))
        assert got == {3: 3.0, 4: 1.0}

    def test_neighborhood_symmetric(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        nbrs, w = _neighborhood(_node(index, 3), index, scheme="cbs", use_entropy=False)
        got = dict(zip(index.pids[nbrs].tolist(), w.tolist()))
        assert got == {1: 3.0, 2: 2.0}

    def test_node_without_other_source_neighbours(self, spark):
        """Filtering can leave blocks with members of one source only, as
        "b" and "c" here: pids 2 and 4 get empty neighborhoods and no
        candidate."""
        blocks = spark.createDataFrame(
            [("a", 0, 1, 1), ("a", 0, 3, 2), ("b", 0, 2, 1), ("c", 0, 4, 2)],
            "key string, cluster int, pid long, source int",
        )
        index = _build_index(blocks, None)
        for pid in (2, 4):
            nbrs, w = _neighborhood(_node(index, pid), index, scheme="cbs", use_entropy=False)
            assert len(nbrs) == 0 and len(w) == 0
        for pruning in ("wep", "wnp", "blast", "cnp"):
            bc = meta_blocking_broadcast(spark, blocks, scheme="js", pruning=pruning)
            assert _pairs(bc) == _pairs(meta_blocking(blocks, scheme="js", pruning=pruning)) == {(1, 3)}


class TestThreshold:
    def test_wnp_mean(self):
        assert _threshold(np.array([1.0, 2.0, 6.0]), pruning="wnp", blast_c=0, cnp_k=0) == 3.0

    def test_blast_cmax(self):
        assert _threshold(np.array([1.0, 8.0]), pruning="blast", blast_c=0.25, cnp_k=0) == 2.0

    def test_cnp_kth(self):
        w = np.array([5.0, 1.0, 3.0])
        assert _threshold(w, pruning="cnp", blast_c=0, cnp_k=2) == 3.0
        assert _threshold(w, pruning="cnp", blast_c=0, cnp_k=99) == 1.0

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            _threshold(np.array([1.0]), pruning="nope", blast_c=0, cnp_k=0)


def test_requires_entropies(spark, toy_blocks):
    with pytest.raises(ValueError):
        meta_blocking_broadcast(spark, toy_blocks, use_entropy=True)


@pytest.mark.parametrize("impl", ["catalyst", "broadcast"])
@pytest.mark.parametrize("bad", [{"scheme": "nope"}, {"pruning": "nope"}], ids=["scheme", "pruning"])
@pytest.mark.parametrize("empty", [False, True], ids=["toy", "empty"])
def test_unknown_options_rejected_before_any_job(spark, toy_blocks, impl, bad, empty):
    """A bad scheme or pruning raises ValueError on the driver, before any
    Spark job, also when there are no blocks at all."""
    sc = spark.sparkContext
    blocks = toy_blocks.limit(0) if empty else toy_blocks
    run = meta_blocking if impl == "catalyst" else functools.partial(meta_blocking_broadcast, spark)
    group = f"bad-options-{impl}-{'-'.join(bad)}-{empty}"
    sc.setJobGroup(group, "unknown meta-blocking options")
    try:
        with pytest.raises(ValueError, match="unknown"):
            run(blocks, **bad)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


@pytest.mark.parametrize("impl", ["catalyst", "broadcast"])
@pytest.mark.parametrize(
    "bad",
    [{"cnp_k": 0}, {"cnp_k": -1}, {"cnp_k": 2.5}, {"blast_c": -1}, {"blast_c": 0}, {"blast_c": 1.5}],
    ids=lambda b: "-".join(f"{k}={v}" for k, v in b.items()),
)
def test_bad_thresholds_rejected_before_any_job(spark, toy_blocks, impl, bad):
    """cnp_k must be an int >= 1 and blast_c in (0, 1]: a bad value raises
    ValueError on the driver, before any Spark job."""
    sc = spark.sparkContext
    run = meta_blocking if impl == "catalyst" else functools.partial(meta_blocking_broadcast, spark)
    group = f"bad-thresholds-{impl}-{bad}"
    sc.setJobGroup(group, "bad meta-blocking thresholds")
    try:
        with pytest.raises(ValueError, match=next(iter(bad))):
            run(toy_blocks, scheme="cbs", pruning="cnp" if "cnp_k" in bad else "blast", **bad)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert sc.statusTracker().getJobIdsForGroup(group) == []


@pytest.mark.parametrize("impl", ["catalyst", "broadcast"])
@pytest.mark.parametrize("pruning", ["wep", "wnp", "blast", "cnp"])
def test_empty_blocks_give_no_rows(spark, toy_blocks, impl, pruning):
    """No blocks, no candidates, and no 0/0 warning on the way."""
    run = meta_blocking if impl == "catalyst" else functools.partial(meta_blocking_broadcast, spark)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(toy_blocks.limit(0), scheme="chi2", pruning=pruning).count() == 0


def test_broadcast_mb_job_budget(spark, blocker_out):
    """One collect each of the blocks and pass A, and two jobs to count
    pass B: the nodes are a range, not a distinct, and the entropies are
    already a driver table."""
    sc = spark.sparkContext
    group = "broadcast-mb-jobs"
    sc.setJobGroup(group, "broadcast meta-blocking of the dataset")
    try:
        meta_blocking_broadcast(
            spark, blocker_out["blocks"], scheme="chi2", use_entropy=True,
            entropies=blocker_out["entropies"], pruning="wnp",
        ).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= 4
