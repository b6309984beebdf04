"""Equivalence tests: broadcast meta-blocking (paper §2.1) vs Catalyst."""
import functools

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


class TestIndex:
    def test_index_shapes(self, toy_blocks):
        s1, s2, ent, pb, bcount, n = _build_index(toy_blocks, None)
        assert n == 5  # Figure 1 blocks
        assert set(pb) == {1, 2, 3, 4}
        assert bcount[1] == 3 and bcount[4] == 3

    def test_neighborhood_weights(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        nbrs, w = _neighborhood(1, 1, index, scheme="cbs", use_entropy=False)
        got = dict(zip(nbrs.tolist(), w.tolist()))
        assert got == {3: 3.0, 4: 1.0}

    def test_neighborhood_symmetric(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        nbrs, w = _neighborhood(3, 2, index, scheme="cbs", use_entropy=False)
        got = dict(zip(nbrs.tolist(), w.tolist()))
        assert got == {1: 3.0, 2: 2.0}

    def test_missing_node_empty(self, toy_blocks):
        index = _build_index(toy_blocks, None)
        nbrs, w = _neighborhood(999, 1, index, scheme="cbs", use_entropy=False)
        assert len(nbrs) == 0 and len(w) == 0


class TestThreshold:
    import numpy as np

    def test_wnp_mean(self):
        import numpy as np

        assert _threshold(np.array([1.0, 2.0, 6.0]), pruning="wnp", blast_c=0, cnp_k=0) == 3.0

    def test_blast_cmax(self):
        import numpy as np

        assert _threshold(np.array([1.0, 8.0]), pruning="blast", blast_c=0.25, cnp_k=0) == 2.0

    def test_cnp_kth(self):
        import numpy as np

        w = np.array([5.0, 1.0, 3.0])
        assert _threshold(w, pruning="cnp", blast_c=0, cnp_k=2) == 3.0
        assert _threshold(w, pruning="cnp", blast_c=0, cnp_k=99) == 1.0

    def test_unknown_raises(self):
        import numpy as np

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
