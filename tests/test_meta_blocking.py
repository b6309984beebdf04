"""Tests for meta-blocking: graph construction and pruning strategies."""
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro.core.meta_blocking import build_graph, meta_blocking, prune
from repro.debug.evaluation import pair_metrics


def _kept(df) -> set[tuple[int, int]]:
    return {(r["p1"], r["p2"]) for r in df.select("p1", "p2").collect()}


class TestFigure1WEP:
    """Figure 1(c): 'each edge … is retained if its weight is above the
    average. The dashed lines are the removed comparisons.'"""

    def test_wep_keeps_above_average(self, toy_blocks):
        # Weights 3,1,2,2 -> mean 2 -> keep (1,3),(2,3),(2,4); drop (1,4).
        kept = _kept(meta_blocking(toy_blocks, scheme="cbs", pruning="wep"))
        assert kept == {(1, 3), (2, 3), (2, 4)}

    def test_wep_singleton_graph_keeps_edge(self, spark):
        blocks = spark.createDataFrame(
            [("k", 0, 1, 1), ("k", 0, 2, 2)], ["key", "cluster", "pid", "source"]
        )
        assert _kept(meta_blocking(blocks, scheme="cbs", pruning="wep")) == {(1, 2)}


class TestFigure2Entropy:
    """Figure 2(c): entropy re-weighting removes the comparisons that
    plain schema-agnostic meta-blocking retains."""

    @pytest.fixture(scope="class")
    def loose_setup(self, spark, toy_tokens):
        """Blocks under the {name,title}=1 / {authors,author}=2 partition,
        with cluster entropies chosen Figure-2-style: the author cluster
        (2) is high-entropy, the name cluster (1) lower, blob lowest."""
        from repro.core.blocking import loose_schema_blocking
        from repro.looseschema.partitioning import attribute_token_counts, manual_partition

        part = manual_partition(
            attribute_token_counts(toy_tokens),
            {"1.name": 1, "2.title": 1, "1.authors": 2, "2.author": 2},
        )
        tagged = toy_tokens.join(spark.createDataFrame(part), "attribute")
        blocks = loose_schema_blocking(tagged).localCheckpoint(eager=True)
        entropies = pa.table({
            "cluster": pa.array([0, 1, 2], pa.int32()),
            "entropy": [0.2, 0.4, 0.8], "entropy_norm": [0.25, 0.5, 1.0],
        })
        return blocks, entropies

    def test_entropy_changes_weights(self, loose_setup):
        blocks, entropies = loose_setup
        plain = {
            (r["p1"], r["p2"]): r["weight"]
            for r in build_graph(blocks, scheme="cbs").collect()
        }
        ent = {
            (r["p1"], r["p2"]): r["weight"]
            for r in build_graph(
                blocks, scheme="cbs", use_entropy=True, entropies=entropies
            ).collect()
        }
        assert set(plain) == set(ent)
        assert all(ent[e] <= plain[e] for e in plain)
        assert any(ent[e] < plain[e] for e in plain)

    def test_author_edge_outweighs_name_edge(self, loose_setup):
        """(1,3) co-occurs in blast_1 (ent .5) and simonini_2 (ent 1.0) →
        mean .75 × cbs 2 = 1.5; (2,4) co-occurs in sparker_1 +
        gagliardelli_2 → same; (1,4) only blast_1 → 0.5."""
        blocks, entropies = loose_setup
        w = {
            (r["p1"], r["p2"]): r["weight"]
            for r in build_graph(
                blocks, scheme="cbs", use_entropy=True, entropies=entropies
            ).collect()
        }
        assert w[(1, 3)] == pytest.approx(1.5)
        assert w[(2, 4)] == pytest.approx(1.5)
        assert w[(1, 4)] == pytest.approx(0.5)

    def test_loose_entropy_mb_keeps_only_true_matches(self, loose_setup, toy_blocks):
        """Figure 2(c) claim: loose meta-blocking with entropy removes the
        spurious comparisons that schema-agnostic meta-blocking (Fig 1c)
        retains — here the cross-entity (2,3) edge — leaving exactly the
        true matches (1,3) and (2,4)."""
        blocks, entropies = loose_setup
        schema_agnostic = _kept(meta_blocking(toy_blocks, scheme="cbs", pruning="wep"))
        assert (2, 3) in schema_agnostic
        ent = _kept(
            meta_blocking(
                blocks, scheme="cbs", use_entropy=True,
                entropies=entropies, pruning="wep",
            )
        )
        assert ent == {(1, 3), (2, 4)}

    def test_missing_entropies_rejected(self, loose_setup):
        blocks, _ = loose_setup
        with pytest.raises(ValueError):
            meta_blocking(blocks, use_entropy=True)


class TestNodeLocalPruning:
    @pytest.fixture(scope="class")
    def edges(self, spark):
        """Hand-built weighted graph:
        p1 -- {101: 9, 102: 3, 103: 1};  p2 -- {103: 5}."""
        rows = [
            (1, 101, 9.0), (1, 102, 3.0), (1, 103, 1.0),
            (2, 103, 5.0),
        ]
        return spark.createDataFrame(rows, ["p1", "p2", "weight"])

    def test_wnp_keeps_node_average_either_side(self, edges):
        # t(p1)=13/3≈4.33, t(101)=9, t(102)=3, t(103)=3, t(p2)=5.
        # (1,101): 9 >= 4.33 keep; (1,102): 3 >= 3 (t102) keep;
        # (1,103): 1 < 4.33 and 1 < 3 drop; (2,103): keep.
        kept = _kept(prune(edges, pruning="wnp"))
        assert kept == {(1, 101), (1, 102), (2, 103)}

    def test_blast_reciprocal_mean_threshold(self, edges):
        # c=0.5: t(p1)=4.5, t(101)=4.5, t(102)=1.5, t(103)=2.5, t(p2)=2.5.
        # keep iff w >= (t_a+t_b)/2: (1,101): 9>=4.5 ✓; (1,102): 3>=3 ✓;
        # (1,103): 1 >= 3.5 ✗; (2,103): 5 >= 2.5 ✓.
        kept = _kept(prune(edges, pruning="blast", blast_c=0.5))
        assert kept == {(1, 101), (1, 102), (2, 103)}

    def test_blast_c_tightens(self, edges):
        loose = _kept(prune(edges, pruning="blast", blast_c=0.1))
        tight = _kept(prune(edges, pruning="blast", blast_c=1.0))
        assert tight <= loose
        assert len(tight) < len(loose)

    def test_cnp_top_k(self, edges):
        # k=1: t = max per node. (1,101): 9 = t(p1) and t(101) keep;
        # (1,102): 3 = t(102) keep (either side); (1,103): t(103)=5 ✗,
        # t(p1)=9 ✗; (2,103): 5 = t(103) keep.
        kept = _kept(prune(edges, pruning="cnp", cnp_k=1))
        assert kept == {(1, 101), (1, 102), (2, 103)}

    def test_cnp_large_k_keeps_all(self, edges):
        assert len(_kept(prune(edges, pruning="cnp", cnp_k=10))) == 4

    def test_unknown_pruning_rejected(self, edges):
        with pytest.raises(ValueError):
            prune(edges, pruning="nope")

    def test_wnp_keeps_equal_weights_despite_rounding(self, spark):
        """Every node of a 3x3 bipartite graph has three edges of 0.1, so
        its mean rounds up to 0.10000000000000002; WNP must keep them all."""
        rows = [(a, b, 0.1) for a in (1, 2, 3) for b in (11, 12, 13)]
        edges = spark.createDataFrame(rows, ["p1", "p2", "weight"])
        assert _kept(prune(edges, pruning="wnp")) == {(a, b) for a, b, _ in rows}


class TestOnDataset:
    @pytest.mark.parametrize("pruning", ["wep", "wnp", "blast", "cnp"])
    def test_pruning_reduces_and_keeps_recall(self, blocker_out, er, pruning):
        from repro.core.blocking import candidate_pairs

        base = pair_metrics(candidate_pairs(blocker_out["blocks"]), er[2])
        m = pair_metrics(
            meta_blocking(
                blocker_out["blocks"],
                scheme="chi2",
                use_entropy=True,
                entropies=blocker_out["entropies"],
                pruning=pruning,
            ),
            er[2],
        )
        assert m.n_pairs < base.n_pairs
        assert m.recall > 0.9
        assert m.precision > base.precision

    def test_retained_edges_subset_of_graph(self, blocker_out):
        edges = build_graph(blocker_out["blocks"], scheme="cbs").localCheckpoint(True)
        kept = prune(edges, pruning="wnp")
        assert kept.count() <= edges.count()
        assert kept.join(edges, ["p1", "p2"], "left_anti").count() == 0

    def test_weights_positive(self, blocker_out):
        edges = build_graph(
            blocker_out["blocks"],
            scheme="chi2",
            use_entropy=True,
            entropies=blocker_out["entropies"],
        )
        assert edges.where(F.col("weight") < 0).count() == 0


@pytest.mark.parametrize("pruning", ["wep", "wnp", "blast", "cnp"])
def test_catalyst_mb_job_budget(spark, blocker_out, pruning):
    """Catalyst meta-blocking is one plan over the blocks: the count of
    the distinct keys (for chi2) and the jobs of counting the result. Both
    sides of the self-join share one pid exchange and window; WEP's one
    global threshold window takes fewer jobs than two node windows."""
    budget = 10 if pruning == "wep" else 12
    sc = spark.sparkContext
    group = f"catalyst-mb-jobs-{pruning}"
    sc.setJobGroup(group, "Catalyst meta-blocking of the dataset")
    try:
        meta_blocking(
            blocker_out["blocks"], scheme="chi2", use_entropy=True,
            entropies=blocker_out["entropies"], pruning=pruning,
        ).count()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    assert len(sc.statusTracker().getJobIdsForGroup(group)) <= budget
