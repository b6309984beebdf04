"""The benchmark's workloads: inputs, one closed-loop iteration, checks.

Each workload generates its inputs from the seed (``setup``), runs one
iteration of the program on them (``iterate``, timed; it ends by
collecting the outputs a user would read), and verifies those outputs
against independent recomputations (``check``, untimed). A check that
fails raises ``CheckFailed``; the runner counts the iteration as failed.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable

import networkx as nx
import pandas as pd

from repro.core.broadcast_mb import meta_blocking_broadcast
from repro.core.pipeline import BlockerConfig, run_blocker, run_pipeline
from repro.data import er_synth
from repro.debug.evaluation import (
    cluster_pair_metrics,
    explain_lost_pair,
    lost_pairs,
    pair_metrics,
)
from repro.debug.sampling import debug_sample, restrict_to_sample


class CheckFailed(AssertionError):
    """An output check failed (raised explicitly, so ``-O`` keeps it)."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


@dataclass
class Inputs:
    ds: er_synth.ERDataset
    a: object  # Spark DataFrames: source A, source B, ground truth
    b: object
    gt: object

    @property
    def gt_pairs(self) -> set[tuple[int, int]]:
        g = self.ds.ground_truth
        return set(zip(g["p1"].astype(int), g["p2"].astype(int)))


def _make_inputs(spark, *, n_entities: int, size_mult: int, seed: int) -> Inputs:
    ds = er_synth.generate(n_entities=n_entities, size_mult=size_mult, seed=seed)
    a, b, gt = er_synth.to_spark(spark, ds)
    return Inputs(ds, a, b, gt)


def _pairs(df) -> set[tuple[int, int]]:
    pdf = df.select("p1", "p2").toPandas()
    return set(zip(pdf["p1"].astype(int), pdf["p2"].astype(int)))


def _check_cross_source(ins: Inputs, pairs: set[tuple[int, int]], what: str) -> None:
    ids_a = set(ins.ds.source_a["id"].astype(int))
    ids_b = set(ins.ds.source_b["id"].astype(int))
    bad = [p for p in pairs if p[0] not in ids_a or p[1] not in ids_b]
    _require(not bad, f"{what}: {len(bad)} pairs do not cross sources, e.g. {bad[:3]}")


def _check_metrics(m, pairs: set, gt: set, what: str) -> None:
    n_true = len(pairs & gt)
    _require(
        (m.n_pairs, m.n_gt, m.n_true) == (len(pairs), len(gt), n_true),
        f"{what}: pair_metrics {m} != pandas ({len(pairs)}, {len(gt)}, {n_true})",
    )
    recall = n_true / len(gt) if gt else 0.0
    precision = n_true / len(pairs) if pairs else 0.0
    _require(
        abs(m.recall - recall) < 1e-12 and abs(m.precision - precision) < 1e-12,
        f"{what}: recall/precision {m.recall}/{m.precision} != {recall}/{precision}",
    )


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(sorted(p)).encode())
    return h.hexdigest()


@dataclass
class Result:
    """What one iteration produced: the reported quality of the final
    output, the collected outputs for ``check``, and their digest.
    ``extra`` holds quality figures that are recorded but not gated."""

    recall: float
    precision: float
    outputs: dict
    digest: str = ""
    extra: dict = field(default_factory=dict)


# -- blast-blocker -------------------------------------------------------------
# The paper's Fig. 6e Blocker (LSH attribute partitioning at t=0.3,
# entropy, chi2, WNP), both meta-blocking implementations on the same
# blocks, then the debug panel's drill-down and a Magellan-style sample.
BLAST_N, BLAST_MULT = 500, 1


def blast_setup(spark, seed: int) -> Inputs:
    return _make_inputs(spark, n_entities=BLAST_N, size_mult=BLAST_MULT, seed=seed)


def blast_iterate(spark, ins: Inputs) -> Result:
    cfg = BlockerConfig()
    out = run_blocker(spark, ins.a, ins.b, cfg)
    bc = meta_blocking_broadcast(
        spark, out["blocks"], scheme=cfg.weight_scheme,
        use_entropy=cfg.use_entropy, entropies=out["entropies"],
        pruning=cfg.pruning, blast_c=cfg.blast_c, cnp_k=cfg.cnp_k,
    )
    m = pair_metrics(out["candidates"], ins.gt)
    lost = lost_pairs(out["candidates"], ins.gt)
    explained = explain_lost_pair(lost, out["tokens"])
    sample = debug_sample(out["profiles"], out["tokens"])
    sample_gt = restrict_to_sample(ins.gt, sample, cols=("p1", "p2"))
    outputs = {
        "metrics": m,
        "candidates": _pairs(out["candidates"]),
        "broadcast": _pairs(bc),
        "lost": _pairs(lost),
        "explained": set(
            explained.select("p1", "p2", "token").toPandas().itertuples(index=False, name=None)
        ),
        "sample": set(sample.select("pid").toPandas()["pid"].astype(int)),
        "sample_gt": _pairs(sample_gt),
    }
    return Result(m.recall, m.precision, outputs)


def blast_check(ins: Inputs, r: Result) -> None:
    o, gt = r.outputs, ins.gt_pairs
    cands = o["candidates"]
    _require(cands == o["broadcast"],
             f"Catalyst and broadcast MB differ in {len(cands ^ o['broadcast'])} pairs")
    _check_cross_source(ins, cands, "MB candidates")
    _check_metrics(o["metrics"], cands, gt, "MB candidates")
    m = o["metrics"]
    _require(m.n_lost == m.n_gt - m.n_true, "n_lost != n_gt - n_true")
    _require(o["lost"] == gt - cands, "lost_pairs != ground truth minus candidates")
    _require({(p1, p2) for p1, p2, _ in o["explained"]} <= o["lost"],
             "explain_lost_pair returned rows for pairs that are not lost")
    all_ids = set(ins.ds.source_a["id"].astype(int)) | set(ins.ds.source_b["id"].astype(int))
    _require(bool(o["sample"]) and o["sample"] <= all_ids, "sample is empty or has unknown pids")
    _require(o["sample_gt"] == {p for p in gt if p[0] in o["sample"] and p[1] in o["sample"]},
             "restrict_to_sample(ground truth) != ground-truth pairs inside the sample")
    r.digest = _digest(cands, o["lost"], o["explained"], o["sample"])


# -- agnostic-er ---------------------------------------------------------------
# Schema-agnostic end-to-end ER: token blocking (partitioning and entropy
# bypassed) -> CBS/chi2 WNP meta-blocking -> cosine@0.4 -> clusterer.
# The gated quality is that of the matched pairs. The pair quality of the
# clusters is recorded too but not gated: the transitive closure now and
# then joins hard negatives into one large cluster whose pairs dominate
# the count. Over ten seeds, the spread of cluster precision was 0.10-0.30
# at every input size tried (perfbench/README.md).
AGN_N, AGN_MULT = 500, 1


def agnostic_setup(spark, seed: int) -> Inputs:
    return _make_inputs(spark, n_entities=AGN_N, size_mult=AGN_MULT, seed=seed)


def agnostic_iterate(spark, ins: Inputs) -> Result:
    out = run_pipeline(spark, ins.a, ins.b, BlockerConfig(loose_schema=False))
    mm = pair_metrics(out["matches"], ins.gt)
    cm = cluster_pair_metrics(out["clusters"], ins.gt)
    clusters = out["clusters"].select("pid", "entity").toPandas()
    outputs = {
        "match_metrics": mm,
        "metrics": cm,
        "candidates": _pairs(out["candidates"]),
        "matches": _pairs(out["matches"]),
        "clusters": dict(zip(clusters["pid"].astype(int), clusters["entity"].astype(int))),
    }
    extra = {"cluster_recall": cm.recall, "cluster_precision": cm.precision}
    return Result(mm.recall, mm.precision, outputs, extra=extra)


def agnostic_check(ins: Inputs, r: Result) -> None:
    o, gt = r.outputs, ins.gt_pairs
    _check_cross_source(ins, o["candidates"], "MB candidates")
    _require(o["matches"] <= o["candidates"], "a match is not a candidate")
    _check_metrics(o["match_metrics"], o["matches"], gt, "matches")
    g = nx.Graph()
    g.add_edges_from(o["matches"])
    expected = {v: min(c) for c in nx.connected_components(g) for v in c}
    _require(o["clusters"] == expected,
             "clusters != networkx connected components (entity = min pid)")
    members = pd.DataFrame(list(o["clusters"].items()), columns=["pid", "entity"])
    both = members.merge(members, on="entity", suffixes=("1", "2"))
    both = both[both["pid1"] < both["pid2"]]
    cluster_pairs = set(zip(both["pid1"].astype(int), both["pid2"].astype(int)))
    _check_metrics(o["metrics"], cluster_pairs, gt, "cluster pairs")
    r.digest = _digest(o["candidates"], o["matches"], o["clusters"].items())


@dataclass(frozen=True)
class Workload:
    setup: Callable
    iterate: Callable
    check: Callable


# Why each workload was chosen: perfbench/README.md and BENCHMARK.json.
WORKLOADS: dict[str, Workload] = {
    "blast-blocker": Workload(blast_setup, blast_iterate, blast_check),
    "agnostic-er": Workload(agnostic_setup, agnostic_iterate, agnostic_check),
}
