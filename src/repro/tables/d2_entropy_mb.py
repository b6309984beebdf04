"""Table D2 — meta-blocking with entropy (demo Figure 6e).

The demo's final step runs meta-blocking with the Entropy Extractor's
values on top of the 6(b) blocking: *"We can see a large decrease in the
number of candidate pairs w.r.t. 6(b), thus proving the effectiveness of
our technique."*

Rows: the 6(b) blocking-only baseline, then WNP meta-blocking with CBS
weights (plain schema-agnostic meta-blocking), χ² weights (Blast without
entropy), and χ²·entropy (Blast / loose meta-blocking, the 6e config).
Each reports candidates, reduction factor w.r.t. blocking-only, recall
and precision.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from repro.core import blocking, meta_blocking
from repro.core.pipeline import BlockerConfig, run_blocker
from repro.data import er_synth
from repro.debug.evaluation import pair_metrics

MB_CONFIGS: list[tuple[str, dict]] = [
    ("MB cbs (schema-agnostic)", dict(scheme="cbs", use_entropy=False)),
    ("MB chi2 (no entropy)", dict(scheme="chi2", use_entropy=False)),
    ("MB chi2 x entropy (6e)", dict(scheme="chi2", use_entropy=True)),
]


def run(spark: SparkSession, *, n_entities: int = 1500) -> list[dict]:
    """Baseline + three WNP meta-blocking rows over the 6(b) blocking."""
    ds = er_synth.generate(n_entities=n_entities)
    a, b, gt = er_synth.to_spark(spark, ds)
    out = run_blocker(
        spark, a, b,
        BlockerConfig(lsh_threshold=0.3, run_meta_blocking=False),
    )

    def row(label: str, cands: DataFrame, base: int | None) -> dict:
        m = pair_metrics(cands, gt)
        return {
            "config": label,
            "candidates": m.n_pairs,
            "reduction": 1.0 if base is None else base / max(m.n_pairs, 1),
            "recall": m.recall,
            "precision": m.precision,
            "lost_pairs": m.n_lost,
        }

    baseline = row("blocking only (6b)", out["candidates"], None)
    rows = [baseline]
    for label, kw in MB_CONFIGS:
        cands = meta_blocking.meta_blocking(out["blocks"], entropies=out["entropies"], **kw)
        rows.append(row(label, cands, baseline["candidates"]))
    return rows
