"""End-to-end property oracle for the matcher and the clusterer.

The random two-source collections of ``test_blocker_oracle`` go through
``run_pipeline``. The pure-Python reference takes the blocker reference's
candidates, scores each with Jaccard over the profiles' token sets and
cosine over their TF-IDF vectors, keeps the pairs whose drawn feature
clears the threshold, and clusters them with networkx connected
components, each entity named by its smallest pid.

Jaccard is one division of the same two integers on both sides, so it is
compared exactly. The pipeline's cosine sums its products in a different
order from this reference and may differ from it in the last bits, so a
cosine within ``BAND`` of the threshold is left to the pipeline: such a
pair is not compared, and the reference clusters take the pipeline's
verdict on it.
"""
import math
import re
from collections import Counter, defaultdict

import networkx as nx
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import BlockerConfig, run_pipeline
from tests.test_blocker_oracle import (
    COLS_A, COLS_B, MANUAL, SCHEMA_A, SCHEMA_B, collection, reference,
)

BAND = 1e-9


def token_counts(rows_a, rows_b) -> dict[int, Counter]:
    """pid -> token -> the number of the profile's attributes holding it
    (the tokenizer keeps one row per (pid, attribute, token))."""
    toks = defaultdict(Counter)
    for rows in (rows_a, rows_b):
        for pid, *values in rows:
            for value in values:
                if value is not None:
                    toks[pid].update(t for t in set(re.split("[^a-z0-9]+", value.lower())) if len(t) >= 2)
    return {p: c for p, c in toks.items() if c}


def features(toks: dict[int, Counter], pairs) -> dict[tuple[int, int], tuple[float, float]]:
    """(jaccard, cosine) of each pair; IDF = ln(N / df) over the N
    profiles that have a token, cosine 0.0 when a norm is 0."""
    df = Counter(t for c in toks.values() for t in c)
    w = {p: {t: tf * math.log(len(toks) / df[t]) for t, tf in c.items()} for p, c in toks.items()}
    norm = {p: math.sqrt(sum(x * x for x in v.values())) for p, v in w.items()}
    out = {}
    for p1, p2 in pairs:
        shared = toks[p1].keys() & toks[p2].keys()
        jaccard = len(shared) / len(toks[p1].keys() | toks[p2].keys())
        dot = sum(w[p1][t] * w[p2][t] for t in shared)
        cosine = dot / (norm[p1] * norm[p2]) if norm[p1] > 0 and norm[p2] > 0 else 0.0
        out[p1, p2] = (jaccard, cosine)
    return out


def entities(edges) -> dict[int, int]:
    """pid -> smallest pid of its connected component."""
    g = nx.Graph(list(edges))
    return {p: min(cc) for cc in nx.connected_components(g) for p in cc}


@pytest.mark.parametrize("manual", [False, True], ids=["agnostic", "manual"])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=collection,
    scheme=st.sampled_from(["cbs", "js", "chi2"]),
    pruning=st.sampled_from(["wep", "wnp", "blast", "cnp"]),
    feature=st.sampled_from(["jaccard", "cosine"]),
    # 1.0 and 0.5 are often met exactly by a Jaccard, which checks ``>=``
    threshold=st.sampled_from([0.3, 0.5, 1.0]),
)
def test_pipeline_matches_reference(spark, data, manual, scheme, pruning, feature, threshold):
    vals_a, vals_b = data
    rows_a = [(i + 1, *v) for i, v in enumerate(vals_a)]
    rows_b = [(i + 101, *v) for i, v in enumerate(vals_b)]
    a = spark.createDataFrame(pd.DataFrame(rows_a, columns=["id", *COLS_A]), SCHEMA_A)
    b = spark.createDataFrame(pd.DataFrame(rows_b, columns=["id", *COLS_B]), SCHEMA_B)
    clusters = MANUAL if manual else None
    # no purging or filtering: tiny collections keep more candidates
    cfg = BlockerConfig(
        loose_schema=manual, manual_clusters=clusters, purge_max_frac=1.0, filter_ratio=1.0,
        weight_scheme=scheme, pruning=pruning, use_entropy=False,
    )
    _, cands = reference(
        rows_a, rows_b, clusters=clusters, purge_frac=cfg.purge_max_frac,
        filter_ratio=cfg.filter_ratio, scheme=scheme, pruning=pruning,
    )
    want = features(token_counts(rows_a, rows_b), cands)
    score = {e: f[feature == "cosine"] for e, f in want.items()}
    near = {e for e, s in score.items() if feature == "cosine" and abs(s - threshold) <= BAND}

    out = run_pipeline(spark, a, b, cfg, match_feature=feature, match_threshold=threshold)
    got = {(r["p1"], r["p2"]): (r["jaccard"], r["cosine"]) for r in out["similarities"].toArrow().to_pylist()}
    assert got.keys() == want.keys()
    for e, (jaccard, cosine) in want.items():
        assert got[e][0] == jaccard, (e, got[e], want[e])
        assert math.isclose(got[e][1], cosine, rel_tol=1e-12, abs_tol=1e-12), (e, got[e], want[e])

    matched = {(r["p1"], r["p2"]) for r in out["matches"].toArrow().to_pylist()}
    assert matched - near == {e for e, s in score.items() if s >= threshold} - near
    want_entities = entities({e for e, s in score.items() if s >= threshold and e not in near} | (matched & near))
    got_entities = {r["pid"]: r["entity"] for r in out["clusters"].toArrow().to_pylist()}
    assert got_entities == want_entities
