"""End-to-end property oracle for the Blocker.

Random tiny two-source collections go through ``run_blocker`` (schema-
agnostic and manual-partition modes) and through a pure-Python reference
of token blocking, purging, filtering and CBS-weighted WNP meta-blocking.
The blocks and the candidates must be equal, and so must the broadcast
meta-blocking of the same blocks.
"""
import math
import re
from collections import defaultdict

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broadcast_mb import meta_blocking_broadcast
from repro.core.pipeline import BlockerConfig, run_blocker

WORDS = ["ab", "cd", "ef", "gh", "x", "AB", "cd-ef", "12", "ab.gh"]
COLS_A, COLS_B = ("name", "desc"), ("title", "info")
SCHEMA_A, SCHEMA_B = "id long, name string, desc string", "id long, title string, info string"
MANUAL = {"1.name": 1, "2.title": 1, "1.desc": 2}  # 2.info stays in the blob


def reference(rows_a, rows_b, *, clusters, purge_frac, filter_ratio):
    """Blocks ``{key: {pid}}`` and WNP/CBS candidates ``{(p1, p2)}``."""
    blocks = defaultdict(set)  # key -> {(pid, source)}
    profiles = set()
    for source, cols, rows in ((1, COLS_A, rows_a), (2, COLS_B, rows_b)):
        for pid, *values in rows:
            for col, value in zip(cols, values):
                if value is None or not value.strip(" "):
                    continue
                profiles.add(pid)
                attr = f"{source}.{col}"
                for tok in re.split("[^a-z0-9]+", value.lower()):
                    if len(tok) >= 2:
                        key = tok if clusters is None else f"{tok}_{clusters.get(attr, 0)}"
                        blocks[key].add((pid, source))
    # blocks that can compare two sources, then purging
    blocks = {
        k: m for k, m in blocks.items()
        if len(m) >= 2 and {s for _, s in m} == {1, 2}
        and len(m) <= purge_frac * len(profiles)
    }
    # filtering: each profile stays in its ceil(ratio * |B(p)|) smallest blocks
    by_profile = defaultdict(list)
    for k, m in blocks.items():
        for p in m:
            by_profile[p].append((len(m), k))
    final = defaultdict(set)
    for p, bs in by_profile.items():
        for _, k in sorted(bs)[: math.ceil(len(bs) * filter_ratio)]:
            final[k].add(p)

    # meta-blocking: CBS weights, WNP keep-if-either on exact means
    cbs = defaultdict(int)
    for m in final.values():
        for p1, s1 in m:
            for p2, s2 in m:
                if s1 == 1 and s2 == 2:
                    cbs[p1, p2] += 1
    total, degree = defaultdict(int), defaultdict(int)
    for (p1, p2), w in cbs.items():
        for p in (p1, p2):
            total[p] += w
            degree[p] += 1
    candidates = {
        (p1, p2) for (p1, p2), w in cbs.items()
        if w * degree[p1] >= total[p1] or w * degree[p2] >= total[p2]
    }
    blocks_out = {k: {p for p, _ in m} for k, m in final.items()}
    return blocks_out, candidates


value = st.none() | st.lists(st.sampled_from(WORDS + [" ", ""]), max_size=4).map(" ".join)
collection = st.tuples(
    st.lists(st.tuples(value, value), min_size=1, max_size=5),
    st.lists(st.tuples(value, value), min_size=1, max_size=5),
)


@pytest.mark.parametrize("manual", [False, True], ids=["agnostic", "manual"])
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=collection,
    purge_frac=st.sampled_from([0.5, 1.0]),
    filter_ratio=st.sampled_from([0.8, 1.0]),
)
def test_blocker_matches_reference(spark, data, manual, purge_frac, filter_ratio):
    vals_a, vals_b = data
    rows_a = [(i + 1, *v) for i, v in enumerate(vals_a)]
    rows_b = [(i + 101, *v) for i, v in enumerate(vals_b)]
    a = spark.createDataFrame(pd.DataFrame(rows_a, columns=["id", *COLS_A]), SCHEMA_A)
    b = spark.createDataFrame(pd.DataFrame(rows_b, columns=["id", *COLS_B]), SCHEMA_B)
    clusters = MANUAL if manual else None
    cfg = BlockerConfig(
        loose_schema=manual, manual_clusters=clusters, use_entropy=False,
        weight_scheme="cbs", pruning="wnp",
        purge_max_frac=purge_frac, filter_ratio=filter_ratio,
    )
    want_blocks, want = reference(
        rows_a, rows_b, clusters=clusters, purge_frac=purge_frac, filter_ratio=filter_ratio
    )

    out = run_blocker(spark, a, b, cfg)
    got_blocks = defaultdict(set)
    for r in out["blocks"].collect():
        got_blocks[r["key"]].add(r["pid"])
    assert got_blocks == want_blocks
    assert {(r["p1"], r["p2"]) for r in out["candidates"].collect()} == want
    bc = meta_blocking_broadcast(spark, out["blocks"], scheme="cbs", pruning="wnp")
    assert {(r["p1"], r["p2"]) for r in bc.collect()} == want
