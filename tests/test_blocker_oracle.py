"""End-to-end property oracle for the Blocker.

Random tiny two-source collections go through ``run_blocker`` (schema-
agnostic and manual-partition modes) and through a pure-Python reference
of token blocking, purging, filtering, entropy extraction and meta-
blocking. Hypothesis draws the weighting scheme (CBS, JS, chi2, weighed
exactly with ``Fraction``), the pruning (WEP, WNP, BLAST, CNP) and, with
manual clusters, entropy re-weighting. The blocks and the candidates must
be equal, and so must the broadcast meta-blocking of the same blocks.
"""
import math
import re
from collections import Counter, defaultdict
from fractions import Fraction

import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.broadcast_mb import meta_blocking_broadcast
from repro.core.pipeline import BlockerConfig, run_blocker

WORDS = ["ab", "cd", "ef", "gh", "x", "AB", "cd-ef", "12", "ab.gh", "ij", "Kl", "mn", "34"]
COLS_A, COLS_B = ("name", "desc"), ("title", "info")
SCHEMA_A, SCHEMA_B = "id long, name string, desc string", "id long, title string, info string"
MANUAL = {"1.name": 1, "2.title": 1, "1.desc": 2}  # 2.info stays in the blob


# weights.REL_TOL: the keep rule's documented relative float slack
SLACK = 1 - Fraction(1, 10**9)


def shannon(counts) -> float:
    """Shannon entropy (bits) of a token-count distribution."""
    total = sum(counts)
    return -sum(n / total * math.log2(n / total) for n in sorted(counts))


def weight(scheme, cbs, b1, b2, n_blocks) -> Fraction:
    """Exact CBS, Jaccard or 2x2 chi-square edge weight."""
    if scheme == "cbs":
        return Fraction(cbs)
    if scheme == "js":
        return Fraction(cbs, b1 + b2 - cbs)
    den = b1 * b2 * (n_blocks - b1) * (n_blocks - b2)
    return Fraction(n_blocks * (cbs * n_blocks - b1 * b2) ** 2, den) if den > 0 else Fraction(0)


def threshold(pruning, ws, *, blast_c, cnp_k) -> Fraction:
    """A node's threshold over its edge weights ``ws`` (not used by WEP)."""
    if pruning == "wnp":
        return sum(ws) / len(ws)
    if pruning == "blast":
        return Fraction(blast_c) * max(ws)
    return sorted(ws, reverse=True)[min(cnp_k, len(ws)) - 1]  # cnp


def reference(
    rows_a, rows_b, *, clusters, purge_frac, filter_ratio,
    scheme="cbs", pruning="wnp", use_entropy=False, blast_c=0.35, cnp_k=10,
):
    """Blocks ``{key: {pid}}`` and meta-blocking candidates ``{(p1, p2): weight}``."""
    blocks = defaultdict(set)  # key -> {(pid, source)}
    cluster_of = {}  # key -> attribute cluster
    occurrences = defaultdict(list)  # cluster -> one token per (pid, attribute, token)
    profiles = set()
    for source, cols, rows in ((1, COLS_A, rows_a), (2, COLS_B, rows_b)):
        for pid, *values in rows:
            for col, value in zip(cols, values):
                if value is None or not value.strip(" "):
                    continue
                profiles.add(pid)
                cluster = 0 if clusters is None else clusters.get(f"{source}.{col}", 0)
                for tok in set(re.split("[^a-z0-9]+", value.lower())):
                    if len(tok) >= 2:
                        key = tok if clusters is None else f"{tok}_{cluster}"
                        blocks[key].add((pid, source))
                        cluster_of[key] = cluster
                        occurrences[cluster].append(tok)
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

    # entropy of each attribute cluster, normalized by the largest (1.0 if all are 0)
    entropy = {c: shannon(Counter(toks).values()) for c, toks in occurrences.items()}
    top = max(entropy.values(), default=0.0)
    norm = {c: Fraction(h / top) if top > 0 else Fraction(1) for c, h in entropy.items()}

    # meta-blocking: exact weights, then the pruning's keep rule
    n_blocks = len(final)
    n_of = Counter(p for m in final.values() for p, _ in m)
    cbs, ent = Counter(), defaultdict(Fraction)
    for k, m in final.items():
        for p1, s1 in m:
            for p2, s2 in m:
                if s1 == 1 and s2 == 2:
                    cbs[p1, p2] += 1
                    ent[p1, p2] += norm[cluster_of[k]]
    w = {}
    for (p1, p2), c in cbs.items():
        w[p1, p2] = weight(scheme, c, n_of[p1], n_of[p2], n_blocks)
        if use_entropy:
            w[p1, p2] *= ent[p1, p2] / c
    nbrs = defaultdict(list)
    for (p1, p2), x in w.items():
        nbrs[p1].append(x)
        nbrs[p2].append(x)
    if pruning == "wep":
        mean = sum(w.values()) / len(w) if w else 0
        t = {p: mean for p in nbrs}
    else:
        t = {p: threshold(pruning, ws, blast_c=blast_c, cnp_k=cnp_k) for p, ws in nbrs.items()}
    if pruning == "blast":
        candidates = {e: x for e, x in w.items() if x >= (t[e[0]] + t[e[1]]) / 2 * SLACK}
    else:
        candidates = {e: x for e, x in w.items() if x >= t[e[0]] * SLACK or x >= t[e[1]] * SLACK}
    blocks_out = {k: {p for p, _ in m} for k, m in final.items()}
    return blocks_out, candidates


value = st.none() | st.lists(st.sampled_from(WORDS + [" ", ""]), max_size=6).map(" ".join)
collection = st.tuples(
    st.lists(st.tuples(value, value), min_size=1, max_size=5),
    st.lists(st.tuples(value, value), min_size=1, max_size=5),
)


@pytest.mark.parametrize("manual", [False, True], ids=["agnostic", "manual"])
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    data=collection,
    purge_frac=st.sampled_from([0.5, 1.0]),
    filter_ratio=st.sampled_from([0.8, 1.0]),
    scheme=st.sampled_from(["cbs", "js", "chi2"]),
    pruning=st.sampled_from(["wep", "wnp", "blast", "cnp"]),
    use_entropy=st.booleans(),
    cnp_k=st.integers(1, 3),
)
def test_blocker_matches_reference(
    spark, data, manual, purge_frac, filter_ratio, scheme, pruning, use_entropy, cnp_k
):
    vals_a, vals_b = data
    rows_a = [(i + 1, *v) for i, v in enumerate(vals_a)]
    rows_b = [(i + 101, *v) for i, v in enumerate(vals_b)]
    a = spark.createDataFrame(pd.DataFrame(rows_a, columns=["id", *COLS_A]), SCHEMA_A)
    b = spark.createDataFrame(pd.DataFrame(rows_b, columns=["id", *COLS_B]), SCHEMA_B)
    clusters = MANUAL if manual else None
    # without attribute clusters there is no entropy table, and run_blocker skips it
    use_entropy = use_entropy and manual
    mb = dict(scheme=scheme, pruning=pruning, use_entropy=use_entropy, cnp_k=cnp_k)
    cfg = BlockerConfig(
        loose_schema=manual, manual_clusters=clusters,
        weight_scheme=scheme, pruning=pruning, use_entropy=use_entropy, cnp_k=cnp_k,
        purge_max_frac=purge_frac, filter_ratio=filter_ratio,
    )
    want_blocks, want = reference(
        rows_a, rows_b, clusters=clusters, purge_frac=purge_frac, filter_ratio=filter_ratio, **mb
    )

    out = run_blocker(spark, a, b, cfg)
    got_blocks = defaultdict(set)
    for r in out["blocks"].collect():
        got_blocks[r["key"]].add(r["pid"])
    assert got_blocks == want_blocks
    bc = meta_blocking_broadcast(spark, out["blocks"], entropies=out["entropies"], **mb)
    for df in (out["candidates"], bc):
        got = {(r["p1"], r["p2"]): r["weight"] for r in df.collect()}
        assert got.keys() == want.keys()
        for e, w in want.items():
            assert math.isclose(got[e], w, rel_tol=1e-9, abs_tol=1e-12), (e, got[e], float(w))
