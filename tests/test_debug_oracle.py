"""Property oracle for the debug sample and the lost-pair drilldown.

The random two-source collections of ``test_blocker_oracle`` go through
``debug_sample`` and ``explain_lost_pair``. The pure-Python references
read the profiles and their tokens from the drawn rows. The sample takes
the same ``default_rng`` draws over the sorted pids, each seed's top
``small_k // 2`` other-source profiles by distinct shared tokens (ties
to the smaller pid), and the alphabetically first reason of a profile
picked twice. The explanation lists, for each distinct lost pair with no
null id, every shared token with the sorted attributes holding it on
each side.
"""
import re
from collections import defaultdict

import numpy as np
import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.profiles import load_clean_clean
from repro.core.tokens import tokenize
from repro.debug.evaluation import explain_lost_pair
from repro.debug.sampling import debug_sample
from tests.test_blocker_oracle import COLS_A, COLS_B, SCHEMA_A, SCHEMA_B, collection


def token_attrs(rows_a, rows_b):
    """The pids with a value, each pid's source, and pid -> token -> the
    set of attributes holding it."""
    present, source, toks = set(), {}, defaultdict(lambda: defaultdict(set))
    for src, cols, rows in ((1, COLS_A, rows_a), (2, COLS_B, rows_b)):
        for pid, *values in rows:
            source[pid] = src
            for col, value in zip(cols, values):
                if value is None or not value.strip(" "):
                    continue
                present.add(pid)
                for tok in re.split("[^a-z0-9]+", value.lower()):
                    if len(tok) >= 2:
                        toks[pid][tok].add(f"{src}.{col}")
    return present, source, toks


def reference_sample(present, source, toks, *, big_k, small_k, seed):
    """pid -> reason."""
    pids = np.array(sorted(present), dtype=np.int64)
    rng = np.random.default_rng(seed)
    seeds = rng.choice(pids, size=min(big_k, len(pids)), replace=False)
    rest = np.setdiff1d(pids, seeds)
    randoms = rng.choice(rest, size=min(big_k * (small_k // 2), len(rest)), replace=False)
    reasons = defaultdict(set)
    for s in seeds.tolist():
        reasons[s].add("seed")
        shared = {
            p: len(toks[s].keys() & toks[p].keys())
            for p in list(toks) if source[p] != source[s]
        }
        ranked = sorted((p for p, n in shared.items() if n), key=lambda p: (-shared[p], p))
        for p in ranked[: small_k // 2]:
            reasons[p].add("likely")
    for p in randoms.tolist():
        reasons[p].add("random")
    return {p: min(r) for p, r in reasons.items()}


def reference_explanation(lost, toks):
    """Sorted rows (p1, p2, token, attrs_1, attrs_2)."""
    return sorted(
        (p1, p2, t, sorted(toks[p1][t]), sorted(toks[p2][t]))
        for p1, p2 in set(lost) if p1 is not None and p2 is not None
        for t in toks[p1].keys() & toks[p2].keys()
    )


def _inputs(spark, data):
    vals_a, vals_b = data
    rows_a = [(i + 1, *v) for i, v in enumerate(vals_a)]
    rows_b = [(i + 101, *v) for i, v in enumerate(vals_b)]
    a = spark.createDataFrame(pd.DataFrame(rows_a, columns=["id", *COLS_A]), SCHEMA_A)
    b = spark.createDataFrame(pd.DataFrame(rows_b, columns=["id", *COLS_B]), SCHEMA_B)
    profiles = load_clean_clean(a, b)
    return rows_a, rows_b, profiles, tokenize(profiles)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=collection,
    big_k=st.integers(1, 6),
    small_k=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_debug_sample_matches_reference(spark, data, big_k, small_k, seed):
    rows_a, rows_b, profiles, tokens = _inputs(spark, data)
    present, source, toks = token_attrs(rows_a, rows_b)
    want = reference_sample(present, source, toks, big_k=big_k, small_k=small_k, seed=seed)
    got = debug_sample(profiles, tokens, big_k=big_k, small_k=small_k, seed=seed)
    assert got.schema.simpleString() == "struct<pid:bigint,reason:string>"
    assert dict(zip(*got.toArrow().to_pydict().values())) == want


pid_a, pid_b = st.integers(1, 6), st.integers(100, 106)


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    data=collection,
    # pairs within a source, a pid without a profile, repeats and null ids
    lost=st.lists(
        st.tuples(st.none() | pid_a | pid_b, st.none() | pid_a | pid_b), max_size=8
    ),
)
def test_explain_lost_pair_matches_reference(spark, data, lost):
    rows_a, rows_b, _, tokens = _inputs(spark, data)
    _, _, toks = token_attrs(rows_a, rows_b)
    got = explain_lost_pair(spark.createDataFrame(lost, "p1 long, p2 long"), tokens)
    assert got.schema.simpleString() == (
        "struct<p1:bigint,p2:bigint,token:string,attrs_1:array<string>,attrs_2:array<string>>"
    )
    rows = sorted(tuple(r.values()) for r in got.toArrow().to_pylist())
    assert rows == [tuple(r) for r in reference_explanation(lost, toks)]

