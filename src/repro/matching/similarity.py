"""Profile-pair similarity measures for the Entity Matcher.

SparkER delegates matching to "any existing tool" and demos Magellan's;
the substitute here computes the classic string-similarity features that
such tools use (no per-pair UDF loops):

    jaccard   -- Jaccard of the profiles' full token sets
    cosine    -- cosine over TF-IDF token vectors
    lev_norm  -- normalized Levenshtein similarity of a designated
                 "name-like" attribute (Spark's built-in ``levenshtein``)

The tokens, the candidate pairs and the names are collected once. The
driver builds a CSR index over the profiles' TF-IDF-weighted tokens and
scores the distinct pairs in numpy, a fixed number of pairs at a time;
the scored pairs reach Spark as one pyarrow table, where
``lev_norm`` is a projection of the two names, so a reader that does not
select it never computes it. Names are lowercased with the tokenizer's
``fold_case``. The driver holds 16 bytes per (profile, token) and the
chunk's arrays (DESIGN.md, "Layering").
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.csr import offsets, ranges
from repro.core.tokens import fold_case

# Pairs scored per numpy pass: the pass holds a few arrays as long as the
# chunk's p2 token lists, so this bounds the driver's working memory.
CHUNK_PAIRS = 1 << 16


class _TokenIndex(NamedTuple):
    """TF-IDF vectors of the profiles in CSR form. Row ``r`` is profile
    ``pids[r]``; its entries are ``keys[ptr[r]:ptr[r + 1]]``, sorted by
    token id, with ``key = r·n_terms + token id`` and weights ``w``."""

    pids: np.ndarray
    ptr: np.ndarray
    keys: np.ndarray
    w: np.ndarray
    norm: np.ndarray
    n_terms: int


def _token_index(tok: pd.DataFrame) -> _TokenIndex:
    """The index of the collected ``(pid, token)`` rows. TF counts each
    row once — one per attribute, the tokenizer's granularity; IDF =
    ln(N / df) over the N profiles that have a token. Token ids follow
    the tokens' code point order and each norm sums the squared weights
    in that order, as a sorted token map would in Spark."""
    pids, row = np.unique(tok["pid"].to_numpy(np.int64), return_inverse=True)
    term, vocab = pd.factorize(tok["token"], sort=True)
    n_terms = len(vocab)
    keys, tf = np.unique(row * n_terms + term, return_counts=True)
    term, row = keys % n_terms, keys // n_terms
    idf = np.log(len(pids) / np.bincount(term, minlength=n_terms))
    w = tf * idf[term]
    norm = np.sqrt(np.bincount(row, w * w, minlength=len(pids)))
    return _TokenIndex(pids, offsets(row, len(pids)), keys, w, norm, n_terms)


def _score(idx: _TokenIndex, r1: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jaccard and cosine of each pair of rows. p2's entries, keyed to
    p1's row, are looked up in the sorted keys; the dot product sums the
    hits in token order."""
    lo, hi = idx.ptr[r2], idx.ptr[r2 + 1]
    pos2 = ranges(lo, hi)
    pair = np.repeat(np.arange(len(r2)), hi - lo)
    want = r1[pair] * idx.n_terms + idx.keys[pos2] % idx.n_terms
    pos1 = np.minimum(np.searchsorted(idx.keys, want), len(idx.keys) - 1)
    hit = idx.keys[pos1] == want
    inter = np.bincount(pair[hit], minlength=len(r2))
    dot = np.bincount(pair[hit], idx.w[pos1[hit]] * idx.w[pos2[hit]], minlength=len(r2))
    jaccard = inter / (idx.ptr[r1 + 1] - idx.ptr[r1] + hi - lo - inter)
    both = (idx.norm[r1] > 0) & (idx.norm[r2] > 0)
    cosine = np.where(both, dot / np.where(both, idx.norm[r1] * idx.norm[r2], 1.0), 0.0)
    return jaccard, cosine


def _rows(pids: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Row of each id in the sorted ``pids``; -1 where it is absent."""
    if not len(pids):
        return np.full(len(ids), -1)
    at = np.minimum(np.searchsorted(pids, ids), len(pids) - 1)
    return np.where(pids[at] == ids, at, -1)


def name_values(profiles: DataFrame, name_attrs: list[str]) -> pd.DataFrame:
    """The collected ``(pid, name)`` rows: each profile's value of its
    source's attribute in ``name_attrs`` (source-qualified, one per
    source), folded with the tokenizer's ``fold_case``."""
    nv = (
        profiles.where(F.col("attribute").isin(name_attrs))
        .select("pid", fold_case(F.col("value")).alias("name"))
        .toPandas()
    )
    if len(dup := nv["pid"][nv["pid"].duplicated()]):
        raise ValueError(f"profile {dup.iloc[0]} has a value for more than one of {name_attrs}")
    return nv


def add_similarities(
    pairs: DataFrame,
    tokens: DataFrame,
    profiles: DataFrame,
    *,
    name_attrs: list[str],
) -> DataFrame:
    """Distinct candidate pairs decorated with all three features; pairs
    with a token-less profile or a null id drop out, and a missing name
    gives ``lev_norm`` 0."""
    idx = _token_index(tokens.select("pid", "token").toPandas())
    pp = pairs.select(F.col("p1").cast("long"), F.col("p2").cast("long")).dropna().toPandas()
    r1, r2 = (_rows(idx.pids, pp[c].to_numpy(np.int64)) for c in ("p1", "p2"))
    ok = (r1 >= 0) & (r2 >= 0)
    # distinct pairs, sorted by (p1, p2)
    key = np.unique(r1[ok] * len(idx.pids) + r2[ok])
    r1, r2 = key // len(idx.pids), key % len(idx.pids)

    jaccard, cosine = np.empty(len(key)), np.empty(len(key))
    for lo in range(0, len(key), CHUNK_PAIRS):
        chunk = slice(lo, lo + CHUNK_PAIRS)
        jaccard[chunk], cosine[chunk] = _score(idx, r1[chunk], r2[chunk])

    nv = name_values(profiles, name_attrs)
    names = np.full(len(idx.pids), None, dtype=object)
    at = _rows(idx.pids, nv["pid"].to_numpy(np.int64))
    names[at[at >= 0]] = nv["name"].to_numpy(object)[at >= 0]
    scored = {
        "p1": idx.pids[r1], "p2": idx.pids[r2], "jaccard": jaccard, "cosine": cosine,
        "name1": names[r1], "name2": names[r2],
    }
    schema = "p1 long, p2 long, jaccard double, cosine double, name1 string, name2 string"
    name1, name2 = F.col("name1"), F.col("name2")
    lev = 1.0 - F.levenshtein(name1, name2) / F.greatest(F.length(name1), F.length(name2))
    return pairs.sparkSession.createDataFrame(pa.table(scored), schema).select(
        "p1",
        "p2",
        "jaccard",
        "cosine",
        F.when(name1.isNotNull() & name2.isNotNull(), lev).otherwise(F.lit(0.0)).alias("lev_norm"),
    )
