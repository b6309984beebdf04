"""Edge-weighting schemes for the meta-blocking graph.

Every candidate pair (edge) carries the sufficient statistics

    cbs      -- number of blocks the two profiles share
    b1, b2   -- number of blocks each profile appears in
    n_blocks -- total number of blocks in the collection
    ent      -- mean normalized entropy of the shared blocks' clusters

and a scheme maps them to a weight:

    cbs   w = cbs                       (Common Blocks Scheme — Fig. 1c toy)
    js    w = cbs / (b1 + b2 - cbs)     (Jaccard of block sets)
    chi2  w = 2x2 chi-square of block co-occurrence (Blast)

With ``use_entropy`` the weight is multiplied by ``ent`` (Blast, Fig. 2c).

:func:`keep` is the one pruning keep rule both meta-blocking
implementations apply to an edge, given its endpoints' thresholds.

Two synchronized implementations live here: Spark Column expressions (for
the DataFrame meta-blocking) and a numpy version (for the broadcast
implementation and for test oracles). Tests assert they agree.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import Column
from pyspark.sql import functions as F

SCHEMES = ("cbs", "js", "chi2")
# Relative slack of the keep rule. A threshold that is a mean of equal
# weights can round up past them (three edges of 0.1 give
# t = 0.10000000000000002), and Spark and numpy sum in different orders.
REL_TOL = 1e-9


def weight_col(
    scheme: str,
    *,
    cbs: Column,
    b1: Column,
    b2: Column,
    n_blocks: int,
    ent: Column | None = None,
) -> Column:
    """Spark Column computing the edge weight for ``scheme``."""
    if scheme == "cbs":
        w = cbs.cast("double")
    elif scheme == "js":
        w = cbs / (b1 + b2 - cbs)
    elif scheme == "chi2":
        n = F.lit(float(n_blocks))
        num = n * (cbs * n - b1 * b2) ** 2
        den = b1 * b2 * (n - b1) * (n - b2)
        w = F.when(den > 0, num / den).otherwise(F.lit(0.0))
    else:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if ent is not None:
        w = w * ent
    return w


def weight_np(
    scheme: str,
    *,
    cbs: np.ndarray,
    b1: np.ndarray,
    b2: np.ndarray,
    n_blocks: int,
    ent: np.ndarray | None = None,
) -> np.ndarray:
    """Numpy twin of :func:`weight_col` — identical formulas and guards."""
    cbs = np.asarray(cbs, dtype=np.float64)
    b1 = np.asarray(b1, dtype=np.float64)
    b2 = np.asarray(b2, dtype=np.float64)
    if scheme == "cbs":
        w = cbs.copy()
    elif scheme == "js":
        w = cbs / (b1 + b2 - cbs)
    elif scheme == "chi2":
        n = float(n_blocks)
        num = n * (cbs * n - b1 * b2) ** 2
        den = b1 * b2 * (n - b1) * (n - b2)
        w = np.where(den > 0, num / np.where(den > 0, den, 1.0), 0.0)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    if ent is not None:
        w = w * np.asarray(ent, dtype=np.float64)
    return w


def keep(pruning: str, w, t1, t2):
    """Whether pruning keeps an edge of weight ``w`` whose endpoints have
    thresholds ``t1`` and ``t2`` (WEP: both the global mean).

    BLAST keeps ``w >= (t1 + t2) / 2``; WEP, WNP and CNP keep an edge
    that clears either threshold. Weights and thresholds are >= 0, so
    the same expression serves Spark Columns and numpy arrays.
    """
    lo = 1 - REL_TOL
    if pruning == "blast":
        return w >= (t1 + t2) / 2 * lo
    return (w >= t1 * lo) | (w >= t2 * lo)
