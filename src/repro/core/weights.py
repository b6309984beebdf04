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

:func:`weight` computes it, and :func:`keep` is the one pruning keep
rule both meta-blocking implementations apply to an edge, given its
endpoints' thresholds. Each is written once for Spark Columns and numpy
arrays: the Catalyst meta-blocking (``repro.core.meta_blocking``)
evaluates them as Column expressions, the broadcast implementation
(``repro.core.broadcast_mb``) on numpy arrays, and tests assert that the
two give identical weights.
"""
from __future__ import annotations

SCHEMES = ("cbs", "js", "chi2")
# Relative slack of the keep rule. A threshold that is a mean of equal
# weights can round up past them (three edges of 0.1 give
# t = 0.10000000000000002), and Spark and numpy sum in different orders.
REL_TOL = 1e-9


def weight(scheme: str, *, cbs, b1, b2, n_blocks: int, ent, where):
    """The edge weight for ``scheme``, for Spark Columns or numpy arrays.

    ``where(cond, a, b)`` is the caller's element-wise select: ``np.where``
    or ``F.when(cond, a).otherwise(b)``. ``ent`` is ``None`` without
    entropy re-weighting. The χ² denominator is replaced before the
    division where it is 0, so no row divides by 0 (Spark's ANSI mode
    raises on that).
    """
    if scheme == "cbs":
        w = cbs * 1.0  # a double, as the other schemes give
    elif scheme == "js":
        w = cbs / (b1 + b2 - cbs)
    elif scheme == "chi2":
        n = float(n_blocks)
        num = n * (cbs * n - b1 * b2) ** 2
        den = b1 * b2 * (n - b1) * (n - b2)
        w = where(den > 0, num / where(den > 0, den, 1.0), 0.0)
    else:
        raise ValueError(f"unknown scheme {scheme!r}; pick one of {SCHEMES}")
    return w if ent is None else w * ent


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
