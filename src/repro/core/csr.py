"""Compressed sparse row (CSR) helpers for the driver-side numpy indexes.

Two modules keep a CSR index on the driver: ``broadcast_mb`` (node →
blocks, block → members) and ``repro.matching.similarity`` (profile →
TF-IDF-weighted tokens). Group ``g``'s entries are
``values[ptr[g]:ptr[g + 1]]``.
"""
from __future__ import annotations

import numpy as np


def offsets(ids: np.ndarray, size: int) -> np.ndarray:
    """CSR offsets of ``size`` groups, given each row's group id."""
    return np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=size))))


def ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Positions ``lo[i] .. hi[i] - 1`` of every ``i``, concatenated."""
    lens = hi - lo
    return np.repeat(lo - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
