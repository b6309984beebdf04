"""Entity Clusterer (SparkER §2.2, Figure 5).

Receives the similarity graph (matching pairs as edges) and partitions
profiles into equivalence clusters under the transitivity assumption.
The paper uses GraphX's connected components; here the match pairs are
collected in one job, repeats included, and their components come from
the driver-side union-find in ``repro.graph.connected_components`` (see
DESIGN.md for the substitution). The driver holds two int64 per match
edge, and matches are a subset of the meta-blocking candidates; the
clusters go back to Spark as a pyarrow table.

Output: ``(pid, entity)`` — every profile that appears in some matching
pair, labeled with its entity id (the minimum pid of its component).
Profiles in no matching pair are singletons and are omitted, exactly as
with edge-list connected components in GraphX.
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.graph.connected_components import connected_components


def cluster_entities(matches: DataFrame) -> DataFrame:
    """``matches`` needs columns (p1, p2); returns ``(pid long, entity
    long)``. A pair with a null endpoint is ignored."""
    edges = matches.select(F.col("p1").cast("long"), F.col("p2").cast("long")).dropna().toArrow()
    # Compact pids to rows 0..n-1 in pid order, so the smallest row of a
    # component is its smallest pid; a repeated edge is a no-op union.
    ends = np.concatenate([edges[c].to_numpy() for c in ("p1", "p2")]).astype(np.int64)
    pids, rows = np.unique(ends, return_inverse=True)
    root = connected_components(len(pids), *rows.reshape(2, -1))
    return matches.sparkSession.createDataFrame(
        pa.table({"pid": pids, "entity": pids[root]}), "pid long, entity long"
    )

