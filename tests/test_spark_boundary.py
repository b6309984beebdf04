"""One form for each direction across the driver/Spark boundary.

An AST walk over ``src/repro``. A table built on the driver reaches
Spark as ``createDataFrame(pa.table(...), ...)``: a pyarrow table is a
local relation of Arrow batches with or without rows, where a pandas
frame with zero rows or a Python list becomes a pickled RDD that starts
Python workers. Data comes back to the driver as Arrow columns
(``toArrow``, or ``toPandas``, which reads Arrow), never as ``Row``
objects from ``.collect()``.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
CALLS = [
    (path, node)
    for path in sorted(SRC.rglob("*.py"))
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
]


def _where(path: Path, node: ast.AST) -> str:
    return f"{path.relative_to(SRC.parent)}:{node.lineno}"


def _is_pa_table(node: ast.AST) -> bool:
    f = node.func if isinstance(node, ast.Call) else None
    return (
        isinstance(f, ast.Attribute) and f.attr == "table"
        and isinstance(f.value, ast.Name) and f.value.id == "pa"
    )


def test_driver_tables_are_pyarrow_tables():
    sites = [(p, n) for p, n in CALLS if n.func.attr == "createDataFrame"]
    assert sites, "no createDataFrame found; the walk is broken"
    bad = [_where(p, n) for p, n in sites if not (n.args and _is_pa_table(n.args[0]))]
    assert not bad, f"createDataFrame without a pa.table(...) first argument: {bad}"


def test_no_row_collects():
    bad = [_where(p, n) for p, n in CALLS if n.func.attr == "collect"]
    assert not bad, f".collect() of Row objects in src/repro; read toArrow() columns: {bad}"


def test_loose_schema_generator_stays_on_the_driver():
    """``repro/looseschema`` builds no DataFrame and reads back from Spark
    only in ``attribute_token_counts``, its one aggregation: the partition
    and the entropies are pyarrow tables that meet Spark only where a
    Spark plan joins them."""
    pkg = SRC / "looseschema"
    bad, seen = [], False
    for path in sorted(pkg.rglob("*.py")):
        tree = ast.parse(path.read_text())
        counts = {
            id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name == "attribute_token_counts"
            for n in ast.walk(f)
        }
        seen |= bool(counts)
        bad += [
            f"{_where(path, n)}: {n.func.attr}" for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in ("createDataFrame", "toArrow", "toPandas") and id(n) not in counts
        ]
    assert seen, "no attribute_token_counts found; the walk is broken"
    assert not bad, f"Spark round trips in the Loose Schema Generator: {bad}"
