"""Benchmark + regeneration harness for Tables D1-D5.

One full harness run per table and benchmark round (pedantic, 1 round):
the interesting numbers are the table rows themselves (saved to
benchmarks/results/<table>.txt) plus the wall time of the whole harness.
D4 runs its default size multipliers 1/2/4 (~2.6k -> ~10k profiles); its
per-size wall times are inside the table itself. The table registry (module and
title of each table) is the one ``jobs/run_table.py`` uses.
"""
import pytest

from benchmarks.conftest import save_table
from jobs.run_table import TABLES, table_module
from repro.tables.common import format_table

N_ENTITIES = 1500  # Abt-Buy scale (the paper's demo dataset size)


@pytest.mark.parametrize("name", list(TABLES))
def test_table(benchmark, spark, name):
    rows = benchmark.pedantic(
        lambda: table_module(name).run(spark, n_entities=N_ENTITIES), rounds=1, iterations=1
    )
    title = f"{TABLES[name][1]} (n_entities={N_ENTITIES})"
    save_table(name, format_table(rows, title=title))
    assert rows
