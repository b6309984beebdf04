"""Benchmark + regeneration harness for Tables D1-D5.

One full harness run per table and benchmark round (pedantic, 1 round):
the interesting numbers are the table rows themselves (saved to
benchmarks/results/<table>.txt) plus the wall time of the whole harness.
D4 runs size multipliers 1/2/4 (~2.6k -> ~10k profiles); its per-size
wall times are inside the table itself.
"""
import importlib

import pytest

from benchmarks.conftest import save_table
from repro.tables.common import format_table

N_ENTITIES = 1500  # Abt-Buy scale (the paper's demo dataset size)

# table -> (module under repro.tables, extra run() arguments, title)
TABLES = {
    "d1": ("d1_blocking_debug", {}, f"Table D1 - blocking debug sweep (Fig 6a-6d) (n_entities={N_ENTITIES})"),
    "d2": ("d2_entropy_mb", {}, f"Table D2 - meta-blocking with entropy (Fig 6e) (n_entities={N_ENTITIES})"),
    "d3": ("d3_end_to_end", {}, f"Table D3 - end-to-end ER (n_entities={N_ENTITIES})"),
    "d4": ("d4_scaling", {"size_mults": (1, 2, 4)}, f"Table D4 - scaling the blocker (n_entities={N_ENTITIES} x mult)"),
    "d5": ("d5_mb_impls", {}, f"Table D5 - parallel meta-blocking implementations (n_entities={N_ENTITIES})"),
}


@pytest.mark.parametrize("name", list(TABLES))
def test_table(benchmark, spark, name):
    module, kwargs, title = TABLES[name]
    table = importlib.import_module(f"repro.tables.{module}")
    rows = benchmark.pedantic(
        lambda: table.run(spark, n_entities=N_ENTITIES, **kwargs), rounds=1, iterations=1
    )
    save_table(name, format_table(rows, title=title))
    assert rows
