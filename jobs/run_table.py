"""Entrypoint for the derived tables D1-D5: prints one table to stdout.

Usage: python jobs/run_table.py {d1,d2,d3,d4,d5} [n_entities]
(or through spark-submit). At the default n_entities=1500,
``python jobs/run_table.py d3 > benchmarks/results/d3.txt`` regenerates
the committed table.
"""
import importlib
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0])
from jobs._session import get_session  # noqa: E402

from repro.tables.common import format_table  # noqa: E402

# table name -> (module under repro.tables, title; {n} is n_entities)
TABLES = {
    "d1": ("d1_blocking_debug", "Table D1 - blocking debug sweep (Fig 6a-6d) (n_entities={n})"),
    "d2": ("d2_entropy_mb", "Table D2 - meta-blocking with entropy (Fig 6e) (n_entities={n})"),
    "d3": ("d3_end_to_end", "Table D3 - end-to-end ER (n_entities={n})"),
    "d4": ("d4_scaling", "Table D4 - scaling the blocker (n_entities={n} x mult)"),
    "d5": ("d5_mb_impls", "Table D5 - parallel meta-blocking implementations (n_entities={n})"),
}


def table_module(name: str):
    """The ``repro.tables`` module of table ``name`` (d1..d5)."""
    return importlib.import_module(f"repro.tables.{TABLES[name][0]}")


def main() -> None:
    if len(sys.argv) < 2 or sys.argv[1] not in TABLES:
        sys.exit(f"usage: run_table.py {{{','.join(TABLES)}}} [n_entities]")
    name = sys.argv[1]
    n = int(sys.argv[2]) if len(sys.argv) > 2 else 1500
    spark = get_session(f"table_{name}")
    rows = table_module(name).run(spark, n_entities=n)
    print(format_table(rows, title=TABLES[name][1].format(n=n)))
    spark.stop()


if __name__ == "__main__":
    main()
