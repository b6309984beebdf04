"""spark-submit entrypoint for the derived tables D1-D5.

Usage: spark-submit jobs/run_table.py {d1,d2,d3,d4,d5} [n_entities]
"""
import importlib
import sys

sys.path.insert(0, __file__.rsplit("/", 2)[0])
from jobs._session import get_session  # noqa: E402

from repro.tables.common import format_table  # noqa: E402

# table name -> (module under repro.tables, title)
TABLES = {
    "d1": ("d1_blocking_debug", "Table D1 - blocking debug sweep (Fig 6a-6d)"),
    "d2": ("d2_entropy_mb", "Table D2 - meta-blocking with entropy (Fig 6e)"),
    "d3": ("d3_end_to_end", "Table D3 - end-to-end ER (matcher sweep + clustering)"),
    "d4": ("d4_scaling", "Table D4 - scaling the blocker"),
    "d5": ("d5_mb_impls", "Table D5 - parallel meta-blocking implementations"),
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
    print(format_table(rows, title=TABLES[name][1]))
    spark.stop()


if __name__ == "__main__":
    main()
