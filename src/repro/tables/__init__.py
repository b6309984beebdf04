"""Table harnesses — one module per derived table D1-D5 (see DESIGN.md).

The paper is a demo paper without numbered tables; each module here
reproduces the measurable quantities of one demo claim (Figure 6 et al.)
and returns plain row dicts. ``jobs/run_table.py`` prints them (the
committed tables are in ``benchmarks/results/``), and EXPERIMENTS.md
records paper-vs-measured.
"""
