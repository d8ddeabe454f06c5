"""Experiment harness regenerating every table and figure of the paper.

One runner per experiment; each returns a small result object with a
``render()`` method producing the table/series the paper reports.  The
pytest-benchmark suites under ``benchmarks/`` and the EXPERIMENTS.md
numbers both come from these runners.
"""
