"""The repository's benchmark: workloads, checks and the traced run.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
