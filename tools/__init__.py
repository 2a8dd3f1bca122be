"""Repository tooling (``python -m tools.reprolint``, bench compare...).

This package exists so the static-analysis framework under
``tools/reprolint`` is importable as a module from the repository root —
the standalone ``bench_compare.py`` script keeps working as a plain file.
"""
