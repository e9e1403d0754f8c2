"""Lifecycle benchmark of the AimTS reproduction at its default configuration.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
