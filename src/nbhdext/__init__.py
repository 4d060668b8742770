"""Exact Cech obstruction engine for extending vector bundles to
infinitesimal neighborhoods, with a truncated formal-disk laboratory for
the Lie-cocycle machinery underneath."""

__version__ = "0.2.0"
