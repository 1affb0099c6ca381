"""Kept only because the benchmark binds and calls ``group_tables`` here; it lives in ``gonalgeo.reference``."""

from .reference import group_tables  # noqa: F401
