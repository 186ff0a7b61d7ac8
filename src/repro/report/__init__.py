"""Reporting helpers for the benchmark harness."""

from .tables import format_table, print_table, summarize_runs
from .timeline import render_timeline, utilization_profile

__all__ = ["format_table", "print_table", "render_timeline",
           "summarize_runs", "utilization_profile"]
