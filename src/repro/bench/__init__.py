"""Benchmark harness: the paper's figures as runnable experiments."""

from .figures import fig4_accuracy, fig5_discretized_performance, fig6_history_overhead
from .protocol import cold_start, pdf_cache_stats
from .reporting import format_table, print_cache_stats, print_figure

__all__ = [
    "fig4_accuracy",
    "fig5_discretized_performance",
    "fig6_history_overhead",
    "format_table",
    "print_figure",
    "print_cache_stats",
    "cold_start",
    "pdf_cache_stats",
]
