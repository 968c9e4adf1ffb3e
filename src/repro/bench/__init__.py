"""Benchmark harness: canonical workloads, run matrix, table formatting."""

from .harness import pivot_metric, results_to_rows, run_matrix
from .hardware import hardware
from .tables import format_table, write_table
from .workloads import (
    DEFAULT_SEED,
    bench_scale,
    cache_dir,
    get_benchmark,
    get_suite,
    results_dir,
)

__all__ = [
    "run_matrix",
    "results_to_rows",
    "pivot_metric",
    "format_table",
    "write_table",
    "get_suite",
    "get_benchmark",
    "bench_scale",
    "cache_dir",
    "results_dir",
    "DEFAULT_SEED",
    "hardware",
]
