"""Evaluation framework: metrics, timing, experiment runner, result tables."""

from .metrics import (
    average_precision,
    binary_ndcg_at_k,
    kendall_tau,
    mean,
    ndcg_at_k,
    overlap_at_k,
    precision_at_k,
    rank_biased_overlap,
    recall_at_k,
    reciprocal_rank,
    summarize_metric,
)
from .timing import (
    LatencyRecorder,
    MemoryMeter,
    Timer,
    current_rss_bytes,
    measure_in_subprocess,
    memory_summary,
    peak_rss_bytes,
)
from .runner import AlgorithmReport, ExperimentRunner, WorkloadReport, sweep
from .bench import (
    format_landmark_report,
    format_proximity_report,
    format_report,
    format_updates_report,
    run_landmark_suite,
    run_proximity_suite,
    run_topk_suite,
    run_updates_suite,
    write_report,
)
from .quality import quality_summary, result_signature
from .scale import format_scale_report, run_scale_suite
from .tables import format_series, format_table, select_columns
from .plots import ascii_bar_chart, ascii_line_chart, series_from_rows

__all__ = [
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "ndcg_at_k",
    "binary_ndcg_at_k",
    "reciprocal_rank",
    "overlap_at_k",
    "kendall_tau",
    "rank_biased_overlap",
    "mean",
    "summarize_metric",
    "Timer",
    "LatencyRecorder",
    "MemoryMeter",
    "current_rss_bytes",
    "measure_in_subprocess",
    "memory_summary",
    "peak_rss_bytes",
    "ExperimentRunner",
    "AlgorithmReport",
    "WorkloadReport",
    "sweep",
    "run_landmark_suite",
    "run_proximity_suite",
    "run_scale_suite",
    "run_topk_suite",
    "run_updates_suite",
    "write_report",
    "format_landmark_report",
    "format_proximity_report",
    "format_report",
    "format_scale_report",
    "format_updates_report",
    "quality_summary",
    "result_signature",
    "format_table",
    "format_series",
    "select_columns",
    "ascii_bar_chart",
    "ascii_line_chart",
    "series_from_rows",
]
