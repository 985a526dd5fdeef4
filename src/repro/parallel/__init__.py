"""Parallel-execution substrate for the ensemble stage."""

from .executor import ExecutorMode, default_workers, kill_executor_workers
from .timing import Timer, Timing, peak_rss_bytes, time_callable
from .tolerance import FaultTolerance

__all__ = [
    "ExecutorMode",
    "FaultTolerance",
    "default_workers",
    "kill_executor_workers",
    "Timer",
    "Timing",
    "time_callable",
    "peak_rss_bytes",
]
