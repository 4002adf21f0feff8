"""Packet-level simulator of delay-based (LEDBAT) and loss-based (TCP AIMD)
congestion control sharing a drop-tail FIFO bottleneck."""

__version__ = "0.1.0"

from .metrics import AllZeroRates, MetricsReport, aggregate_runs, detect_starvation, jain_fairness
from .harness import RunResult, run_scenario, run_table1
from .scenario import Scenario, UsageError, get_preset, load_scenario, preset_names
from .transport import FlowSpec

__all__ = [
    "AllZeroRates",
    "MetricsReport",
    "aggregate_runs",
    "jain_fairness",
    "FlowSpec",
    "RunResult",
    "Scenario",
    "UsageError",
    "detect_starvation",
    "get_preset",
    "load_scenario",
    "preset_names",
    "run_scenario",
    "run_table1",
]
