"""AMST core: the accelerator simulator and its performance models."""

from .accelerator import Amst, AmstOutput
from .config import AmstConfig, CycleCosts
from .events import EventLog, IterationEvents
from .fpe_reference import FpeResult, fpe_scan_vertex, reference_finding_pass
from .perf import PerfReport, build_report, fpga_power_watts
from .resources import U280, ResourceReport, estimate_resources
from .selfcheck import (
    SelfCheckError,
    check_report_consistency,
    check_state_invariants,
)
from .sorting_network import (
    SortingNetwork,
    bitonic_sort_pairs,
    bitonic_stage_count,
)
from .state import SimState
from .timing import HostTimers, TimedSubsystem, format_host_profile
from .trace import (
    IterationTrace,
    format_profile,
    save_trace_csv,
    save_trace_json,
    trace_run,
)

__all__ = [
    "Amst",
    "AmstOutput",
    "AmstConfig",
    "CycleCosts",
    "EventLog",
    "IterationEvents",
    "FpeResult",
    "fpe_scan_vertex",
    "reference_finding_pass",
    "PerfReport",
    "build_report",
    "fpga_power_watts",
    "ResourceReport",
    "estimate_resources",
    "U280",
    "SelfCheckError",
    "check_state_invariants",
    "check_report_consistency",
    "SortingNetwork",
    "bitonic_sort_pairs",
    "bitonic_stage_count",
    "SimState",
    "HostTimers",
    "TimedSubsystem",
    "format_host_profile",
    "IterationTrace",
    "trace_run",
    "save_trace_csv",
    "save_trace_json",
    "format_profile",
]
