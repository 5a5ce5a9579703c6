"""BLOCKWATCH runtime monitor: per-thread queues, two-level branch table,
and the category-specific similarity checks."""

from repro.monitor.checker import (
    CheckSite,
    CheckStatistics,
    Violation,
    check_sites,
)
from repro.monitor.hashtable import BranchTable, InstanceEntry
from repro.monitor.hierarchy import HierarchicalMonitor
from repro.monitor.monitor import Monitor, MonitorMode

__all__ = [
    "CheckSite", "CheckStatistics", "Violation", "check_sites",
    "BranchTable", "InstanceEntry",
    "MonitorMode", "HierarchicalMonitor", "Monitor",
]
