"""Tests for the hierarchical multi-monitor (paper Section VI extension)."""

import pytest

from repro.analysis import Category
from repro.instrument.config import (
    CheckedBranchInfo,
    InstrumentConfig,
    InstrumentationMetadata,
)
from repro.monitor import CheckSite, HierarchicalMonitor
from repro.runtime import ParallelProgram, RunConfig
from tests.conftest import FIGURE_1, figure1_setup

KEY = ((), ())


def make_site(static_id=0, kind="shared"):
    return CheckSite(CheckedBranchInfo(static_id=static_id,
                                       function_name="f", block_name="b",
                                       check_kind=kind,
                                       category=Category.SHARED))


def make_monitor(nthreads=8, groups=4, capacity=64):
    metadata = InstrumentationMetadata(
        config=InstrumentConfig(queue_capacity=capacity))
    return HierarchicalMonitor(metadata, nthreads, groups=groups)


class TestStructure:
    def test_groups_partition_threads(self):
        monitor = make_monitor(nthreads=8, groups=3)
        members = [tid for group in monitor.group_members for tid in group]
        assert sorted(members) == list(range(8))
        sizes = [len(g) for g in monitor.group_members]
        assert max(sizes) - min(sizes) <= 1

    def test_groups_capped_at_threads(self):
        monitor = make_monitor(nthreads=2, groups=16)
        assert monitor.groups == 2

    def test_invalid_groups_rejected(self):
        with pytest.raises(ValueError):
            make_monitor(groups=0)


class TestSemantics:
    def test_detects_like_flat_monitor(self):
        monitor = make_monitor(nthreads=4, groups=2)
        site = make_site()
        for tid in range(4):
            taken = tid != 3  # thread 3 deviates
            monitor.try_send(tid, (site, tid, KEY, (1,), False))
            monitor.try_send(tid, (site, tid, KEY, taken, True))
        monitor.finalize()
        assert monitor.detected
        assert sum(monitor.leaf_processed) == 8

    def test_drain_bandwidth_scales_with_groups(self):
        """One invocation retires up to groups x limit messages."""
        wide = make_monitor(nthreads=8, groups=4)
        narrow = make_monitor(nthreads=8, groups=1)
        site = make_site()
        for monitor in (wide, narrow):
            for tid in range(8):
                for _ in range(4):
                    monitor.try_send(tid, (site, tid, KEY, True, True))
        assert wide.drain(4) == 16   # 4 leaves x 4
        assert narrow.drain(4) == 4


class TestEndToEnd:
    def test_program_runs_clean_under_hierarchy(self):
        program = ParallelProgram(FIGURE_1, "fig1.hier")
        result = program.run(
            RunConfig(nthreads=8, monitor_groups=4),
            setup=figure1_setup(8))
        assert result.status == "ok"
        assert not result.detected
        assert isinstance(result.monitor, HierarchicalMonitor)
        assert result.monitor.stats.instances_checked > 0

    def test_hierarchy_reduces_backpressure(self):
        from repro.instrument import InstrumentConfig as IC
        source = FIGURE_1
        tiny = IC(queue_capacity=3, monitor_batch=1)
        flat_prog = ParallelProgram(source, "bp.flat", instrument_config=tiny)
        hier_prog = ParallelProgram(source, "bp.hier", instrument_config=tiny)
        flat = flat_prog.run(RunConfig(nthreads=8, monitor_groups=1),
                             setup=figure1_setup(8))
        hier = hier_prog.run(RunConfig(nthreads=8, monitor_groups=4),
                             setup=figure1_setup(8))
        assert flat.status == hier.status == "ok"
        assert hier.monitor.queue_pressure() < flat.monitor.queue_pressure()
