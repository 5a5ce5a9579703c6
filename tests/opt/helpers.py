"""Shared helpers for the optimizer test suite."""

from __future__ import annotations


def run_signature(result):
    """Everything a trace-preserving transformation must keep
    bit-identical: status, step/cycle clocks, per-thread dynamic branch
    counts, outputs, parallel-section time, and every detection."""
    return (
        str(result.status),
        result.steps,
        dict(result.cycles),
        dict(result.branch_counts),
        tuple(result.outputs),
        result.parallel_time,
        result.sync_wait_cycles,
        tuple((v.info.static_id, tuple(v.thread_ids), str(v))
              for v in result.violations),
    )

