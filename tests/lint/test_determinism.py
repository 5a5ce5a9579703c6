"""Diagnostics must be byte-identical under any ``PYTHONHASHSEED``.

The lint layer promises deterministic output: ordered worklists, sorted
report keys, canonical JSON.  These tests re-run the CLI in fresh
interpreters with different hash seeds and compare raw bytes.
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
FIXTURES = [
    "examples/racy/missing_lock.mc",
    "examples/racy/cross_phase.mc",
    "examples/racy/overlapping_indices.mc",
]


def lint_bytes(args, hashseed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = os.path.abspath(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--format", "json"] + args,
        capture_output=True, env=env,
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."))
    assert proc.returncode in (0, 1), proc.stderr.decode()
    return proc.stdout


class TestHashSeedStability:
    def test_kernels_and_fixtures_byte_identical(self):
        args = ["--all-kernels"] + FIXTURES
        runs = {seed: lint_bytes(args, seed)
                for seed in ("0", "1", "random")}
        assert runs["0"] == runs["1"] == runs["random"]
        assert runs["0"]  # sanity: the report is non-empty

    def test_repeated_random_seeds_agree(self):
        args = [FIXTURES[0]]
        first = lint_bytes(args, "random")
        second = lint_bytes(args, "random")
        assert first == second
