"""Tests for the experiment harnesses (smoke-level where expensive).

The expensive figures (6-9) are exercised with reduced parameters — the
full-size regeneration lives in benchmarks/.
"""

import os

import pytest

from repro.experiments import (
    duplication,
    false_positives,
    fig6,
    fig7,
    fig8,
    table3,
    table4,
    table5,
)
from repro.experiments.coverage import compute_coverage
from repro.cli import main as repro_main
from repro.experiments.runner import EXPERIMENTS
from repro.faults import FaultType
from repro.store import default_store


class TestTable3:
    def test_matches_paper(self):
        result = table3.compute()
        assert result.matches_paper
        assert result.iterations < 10
        assert "MATCH" in table3.render(result)


class TestTable4:
    def test_rows_and_render(self):
        rows = table4.compute()
        assert len(rows) == 7
        for row in rows:
            assert row.ours.parallel_branches <= row.ours.total_branches
            assert row.ours.parallel_loc <= row.ours.total_loc
        text = table4.render(rows)
        assert "raytrace" in text and "paper" in text


class TestTable5:
    def test_census_shape(self):
        rows = table5.compute()
        assert len(rows) == 7
        by_name = {row.ours.name: row.ours for row in rows}
        # headline claim: similar fraction spans roughly half to nearly all
        fractions = [s.similar_fraction for s in by_name.values()]
        assert min(fractions) < 0.75 < max(fractions)
        text = table5.render(rows)
        assert "similar" in text


@pytest.mark.slow
class TestFig6And7:
    def test_fig6_small(self):
        result = fig6.compute(thread_counts=(2, 8))
        assert set(result.overheads) == set(
            name for name in result.overheads)
        assert len(result.overheads) == 7
        for values in result.overheads.values():
            assert all(v > 1.0 for v in values)
        assert "Figure 6" in fig6.render(result)

    def test_fig7_shape(self):
        result = fig7.compute(thread_counts=(1, 2, 8, 32))
        assert result.has_numa_bump
        assert result.geomean[-1] < result.geomean[1]
        assert result.geomean[-1] < 1.5  # near the paper's 1.16
        assert "Figure 7" in fig7.render(result)


@pytest.mark.slow
class TestCoverage:
    def test_single_cell(self):
        result = compute_coverage(FaultType.BRANCH_FLIP,
                                  thread_counts=(4,), injections=8, seed=3)
        assert len(result.stats) == 7
        for stats in result.stats.values():
            assert stats.injections == 8
        average = result.average("coverage_protected", 4)
        assert 0.0 <= average <= 1.0
        text = fig8.render(result)
        assert "Figure 8" in text


@pytest.mark.slow
class TestFalsePositives:
    def test_small_trial_is_clean(self):
        result = false_positives.compute(runs=3, nthreads=4)
        assert result.total == 0
        assert "TOTAL" in false_positives.render(result)


class TestDuplication:
    def test_model_shapes(self):
        # pure model check, no simulation needed
        small = duplication.modeled_duplication_overhead(
            10_000.0, locks=4, barriers=3, nthreads=4)
        large = duplication.modeled_duplication_overhead(
            10_000.0, locks=4, barriers=3, nthreads=32)
        assert large > small          # duplication does not scale
        assert small > 1.0

    def test_compare_at_two_counts(self):
        result = duplication.compute(thread_counts=(4,))
        bw_avg, dup_avg = result.averages(0)
        assert bw_avg > 1.0 and dup_avg > 1.0
        assert "duplication" in duplication.render(result)


def runner_main(argv):
    return repro_main(["figures"] + argv)


class TestRunner:
    def test_list(self, capsys):
        assert runner_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_unknown_rejected(self, capsys):
        assert runner_main(["nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_runs_cheap_experiment(self, capsys):
        assert runner_main(["table3"]) == 0
        assert "Table III" in capsys.readouterr().out

    def test_leaves_the_environment_and_store_as_it_found_them(
            self, tmp_path, capsys):
        """``--store``, ``-j`` and ``-O`` reach the experiments as
        arguments: nothing is written to ``os.environ``, and the store
        is uninstalled when the command returns."""
        store = str(tmp_path / "store")
        before = {k: v for k, v in os.environ.items()
                  if k.startswith("REPRO_")}
        assert runner_main(["list", "--store", store, "-j", "1",
                            "-O", "2"]) == 0
        assert "artifact store: %s" % store in capsys.readouterr().out
        after = {k: v for k, v in os.environ.items()
                 if k.startswith("REPRO_")}
        assert after == before
        current = default_store()
        assert current is None or current.root != store


    def test_each_store_gets_the_programs_it_is_asked_for(
            self, tmp_path, capsys):
        """The kernel registry's in-process cache does not stand in for
        a second store: both stores end up holding the compiled
        kernels."""
        roots = [str(tmp_path / "a"), str(tmp_path / "b")]
        for root in roots:
            assert runner_main(["table4", "--store", root]) == 0
        capsys.readouterr()
        for root in roots:
            objects = [name for _, _, names in
                       os.walk(os.path.join(root, "objects"))
                       for name in names if name == "data.pkl"]
            assert len(objects) >= 7, root


class TestRunnerSettings:
    """Which settings each experiment receives: the flag, else the
    size's environment variable, else nothing."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []

        def compute(**kwargs):
            calls.append(kwargs)
            return kwargs

        monkeypatch.setattr(fig8, "compute", compute)
        monkeypatch.setattr(fig8, "render", lambda result: "rendered")
        for name in ("REPRO_FAULTS", "REPRO_THREADS", "REPRO_STORE"):
            monkeypatch.delenv(name, raising=False)
        return calls

    def test_injections_flag_over_environment(self, calls, monkeypatch,
                                              capsys):
        monkeypatch.setenv("REPRO_FAULTS", "7")
        assert runner_main(["fig8", "-n", "3", "-t", "4", "-j", "1",
                            "-O", "2"]) == 0
        assert runner_main(["fig8"]) == 0
        monkeypatch.delenv("REPRO_FAULTS")
        assert runner_main(["fig8"]) == 0
        flagged, from_env, unset = calls
        assert flagged == {"jobs": 1, "opt_level": 2, "store": None,
                           "injections": 3, "thread_counts": (4,)}
        assert from_env["injections"] == 7
        # Unset everywhere: the module's own defaults apply.
        assert unset == {"jobs": None, "opt_level": None, "store": None}
        assert "rendered" in capsys.readouterr().out

    def test_bad_environment_size_is_one_error(self, calls, monkeypatch,
                                               capsys):
        monkeypatch.setenv("REPRO_FAULTS", "many")
        assert runner_main(["fig8"]) == 2
        err = capsys.readouterr().err
        assert err == "error: $REPRO_FAULTS: invalid value 'many'\n"
        assert calls == []
