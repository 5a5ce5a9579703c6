"""Tests for the ``repro lint`` and ``repro vuln`` subcommands."""

import json

import pytest

from repro.cli import main as repro_main
from repro.store import open_store


def main(argv):
    """``repro lint ARGV``, or ``repro vuln ...`` for a ``vuln`` ARGV."""
    return repro_main(argv if argv[:1] == ["vuln"] else ["lint"] + argv)

RACY = """
global int nprocs;
global int counter;
global lock l;

func slave() {
  counter = counter + 1;
}
"""

CLEAN = """
global int nprocs;
global int counter;
global lock l;

func slave() {
  lock(l);
  counter = counter + 1;
  unlock(l);
}
"""


@pytest.fixture
def racy_file(tmp_path):
    path = tmp_path / "racy.mc"
    path.write_text(RACY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.mc"
    path.write_text(CLEAN)
    return str(path)


class TestExitCodes:
    def test_clean_program_exits_zero(self, clean_file, capsys):
        assert main([clean_file]) == 0
        out = capsys.readouterr().out
        assert "0 error(s)" in out

    def test_racy_program_exits_one(self, racy_file, capsys):
        assert main([racy_file]) == 1
        out = capsys.readouterr().out
        assert "scalar-race" in out

    def test_kernel_spec_exits_zero(self, capsys):
        assert main(["kernel:radix"]) == 0
        assert "radix" in capsys.readouterr().out

    def test_unknown_kernel_exits_two(self, capsys):
        assert main(["kernel:nope"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nope" in err

    def test_missing_path_exits_two(self, capsys):
        assert main(["/no/such/program.mc"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_no_programs_is_a_usage_error(self, capsys):
        assert main([]) == 2
        assert capsys.readouterr().err.count("\n") == 1


class TestJsonFormat:
    def test_single_program_payload(self, racy_file, capsys):
        main([racy_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "racy"
        assert payload["summary"]["errors"] > 0
        assert all(d["fingerprint"] for d in payload["diagnostics"])

    def test_multi_program_payload_sorted_by_name(self, racy_file,
                                                  clean_file, capsys):
        main([racy_file, clean_file, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        names = [r["name"] for r in payload["reports"]]
        assert names == sorted(names) == ["clean", "racy"]

    def test_output_file(self, racy_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        main([racy_file, "--format", "json", "-o", str(out)])
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert payload["summary"]["errors"] > 0

    def test_unwritable_output_exits_two(self, clean_file, capsys):
        assert main([clean_file, "-o", "/no/such/dir/report.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestBaseline:
    def test_same_report_is_clean_against_itself(self, racy_file, tmp_path,
                                                 capsys):
        base = tmp_path / "base.json"
        main([racy_file, "--format", "json", "-o", str(base)])
        # the racy program exits 0 once its findings are baselined
        assert main([racy_file, "--baseline", str(base)]) == 0

    def test_new_diagnostics_fail(self, racy_file, clean_file, tmp_path,
                                  capsys):
        base = tmp_path / "base.json"
        main([clean_file, "--format", "json", "-o", str(base)])
        capsys.readouterr()
        assert main([racy_file, "--baseline", str(base)]) == 1
        err = capsys.readouterr().err
        assert "new diagnostic(s) beyond baseline" in err

    def test_missing_baseline_exits_two(self, clean_file, capsys):
        assert main([clean_file, "--baseline", "/no/such/base.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_checked_in_kernel_baseline_is_current(self, capsys):
        # guards the committed CI baseline against drift
        assert main(["--all-kernels", "--format", "json",
                     "--baseline", ".github/lint-baseline.json"]) == 0


class TestStoreCache:
    def test_lint_reports_are_cached(self, racy_file, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main([racy_file, "--store", root]) == 1
        first = capsys.readouterr().out
        assert main([racy_file, "--store", root]) == 1
        second = capsys.readouterr().out
        assert first == second
        store = open_store(root)
        entries = [e for e in store.entries() if e.kind == "lint"]
        assert len(entries) == 1

    def test_repro_store_environment_is_the_default(self, racy_file,
                                                    tmp_path, monkeypatch,
                                                    capsys):
        root = str(tmp_path / "env-store")
        monkeypatch.setenv("REPRO_STORE", root)
        assert main([racy_file]) == 1
        store = open_store(root)
        assert store.counters.get("store.lint.hit", 0) == 0
        assert main([racy_file]) == 1
        assert store.counters.get("store.lint.hit", 0) == 1

    def test_get_lint_counts_hits(self, tmp_path):
        store = open_store(str(tmp_path / "store"))
        calls = []

        def compute():
            calls.append(1)
            return {"name": "x", "diagnostics": [],
                    "summary": {"errors": 0, "warnings": 0}}

        a = store.get_lint("src", "x", "slave", compute)
        b = store.get_lint("src", "x", "slave", compute)
        assert a == b
        assert len(calls) == 1


class TestUpdateBaseline:
    def test_update_writes_target_and_exits_zero(self, racy_file, tmp_path,
                                                 capsys):
        target = tmp_path / "base.json"
        assert main([racy_file, "--update-baseline",
                     "--baseline", str(target)]) == 0
        assert "baseline updated" in capsys.readouterr().out
        # the regenerated baseline immediately passes a compare run
        assert main([racy_file, "--baseline", str(target)]) == 0

    def test_update_is_atomic_no_temp_left_behind(self, racy_file, tmp_path):
        target = tmp_path / "base.json"
        main([racy_file, "--update-baseline", "--baseline", str(target)])
        assert target.exists()
        leftovers = [p for p in tmp_path.iterdir() if ".tmp." in p.name]
        assert leftovers == []

    def test_update_matches_json_format_bytes(self, racy_file, tmp_path,
                                              capsys):
        target = tmp_path / "base.json"
        main([racy_file, "--update-baseline", "--baseline", str(target)])
        capsys.readouterr()
        main([racy_file, "--format", "json"])
        assert target.read_text() == capsys.readouterr().out

    def test_update_unwritable_target_exits_two(self, racy_file, capsys):
        assert main([racy_file, "--update-baseline",
                     "--baseline", "/no/such/dir/base.json"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestJobs:
    def test_parallel_lint_bytes_match_serial(self, racy_file, clean_file,
                                              capsys):
        main([racy_file, clean_file, "--format", "json"])
        serial = capsys.readouterr().out
        main([racy_file, clean_file, "--format", "json", "--jobs", "2"])
        assert capsys.readouterr().out == serial

    def test_parallel_vuln_bytes_match_serial(self, capsys):
        main(["vuln", "kernel:radix", "kernel:fft", "--format", "json"])
        serial = capsys.readouterr().out
        main(["vuln", "kernel:radix", "kernel:fft", "--format", "json",
              "--jobs", "2"])
        assert capsys.readouterr().out == serial


class TestVulnCli:
    def test_text_report_lists_sites(self, capsys):
        assert main(["vuln", "kernel:radix"]) == 0
        out = capsys.readouterr().out
        assert "site" in out and "flip=" in out

    def test_json_payload_shape(self, capsys):
        assert main(["vuln", "kernel:radix", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "radix"
        assert payload["sites"]
        for site in payload["sites"]:
            assert set(site["predictions"]) \
                == {"branch-flip", "branch-condition"}

    def test_plain_program_all_stores_observable(self, racy_file, capsys):
        assert main(["vuln", racy_file]) == 0

    def test_no_programs_is_a_usage_error(self, capsys):
        assert main(["vuln"]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_baseline_round_trip_is_clean(self, tmp_path, capsys):
        base = tmp_path / "vuln.json"
        assert main(["vuln", "kernel:radix", "--update-baseline",
                     "--baseline", str(base)]) == 0
        capsys.readouterr()
        assert main(["vuln", "kernel:radix",
                     "--baseline", str(base)]) == 0

    def test_baseline_drift_exits_one(self, tmp_path, capsys):
        base = tmp_path / "vuln.json"
        main(["vuln", "kernel:radix", "--update-baseline",
              "--baseline", str(base)])
        capsys.readouterr()
        # sparse-check analysis predicts different classes: drift
        assert main(["vuln", "kernel:radix", "--sparse-checks",
                     "--baseline", str(base)]) == 1
        assert "drifted from baseline" in capsys.readouterr().err

    def test_checked_in_vuln_baseline_is_current(self, capsys):
        # guards the committed CI baseline against drift
        assert main(["vuln", "--all-kernels", "--format", "json",
                     "--baseline", ".github/vuln-baseline.json"]) == 0

    def test_store_caches_summaries(self, tmp_path, capsys):
        root = str(tmp_path / "store")
        assert main(["vuln", "kernel:radix", "--store", root]) == 0
        first = capsys.readouterr().out
        assert main(["vuln", "kernel:radix", "--store", root]) == 0
        assert capsys.readouterr().out == first
        store = open_store(root)
        assert [e for e in store.entries() if e.kind == "vuln"]


class TestValidateBudget:
    @pytest.mark.parametrize("fraction", ["0", "-0.5", "2", "nan"])
    def test_fraction_outside_unit_interval_is_a_usage_error(
            self, fraction, capsys):
        assert main(["vuln", "kernel:radix", "--validate", "--injections",
                     "8", "--budget-fraction", fraction]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "--budget-fraction" in captured.err
