"""``repro triage``: formats, output files, and the baseline gate."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main

ARGS = ["kernel:radix", "--fault", "flip", "-n", "30", "-t", "4",
        "--seed", "7", "--no-telemetry"]


def main(argv):
    return repro_main(["triage"] + argv)


def run_cli(extra, capsys):
    code = main(ARGS + extra)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_text_report_to_stdout(capsys):
    code, out, _ = run_cli(["--format", "text"], capsys)
    assert code == 0
    assert out.startswith("triage: radix branch-flip")


def test_json_report_to_file(tmp_path, capsys):
    target = str(tmp_path / "report.json")
    code, out, _ = run_cli(["--format", "json", "-o", target], capsys)
    assert code == 0
    with open(target, encoding="utf-8") as handle:
        payload = json.load(handle)
    assert payload["campaign"]["program"] == "radix"
    assert payload["summary"]["clusters"] >= 1


def test_update_then_gate_clean(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code, out, _ = run_cli(["--baseline", baseline, "--update-baseline"],
                           capsys)
    assert code == 0
    assert "triage baseline updated" in out
    # Identical campaign: nothing beyond the baseline.
    code, _, err = run_cli(["--baseline", baseline], capsys)
    assert code == 0
    assert "beyond baseline" not in err


def test_gate_fails_on_new_failure_mode(tmp_path, capsys):
    baseline = str(tmp_path / "baseline.json")
    code, _, _ = run_cli(["--baseline", baseline, "--update-baseline"],
                         capsys)
    assert code == 0
    # A different seed reaches different sites: drift must exit 1 and
    # name the new modes on stderr.
    args = [arg if arg != "7" else "9" for arg in ARGS]
    code = main(args + ["--baseline", baseline])
    captured = capsys.readouterr()
    assert code == 1
    assert "beyond baseline" in captured.err
    assert "new failure mode" in captured.err


def test_missing_baseline_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        ["--baseline", str(tmp_path / "absent.json")], capsys)
    assert code == 2
    assert "cannot read" in err


def test_unknown_kernel_is_reported(capsys):
    # Spec translation rejects bad kernel refs as a usage error (same
    # surface as repro inject): one line, exit 2.
    assert main(["kernel:nonexistent", "-n", "5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown kernel" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "directory-target"])
def test_unwritable_baseline_is_usage_error(where, tmp_path, capsys):
    if where == "missing-dir":
        baseline = tmp_path / "no-such-dir" / "baseline.json"
    else:  # the temp file is created, then cannot replace a directory
        baseline = tmp_path / "baseline.json"
        baseline.mkdir()
    code, out, err = run_cli(["--baseline", str(baseline),
                              "--update-baseline"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert err.count("\n") == 1
    leftovers = [p for p in tmp_path.rglob("*") if ".tmp." in p.name]
    assert leftovers == []
