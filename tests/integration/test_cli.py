"""Tests for the ``repro-minic`` command-line tool."""

import os

import pytest

from repro.cli import main

MALFORMED = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures",
                         "malformed.mc")

DEMO = """
global int nprocs;
global int n = 8;
global int out[32];
global barrier b;

func slave() {
  local int t = tid();
  local int i;
  for (i = 0; i < n; i = i + 1) {
    out[t] = out[t] + i;
  }
  if (t == 0) { output(out[0]); }
  barrier(b);
}
"""


@pytest.fixture
def demo_file(tmp_path):
    path = tmp_path / "demo.mc"
    path.write_text(DEMO)
    return str(path)


class TestDumpAndReport:
    def test_dump_prints_ir(self, demo_file, capsys):
        assert main(["dump", demo_file]) == 0
        out = capsys.readouterr().out
        assert "func slave()" in out and "gettid" in out

    def test_report_prints_classification(self, demo_file, capsys):
        assert main(["report", demo_file]) == 0
        out = capsys.readouterr().out
        assert "tid_eq" in out and "shared" in out


class TestRun:
    def test_run_protected(self, demo_file, capsys):
        code = main(["run", demo_file, "-t", "4", "--show", "out"])
        out = capsys.readouterr().out
        assert code == 0
        assert "status: ok" in out
        assert "thread 0 output: [28]" in out
        assert "out = [28, 28, 28, 28" in out

    def test_run_baseline(self, demo_file, capsys):
        assert main(["run", demo_file, "-t", "2", "--baseline"]) == 0
        assert "status: ok" in capsys.readouterr().out

    def test_set_overrides_scalar(self, demo_file, capsys):
        main(["run", demo_file, "-t", "1", "--set", "n=3", "--show", "out"])
        out = capsys.readouterr().out
        assert "thread 0 output: [3]" in out  # 0+1+2

    def test_fill_overrides_array(self, demo_file, capsys):
        main(["run", demo_file, "-t", "1", "--set", "n=1",
              "--fill", "out=100", "--show", "out"])
        out = capsys.readouterr().out
        assert "thread 0 output: [100]" in out

    def test_crashing_program_reports_nonzero(self, tmp_path, capsys):
        path = tmp_path / "crash.mc"
        path.write_text("global int a[4];\nfunc slave() { a[9] = 1; }\n")
        assert main(["run", str(path), "-t", "1"]) == 1
        out = capsys.readouterr().out
        assert "status: crash" in out

    def test_bad_set_syntax_rejected(self, demo_file):
        with pytest.raises(SystemExit):
            main(["run", demo_file, "--set", "oops"])


class TestInject:
    def test_campaign_summary(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "4", "-n", "10",
                     "--outputs", "out"]) == 0
        out = capsys.readouterr().out
        assert "cov(BW)" in out
        assert "branch-flip" in out

    def test_condition_fault_choice(self, demo_file, capsys):
        assert main(["inject", demo_file, "-t", "2", "-n", "5",
                     "--fault", "condition", "--outputs", "out"]) == 0
        assert "branch-condition" in capsys.readouterr().out


class TestArgumentErrors:
    """Bad operands exit with a one-line message, never a traceback."""

    def test_unknown_kernel_message(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dump", "kernel:nope"])
        message = str(excinfo.value.code)
        assert message.startswith("error:")
        assert "nope" in message and "radix" in message

    def test_missing_program_path_message(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["dump", "/no/such/program.mc"])
        message = str(excinfo.value.code)
        assert message.startswith("error:")
        assert "/no/such/program.mc" in message

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_thread_count_exits_2(self, demo_file, threads,
                                              capsys):
        assert main(["run", demo_file, "-t", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_run_subcommand_shares_the_handling(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "kernel:nope", "-t", "2"])
        assert str(excinfo.value.code).startswith("error:")


class TestBadPrograms:
    """A program that fails to compile or has no entry function is one
    ``error:`` line and exit status 2 on every subcommand."""

    @pytest.mark.parametrize("command",
                             ["dump", "report", "run", "trace", "inject"])
    @pytest.mark.parametrize("kind, source, message", [
        ("parse", None, "expected an expression"),
        ("codegen", "func slave() { nosuch(); }\n",
         "call to unknown function 'nosuch'"),
        ("no-entry", "", "entry function 'slave' not found"),
    ])
    def test_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys,
                                         command, kind, source, message):
        monkeypatch.chdir(tmp_path)
        path = MALFORMED
        if source is not None:
            path = str(tmp_path / ("%s.mc" % kind))
            with open(path, "w") as handle:
                handle.write(source)
        with pytest.raises(SystemExit) as excinfo:
            main([command, path])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("tool", ["repro-lint", "repro-lint vuln",
                                      "repro-triage"])
    def test_empty_file_exits_2_in_every_tool(self, tmp_path, capsys, tool):
        from repro.lint.cli import main as lint_main
        from repro.triage.cli import main as triage_main
        path = str(tmp_path / "empty.mc")
        open(path, "w").close()
        argv = [path] if tool != "repro-lint vuln" else ["vuln", path]
        entry = triage_main if tool == "repro-triage" else lint_main
        try:
            status = entry(argv)
        except SystemExit as exc:
            status = exc.code
        assert status == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: ")
        assert "Traceback" not in err
