"""Tests for the ``repro`` command: the program subcommands, and the
one usage-error contract every subcommand keeps."""

import os
import socket
import subprocess
import sys

import pytest

from repro.cli import main
from repro.telemetry import validate_trace_file

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


class TestStartup:
    def test_program_subcommand_imports_no_other_subcommand(self, demo_file):
        # A fresh interpreter: this test process has imported them all.
        probe = ("import sys; from repro.cli import main, SUBCOMMAND_MODULES;"
                 " before = set(sys.modules); main(['dump', sys.argv[1]]);"
                 " print(sorted(set(SUBCOMMAND_MODULES.values())"
                 " & (set(sys.modules) - before)), file=sys.stderr)")
        done = subprocess.run([sys.executable, "-c", probe, demo_file],
                              capture_output=True, text=True, check=True)
        assert done.stderr.strip() == "[]"


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

    def test_bad_set_syntax_rejected(self, demo_file, capsys):
        assert main(["run", demo_file, "--set", "oops"]) == 2
        assert capsys.readouterr().err.startswith("error: --set")


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


class _ClosedStdout:
    """A stdout whose reader has gone away (``repro run ... | head``)."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


class TestTraceBeforeReport:
    @pytest.mark.parametrize("argv", [
        ["run", "-t", "2"],
        ["inject", "-t", "2", "-n", "3", "--outputs", "out"],
    ], ids=["run", "inject"])
    def test_trace_survives_a_closed_stdout(self, demo_file, tmp_path,
                                            monkeypatch, argv):
        trace = str(tmp_path / "early.jsonl")
        monkeypatch.setattr(sys, "stdout", _ClosedStdout())
        assert main(argv[:1] + [demo_file] + argv[1:]
                    + ["--trace", trace]) == 2
        assert validate_trace_file(trace) > 0


def one_error_line(capsys) -> str:
    """The captured stderr, checked to be one ``error:`` line."""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    return err


class TestStoreScope:
    """A store one in-process call installs ends with the call, and
    ``$REPRO_STORE`` is read afresh every time."""

    def test_installed_store_does_not_shadow_the_environment(
            self, tmp_path, monkeypatch, capsys):
        from repro.store import store_for
        first, second = str(tmp_path / "a"), str(tmp_path / "b")
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main(["run", "kernel:radix", "-t", "2", "--store",
                     first]) == 0
        monkeypatch.setenv("REPRO_STORE", second)
        assert main(["lint", "kernel:radix"]) == 0

        def kinds(root):
            return {entry.kind for entry in store_for(root).entries()}

        assert "lint" in kinds(second)
        assert "lint" not in kinds(first)

    def test_environment_store_is_not_pinned(self, tmp_path, monkeypatch):
        from repro.store import default_store
        for name in ("a", "b"):
            root = str(tmp_path / name)
            monkeypatch.setenv("REPRO_STORE", root)
            assert default_store().root == root
        monkeypatch.delenv("REPRO_STORE")
        assert default_store() is None


class TestArgumentErrors:
    """Bad operands exit with a one-line message, never a traceback."""

    def test_unknown_kernel_message(self, capsys):
        assert main(["dump", "kernel:nope"]) == 2
        message = one_error_line(capsys)
        assert "nope" in message and "radix" in message

    def test_missing_program_path_message(self, capsys):
        assert main(["dump", "/no/such/program.mc"]) == 2
        assert "/no/such/program.mc" in one_error_line(capsys)

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_nonpositive_thread_count_exits_2(self, demo_file, threads,
                                              capsys):
        assert main(["run", demo_file, "-t", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert captured.err.count("\n") == 1

    def test_run_subcommand_shares_the_handling(self, capsys):
        assert main(["run", "kernel:nope", "-t", "2"]) == 2
        one_error_line(capsys)


class TestBadPrograms:
    """A program that fails to compile or has no entry function is one
    ``error:`` line and exit status 2 on every subcommand."""

    @pytest.mark.parametrize("kind, source, message, command", [
        (kind, source, message, command)
        for kind, source, message in [
            ("parse", None, "expected an expression"),
            ("codegen", "func slave() { nosuch(); }\n",
             "call to unknown function 'nosuch'"),
            ("no-entry", "", "entry function 'slave' not found"),
        ]
        # The campaign submitters reject an empty file before compiling
        # (or connecting) with the message the compilers give.
        for command in ["dump", "report", "run", "trace", "inject"]
        + (["triage", "serve submit"] if kind == "no-entry" else [])])
    def test_exits_2_with_one_error_line(self, tmp_path, monkeypatch, capsys,
                                         command, kind, source, message):
        monkeypatch.chdir(tmp_path)
        path = MALFORMED
        if source is not None:
            path = str(tmp_path / ("%s.mc" % kind))
            with open(path, "w") as handle:
                handle.write(source)
        assert main(command.split() + [path]) == 2
        assert message in one_error_line(capsys)

    @pytest.mark.parametrize("tool", ["lint", "vuln", "triage"])
    def test_empty_file_exits_2_in_every_tool(self, tmp_path, capsys, tool):
        path = str(tmp_path / "empty.mc")
        open(path, "w").close()
        assert main([tool, path]) == 2
        one_error_line(capsys)


#: Subcommands that take a program operand, and those that also take
#: run inputs (``--set``/``--fill``).
PROGRAM_COMMANDS = ["dump", "report", "run", "trace", "inject", "lint",
                    "vuln", "triage", "serve submit"]
INPUT_COMMANDS = ["run", "trace", "inject", "triage", "serve submit"]


def _bad_inputs():
    cases = []
    for command in PROGRAM_COMMANDS:
        cases.append((command, "unreadable-file", ["/no/such/program.mc"]))
        cases.append((command, "unknown-kernel", ["kernel:nope"]))
    for command in INPUT_COMMANDS:
        cases.append((command, "malformed-set",
                      ["kernel:radix", "--set", "nprocs=1.2.3"]))
        cases.append((command, "malformed-fill",
                      ["kernel:radix", "--fill", "gp=1,x"]))
    for command in ("store ls", "store gc", "store verify", "serve start"):
        cases.append((command, "missing-store", []))
    for command in ("serve status", "serve jobs", "serve fetch job",
                    "serve triage job", "serve drain",
                    "serve submit kernel:radix"):
        cases.append((command, "refused-connection", ["--port", "{port}"]))
    return [pytest.param(command.split() + args, id="%s-%s" % (
        "-".join(command.split()[:2]), case))
        for command, case, args in cases]


@pytest.fixture
def closed_port():
    """A local port nothing listens on."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestUsageErrorContract:
    """Every usage or I/O error on every subcommand is one ``error:``
    line on stderr and exit status 2."""

    @pytest.mark.parametrize("argv", _bad_inputs())
    def test_one_error_line_exit_2(self, argv, closed_port, tmp_path,
                                   monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert main([arg.format(port=closed_port) for arg in argv]) == 2
        one_error_line(capsys)
