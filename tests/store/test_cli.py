"""``repro store ls|gc|verify`` through the ``repro`` command."""

import os

import pytest

from repro.cli import main
from repro.store import open_store

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
def root(tmp_path, capsys):
    """A store holding two lint reports."""
    root = str(tmp_path / "store")
    for name in ("a", "b"):
        path = tmp_path / ("%s.mc" % name)
        path.write_text(CLEAN)
        assert main(["lint", str(path), "--store", root]) == 0
    capsys.readouterr()
    return root


def store(root, *argv):
    return main(["store", "--store", root] + list(argv))


def test_ls_lists_every_object(root, capsys):
    assert store(root, "ls") == 0
    out = capsys.readouterr().out
    assert "store %s: 2 objects" % os.path.abspath(root) in out
    assert out.count("lint a") + out.count("lint b") == 2


def test_gc_evicts_down_to_the_bound(root, capsys):
    assert store(root, "gc", "--max-entries", "1", "--dry-run") == 0
    assert capsys.readouterr().out.startswith("would evict 1 object(s)")
    assert len(open_store(root).entries()) == 2
    assert store(root, "gc", "--max-entries", "1") == 0
    assert capsys.readouterr().out.startswith("evicted 1 object(s)")
    assert len(open_store(root).entries()) == 1


def test_gc_without_a_bound_is_a_usage_error(root, capsys):
    assert store(root, "gc") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: gc needs") and err.count("\n") == 1


def test_verify_reports_and_deletes_corrupt_objects(root, capsys):
    assert store(root, "verify") == 0
    assert "2 object(s), all verifiable" in capsys.readouterr().out
    entry = open_store(root).entries()[0]
    with open(os.path.join(root, "objects", entry.key[:2], entry.key,
                           "data.pkl"), "wb") as handle:
        handle.write(b"not a pickle")
    assert store(root, "verify") == 1
    out = capsys.readouterr().out
    assert "BAD %s lint" % entry.key[:12] in out
    assert "1 of 2 object(s) failed verification" in out
    assert store(root, "verify", "--delete") == 1
    assert "(deleted)" in capsys.readouterr().out
    assert store(root, "verify") == 0
    assert "1 object(s), all verifiable" in capsys.readouterr().out
