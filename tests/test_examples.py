"""Every example script must run end-to-end (with small sizes)."""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *argv):
    old_argv = sys.argv
    sys.argv = [name, *argv]
    try:
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_examples_directory_exists():
    assert EXAMPLES.is_dir()
    assert (EXAMPLES / "quickstart.py").exists()


def test_quickstart(capsys):
    run_example("quickstart.py", "20000")
    out = capsys.readouterr().out
    assert "STeMS coverage" in out
    assert "speedup" in out


def test_reconstruction_walkthrough(capsys):
    run_example("reconstruction_walkthrough.py")
    out = capsys.readouterr().out
    assert "reconstruction works" in out


def test_database_scan(capsys):
    run_example("database_scan.py", "20000")
    out = capsys.readouterr().out
    assert "spatial-only streams" in out


def test_prefetcher_shootout(capsys):
    run_example("prefetcher_shootout.py", "db2", "20000")
    out = capsys.readouterr().out
    assert "stems" in out and "stride" in out


def test_prefetcher_shootout_rejects_unknown(capsys):
    with pytest.raises(SystemExit):
        run_example("prefetcher_shootout.py", "bogus")


def test_custom_workload(capsys):
    run_example("custom_workload.py", "20000")
    out = capsys.readouterr().out
    assert "docstore" in out
    assert "coverage" in out
