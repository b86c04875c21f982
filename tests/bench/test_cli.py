"""The ``python -m repro.bench`` command-line interface."""

import pathlib
import subprocess
import sys

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "results"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True, text=True, timeout=600,
    )


def test_cli_generates_a_figure():
    completed = run_cli("fig01", "--ops", "150")
    assert completed.returncode == 0, completed.stderr[-1000:]
    assert "Figure 1" in completed.stdout
    assert "journaling" in completed.stdout
    assert "generated in" in completed.stdout


def test_default_size_rewrites_the_committed_tables(tmp_path):
    completed = run_cli("fig01", "ablation_checkpoint", "--out", str(tmp_path))
    assert completed.returncode == 0, completed.stderr[-1000:]
    for name in ("fig01.txt", "fig01.csv", "ablation_checkpoint.txt",
                 "ablation_checkpoint.csv"):
        assert (tmp_path / name).read_text() == (RESULTS / name).read_text()


def test_cli_multiple_figures():
    completed = run_cli("ablation_rtm", "ablation_checkpoint", "--ops", "150")
    assert completed.returncode == 0, completed.stderr[-1000:]
    assert "Ablation A3" in completed.stdout
    assert "Ablation A2" in completed.stdout


def test_cli_rejects_unknown_figure():
    completed = run_cli("fig99")
    assert completed.returncode != 0
    assert "unknown figure" in completed.stderr


def test_cli_lists_figures_in_help():
    completed = run_cli("--help")
    assert completed.returncode == 0
    assert "fig06" in completed.stdout
    assert "ablation_atomicity" in completed.stdout
