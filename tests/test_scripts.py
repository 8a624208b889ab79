"""Smoke tests of the experiment scripts: each runs as a fresh process on a
small grid, exits 0 and writes what it reports. Bad input ends with exit
code 2 and no traceback: a malformed number or a bad count as an argparse
usage error, a domain error as one ``error:`` line."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import coherence_forge
from coherence_forge import (
    TWO_QUBIT_SPECTRUM,
    FilterFamily,
    FilterTarget,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.cli import write_frontier_csv, write_frontier_svg

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv, cwd):
    src = Path(coherence_forge.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_pure_state_frontiers(tmp_path):
    result = run_script(
        "pure_state_frontiers.py", "--p", "0.2", "--grid", "8", "--out-dir", "out", cwd=tmp_path
    )
    assert result.returncode == 0, result.stderr
    state = product_pure_state(0.2, 2)
    for target in (FilterTarget.COHERENCE, FilterTarget.ENERGY):
        traced = {
            fam: trace_frontier(state, TWO_QUBIT_SPECTRUM, target, fam, grid=8)
            for fam in FilterFamily
        }
        write_frontier_csv(tmp_path / "lib.csv", [pt for pts in traced.values() for pt in pts])
        write_frontier_svg(
            tmp_path / "lib.svg", traced, target, f"{target.value} frontier, p = 0.2"
        )
        stem = tmp_path / "out" / f"frontier_{target.value}_p0.2"
        assert Path(f"{stem}.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()
        assert Path(f"{stem}.svg").read_bytes() == (tmp_path / "lib.svg").read_bytes()
        assert f"{target.value}: wrote" in result.stdout
    assert result.stdout.count("largest collective-vs-factorized gap") == 2


def test_mixed_state_plateau(tmp_path):
    result = run_script(
        "mixed_state_plateau.py", "--etas", "0.75,0,5e-5", "--steps", "3", "--out", "scan.csv",
        cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "scan.csv").read_text().splitlines()
    assert lines[0].startswith("p,eta,coherence_nats")
    assert len(lines) == 1 + 3 * 3
    assert "eta = 0.75: plateau C" in result.stdout
    assert "eta = 0: no interior optimum" in result.stdout
    assert "threshold p = unresolved (threshold detection needs eta in [0.0001, 1])" in result.stdout


def test_filter_process_metrics(tmp_path):
    result = run_script("filter_process_metrics.py", "--phases", "0,0.1,0,0", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    rows = result.stdout.splitlines()
    assert rows[0].split() == ["a", "b", "purity", "fidelity", "compensated"]
    assert len(rows) == 6
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, argv, message",
    [
        (
            "filter_process_metrics.py",
            ["--phases", "0,x,0,0"],
            "invalid float_list value: '0,x,0,0'",
        ),
        ("mixed_state_plateau.py", ["--etas", "0.5,x"], "invalid float_list value: '0.5,x'"),
        ("mixed_state_plateau.py", ["--etas", ","], "--etas needs at least one value"),
        ("mixed_state_plateau.py", ["--steps", "0"], "--steps must be at least 2"),
        ("mixed_state_plateau.py", ["--steps", "100001"], "--steps must be at most 100000"),
    ],
)
def test_bad_argument_is_a_usage_error(tmp_path, name, argv, message):
    result = run_script(name, *argv, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr.startswith("usage:")
    assert result.stderr.rstrip().endswith(message)
    assert "Traceback" not in result.stderr
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "name, argv, message",
    [
        (
            "filter_process_metrics.py",
            ["--phases", "0,0,0"],
            "phase profile dimension does not match the filter",
        ),
        ("filter_process_metrics.py", ["--phases", "nan,0,0,0"], "phases must be finite"),
        ("mixed_state_plateau.py", ["--etas", "2"], "eta must lie in [0, 1]"),
        ("mixed_state_plateau.py", ["--p-max", "1.0"], "populations p must lie in (0, 1)"),
        ("pure_state_frontiers.py", ["--p", "0.5"], "empty reachable success-probability range"),
        ("pure_state_frontiers.py", ["--grid", "1"], "grid must contain at least 2 points"),
    ],
)
def test_domain_error_exits_2_with_one_line(tmp_path, name, argv, message):
    result = run_script(name, *argv, cwd=tmp_path)
    assert result.returncode == 2
    assert result.stderr == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []
