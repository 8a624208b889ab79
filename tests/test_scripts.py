"""Smoke tests of the experiment scripts: each runs as a fresh process on a
small grid, exits 0 and writes what it reports."""

import os
import subprocess
import sys
from pathlib import Path

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
