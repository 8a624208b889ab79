"""Self-test of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

Tiny runs of every workload must print exactly the metrics BENCHMARK.json
names, with their units; an injected wrong output must raise ``failed`` and
``error_rate``; a checkout without the package must fail without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.5",
         "--trace", str(trace)],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)
    elif workload != "cli-session":
        values = {k: v["value"] for k, v in result["metrics"].items()}
        # one thread: self times cover the traced wall time without double counting
        assert abs(values["trace.parallel_overlap_s"]) < 1e-6
        assert 0 <= values["trace.untraced_remainder_s"] < 0.05 * values["trace.wall_s"]


def test_injected_wrong_output_raises_error_rate(monkeypatch):
    sys.path.insert(0, str(run.SRC))
    from coherence_forge import statecore, synthesis

    def unfiltered(state, spectrum, p_success):
        return statecore.DiagonalFilter.identity(state.dim)

    monkeypatch.setattr(synthesis, "energy_optimal_filter", unfiltered)
    result = run.run("frontier-sweep", seed=5, seconds=0.1, trace=True)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["error_rate"]["value"] > 0


def test_checkout_without_package_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
