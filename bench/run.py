#!/usr/bin/env python3
"""coherence-forge benchmark: four seeded closed-loop workloads, one client each.

Run from the repository root:

    python3 bench/run.py --workload frontier-sweep --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``cli-session``    one ``python -m coherence_forge.cli`` child per op: the six
                     README subcommands with seeded inputs plus one invocation
                     per invalid-input class, CLI defaults (no ``--threads``).
* ``frontier-sweep`` in-process ``trace_frontier``/``mixed_scan``/``plateau_threshold``.
* ``oracle-check``   in-process ``grid_search`` + matching synthesizer + shortfall.
* ``tsallis-mixed``  in-process ``tsallis_optimal_filter`` at d = 4, 6, 8.

``--trace 0`` measures the end-to-end metrics: set-up (median of fresh
interpreters importing the package), latency p50/p90, throughput, CPU per op
and peak RSS, over whole decks of ops until ``--seconds`` have passed; the
in-process workloads' op times are given at a reference speed (``probe.py``).
``--trace 1`` runs a fixed op list twice, untraced and then with every public
function of the package wrapped by ``tracer.py``, and reports per-layer calls
and self times, computed counts, ``error_rate`` and the tracing overhead.

The last line of stdout is the result object; the line before it is the run
record (versions, environment, sample counts, invalid-input outcomes). Spans
and records are also written under ``.bench_work/``. Exit code 2 and no result
when the checkout has no package source to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import types
from importlib import metadata
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = BENCH / "cli_digests.json"

WORKLOADS = ("cli-session", "frontier-sweep", "oracle-check", "tsallis-mixed")
DEFAULT_SEED = 0
SETUP_SAMPLES = 5
IMPORT_PROBES = 3
# Left unset on purpose, so the package and BLAS run with their own defaults
# (the CLI's thread pool defaults to the core count).
UNSET_ENV = (
    "COHERENCE_FORGE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

SUBCOMMANDS = ("filter", "frontier", "mixed-scan", "iterate", "choi", "oracle")
TRACED_FUNCTIONS = {
    "statecore": (
        "apply_filter",
        "coherence",
        "coherence_tsallis",
        "mean_energy",
        "success_probability",
        "QState",
        "DiagonalFilter",
        "product_pure_state",
        "mixed_qubit_product",
    ),
    "synthesis": (
        "energy_optimal_filter",
        "coherence_optimal_filter_pure",
        "factorized_filter",
        "two_qubit_closed_form",
        "tsallis_optimal_filter",
        "trace_frontier",
        "mixed_scan",
        "plateau_threshold",
    ),
    "oracle": ("grid_search", "objective_value"),
    "iterative": ("reduced_kraus", "compose_iteration", "sequential_povm", "simulate_sequential"),
    "optics": ("choi_of_filter", "process_metrics", "compensate_phases", "choi_to_text"),
    "svgplot": ("line_plot",),
    "cli": ("main",),
}

sys.path.insert(0, str(BENCH))


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for layer, functions in TRACED_FUNCTIONS.items():
        for fn in functions:
            units[f"{layer}.{fn}.calls"] = "count"
            units[f"{layer}.{fn}.self_s"] = "s"
    units["oracle.apply_filter.calls"] = "count"
    units["oracle.apply_filter.self_s"] = "s"
    units["oracle.grid_points_computed"] = "count"
    units["synthesis.tsallis.candidates_computed"] = "count"
    for d in (4, 6, 8):
        units[f"synthesis.tsallis_optimal_filter.self_s.d{d}"] = "s"
    units["synthesis.mixed_scan.apply_filter_calls"] = "count"
    for sub in SUBCOMMANDS:
        units[f"cli.{sub}.calls"] = "count"
        units[f"cli.{sub}.handler_s"] = "s"
        units[f"cli.{sub}.wall_s"] = "s"
    units["cli.output_bytes"] = "bytes"
    units["cli.bad_input.attempted"] = "count"
    units["cli.bad_input.failed"] = "count"
    units["error_rate"] = "ratio"
    for name in ("numpy_s", "scipy_s", "package_s", "cli_children_s"):
        units[f"import.{name}"] = "s"
    units["bench.self_s"] = "s"
    units["trace.ops"] = "count"
    for name in ("wall_s", "untraced_wall_s", "overhead_s", "self_sum_s", "untraced_remainder_s", "parallel_overlap_s"):
        units[f"trace.{name}"] = "s"
    return units


# ---------------------------------------------------------------------------
# Environment, set-up and import timing
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(code: str, env: dict[str, str], *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds for SETUP_SAMPLES fresh interpreters to import the package, after
    one warm-up interpreter."""
    code = (
        "import sys, time\nt = time.perf_counter()\nimport coherence_forge\n"
        "sys.stdout.write(repr(time.perf_counter() - t))"
    )
    _python(code, env)
    return [float(_python(code, env).stdout) for _ in range(SETUP_SAMPLES)]


def parse_importtime(stderr: str) -> dict[str, float]:
    """numpy, scipy and the package's own share of ``-X importtime`` output, in seconds."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        _, cumulative, name = line.split(":", 1)[1].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative)))
    numpy_us = scipy_us = numpy_in_scipy_us = package_us = 0
    stack: list[tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):  # parents precede children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        above = {n.split(".")[0] for _, n in stack}
        top = name.split(".")[0]
        if top == "numpy" and "numpy" not in above:
            numpy_us += cumulative
            if "scipy" in above:
                numpy_in_scipy_us += cumulative
        elif top == "scipy" and "scipy" not in above:
            scipy_us += cumulative
        elif name == "coherence_forge":
            package_us = cumulative
        stack.append((depth, name))
    scipy_us -= numpy_in_scipy_us
    return {
        "numpy_s": numpy_us / 1e6,
        "scipy_s": scipy_us / 1e6,
        "package_s": (package_us - numpy_us - scipy_us) / 1e6,
    }


def import_probe(env: dict[str, str]) -> dict[str, float]:
    return parse_importtime(_python("import coherence_forge", env, "-X", "importtime").stderr)


def git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "not installed"


# ---------------------------------------------------------------------------
# Running workloads
# ---------------------------------------------------------------------------


def load_workload(name: str, workdir: Path, env: dict[str, str]):
    import workloads

    if name == "cli-session":
        return workloads.CliSession(workdir, env), workloads.execute_cli
    sys.path.insert(0, str(SRC))
    import coherence_forge.oracle
    import coherence_forge.statecore
    import coherence_forge.synthesis

    if Path(coherence_forge.__file__).resolve().parent != SRC / "coherence_forge":
        raise RuntimeError(f"imported coherence_forge from {coherence_forge.__file__}, not from {SRC}")

    cf = types.SimpleNamespace(
        statecore=coherence_forge.statecore,
        synthesis=coherence_forge.synthesis,
        oracle=coherence_forge.oracle,
    )
    cls = {
        "frontier-sweep": workloads.FrontierSweep,
        "oracle-check": workloads.OracleCheck,
        "tsallis-mixed": workloads.TsallisMixed,
    }[name]
    return cls(cf), workloads.execute_inprocess


def timed_loop(workload, execute, rng, seconds: float, probe=None) -> tuple[list[list], float]:
    """Whole decks until ``seconds`` of wall time have passed. The clock covers
    dealing each deck and running its ops; the speed probe (if any) after each
    op and the output checks after each deck run off the clock. Returns the
    checked samples per deck and the clock."""
    from workloads import check

    decks, loop_s = [], 0.0
    start = perf_counter()
    while not decks or perf_counter() - start < seconds:
        done = []
        t0 = perf_counter()
        for op in workload.deck(rng):
            done.append((op, execute(op)))
            if probe is not None:
                loop_s += perf_counter() - t0
                probe.measured(done[-1][1].latency_s)
                t0 = perf_counter()
        loop_s += perf_counter() - t0
        decks.append([check(op, sample) for op, sample in done])
    return decks, loop_s


def end_to_end(decks: list[list], setup: list[float], loop_s: float, cli: bool,
               speed: tuple[float, int]) -> tuple[dict, dict]:
    """End-to-end metrics, op times at the reference speed given by ``speed``
    (factor, probe slices), and the measured values and sample counts behind
    them."""
    samples = [s for deck in decks for s in deck]
    latencies = [s.latency_s for s in samples]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8]
    if cli:  # the children's peak: each deck's largest valid child, median over decks
        rss_kb = statistics.median(max(s.rss_kb for s in deck if s.valid) for deck in decks)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    raw = {
        "setup_s": statistics.median(setup),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
        "throughput_ops_s": len(samples) / loop_s,
        "cpu_per_op_s": sum(s.cpu_s for s in samples) / len(samples),
    }
    loop_f = speed[0]
    metrics = {
        "setup_s": (raw["setup_s"], "s"),
        "latency_p50_s": (raw["latency_p50_s"] * loop_f, "s"),
        "latency_p90_s": (raw["latency_p90_s"] * loop_f, "s"),
        "throughput_ops_s": (raw["throughput_ops_s"] / loop_f, "1/s"),
        "cpu_per_op_s": (raw["cpu_per_op_s"] * loop_f, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    details = {
        "raw_metrics": raw,
        "speed_scale": loop_f,
        "speed_probe_slices": speed[1],
        "decks": len(decks),
        "loop_s": loop_s,
        "latency_samples": len(latencies),
        "latency_samples_above_p90": sum(1 for x in latencies if x > p90),
        "setup_samples": len(setup),
    }
    return metrics, details


def check_digests(samples, seed: int) -> dict[str, str]:
    """SHA-256 of the first deck's CSV/SVG outputs; at the default seed they must
    match ``cli_digests.json`` (the byte-identical output contract). A change
    meant to alter the output copies the new digests from the run record."""
    found: dict[str, str] = {}
    owner = {}
    for sample in samples:
        for fname, data in sample.files.items():
            key = f"{sample.kind}/{fname}"
            if fname.endswith((".csv", ".svg")) and key not in found:
                found[key] = hashlib.sha256(data).hexdigest()
                owner[key] = sample
    if seed != DEFAULT_SEED:
        return found
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))
    for key, sample in owner.items():
        if found[key] != expected.get(key) and sample.error is None:
            sample.error = f"{key} differs from the recorded digest"
    return found


def bad_input_table(samples) -> dict[str, dict]:
    table: dict[str, dict] = {}
    for s in samples:
        if s.valid:
            continue
        row = table.setdefault(s.kind.removeprefix("bad."), {"attempted": 0, "failed": 0, "error": None})
        row["attempted"] += 1
        if s.error:
            row["failed"] += 1
            row["error"] = s.error
    return table


def layer_metrics(profile, untraced, traced, probes, wall_traced: float) -> dict[str, float]:
    values: dict[str, float] = {}
    for layer, functions in TRACED_FUNCTIONS.items():
        for fn in functions:
            calls, own = profile.by_defining(f"{layer}.{fn}")
            values[f"{layer}.{fn}.calls"] = calls
            values[f"{layer}.{fn}.self_s"] = own
    values["oracle.apply_filter.calls"] = profile.calls.get("oracle.apply_filter", 0)
    values["oracle.apply_filter.self_s"] = profile.self_s.get("oracle.apply_filter", 0.0)
    values["oracle.grid_points_computed"] = profile.counters.get("oracle.grid_points_computed", 0)
    values["synthesis.tsallis.candidates_computed"] = profile.counters.get("synthesis.tsallis.candidates_computed", 0)
    for d in (4, 6, 8):
        values[f"synthesis.tsallis_optimal_filter.self_s.d{d}"] = sum(
            v for k, v in profile.tagged_self_s.items()
            if k.endswith(f".d{d}") and profile.defining.get(k.rsplit(".", 1)[0]) == "synthesis.tsallis_optimal_filter"
        )
    values["synthesis.mixed_scan.apply_filter_calls"] = profile.mixed_scan_apply_filter_calls
    for sub in SUBCOMMANDS:
        values[f"cli.{sub}.calls"] = profile.calls.get(f"cli.{sub}", 0)
        values[f"cli.{sub}.handler_s"] = profile.total_s.get(f"cli.{sub}", 0.0)
        values[f"cli.{sub}.wall_s"] = sum(s.latency_s for s in traced if s.command == sub)
    values["cli.output_bytes"] = sum(s.output_bytes for s in traced)
    everything = untraced + traced
    bad = [s for s in everything if not s.valid]
    values["cli.bad_input.attempted"] = len(bad)
    values["cli.bad_input.failed"] = sum(1 for s in bad if s.error)
    values["error_rate"] = sum(1 for s in everything if s.error) / len(everything)
    for key in ("numpy_s", "scipy_s", "package_s"):
        values[f"import.{key}"] = statistics.median(p[key] for p in probes)
    values["import.cli_children_s"] = profile.self_s.get("import", 0.0)
    values["bench.self_s"] = sum(v for k, v in profile.self_s.items() if k.startswith("bench."))
    wall_untraced = sum(s.latency_s for s in untraced)
    values["trace.ops"] = len(traced)
    values["trace.wall_s"] = wall_traced
    values["trace.untraced_wall_s"] = wall_untraced
    values["trace.overhead_s"] = wall_traced - wall_untraced
    values["trace.self_sum_s"] = profile.self_sum_s
    values["trace.untraced_remainder_s"] = wall_traced - profile.covered_s
    values["trace.parallel_overlap_s"] = profile.self_sum_s - profile.covered_s
    return values


def traced_run(name: str, workload, execute, rng, seconds: float):
    """Each op of a fixed list runs untraced and then traced, so drift in machine
    speed falls on both passes alike; returns both sample lists and the profile."""
    from tracer import Profile, Tracer
    from workloads import check

    decks = max(1, round(seconds / 2 / workload.deck_seconds))
    ops = [op for _ in range(decks) for op in workload.deck(rng)]
    untraced, traced = [], []
    tracer = Tracer()
    for op in ops:
        untraced.append(check(op, execute(op)))
        if name == "cli-session":
            workload.traced_child = BENCH / "child.py"
            traced.append(check(op, execute(op)))
            workload.traced_child = None
            continue
        tracer.install()
        try:
            traced.append(check(op, execute(op, tracer.span)))
        finally:
            tracer.uninstall()
    profile = Profile()
    if name == "cli-session":
        timelines = [json.loads(s.spans) for s in traced if s.spans]
        for timeline in timelines:
            profile.add(timeline)
        spans_out = {"timelines": timelines}
    else:
        spans_out = tracer.to_json()
        profile.add(spans_out)
    with open(WORK / f"spans-{name}.json", "w", encoding="utf-8") as fh:
        json.dump(spans_out, fh, separators=(",", ":"))
    return untraced, traced, profile


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object (also the run record under ``record``)."""
    import numpy as np
    from probe import SpeedProbe

    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir()
    record = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "env": {k: "unset" for k in UNSET_ENV} | {"PYTHONPATH": "src"},
        "clients": 1,
    }
    try:
        workload, execute = load_workload(workload_name, workdir, env)
        is_cli = workload_name == "cli-session"
        if not is_cli:
            for op in workload.deck(np.random.default_rng([seed, 1])):  # warm-up, not measured
                execute(op)
        rng = np.random.default_rng(seed)
        if trace:
            probes = [import_probe(env) for _ in range(IMPORT_PROBES)]
            untraced, traced, profile = traced_run(workload_name, workload, execute, rng, seconds)
            samples = untraced + traced
            wall = sum(s.latency_s for s in traced)
            values = layer_metrics(profile, untraced, traced, probes, wall)
            units = per_layer_units()
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            record["import_probes"] = len(probes)
        else:
            setup = measure_setup(env)
            if is_cli:  # start-up dominates; the probe's NumPy work does not model it
                decks, loop_s = timed_loop(workload, execute, rng, seconds)
                speed = (1.0, 0)
            else:
                probe = SpeedProbe(env)
                try:
                    decks, loop_s = timed_loop(workload, execute, rng, seconds, probe)
                    speed = probe.scale()
                finally:
                    probe.close()
            samples = [s for deck in decks for s in deck]
            if is_cli:
                record["cli_digests"] = check_digests(samples, seed)
            e2e, details = end_to_end(decks, setup, loop_s, is_cli, speed)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
            record.update(details)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    valid = [s for s in samples if s.valid]
    failed = [s for s in valid if s.error]
    record["bad_inputs"] = bad_input_table(samples)
    record["error_rate_all_ops"] = sum(1 for s in samples if s.error) / len(samples)
    record["errors"] = [f"{s.kind}: {s.error}" for s in samples if s.error][:20]
    result = {
        "correct": not failed,
        "attempted": len(valid),
        "failed": len(failed),
        "metrics": metrics,
    }
    (WORK / f"record-{workload_name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )
    result["record"] = record
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coherence_forge" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'coherence_forge'}", file=sys.stderr)
        return 2
    for key in UNSET_ENV:  # before numpy loads, so BLAS uses its defaults here too
        os.environ.pop(key, None)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record = result.pop("record")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
