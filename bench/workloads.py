"""The four seeded workloads: decks of ops, how one op runs, and its checks.

A workload hands out *decks*: a fixed multiset of ops whose order and inputs
come from the seeded generator. Every run is a whole number of decks, so the
op mix is the same in every run. Library inputs (states, success
probabilities) are built when the deck is dealt, outside the timed op.

An op's ``check`` raises ``CheckFailed`` when an output breaks an invariant:
|P_S achieved - target| <= 1e-9, the optimal frontier never below the
factorized one, oracle shortfall <= 1e-3, Tsallis intensities in [0, 1], and
CLI output that parses and meets the same rules.
"""

from __future__ import annotations

import csv
import io
import math
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable

import numpy as np

import reference as ref

PS_TOL = 1e-9
VALUE_TOL = 1e-9
SHORTFALL_TOL = 1e-3
CLI_TIMEOUT_S = 120.0


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop request: ``run`` does the work, ``check`` judges its output."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    valid: bool = True
    command: str = ""  # CLI subcommand, for CLI ops


@dataclass
class Sample:
    kind: str
    valid: bool
    latency_s: float
    cpu_s: float
    error: str | None
    command: str = ""
    rss_kb: int = 0
    output_bytes: int = 0
    files: dict[str, bytes] = field(default_factory=dict)
    spans: bytes | None = None
    output: object = None  # the op's result until ``check`` has judged it


def execute_inprocess(op: Op, span=None) -> Sample:
    """Time ``op.run`` (optionally inside a tracer root span); ``check`` judges
    the output later, off the clock."""
    result, error = None, None
    t0, c0 = perf_counter(), process_time()
    try:
        result = span("bench.op", op.run) if span else op.run()
    except Exception as exc:  # a failing op is counted, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    latency, cpu = perf_counter() - t0, process_time() - c0
    return Sample(op.kind, op.valid, latency, cpu, error, output=result)


def check(op: Op, sample: Sample) -> Sample:
    """Judge the output ``sample`` holds for ``op``, record a failure on the
    sample and release the output."""
    if sample.error is None:
        try:
            op.check(sample.output)
        except CheckFailed as exc:
            sample.error = str(exc)
        except (KeyError, IndexError, ValueError) as exc:
            sample.error = f"output unreadable: {type(exc).__name__}: {exc}"
    sample.output = None
    return sample


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(rng.uniform(lo, hi))


def _shuffled(rng: np.random.Generator, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# Checks shared by the in-process and CLI forms of an op
# ---------------------------------------------------------------------------


def check_frontier(p: float, target: str, family: str, ps: np.ndarray, values: np.ndarray) -> None:
    """Frontier rows against the grid, the reference optimum and dominance."""
    pops = ref.product_pops(p)
    if family == "factorized":
        lo = float(pops[3])
    else:
        lo = ref.energy_lo(pops) if target == "energy" else ref.coherence_lo(pops)
    grid = np.linspace(lo, 1.0, ps.size)
    _require(ps.size == 200, f"{family} frontier has {ps.size} points, expected 200")
    err = float(np.max(np.abs(ps - grid)))
    _require(err <= PS_TOL, f"{family} frontier |P_S - target| = {err:.3g}")
    optimum = ref.optimal_energy if target == "energy" else ref.optimal_coherence
    opt_lo = ref.energy_lo(pops) if target == "energy" else ref.coherence_lo(pops)
    if family == "optimal":
        err = float(np.max(np.abs(values - optimum(pops, ps))))
        _require(err <= VALUE_TOL, f"optimal {target} frontier off the reference by {err:.3g}")
    else:
        inside = ps >= opt_lo
        excess = float(np.max(values[inside] - optimum(pops, ps[inside]), initial=-np.inf))
        _require(excess <= VALUE_TOL, f"factorized {target} frontier above the optimum by {excess:.3g}")


def check_scan(eta: float, p: np.ndarray, coh: np.ndarray, energy: np.ndarray, b: np.ndarray) -> None:
    """Mixed-scan points against an independent recomputation at b_opt and a b probe."""
    _require(np.all((b >= -1e-12) & (b <= 1 + 1e-12)), "b_opt outside [0, 1]")
    probe = np.linspace(0.1, 1.0, 10)
    for pi, ci, ei, bi in zip(p, coh, energy, b):
        rc, re_ = ref.scan_point(pi, eta, bi)
        _require(abs(rc - ci) <= VALUE_TOL and abs(re_ - ei) <= VALUE_TOL,
                 f"scan point p={pi:.4g} differs from the recomputation")
        best = max(ref.scan_point(pi, eta, x)[0] for x in probe)
        _require(ci >= best - 1e-7, f"scan point p={pi:.4g} below a probed b by {best - ci:.3g}")


def _intensities_ok(intensities: np.ndarray) -> bool:
    return bool(np.all((intensities >= -1e-12) & (intensities <= 1 + 1e-12)))


def check_filter_ps(intensities: np.ndarray, pops: np.ndarray, ps: float, what: str) -> None:
    _require(_intensities_ok(intensities), f"{what} intensities outside [0, 1]")
    err = abs(float(intensities @ pops) - ps)
    _require(err <= PS_TOL, f"{what} |P_S - target| = {err:.3g}")


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


class FrontierSweep:
    """trace_frontier at grid 200 for {energy, coherence} x {optimal, factorized},
    one mixed_scan over 9 points and one plateau_threshold, per deck."""

    name = "frontier-sweep"
    deck_seconds = 0.36  # one deck at the seed on 2 cores; sizes the traced run

    def __init__(self, cf) -> None:
        self.cf = cf

    def deck(self, rng: np.random.Generator) -> list[Op]:
        cf = self.cf
        syn = cf.synthesis
        p = _uniform(rng, 0.05, 0.45)
        state = cf.statecore.product_pure_state(p, 2)
        ops = []
        for target in ("energy", "coherence"):
            for family in ("optimal", "factorized"):
                ops.append(self._frontier_op(state, p, target, family))
        eta = _uniform(rng, 0.3, 1.0)
        p_values = list(np.linspace(0.05, 0.45, 9))

        def check_scan_points(points) -> None:
            _require(len(points) == 9, "mixed_scan returned the wrong number of points")
            check_scan(
                eta,
                np.array([pt.p for pt in points]),
                np.array([pt.coherence for pt in points]),
                np.array([pt.mean_energy for pt in points]),
                np.array([pt.b_opt for pt in points]),
            )

        ops.append(Op("mixed_scan", lambda: syn.mixed_scan(eta, p_values), check_scan_points))
        eta_plateau = _uniform(rng, 0.5, 1.0)

        def check_threshold(value) -> None:
            _require(0.5 - 1e-9 <= value <= 0.995, f"plateau threshold {value!r} outside [0.5, 0.995]")

        ops.append(Op("plateau_threshold", lambda: syn.plateau_threshold(eta_plateau), check_threshold))
        return _shuffled(rng, ops)

    def _frontier_op(self, state, p: float, target: str, family: str) -> Op:
        syn = self.cf.synthesis
        spectrum = self.cf.statecore.TWO_QUBIT_SPECTRUM
        t, f = syn.FilterTarget(target), syn.FilterFamily(family)

        def check(points) -> None:
            ps = np.array([pt.p_success for pt in points])
            values = np.array([pt.mean_energy if target == "energy" else pt.coherence for pt in points])
            check_frontier(p, target, family, ps, values)

        return Op(
            f"trace_frontier.{target}.{family}",
            lambda: syn.trace_frontier(state, spectrum, t, f, grid=200),
            check,
        )


def _random_ket(rng: np.random.Generator) -> np.ndarray:
    """Two-qubit ket with Dirichlet(4)-distributed populations and random phases."""
    pops = rng.dirichlet([4.0] * 4)
    return np.sqrt(pops) * np.exp(2j * np.pi * rng.random(4))


class OracleCheck:
    """grid_search plus the matching synthesizer and the shortfall check:
    pure two-qubit states for all three targets at step 0.02, mixed product
    states for the coherence and Tsallis targets at step 0.1."""

    name = "oracle-check"
    deck_seconds = 0.9

    def __init__(self, cf) -> None:
        self.cf = cf

    def deck(self, rng: np.random.Generator) -> list[Op]:
        sc = self.cf.statecore
        ops = []
        # Inputs vary within narrow ranges: the search cost depends on how many
        # grid points fall in the P_S band (0.15-0.85 s for the mixed
        # relative-entropy case over wide ones), which would swamp run-to-run
        # comparisons.
        for target in ("energy", "coherence", "tsallis"):
            state = sc.QState.pure(_random_ket(rng))
            ops.append(self._op("pure", state, target, 0.02, rng))
        p, eta = _uniform(rng, 0.25, 0.3), _uniform(rng, 0.7, 0.8)
        mixed = sc.mixed_qubit_product(sc.QubitParams(p=p, eta=eta), 2)
        # Five ops a deck put p50 and p90 inside one op kind's spread of
        # costs. With a sixth (the ~2 ms mixed energy search), p50 fell on
        # the gap between the cheap mixed ops and the pure ones and moved
        # 14 % from run to run.
        for target in ("coherence", "tsallis"):
            ops.append(self._op("mixed", mixed, target, 0.1, rng))
        return _shuffled(rng, ops)

    def _op(self, kind: str, state, target: str, step: float, rng: np.random.Generator) -> Op:
        syn, orc = self.cf.synthesis, self.cf.oracle
        spectrum = self.cf.statecore.TWO_QUBIT_SPECTRUM
        t = syn.FilterTarget(target)
        pops = np.clip(state.populations, 0.0, None)
        u = _uniform(rng, 0.3, 0.7) if kind == "pure" else _uniform(rng, 0.45, 0.55)
        if target == "energy":
            lo = float(pops[3])
        elif target == "coherence" and kind == "pure":
            lo = ref.coherence_lo(pops)
        elif target == "coherence":
            # no synthesizer for mixed relative-entropy coherence: compare the
            # oracle against the a = 0 family member with the same P_S
            lo, middle = float(pops[3]), float(pops[1] + pops[2])
            ps = lo + middle * u
            b = math.sqrt((ps - lo) / middle)
            synthesize = lambda: self.cf.statecore.DiagonalFilter(np.sqrt(ref.zero_ground(b)).astype(complex))
        else:
            lo = 0.0
        if not (target == "coherence" and kind == "mixed"):
            ps = lo + (1.0 - lo) * u
            synthesize = {
                "energy": lambda: syn.energy_optimal_filter(state, spectrum, ps),
                "coherence": lambda: syn.coherence_optimal_filter_pure(state, ps),
                "tsallis": lambda: syn.tsallis_optimal_filter(state, ps),
            }[target]

        def run():
            result = orc.grid_search(state, spectrum, t, ps, grid_step=step)
            synth = synthesize()
            return result, synth, orc.objective_value(state, spectrum, t, synth)

        def check(out) -> None:
            result, synth, synth_obj = out
            check_filter_ps(np.abs(result.filter.coeffs) ** 2, pops, ps, "oracle")
            check_filter_ps(np.abs(synth.coeffs) ** 2, pops, ps, "synthesized")
            shortfall = result.objective - synth_obj
            if kind == "mixed" and target == "coherence":
                _require(-shortfall <= SHORTFALL_TOL, f"oracle below the a=0 filter by {-shortfall:.3g}")
            else:
                _require(shortfall <= SHORTFALL_TOL, f"oracle shortfall {shortfall:.3g} > {SHORTFALL_TOL}")

        return Op(f"grid_search.{kind}.{target}", run, check)


class TsallisMixed:
    """tsallis_optimal_filter on random full-rank mixed states, d in {4, 6, 8}."""

    name = "tsallis-mixed"
    deck_seconds = 0.56

    def __init__(self, cf) -> None:
        self.cf = cf

    def deck(self, rng: np.random.Generator) -> list[Op]:
        ops = []
        for d in (4, 6, 8):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            rho = g @ g.conj().T
            rho = 0.5 * (rho + rho.conj().T) / np.trace(rho).real
            state = self.cf.statecore.QState(rho)
            ps = _uniform(rng, 0.1, 0.9)
            ops.append(self._op(state, rho, ps, d))
        return _shuffled(rng, ops)

    def _op(self, state, rho: np.ndarray, ps: float, d: int) -> Op:
        syn = self.cf.synthesis
        pops = np.diag(rho).real

        def check(filt) -> None:
            intensities = np.abs(filt.coeffs) ** 2
            check_filter_ps(intensities, pops, ps, "tsallis")
            out, _ = ref.filtered(rho, intensities)
            gain = ref.tsallis_coherence(out) - ref.tsallis_coherence(rho)
            _require(gain >= -1e-12, f"tsallis optimum below the uniform filter by {-gain:.3g}")

        return Op(f"tsallis.d{d}", lambda: syn.tsallis_optimal_filter(state, ps), check)


# ---------------------------------------------------------------------------
# CLI session: one subprocess per op
# ---------------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def _floats_after(pattern: str, text: str) -> list[float]:
    return [float(x) for x in re.findall(pattern + r"\s*(\S+)", text)]


def _one_float(pattern: str, text: str) -> float:
    found = _floats_after(pattern, text)
    _require(len(found) == 1, f"output has no single {pattern!r} line")
    return found[0]


def _exit_ok(res: CliResult) -> None:
    _require(res.code == 0, f"exit code {res.code}: {res.stderr.strip()[-200:]}")


def _csv_rows(data: bytes, header: str, fields: int) -> list[list[str]]:
    text = data.decode("utf-8")
    lines = text.split("\n")
    _require(lines[0] == header and lines[-1] == "", "CSV header or final newline wrong")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:-1]))))
    _require(all(len(r) == fields for r in rows), "CSV row with the wrong field count")
    return rows


def _numbers(rows: list[list[str]], cols: int) -> np.ndarray:
    try:
        arr = np.array([[float(x) for x in r[:cols]] for r in rows])
    except ValueError as exc:
        raise CheckFailed(f"CSV field does not parse: {exc}") from None
    _require(bool(np.all(np.isfinite(arr))), "CSV field is not finite")
    return arr


_FRONTIER_HEADER = "p_success,coherence_nats,mean_energy,a,b,family"
_SCAN_HEADER = "p,eta,coherence_nats,mean_energy,b_opt,input_coherence,input_energy"

# Invalid-input classes and the documented exit codes that count as handled
# (1 usage, 2 domain/precondition, 3 I/O). NaN P_S may be rejected either as a
# usage or a domain error.
BAD_INPUTS = ("ps-below-range", "spectrum-size", "grid-1", "ps-nan", "empty-state")


class CliSession:
    """The six README subcommands with seeded p/ps/eta, plus one invocation
    per invalid-input class, each as a fresh ``python -m coherence_forge.cli``."""

    name = "cli-session"
    deck_seconds = 10.5

    def __init__(self, workdir: Path, env: dict[str, str], traced_child: Path | None = None) -> None:
        self.workdir = workdir
        self.env = env
        self.traced_child = traced_child
        self.count = 0

    def deck(self, rng: np.random.Generator) -> list[Op]:
        ops = [
            self._filter(rng),
            self._frontier(rng),
            self._mixed_scan(rng),
            self._iterate(rng),
            self._choi(rng),
            self._oracle(rng),
        ]
        ops.extend(self._bad(kind, rng) for kind in BAD_INPUTS)
        return _shuffled(rng, ops)

    # -- op construction ---------------------------------------------------

    def _op(self, kind: str, argv: list[str], check, valid: bool = True, inputs=None, outputs=()) -> Op:
        def run() -> tuple[CliResult, float, float, int]:
            return self._spawn(argv, inputs or {}, outputs)

        return Op(kind, run, check, valid, command=argv[0])

    def _filter(self, rng) -> Op:
        target = ("coherence", "energy")[int(rng.integers(2))]
        p = _uniform(rng, 0.05, 0.45)
        pops = ref.product_pops(p)
        lo = ref.coherence_lo(pops) if target == "coherence" else ref.energy_lo(pops)
        ps = lo + (1 - lo) * _uniform(rng, 0.1, 0.9)

        def check(res: CliResult) -> None:
            _exit_ok(res)
            _require(abs(_one_float("P_S achieved =", res.stdout) - ps) <= PS_TOL, "P_S achieved off target")
            a, b = _one_float("a =", res.stdout), _one_float("b =", res.stdout)
            check_filter_ps(np.array([a * a, b * b, b * b, 1.0]), pops, ps, "filter")
            if target == "coherence":
                got, want = _one_float("output coherence =", res.stdout), ref.optimal_coherence(pops, ps)[0]
            else:
                got, want = _one_float("output mean energy =", res.stdout), ref.optimal_energy(pops, ps)[0]
            _require(abs(got - want) <= VALUE_TOL, f"filter {target} {got!r} != reference {want!r}")

        return self._op("filter", ["filter", "--p", repr(p), "--ps", repr(ps), "--target", target], check)

    def _frontier(self, rng) -> Op:
        target = ("coherence", "energy")[int(rng.integers(2))]
        p = _uniform(rng, 0.05, 0.45)
        argv = ["frontier", "--p", repr(p), "--target", target, "--family", "both", "--grid", "200",
                "--out-csv", "frontier.csv", "--out-svg", "frontier.svg"]

        def check(res: CliResult) -> None:
            _exit_ok(res)
            rows = _csv_rows(res.files["frontier.csv"], _FRONTIER_HEADER, 6)
            for family in ("optimal", "factorized"):
                sub = [r for r in rows if r[5] == family]
                vals = _numbers(sub, 5)
                check_frontier(p, target, family, vals[:, 0], vals[:, 2 if target == "energy" else 1])
            _require(len(rows) == 400, "frontier CSV has rows of an unknown family")
            svg = res.files["frontier.svg"]
            _require(svg.lstrip().startswith(b"<") and svg.rstrip().endswith(b"</svg>"), "SVG is not complete")

        return self._op("frontier", argv, check, outputs=("frontier.csv", "frontier.svg"))

    def _mixed_scan(self, rng) -> Op:
        eta = _uniform(rng, 0.3, 1.0)
        argv = ["mixed-scan", "--eta", repr(eta), "--p-min", "0.05", "--p-max", "0.45",
                "--steps", "9", "--out-csv", "scan.csv"]

        def check(res: CliResult) -> None:
            _exit_ok(res)
            vals = _numbers(_csv_rows(res.files["scan.csv"], _SCAN_HEADER, 7), 7)
            _require(vals.shape[0] == 9, "scan CSV does not have 9 rows")
            _require(np.allclose(vals[:, 0], np.linspace(0.05, 0.45, 9), atol=1e-11), "scan p column wrong")
            _require(np.allclose(vals[:, 1], eta, atol=1e-11), "scan eta column wrong")
            check_scan(eta, vals[:, 0], vals[:, 2], vals[:, 3], vals[:, 4])
            for row in vals:
                rho = ref.mixed_product(row[0], eta)
                _require(abs(ref.relative_entropy_coherence(rho) - row[5]) <= VALUE_TOL, "input coherence wrong")
                _require(abs(float((ref.LEVELS * np.diag(rho).real).sum()) - row[6]) <= VALUE_TOL,
                         "input energy wrong")

        return self._op("mixed-scan", argv, check, outputs=("scan.csv",))

    def _iterate(self, rng) -> Op:
        p = _uniform(rng, 0.05, 0.45)

        def check(res: CliResult) -> None:
            _exit_ok(res)
            residual = _one_float(r"residual \(max element\) =", res.stdout)
            _require(residual <= 1e-10, f"sequential-equivalence residual {residual:.3g}")
            _require(res.stdout.rstrip().endswith("PASS"), "iterate did not report PASS")

        return self._op("iterate", ["iterate", "--p", repr(p), "--stages", "2", "--a", "0", "--b", "1"], check)

    def _choi(self, rng) -> Op:
        a, b = _uniform(rng, 0.1, 0.9), _uniform(rng, 0.1, 0.9)
        phases = rng.uniform(-0.3, 0.3, size=4)
        # "--phases=..." because a leading minus sign would read as an option
        argv = ["choi", "--a", repr(a), "--b", repr(b), "--phases=" + ",".join(repr(float(x)) for x in phases),
                "--out", "chi.txt"]

        def check(res: CliResult) -> None:
            _exit_ok(res)
            purity = _one_float("process purity =", res.stdout)
            fidelity = _one_float("fidelity vs ideal =", res.stdout)
            compensated = _one_float("after phase compensation =", res.stdout)
            want = ref.process_fidelity(np.array([a * a, b * b, b * b, 1.0]), phases)
            _require(abs(purity - 1.0) <= VALUE_TOL, f"process purity {purity!r} != 1")
            _require(abs(fidelity - want) <= VALUE_TOL, f"process fidelity {fidelity!r} != {want!r}")
            _require(abs(compensated - 1.0) <= VALUE_TOL, f"compensated fidelity {compensated!r} != 1")
            lines = res.files["chi.txt"].decode("utf-8").splitlines()
            _require(lines[:2] == ["dim 16", "input_dim 4"] and len(lines) == 18, "process file layout wrong")

        return self._op("choi", argv, check, outputs=("chi.txt",))

    def _oracle(self, rng) -> Op:
        # the README's energy target: the three targets differ in cost, and a
        # seeded choice among them would spread the tail latency of short runs
        target = "energy"
        p = _uniform(rng, 0.05, 0.45)
        pops = ref.product_pops(p)
        lo = ref.energy_lo(pops)
        ps = lo + (1 - lo) * _uniform(rng, 0.1, 0.9)

        def check(res: CliResult) -> None:
            _exit_ok(res)
            _require(abs(_one_float("at P_S =", res.stdout) - ps) <= PS_TOL, "oracle P_S off target")
            shortfall = _one_float(r"shortfall \(oracle - synthesized\) =", res.stdout)
            _require(shortfall <= SHORTFALL_TOL, f"oracle shortfall {shortfall:.3g}")
            _require(res.stdout.rstrip().endswith("PASS"), "oracle did not report PASS")

        argv = ["oracle", "--p", repr(p), "--ps", repr(ps), "--target", target, "--grid-step", "0.02"]
        return self._op("oracle", argv, check)

    def _bad(self, kind: str, rng) -> Op:
        p = _uniform(rng, 0.05, 0.45)
        ps = _uniform(rng, 0.5, 0.9)
        inputs = {}
        codes = (2,)
        if kind == "ps-below-range":
            argv = ["filter", "--p", repr(p), "--ps", repr(2 * p * p), "--target", "coherence"]
        elif kind == "spectrum-size":
            argv = ["filter", "--p", repr(p), "--ps", repr(ps), "--target", "energy", "--spectrum", "0,1,2"]
        elif kind == "grid-1":
            argv = ["frontier", "--p", repr(p), "--grid", "1", "--out-csv", "frontier.csv"]
        elif kind == "ps-nan":
            argv = ["filter", "--p", repr(p), "--ps", "nan", "--target", "coherence", "--mode", "general"]
            codes = (1, 2)
        else:
            argv = ["oracle", "--state", "empty.txt", "--ps", repr(ps), "--target", "energy"]
            inputs = {"empty.txt": ""}

        def check(res: CliResult) -> None:
            _require(res.code in codes, f"exit code {res.code}, documented {codes}")
            _require("Traceback" not in res.stderr, "traceback on stderr")

        return self._op(f"bad.{kind}", argv, check, valid=False, inputs=inputs)

    # -- execution ---------------------------------------------------------

    def _spawn(self, argv: list[str], inputs: dict[str, str], outputs) -> tuple[CliResult, float, float, int]:
        self.count += 1
        cwd = self.workdir / f"op{self.count}"
        cwd.mkdir(parents=True)
        for name, text in inputs.items():
            (cwd / name).write_text(text, encoding="utf-8")
        if self.traced_child is None:
            cmd = [sys.executable, "-m", "coherence_forge.cli", *argv]
        else:
            cmd = [sys.executable, str(self.traced_child), "spans.json", *argv]
        with open(cwd / "stdout", "wb") as out, open(cwd / "stderr", "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=out, stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        files = {name: (cwd / name).read_bytes() for name in outputs if (cwd / name).exists()}
        spans = cwd / "spans.json"
        if spans.exists():
            files["spans.json"] = spans.read_bytes()
        result = CliResult(
            proc.returncode,
            (cwd / "stdout").read_text(encoding="utf-8", errors="replace"),
            (cwd / "stderr").read_text(encoding="utf-8", errors="replace"),
            files,
        )
        shutil.rmtree(cwd)
        return result, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


def execute_cli(op: Op) -> Sample:
    """Run one CLI op as a child process; latency, CPU and peak RSS are the child's."""
    res, wall, cpu, rss = op.run()
    spans = res.files.pop("spans.json", None)
    out_bytes = len(res.stdout.encode()) + sum(len(v) for v in res.files.values())
    return Sample(op.kind, op.valid, wall, cpu, None, op.command, rss, out_bytes, res.files, spans, res)
