"""Command-line surface: synthesize filters, trace frontiers, run scans,
check the sequential-measurement equivalence, compute process metrics and
validate against the brute-force oracle.

Exit codes: 0 success, 1 usage error, 2 domain/precondition error, 3 I/O
error. A closed stdout also exits 3, with nothing on stderr: the run may stop
before its file writes. CSV output uses 12 significant digits and is
byte-deterministic for identical flags.
Output directories are checked before any computation, and the files of a
run are renamed into place only once every one of them is written whole, so
a run whose computation or writes fail leaves no new or partial file. The
renames go one file at a time: one that fails leaves the files renamed
before it.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import optics, oracle, synthesis
from .errors import DimensionMismatch, DomainError, StateValidationError
from .iterative import KrausSet, compose_iteration, sequential_povm, simulate_sequential
from .statecore import (
    ZERO_POPULATION,
    DiagonalFilter,
    EnergySpectrum,
    QState,
    QubitParams,
    apply_filter,
    coherence,
    filter_to_text,
    mean_energy,
    mixed_qubit_product,
    product_pure_state,
    qstate_from_text,
)
from .svgplot import line_plot
from .synthesis import FilterFamily, FilterTarget, FrontierPoint, MixedScanPoint

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1."""

    def error(self, message: str) -> None:  # noqa: A003 - argparse API
        raise _UsageError(message)


def float_list(text: str) -> np.ndarray:
    """Comma-separated numbers, empty fields skipped; an argparse ``type``."""
    return np.asarray([float(tok) for tok in text.split(",") if tok.strip()])


def _parse_floats(text: str, what: str) -> np.ndarray:
    try:
        return float_list(text)
    except ValueError:
        raise _UsageError(f"cannot parse {what} {text!r}")


def _parse_spectrum(text: str) -> EnergySpectrum:
    return EnergySpectrum(_parse_floats(text, "spectrum"))


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _require_spectrum_dim(state: QState, spectrum: EnergySpectrum) -> None:
    if state.dim != spectrum.dim:
        raise DimensionMismatch(
            f"spectrum has {spectrum.dim} levels but the state has dimension {state.dim}"
        )


def _coherence_report(value_nats: float) -> str:
    return f"{_fmt(value_nats)} nats ({_fmt(value_nats / math.log(2.0))} bits)"


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at ``path``; bytes that are not UTF-8 raise
    ``StateValidationError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise StateValidationError(f"{what} {path} is not UTF-8 text (byte {exc.start})") from None


# ---------------------------------------------------------------------------
# CSV and SVG writers (shared with the experiment scripts)
# ---------------------------------------------------------------------------

_FRONTIER_HEADER = "p_success,coherence_nats,mean_energy,a,b,family"
_SCAN_HEADER = "p,eta,coherence_nats,mean_energy,b_opt,input_coherence,input_energy"


def _write_files(files: Mapping[str | Path, str]) -> None:
    """Write each text to a temporary file beside the file its path names,
    and rename them over those files, in order, once every one is written;
    a failed write leaves none of them, and a failed rename leaves those
    renamed before it. A pipe or a terminal is written in place."""
    staged = []
    try:
        for index, (path, text) in enumerate(files.items()):
            target = Path(path)
            if target.exists() and not target.is_file():
                target.write_text(text, encoding="utf-8")
                continue
            target = Path(os.path.realpath(target))  # a symbolic link stays a link
            tmp = target.with_name(f".{target.name}.{os.getpid()}.{index}.tmp")
            staged.append((tmp, target))
            tmp.write_text(text, encoding="utf-8")
        for tmp, target in staged:
            os.replace(tmp, target)
    finally:
        for tmp, _ in staged:
            tmp.unlink(missing_ok=True)


def _check_output_dirs(args: argparse.Namespace) -> None:
    """Raise the I/O error of the first output path whose directory is missing."""
    for path in filter(None, (getattr(args, key, None) for key in ("out", "out_csv", "out_svg"))):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
            raise OSError(code, os.strerror(code), path)


def _csv(header: str, rows: Iterable[Iterable[str]]) -> str:
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _frontier_csv(points: Iterable[FrontierPoint]) -> str:
    return _csv(
        _FRONTIER_HEADER,
        (
            [
                _fmt(pt.p_success),
                _fmt(pt.coherence),
                _fmt(pt.mean_energy),
                _fmt(pt.filter.coeffs[0].real),
                _fmt(pt.filter.coeffs[1].real),
                pt.family.value,
            ]
            for pt in points
        ),
    )


def write_frontier_csv(path: str | Path, points: Iterable[FrontierPoint]) -> None:
    """Frontier CSV: the header, then one row per point in the given order."""
    _write_files({path: _frontier_csv(points)})


def write_scan_csv(path: str | Path, points: Iterable[tuple[float, MixedScanPoint]]) -> None:
    """Scan CSV: the header, then one row per (eta, point) pair in the given
    order, with the coherence and mean energy of the unfiltered input."""

    def row(eta: float, pt: MixedScanPoint) -> list[str]:
        state = mixed_qubit_product(QubitParams(p=pt.p, eta=eta), 2)
        return [
            _fmt(pt.p),
            _fmt(eta),
            _fmt(pt.coherence),
            _fmt(pt.mean_energy),
            _fmt(pt.b_opt),
            _fmt(coherence(state)),
            _fmt(mean_energy(state, synthesis.TWO_QUBIT_SPECTRUM)),
        ]

    _write_files({path: _csv(_SCAN_HEADER, (row(eta, pt) for eta, pt in points))})


def _frontier_svg(
    traced: Mapping[FilterFamily, Sequence[FrontierPoint]], target: FilterTarget, title: str
) -> str:
    series = [
        (fam.value, [pt.p_success for pt in pts], [pt.measure(target) for pt in pts])
        for fam, pts in traced.items()
    ]
    ylabel = "mean energy" if target is FilterTarget.ENERGY else "coherence (nats)"
    return line_plot(series, "success probability", ylabel, title=title)


def write_frontier_svg(
    path: str | Path,
    traced: Mapping[FilterFamily, Sequence[FrontierPoint]],
    target: FilterTarget,
    title: str,
) -> None:
    """Frontier plot: one series per family in the given order, the mean
    energy for the energy target and the coherence otherwise."""
    _write_files({path: _frontier_svg(traced, target, title)})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _input_state(args: argparse.Namespace) -> QState:
    """The two-qubit product state of ``--p`` or the state file of ``--state``."""
    if (args.p is None) == (args.state is None):
        raise _UsageError("give exactly one of --p or --state")
    if args.state is not None:
        return qstate_from_text(_read_text(args.state, "state file"))
    return product_pure_state(args.p, 2)


def _describe_filter(filt: DiagonalFilter) -> str:
    c = filt.coeffs
    if (
        filt.dim == 4
        and abs(c[1] - c[2]) < 1e-12
        and abs(c[3] - 1.0) < 1e-12
        and abs(c.imag).max() < 1e-12
    ):
        return f"a = {_fmt(c[0].real)}  b = {_fmt(c[1].real)}"
    return "m = [" + ", ".join(_fmt(v.real) for v in c) + "]"


def _cmd_filter(args: argparse.Namespace) -> int:
    target = FilterTarget(args.target)
    spectrum = _parse_spectrum(args.spectrum)
    state = _input_state(args)
    _require_spectrum_dim(state, spectrum)
    filt = synthesis.optimal_filter(state, spectrum, target, args.ps)
    out, p_s = apply_filter(state, filt)
    print(_describe_filter(filt))
    print(f"P_S achieved = {_fmt(p_s)}")
    print(f"output coherence = {_coherence_report(coherence(out))}")
    print(f"output mean energy = {_fmt(mean_energy(out, spectrum))}")
    if args.out:
        _write_files({args.out: filter_to_text(filt)})
        print(f"filter written to {args.out}")
    return EXIT_OK


def _cmd_frontier(args: argparse.Namespace) -> int:
    target = FilterTarget(args.target)
    spectrum = _parse_spectrum(args.spectrum)
    state = product_pure_state(args.p, 2)
    _require_spectrum_dim(state, spectrum)
    families = list(FilterFamily) if args.family == "both" else [FilterFamily(args.family)]
    traced = {
        fam: synthesis.trace_frontier(state, spectrum, target, fam, grid=args.grid)
        for fam in families
    }
    files = {args.out_csv: _frontier_csv([pt for pts in traced.values() for pt in pts])}
    if args.out_svg:
        files[args.out_svg] = _frontier_svg(traced, target, f"p = {args.p:g}")
    _write_files(files)
    print(f"{sum(len(v) for v in traced.values())} rows written to {args.out_csv}")
    if args.out_svg:
        print(f"plot written to {args.out_svg}")
    return EXIT_OK


def _cmd_mixed_scan(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise _UsageError("--steps must be at least 2")
    if args.steps > synthesis.MAX_SAMPLE_POINTS:
        raise _UsageError(f"--steps must be at most {synthesis.MAX_SAMPLE_POINTS}")
    p_values = np.linspace(args.p_min, args.p_max, args.steps)
    points = synthesis.mixed_scan(args.eta, list(p_values))
    write_scan_csv(args.out_csv, [(args.eta, pt) for pt in points])
    print(f"{len(points)} rows written to {args.out_csv}")
    return EXIT_OK


def _cmd_iterate(args: argparse.Namespace) -> int:
    if args.stages not in (1, 2):
        raise _UsageError("--stages must be 1 or 2")
    stage = synthesis.TwoQubitFilterParams(a=args.a, b=args.b).to_filter()
    single = product_pure_state(args.p, 1)
    pair = product_pure_state(args.p, 2)
    if args.stages == 1:
        kraus = KrausSet(operators=(stage.matrix(),))
        sigma = kraus.apply_mixture(pair)
    else:
        kraus, sigma = compose_iteration(stage, stage, single)
    povm = sequential_povm(kraus)
    mixture, p_total, _branches = simulate_sequential(povm, pair)
    residual = float(np.max(np.abs(mixture.matrix * p_total - sigma)))
    iter_coh = coherence(mixture)
    if np.count_nonzero(pair.populations >= ZERO_POPULATION) < 2:
        best = 0.0  # a single populated level carries no coherence to enhance
    else:
        spectrum, target = synthesis.TWO_QUBIT_SPECTRUM, FilterTarget.COHERENCE
        edge = synthesis.reachable_success_range(pair, spectrum, target, FilterFamily.OPTIMAL)[0]
        # below full equalization a scaled-down equalizer leaves the output
        # state unchanged, so the optimum there is the one at the edge
        filt = synthesis.optimal_filter(pair, spectrum, target, max(p_total, edge))
        best = coherence(apply_filter(pair, filt)[0])
    report = [
        f"stages = {args.stages}, per-stage filter a = {_fmt(args.a)}, b = {_fmt(args.b)}",
        f"total success probability = {_fmt(p_total)}",
        f"iterative output coherence = {_coherence_report(iter_coh)}",
        f"single-copy optimal coherence at equal P_S = {_coherence_report(best)}",
        f"sequential-equivalence residual (max element) = {residual:.3e}",
    ]
    ok = residual <= 1e-10 and iter_coh <= best + 1e-6
    report.append("PASS" if ok else "FAIL")
    print("\n".join(report))
    return EXIT_OK


def _cmd_choi(args: argparse.Namespace) -> int:
    params = synthesis.TwoQubitFilterParams(a=args.a, b=args.b)
    filt = params.to_filter()
    ideal = optics.choi_of_filter(filt)
    if args.phases:
        phases = optics.PhaseProfile(phases=_parse_floats(args.phases, "phases"))
        chi = optics.choi_of_filter(filt, phases)
    else:
        chi = ideal
    purity, fidelity = optics.process_metrics(chi, ideal)
    compensated, _profile = optics.compensate_phases(chi)
    _, fidelity_comp = optics.process_metrics(compensated, ideal)
    _write_files({args.out: optics.choi_to_text(chi)})
    print(f"process matrix written to {args.out}")
    print(f"process purity = {_fmt(purity)}")
    print(f"process fidelity vs ideal = {_fmt(fidelity)}")
    print(f"process fidelity after phase compensation = {_fmt(fidelity_comp)}")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    target = FilterTarget(args.target)
    spectrum = _parse_spectrum(args.spectrum)
    state = _input_state(args)
    _require_spectrum_dim(state, spectrum)
    # reject what the search or the synthesizer rejects before the search runs
    oracle.check_search_args(state, spectrum, args.ps, args.grid_step)
    synth = synthesis.optimal_filter(state, spectrum, target, args.ps)
    result = oracle.grid_search(state, spectrum, target, args.ps, grid_step=args.grid_step)
    synth_obj = oracle.objective_value(state, spectrum, target, synth)
    shortfall = result.objective - synth_obj
    print(f"oracle filter: {_describe_filter(result.filter)}")
    print(f"oracle objective = {_fmt(result.objective)} at P_S = {_fmt(result.p_success)}")
    print(f"synthesized objective = {_fmt(synth_obj)}")
    print(f"shortfall (oracle - synthesized) = {shortfall:.3e}")
    print("PASS" if shortfall <= 1e-3 else "FAIL")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser assembly and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="coherence-forge", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_filter = subs.add_parser("filter", help="synthesize one optimal filter")
    p_filter.add_argument("--p", type=float)
    p_filter.add_argument("--state", help="QState text file (instead of --p)")
    p_filter.add_argument("--ps", type=float, required=True)
    p_filter.add_argument("--target", choices=[t.value for t in FilterTarget], required=True)
    p_filter.add_argument("--spectrum", default="0,1,1,2")
    p_filter.add_argument("--out", help="write the filter in text form")

    p_front = subs.add_parser("frontier", help="trace a trade-off frontier to CSV/SVG")
    p_front.add_argument("--p", type=float, required=True)
    p_front.add_argument("--target", choices=[t.value for t in FilterTarget], default="coherence")
    p_front.add_argument(
        "--family", choices=("optimal", "factorized", "both"), default="both"
    )
    p_front.add_argument("--grid", type=int, default=200)
    p_front.add_argument("--out-csv", required=True)
    p_front.add_argument("--out-svg")
    p_front.add_argument("--spectrum", default="0,1,1,2")

    p_scan = subs.add_parser("mixed-scan", help="optimize the a=0 family over mixed states")
    p_scan.add_argument("--eta", type=float, required=True)
    p_scan.add_argument("--p-min", type=float, default=0.05)
    p_scan.add_argument("--p-max", type=float, default=0.45)
    p_scan.add_argument("--steps", type=int, required=True)
    p_scan.add_argument("--out-csv", required=True)

    p_iter = subs.add_parser("iterate", help="pairwise protocol vs the exact single-copy optimum")
    p_iter.add_argument("--p", type=float, required=True)
    p_iter.add_argument("--stages", type=int, default=2)
    p_iter.add_argument("--a", type=float, default=0.0)
    p_iter.add_argument("--b", type=float, default=1.0)

    p_choi = subs.add_parser("choi", help="process matrix and metrics of an (a, b) filter")
    p_choi.add_argument("--a", type=float, required=True)
    p_choi.add_argument("--b", type=float, required=True)
    p_choi.add_argument("--phases", help="comma-separated basis-state phases (radians)")
    p_choi.add_argument("--out", required=True)

    p_oracle = subs.add_parser("oracle", help="brute-force check of a synthesizer")
    p_oracle.add_argument("--p", type=float)
    p_oracle.add_argument("--state", help="QState text file")
    p_oracle.add_argument("--ps", type=float, required=True)
    p_oracle.add_argument("--target", choices=[t.value for t in FilterTarget], required=True)
    p_oracle.add_argument("--grid-step", type=float, default=0.02)
    p_oracle.add_argument("--spectrum", default="0,1,1,2")

    return parser


def _join_list_values(argv: Sequence[str]) -> list[str]:
    """``argv`` with ``--phases`` or ``--spectrum`` and a next token such as
    ``-0.2,0`` joined into ``--phases=-0.2,0``, which argparse would
    otherwise read as a flag."""
    joined: list[str] = []
    for token in argv:
        if joined and joined[-1] in ("--phases", "--spectrum") and re.match(r"-[0-9.]", token):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


_HANDLERS = {
    "filter": _cmd_filter,
    "frontier": _cmd_frontier,
    "mixed-scan": _cmd_mixed_scan,
    "iterate": _cmd_iterate,
    "choi": _cmd_choi,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(_join_list_values(sys.argv[1:] if argv is None else argv))
        _check_output_dirs(args)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader is gone: nothing to report, but the run may not have
        # finished; stdout goes to devnull so that the exit flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
