"""Every validation branch of the package, through the library and, where a
CLI path reaches it, through ``main()``.

Each library case names the call, the error type and its message; each CLI
case the argv, the documented exit code (1 usage, 2 domain) and the message
on stderr. ``main()`` catches every error the package raises, so a case that
ended in a traceback would fail here with that exception instead.
"""

import numpy as np
import pytest

from coherence_forge import (
    ChoiMatrix,
    DiagonalFilter,
    DimensionMismatch,
    DomainError,
    EnergySpectrum,
    FilterFamily,
    FilterTarget,
    InterferometerSpec,
    KrausSet,
    QState,
    QubitParams,
    SequentialPovm,
    StateValidationError,
    TwoQubitFilterParams,
    UnreachableSuccessProbability,
    apply_choi,
    choi_of_filter,
    coherence_optimal_filter_pure,
    compensate_phases,
    compose_iteration,
    energy_optimal_filter,
    grid_search,
    mixed_qubit_product,
    mixed_scan,
    process_metrics,
    product_pure_state,
    simulate_sequential,
    trace_frontier,
    tsallis_optimal_filter,
    two_qubit_closed_form,
)
from coherence_forge.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from coherence_forge.oracle import check_search_args
from coherence_forge.statecore import diagonal_filter_row, diagonal_filter_rows, qstate_to_text
from coherence_forge.svgplot import line_plot

PAIR = product_pure_state(0.1, 2)
QUBIT = product_pure_state(0.1, 1)
THREE_LEVELS = EnergySpectrum([0.0, 1.0, 2.0])
TWELVE_LEVELS = ",".join(str(j) for j in range(12))


def _infeasible_tsallis_state() -> QState:
    """Two coherent levels hold 1 - 1.04e-12 and ten levels 9e-15 each, below
    ``ZERO_POPULATION``; the trace is 1 - 9.5e-13, inside its tolerance.
    Filters act on the two populated levels alone, so no candidate reaches
    P_S = 1 within 1e-12."""
    rho = np.zeros((12, 12), dtype=complex)
    rho[0, 0] = rho[1, 1] = 0.5 - 0.52e-12
    rho[0, 1] = rho[1, 0] = 0.1
    rho[np.arange(2, 12), np.arange(2, 12)] = 9e-15
    return QState(rho)


def _zero_choi() -> ChoiMatrix:
    return ChoiMatrix(np.zeros((4, 4)), 2)


LIBRARY_CASES = {
    # statecore
    "spectrum-inf": (lambda: EnergySpectrum([0.0, np.inf]), StateValidationError,
                     "energies must be finite"),
    "spectrum-nan": (lambda: EnergySpectrum([np.nan, 1.0]), StateValidationError,
                     "energies must be finite"),
    "state-not-square": (lambda: QState(np.full((2, 3), 0.5)), StateValidationError,
                         "density matrix must be square"),
    "state-one-dimensional": (lambda: QState(np.array([1.0])), StateValidationError,
                              "density matrix must be square"),
    "zero-ket": (lambda: QState.pure([0.0, 0.0]), StateValidationError, "zero amplitude vector"),
    "filter-rows-no-coefficients": (lambda: diagonal_filter_rows(np.zeros((2, 0))),
                                    StateValidationError, "filter needs at least one coefficient"),
    "filter-rows-nan": (lambda: diagonal_filter_rows([[0.5, 1.0], [np.nan, 1.0]]),
                        StateValidationError, "filter coefficients must be finite"),
    "filter-rows-above-one": (lambda: diagonal_filter_rows([[0.5, 1.0], [0.5, 1.5]]),
                              StateValidationError, r"filter coefficients must satisfy \|m\| <= 1"),
    "product-no-qubits": (lambda: product_pure_state(0.1, 0), StateValidationError,
                          "n_qubits must be at least 1"),
    "mixed-product-no-qubits": (lambda: mixed_qubit_product(QubitParams(0.1, 0.5), 0),
                                StateValidationError, "n_qubits must be at least 1"),
    # iterative
    "kraus-vector": (lambda: KrausSet(operators=(np.ones(2),)), StateValidationError,
                     "Kraus operator must be a square matrix"),
    "kraus-not-square": (lambda: KrausSet(operators=(np.ones((2, 3)),)), StateValidationError,
                         "Kraus operator must be a square matrix"),
    "kraus-not-diagonal": (lambda: KrausSet(operators=(np.full((2, 2), 0.5),)),
                           StateValidationError, "must be diagonal in the energy basis"),
    "kraus-empty": (lambda: KrausSet(operators=()), StateValidationError,
                    "Kraus set must not be empty"),
    "kraus-mixed-dimensions": (
        lambda: KrausSet(operators=(0.5 * np.eye(2), 0.5 * np.eye(3))), DimensionMismatch,
        "Kraus operators must share a dimension"),
    "kraus-state-dimension": (
        lambda: KrausSet(operators=(0.5 * np.eye(2),)).apply_mixture(PAIR), DimensionMismatch,
        "state dimension does not match the Kraus set"),
    "povm-plus-not-square": (
        lambda: SequentialPovm(stages=((np.ones((2, 3)), np.eye(2)),)), StateValidationError,
        "plus operator must be a square matrix"),
    "povm-incomplete": (
        lambda: SequentialPovm(stages=((np.diag([0.6, 0.5]), np.diag([0.8, 0.5])),)),
        StateValidationError, "stage operators do not complete to identity"),
    "povm-empty": (lambda: SequentialPovm(stages=()), StateValidationError,
                   "sequential POVM must have at least one stage"),
    "iteration-stage-dimension": (
        lambda: compose_iteration(DiagonalFilter.identity(4), DiagonalFilter.identity(9), QUBIT),
        DimensionMismatch, "stage filters must act on pairs of the input system"),
    "povm-state-dimension": (
        lambda: simulate_sequential(SequentialPovm(stages=((np.eye(2), np.zeros((2, 2))),)), PAIR),
        DimensionMismatch, "POVM dimension does not match the state"),
    # optics
    "three-attenuations": (lambda: InterferometerSpec(attenuations=(1.0, 1.0, 1.0)),
                           StateValidationError, "expected 4 attenuations and 2 splitter"),
    "one-splitter-amplitude": (lambda: InterferometerSpec(pbs_model=(1.0,)),
                               StateValidationError, "expected 4 attenuations and 2 splitter"),
    "choi-shape": (lambda: ChoiMatrix(np.eye(3), 2), DimensionMismatch,
                   r"process matrix must be d\^2 x d\^2"),
    "choi-nan": (lambda: ChoiMatrix(np.full((4, 4), np.nan), 2), StateValidationError,
                 "process matrix entries must be finite"),
    "choi-not-hermitian": (lambda: ChoiMatrix(np.triu(np.ones((4, 4))), 2),
                           StateValidationError, "process matrix is not Hermitian"),
    "choi-negative": (lambda: ChoiMatrix(np.diag([1.0, -1.0, 0.0, 0.0]), 2),
                      StateValidationError, "process matrix is not positive semidefinite"),
    "choi-trace": (lambda: ChoiMatrix(np.eye(4), 2), StateValidationError,
                   "process matrix trace exceeds the input dimension"),
    "choi-state-dimension": (lambda: apply_choi(choi_of_filter(DiagonalFilter.identity(4)), QUBIT),
                             DimensionMismatch, "state dimension does not match the process"),
    "metrics-dimensions": (
        lambda: process_metrics(choi_of_filter(DiagonalFilter.identity(2)),
                                choi_of_filter(DiagonalFilter.identity(4))),
        DimensionMismatch, "process matrices have different dimensions"),
    "metrics-zero-trace": (
        lambda: process_metrics(_zero_choi(), choi_of_filter(DiagonalFilter.identity(2))),
        DomainError, "process metrics need nonzero-trace matrices"),
    "compensate-zero": (lambda: compensate_phases(_zero_choi()), DomainError,
                        "process has no diagonal-filter pattern to compensate"),
    # oracle
    "oracle-spectrum-dimension": (
        lambda: check_search_args(PAIR, THREE_LEVELS, 0.5, 0.1, None), DomainError,
        "state and spectrum dimensions differ"),
    "grid-search-spectrum-dimension": (
        lambda: grid_search(PAIR, THREE_LEVELS, FilterTarget.ENERGY, 0.5, 0.1), DomainError,
        "state and spectrum dimensions differ"),
    # synthesis
    "filter-amplitude-above-one": (lambda: TwoQubitFilterParams(a=1.5, b=0.5), DomainError,
                                   "filter amplitudes a, b must lie in"),
    "energy-spectrum-dimension": (lambda: energy_optimal_filter(PAIR, THREE_LEVELS, 0.5),
                                  DimensionMismatch, "state and spectrum dimensions differ"),
    "water-fill-one-level": (lambda: coherence_optimal_filter_pure(product_pure_state(0.0, 2), 0.5),
                             DomainError, "state must populate at least two levels"),
    "closed-form-tsallis": (
        lambda: two_qubit_closed_form(0.1, 0.5, FilterTarget.COHERENCE_TSALLIS), DomainError,
        "no closed form for the Tsallis objective"),
    "tsallis-no-feasible-filter": (
        lambda: tsallis_optimal_filter(_infeasible_tsallis_state(), 1.0),
        UnreachableSuccessProbability, "no feasible filter attains"),
    "mixed-scan-population-floor": (
        lambda: mixed_scan(0.75, [0.3, 1e-7]), DomainError,
        r"populations p must have p\^2 >= 1e-14: at b = 0 the filter diag\(0, 0, 0, 1\) "
        r"passes p\^2 and annihilates the state below it \(p = 1e-07\)"),
    "frontier-spectrum-dimension": (
        lambda: trace_frontier(PAIR, THREE_LEVELS, FilterTarget.COHERENCE, FilterFamily.OPTIMAL),
        DimensionMismatch, "state and spectrum dimensions differ"),
    # svgplot
    "plot-no-series": (lambda: line_plot([], "x", "y"), ValueError, "nothing to plot"),
    "plot-empty-series": (lambda: line_plot([("a", [], [])], "x", "y"), ValueError,
                          "nothing to plot"),
}


@pytest.mark.parametrize("call, error, message", LIBRARY_CASES.values(), ids=list(LIBRARY_CASES))
def test_library_rejects(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


@pytest.mark.parametrize(
    "values",
    [[np.nan, 0.5, 1.0], [0.5, np.nan, 1.0], [0.5, 1.0, np.nan], [np.nan], [0.5, -np.inf, 1.0],
     [np.inf], [0.5, 1.0 + 2e-12], [0.5, -1.5, 0.2], [1.5, np.nan], []],
    ids=["nan-first", "nan-middle", "nan-last", "nan-alone", "inf", "inf-alone", "above-one",
         "below-minus-one", "above-one-then-nan", "no-coefficients"],
)
def test_filter_row_raises_what_the_constructor_raises(values):
    """``max`` over a list skips a NaN that is not first, so each value is
    tested; the error is the constructor's own, type and message."""
    with pytest.raises(StateValidationError) as row_error:
        diagonal_filter_row(values)
    with pytest.raises(StateValidationError) as constructor_error:
        DiagonalFilter(np.array(values, dtype=complex))
    assert type(row_error.value) is type(constructor_error.value)
    assert str(row_error.value) == str(constructor_error.value)


def test_filter_row_accepts_the_bound_and_freezes_its_coefficients():
    values = [0.0, -1.0, 0.25, 1.0 + 1e-12]
    filt = diagonal_filter_row(values)
    assert type(filt) is DiagonalFilter
    assert filt.coeffs.dtype == complex and not filt.coeffs.flags.writeable
    assert filt.coeffs.tobytes() == DiagonalFilter(np.array(values, dtype=complex)).coeffs.tobytes()
    with pytest.raises(ValueError):
        filt.coeffs[0] = 0.5
    values[0] = 0.5
    assert filt.coeffs[0] == 0.0


def test_the_plus_operator_bound_follows_from_completeness():
    """|plus|^2 + |minus|^2 = 1 within 1e-10 leaves |plus| <= 1 + 5e-11, so a
    stage with a plus operator near the largest one completeness admits is
    accepted, and one past it fails completeness."""
    plus = np.sqrt(1.0 + 0.9e-10)
    povm = SequentialPovm(stages=((np.diag([plus, 0.6]), np.diag([0.0, 0.8])),))
    assert abs(povm.stages[0][0][0, 0]) <= 1.0 + 5e-11
    with pytest.raises(StateValidationError, match="do not complete to identity"):
        SequentialPovm(stages=((np.diag([np.sqrt(1.0 + 2e-10), 0.6]), np.diag([0.0, 0.8])),))


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_inputs(tmp_path):
    (tmp_path / "bad.cfg").write_text("p 0.1\n")
    (tmp_path / "infeasible.txt").write_text(qstate_to_text(_infeasible_tsallis_state()))


FILTER_P01 = ["filter", "--p", "0.1", "--ps", "0.3"]
CLI_CASES = {
    "config-file-not-read": (
        [*FILTER_P01, "--target", "energy", "--config", "{tmp}/bad.cfg"], EXIT_USAGE,
        "unrecognized arguments: --config"),
    "config-without-path": (
        [*FILTER_P01, "--target", "energy", "--config"], EXIT_USAGE,
        "unrecognized arguments: --config"),
    "config-without-subcommand": (
        ["--config", "{tmp}/bad.cfg"], EXIT_USAGE, "argument command: invalid choice"),
    "spectrum-inf": (
        [*FILTER_P01, "--target", "energy", "--spectrum", "0,inf,1,2"], EXIT_DOMAIN,
        "energies must be finite"),
    "choi-amplitude-above-one": (
        ["choi", "--a", "1.5", "--b", "0.5", "--out", "{tmp}/chi.txt"], EXIT_DOMAIN,
        "filter amplitudes a, b must lie in"),
    "water-fill-one-level": (
        ["filter", "--p", "0", "--ps", "0.5", "--target", "coherence"],
        EXIT_DOMAIN, "state must populate at least two levels"),
    "mixed-scan-population-floor": (
        ["mixed-scan", "--eta", "0.75", "--p-min", "1e-8", "--p-max", "0.4", "--steps", "3",
         "--out-csv", "{tmp}/s.csv"],
        EXIT_DOMAIN, "populations p must have p^2 >= 1e-14"),
    "tsallis-no-feasible-filter": (
        ["filter", "--state", "{tmp}/infeasible.txt", "--ps", "1", "--target", "tsallis",
         "--spectrum", TWELVE_LEVELS],
        EXIT_DOMAIN, "no feasible filter attains"),
}


@pytest.mark.parametrize("argv, want_code, message", CLI_CASES.values(), ids=list(CLI_CASES))
def test_cli_rejects(capsys, tmp_path, argv, want_code, message):
    _write_inputs(tmp_path)
    code, out, err = _cli(capsys, *(token.format(tmp=tmp_path) for token in argv))
    assert code == want_code
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_mixed_scan_population_floor_is_the_annihilation_floor():
    # 1e-7 squares to just below 1e-14 and its successor to at least 1e-14:
    # the successor is scanned, and 1e-7 is rejected before its b = 0 point
    # would annihilate the state
    above = float(np.nextafter(1e-7, 1.0))
    assert 1e-7 * 1e-7 < 1e-14 <= above * above
    assert len(mixed_scan(0.75, [above, 2e-7])) == 2
    with pytest.raises(DomainError, match=r"p\^2 >= 1e-14"):
        mixed_scan(0.75, [above, 1e-7])


def test_iterate_report_is_its_stdout(capsys, tmp_path, monkeypatch):
    # "iterate ... > report.txt" keeps the report; the run writes no file
    monkeypatch.chdir(tmp_path)
    code, out, err = _cli(capsys, "iterate", "--p", "0.1")
    assert (code, err) == (EXIT_OK, "")
    assert out.endswith("\nPASS\n") and len(out.splitlines()) == 6
    assert list(tmp_path.iterdir()) == []
