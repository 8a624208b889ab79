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
    process_metrics,
    product_pure_state,
    simulate_sequential,
    trace_frontier,
    tsallis_optimal_filter,
    two_qubit_closed_form,
)
from coherence_forge.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from coherence_forge.oracle import check_search_args
from coherence_forge.statecore import qstate_to_text
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
    (tmp_path / "good.cfg").write_text("p = 0.1\n")
    (tmp_path / "infeasible.txt").write_text(qstate_to_text(_infeasible_tsallis_state()))


FILTER_P01 = ["filter", "--p", "0.1", "--ps", "0.3"]
CLI_CASES = {
    "config-not-key-value": (
        ["filter", "--config", "{tmp}/bad.cfg"], EXIT_USAGE, "config line is not key=value"),
    "config-without-path": (["filter", "--config"], EXIT_USAGE, "--config needs a path"),
    "config-without-subcommand": (
        ["--config", "{tmp}/good.cfg"], EXIT_USAGE, "--config requires a subcommand"),
    "closed-form-tsallis": (
        [*FILTER_P01, "--target", "tsallis"], EXIT_DOMAIN, "no closed form for the tsallis"),
    "spectrum-inf": (
        [*FILTER_P01, "--target", "energy", "--spectrum", "0,inf,1,2"], EXIT_DOMAIN,
        "energies must be finite"),
    "choi-amplitude-above-one": (
        ["choi", "--a", "1.5", "--b", "0.5", "--out", "{tmp}/chi.txt"], EXIT_DOMAIN,
        "filter amplitudes a, b must lie in"),
    "water-fill-one-level": (
        ["filter", "--p", "0", "--ps", "0.5", "--target", "coherence", "--mode", "general"],
        EXIT_DOMAIN, "state must populate at least two levels"),
    "tsallis-no-feasible-filter": (
        ["filter", "--state", "{tmp}/infeasible.txt", "--ps", "1", "--target", "tsallis",
         "--mode", "general", "--spectrum", TWELVE_LEVELS],
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


def test_iterate_writes_its_report(capsys, tmp_path):
    path = tmp_path / "report.txt"
    code, out, err = _cli(capsys, "iterate", "--p", "0.1", "--out", str(path))
    assert code == EXIT_OK
    assert err == ""
    assert path.read_text(encoding="utf-8") == out
    assert out.splitlines()[-1] == "PASS"
