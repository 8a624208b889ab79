"""coherence-forge: optimal diagonal quantum filters and their diagnostics.

Synthesizes filters that maximize output coherence or mean energy at fixed
success probability, traces the trade-off frontiers, validates the closed
forms against a brute-force oracle, rewrites pairwise iterative filtering
as a sequential two-outcome measurement protocol, and models a two-photon
interferometric implementation with process-matrix metrics.
"""

from .errors import (
    AnnihilatedState,
    DimensionMismatch,
    DomainError,
    InfeasibleGrid,
    StateValidationError,
    UnreachableSuccessProbability,
)
from .statecore import (
    DiagonalFilter,
    EnergySpectrum,
    QState,
    QubitParams,
    TWO_QUBIT_SPECTRUM,
    apply_filter,
    coherence,
    coherence_tsallis,
    dephase,
    mean_energy,
    mixed_qubit_product,
    product_pure_state,
    success_probability,
    tensor,
    tensor_filter,
)
from .synthesis import (
    FilterFamily,
    FilterTarget,
    FrontierPoint,
    MixedScanPoint,
    TwoQubitFilterParams,
    coherence_optimal_filter_pure,
    energy_optimal_filter,
    factorized_filter,
    mixed_scan,
    optimal_filter,
    plateau_threshold,
    thermal_benchmark_state,
    trace_frontier,
    tsallis_optimal_filter,
    two_qubit_closed_form,
)
from .oracle import OracleResult, grid_search, objective_value
from .iterative import (
    KrausSet,
    SequentialPovm,
    compose_iteration,
    reduced_kraus,
    sequential_povm,
    simulate_sequential,
)
from .optics import (
    ChoiMatrix,
    InterferometerSpec,
    PhaseProfile,
    apply_choi,
    choi_of_filter,
    compensate_phases,
    effective_filter,
    process_metrics,
)

__version__ = "0.1.0"
