"""Pre- and post-selected quantum systems at desk scale.

States prepared at an early time and found at a late time are described by a
pair of evolving states; measurements between the two selections follow
conditional rules this package implements analytically and validates with a
seeded Monte-Carlo oracle and a discretized von Neumann pointer model.
"""

from .algebra import (
    LinearOperator,
    SpectralObservable,
    StateVector,
    Unitary,
    basis_state,
    beamsplitter,
    bell_basis,
    detector_basis,
    expand_observable,
    identity_observable,
    inner_product,
    pauli,
    pauli_operator,
    spin_observable,
    spin_state,
    state_projector_observable,
    tensor,
    which_path,
)
from .checks import ChecksReport, run_paper_checks
from .errors import (
    AllRejectedError,
    DimensionMismatchError,
    InsufficientAcceptedTrialsError,
    NormalizationError,
    ObservableError,
    PointerGridError,
    ScenarioFormatError,
    TwoStateError,
    ZeroDenominatorError,
    ZeroOverlapError,
)
from .montecarlo import (
    EnsembleStats,
    MeasureStage,
    UnitaryStage,
    compare_counts,
    compare_to_abl,
    simulate,
)
from .pointer import (
    CouplingSpec,
    JointState,
    PointerState,
    couple,
    make_gaussian_pointer,
    post_selected_mean_shift,
    post_selected_momentum_mean,
    post_selected_pointer,
    readout,
)
from .rules import (
    OutcomeDistribution,
    TwoStateVector,
    abl_probabilities,
    born_probabilities,
    elements_of_reality,
    product_rule_audit,
    total_probability_check,
    weak_value,
)
from .scenarios import (
    ScenarioReport,
    ScenarioSpec,
    WeakStage,
    builtin,
    builtin_names,
    load_scenario,
    run_scenario,
    to_document,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
