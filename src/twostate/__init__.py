"""Pre- and post-selected quantum systems at desk scale.

States prepared at an early time and found at a late time are described by a
pair of evolving states; measurements between the two selections follow
conditional rules this package implements analytically and validates with a
seeded Monte-Carlo oracle and a discretized von Neumann pointer model.

Each layer loads on first use: ``import twostate`` imports no submodule, and
``twostate.simulate`` (or ``twostate.montecarlo``) imports ``montecarlo`` the
first time it is read.
"""

import importlib

# every public name, under the submodule that defines it
_EXPORTS = {
    "algebra": (
        "LinearOperator", "SpectralObservable", "StateVector", "Unitary", "basis_state", "beamsplitter",
        "bell_basis", "detector_basis", "expand_observable", "identity_observable", "inner_product", "pauli",
        "pauli_operator", "spin_observable", "spin_state", "state_projector_observable", "tensor", "which_path",
    ),
    "checks": ("ChecksReport", "run_paper_checks"),
    "errors": (
        "AllRejectedError", "DimensionMismatchError", "InsufficientAcceptedTrialsError", "NormalizationError",
        "ObservableError", "PointerGridError", "ScenarioFormatError", "TwoStateError", "ZeroDenominatorError",
        "ZeroOverlapError",
    ),
    "montecarlo": ("EnsembleStats", "MeasureStage", "UnitaryStage", "compare_counts", "compare_to_abl", "simulate"),
    "pointer": (
        "CouplingSpec", "JointState", "PointerState", "couple", "make_gaussian_pointer", "post_selected_mean_shift",
        "post_selected_momentum_mean", "post_selected_pointer", "readout",
    ),
    "rules": (
        "OutcomeDistribution", "TwoStateVector", "abl_probabilities", "born_probabilities", "elements_of_reality",
        "product_rule_audit", "total_probability_check", "weak_value",
    ),
    "scenarios": (
        "ScenarioReport", "ScenarioSpec", "WeakStage", "builtin", "builtin_names", "load_scenario", "run_scenario",
        "to_document",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_SOURCE])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
