"""The package's public surface."""

from types import ModuleType

import pseudospin

# Every public name of ``pseudospin``, pinned so that adding a second path
# to the same job, or dropping one, edits this list on purpose.
PUBLIC_NAMES = [
    "AlgebraSpec", "CanonicalLimitReport", "CheckResult", "ComplexOrthogonal",
    "Diagnosis", "GROUPS", "Generator", "GilbertParams", "GrassmannElement",
    "GroupResult", "HermitianCounterpart", "Isomorphism", "Metric", "PAULI",
    "Realization", "RegimeReport", "TransitionSeries", "TwoSpinParams",
    "algebra_from_json", "algebra_to_json", "block_decompose", "build_free",
    "build_interaction", "build_single_spin", "build_total",
    "canonical_constraints", "canonical_limit_check", "check_relations",
    "closed_spectrum", "commutation_factor", "constraint_reduce",
    "correspondence_check", "damping_threshold", "diagnose", "diagnosis_to_json",
    "dirac_bracket", "element_from_json", "element_to_json", "eta_inner",
    "evolve", "gilbert_fields", "graded_poisson", "hermitian_counterpart",
    "is_plus_real", "is_rho_hermitian", "left_derivative", "matrix_from_json",
    "matrix_to_json", "metric_from_isomorphism", "multiply", "paper_isomorphism",
    "pauli_realization", "plus_involution", "pushforward_field", "quantize",
    "random_orthogonal", "rho_adjoint", "right_derivative", "run_groups",
    "similarity_transport", "star_involution", "tensor_realization",
    "transform_coefficients", "transition_series", "two_spin_field_transform",
    "vector_from_json", "vector_to_json", "verify_orthogonal",
    "verify_rho_preserving", "write_csv",
]


def test_public_names_are_pinned():
    names = sorted(
        name for name, value in vars(pseudospin).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    )
    assert names == sorted(PUBLIC_NAMES)
