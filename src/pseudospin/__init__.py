"""Covariant quantization of pseudoclassical spin and pseudo-hermitian analysis.

The package builds up in layers: a symbolic Grassmann algebra with graded
Poisson and Dirac brackets (:mod:`pseudospin.grassmann`), complex orthogonal
canonical transformations (:mod:`pseudospin.canon`), the quantization map
onto Pauli-string realizations (:mod:`pseudospin.quantize`), pseudo-hermitian
diagnostics and metric construction (:mod:`pseudospin.pseudoherm`), and a
two-coupled-spin model with damping-like complex fields as the worked example
(:mod:`pseudospin.twospin`).  Serialization lives in
:mod:`pseudospin.formats`, seeded invariant suites in
:mod:`pseudospin.verify`, and the command line front end in
:mod:`pseudospin.cli`.
"""

from pseudospin.canon import (
    ComplexOrthogonal,
    block_decompose,
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
    two_spin_field_transform,
    verify_orthogonal,
)
from pseudospin.formats import (
    algebra_from_json,
    algebra_to_json,
    diagnosis_to_json,
    element_from_json,
    element_to_json,
    matrix_from_json,
    matrix_to_json,
    vector_from_json,
    vector_to_json,
    write_csv,
)
from pseudospin.grassmann import (
    AlgebraSpec,
    Generator,
    GrassmannElement,
    canonical_constraints,
    canonicalize,
    commutation_factor,
    dirac_bracket,
    graded_poisson,
    is_plus_real,
    left_derivative,
    multiply,
    plus_involution,
    right_derivative,
    star_involution,
)
from pseudospin.pseudoherm import (
    Diagnosis,
    Metric,
    diagnose,
    eta_inner,
    is_rho_hermitian,
    metric_from_isomorphism,
    rho_adjoint,
    verify_rho_preserving,
)
from pseudospin.quantize import (
    PAULI,
    Realization,
    check_relations,
    constraint_reduce,
    correspondence_check,
    pauli_realization,
    quantize,
    similarity_transport,
    tensor_realization,
)
from pseudospin.twospin import (
    CanonicalLimitReport,
    GilbertParams,
    HermitianCounterpart,
    Isomorphism,
    RegimeReport,
    TransitionResult,
    TransitionSeries,
    TwoSpinParams,
    build_free,
    build_interaction,
    build_single_spin,
    build_total,
    canonical_limit_check,
    closed_spectrum,
    damping_threshold,
    evolve,
    gilbert_fields,
    hermitian_counterpart,
    paper_isomorphism,
    transition_probability,
    transition_series,
)
from pseudospin.verify import GROUPS, CheckResult, GroupResult, run_groups

__version__ = "0.1.0"
