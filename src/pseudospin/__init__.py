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
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
)
from pseudospin.formats import (
    algebra_from_json,
    algebra_to_json,
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
    commutation_factor,
    constraint_reduce,
    dirac_bracket,
    graded_poisson,
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
)
from pseudospin.quantize import (
    PAULI,
    Realization,
    check_relations,
    correspondence_check,
    quantize,
    tensor_realization,
)
from pseudospin.twospin import (
    HermitianCounterpart,
    Isomorphism,
    RegimeReport,
    TransitionSeries,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    damping_threshold,
    evolve,
    hermitian_counterpart,
    matched_eigenvalues,
    paper_isomorphism,
    transition_series,
)
from pseudospin.verify import GROUPS, CheckResult, GroupResult, run_groups

__version__ = "0.1.0"
