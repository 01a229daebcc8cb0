"""Inner-product geometry for pseudo-hermitian operators.

A non-hermitian matrix can still generate unitary-like dynamics if it is
hermitian with respect to a deformed inner product ``<x, rho y>`` built from
a positive metric ``rho``.  This module provides the deformed products and
adjoints, construction of metrics from isomorphisms to a hermitian partner,
and a diagnosis routine that decides from the spectrum whether such a metric
exists and, when it does, builds one explicitly from the eigenvectors.

All functions are pure and operate on plain numpy arrays plus the validated
:class:`Metric` / :class:`Diagnosis` value types, so they can be mapped over
parameter sweeps without shared state.
"""

from dataclasses import dataclass, field
from typing import TypeAlias

import numpy as np

OperatorMatrix: TypeAlias = np.ndarray
StateVector: TypeAlias = np.ndarray

HERMITICITY_TOL = 1e-12
REALITY_TOL = 1e-9
COND_CAP = 1e8
METRIC_RESIDUAL_TOL = 1e-10
PRESERVATION_TOL = 1e-10


@dataclass(frozen=True)
class Metric:
    """A hermitian positive-definite matrix defining an inner product.

    Attributes:
        matrix: The metric entries; validated hermitian (to
            ``HERMITICITY_TOL``) and positive-definite on construction, then
            frozen read-only.
        min_eigenvalue: Smallest eigenvalue, reported so callers can judge
            how close the metric sits to the boundary of positivity.
    """

    matrix: OperatorMatrix
    min_eigenvalue: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("metric must be a square matrix")
        asymmetry = float(np.max(np.abs(matrix - matrix.conj().T)))
        if asymmetry > HERMITICITY_TOL:
            raise ValueError(f"metric must be hermitian, asymmetry {asymmetry:.3e}")
        smallest = float(np.linalg.eigvalsh(matrix)[0])
        if smallest <= 0.0:
            raise ValueError(
                f"metric must be positive-definite, smallest eigenvalue {smallest:.3e}"
            )
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "min_eigenvalue", smallest)

    @classmethod
    def identity(cls, dim: int) -> "Metric":
        """Return the canonical metric of the given dimension."""
        return cls(np.eye(dim, dtype=complex))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of a pseudo-hermiticity diagnosis.

    Attributes:
        spectrum: Eigenvalues sorted by (real, imaginary) part.
        spectrum_real: Whether every eigenvalue satisfies
            ``|Im| <= REALITY_TOL * (1 + |lambda|)``.
        diagonalizable: Whether the eigenvector matrix is numerically
            invertible (condition number within ``COND_CAP``) and the constructed
            metric verified internally.
        metric: A metric rendering the operator hermitian; present exactly
            when ``spectrum_real and diagonalizable``.
    """

    spectrum: tuple[complex, ...]
    spectrum_real: bool
    diagonalizable: bool
    metric: Metric | None


def eta_inner(x: StateVector, y: StateVector, eta: Metric) -> complex:
    """Evaluate the deformed inner product ``<x, eta y>``.

    Conjugate-linear in the first argument, linear in the second, matching
    the canonical product at ``eta = I``.

    Args:
        x: Bra-side state vector.
        y: Ket-side state vector.
        eta: Metric defining the product.

    Returns:
        The complex scalar ``<x, eta y>``.

    Raises:
        ValueError: If the vector and metric dimensions disagree.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (eta.dim,) or y.shape != (eta.dim,):
        raise ValueError("state dimensions must match the metric")
    return complex(np.vdot(x, eta.matrix @ y))


def rho_adjoint(a: OperatorMatrix, rho: Metric) -> OperatorMatrix:
    """Return the adjoint of ``a`` with respect to the metric inner product.

    The deformed adjoint is ``rho^-1 a^dag rho``; an operator equal to its
    own deformed adjoint is hermitian for the metric product.

    Args:
        a: Operator matrix.
        rho: Metric defining the product.

    Returns:
        The matrix of the deformed adjoint.

    Raises:
        ValueError: If the operator dimension does not match the metric.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (rho.dim, rho.dim):
        raise ValueError("operator dimension must match the metric")
    return np.linalg.solve(rho.matrix, a.conj().T @ rho.matrix)


def is_rho_hermitian(
    a: OperatorMatrix, rho: Metric, tol: float = METRIC_RESIDUAL_TOL
) -> bool:
    """Check ``rho a == a^dag rho`` entrywise within ``tol``."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (rho.dim, rho.dim):
        raise ValueError("operator dimension must match the metric")
    residual = np.max(np.abs(rho.matrix @ a - a.conj().T @ rho.matrix))
    return bool(residual <= tol)


def metric_from_isomorphism(u: OperatorMatrix, eta: Metric | None = None) -> Metric:
    """Pull a metric back through an isomorphism to a hermitian partner.

    If ``u`` maps the deformed system onto a partner that is hermitian for
    ``eta``, the deformed system is hermitian for the returned metric
    ``(u^dag)^-1 eta u^-1``; with ``eta = I`` this is ``(u u^dag)^-1``.

    Args:
        u: Invertible isomorphism matrix.
        eta: Metric on the partner side; identity when omitted.

    Returns:
        The pulled-back metric, validated hermitian positive-definite.

    Raises:
        ValueError: If ``u`` is not square, is singular, or its dimension
            does not match ``eta``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise ValueError("isomorphism must be a square matrix")
    if eta is None:
        eta = Metric.identity(u.shape[0])
    if eta.dim != u.shape[0]:
        raise ValueError("isomorphism dimension must match the metric")
    try:
        u_inv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise ValueError("isomorphism must be invertible") from exc
    rho = u_inv.conj().T @ eta.matrix @ u_inv
    return Metric(0.5 * (rho + rho.conj().T))


def diagnose(a: OperatorMatrix) -> Diagnosis:
    """Decide whether an operator admits a positive metric, and build one.

    The spectrum is computed first; the operator is metric-compatible
    exactly when every eigenvalue is real (within
    ``REALITY_TOL * (1 + |lambda|)``) and the eigenvector matrix ``s`` is
    numerically invertible (condition number at most ``COND_CAP``).  In that
    case the eigenvector columns are scaled to unit norm, so the construction
    is reproducible, and the metric ``(s s^dag)^-1`` is returned after an
    internal verification that it actually renders the operator hermitian.
    A verification failure or a non-positive candidate downgrades the
    ``diagonalizable`` flag instead of raising: near a spectral degeneracy
    the condition number is only a proxy, and the residual is the honest
    arbiter.

    Args:
        a: Operator matrix to classify.

    Returns:
        A :class:`Diagnosis`; the metric is present exactly when
        ``spectrum_real and diagonalizable``.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("operator must be a square matrix")
    values, vectors = np.linalg.eig(a)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    spectrum = tuple(complex(v) for v in values)
    spectrum_real = bool(
        all(abs(v.imag) <= REALITY_TOL * (1.0 + abs(v)) for v in spectrum)
    )
    cond = float(np.linalg.cond(vectors))
    diagonalizable = bool(np.isfinite(cond) and cond <= COND_CAP)
    if not (spectrum_real and diagonalizable):
        return Diagnosis(spectrum, spectrum_real, diagonalizable, None)
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    gram = vectors @ vectors.conj().T
    rho = np.linalg.inv(gram)
    try:
        metric = Metric(0.5 * (rho + rho.conj().T))
    except ValueError:
        return Diagnosis(spectrum, spectrum_real, False, None)
    residual_tol = METRIC_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(a))))
    if not is_rho_hermitian(a, metric, tol=residual_tol):
        return Diagnosis(spectrum, spectrum_real, False, None)
    return Diagnosis(spectrum, spectrum_real, True, metric)


def verify_rho_preserving(s: OperatorMatrix, rho: Metric) -> bool:
    """Check that a transformation preserves the metric, ``s^dag rho s == rho``.

    Metric-preserving maps play the role unitaries play for the canonical
    product; evolution generated by a metric-hermitian operator passes this
    check at every time.

    Args:
        s: Transformation matrix.
        rho: Metric that should be preserved.

    Returns:
        True iff ``max |s^dag rho s - rho| <= PRESERVATION_TOL``.

    Raises:
        ValueError: If dimensions disagree.
    """
    s = np.asarray(s, dtype=complex)
    if s.shape != (rho.dim, rho.dim):
        raise ValueError("transformation dimension must match the metric")
    deviation = np.max(np.abs(s.conj().T @ rho.matrix @ s - rho.matrix))
    return bool(deviation <= PRESERVATION_TOL)
