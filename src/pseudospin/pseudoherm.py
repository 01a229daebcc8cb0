"""Inner-product geometry for pseudo-hermitian operators.

A non-hermitian matrix can still generate unitary-like dynamics if it is
hermitian with respect to a deformed inner product ``<x, rho y>`` built from
a positive metric ``rho``.  This module provides the deformed products and
adjoints, construction of metrics from isomorphisms to a hermitian partner,
and a diagnosis routine that decides from the spectrum whether such a metric
exists and, when it does, builds one explicitly from the eigenvectors.

All functions are pure and operate on plain numpy arrays plus the validated
:class:`Metric` / :class:`Diagnosis` value types, so they can be mapped over
parameter sweeps without shared state.  Each takes ``(..., n, n)`` stacks and
returns one result of stacked arrays, each entry with its own call's bits.
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


@dataclass(frozen=True, eq=False)
class Metric:
    """A hermitian positive-definite matrix defining an inner product.

    A ``(..., n, n)`` stack is checked in one pass, the first failing entry named.

    Attributes:
        matrix: The metric entries; validated finite, hermitian (to
            ``HERMITICITY_TOL * max|M|``) and positive-definite on
            construction, then frozen read-only.
        min_eigenvalue: Smallest eigenvalue (a read-only array for a stack),
            so callers can judge how close the metric sits to positivity's edge.
    """

    matrix: OperatorMatrix
    min_eigenvalue: float | np.ndarray = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        matrix = np.array(self.matrix, dtype=complex)
        if matrix.ndim < 2 or matrix.shape[-2] != matrix.shape[-1]:
            raise ValueError("metric must be a square matrix")
        low, failures = _metric_failures(matrix)
        for k, failure in enumerate(failures):
            if failure:
                raise ValueError(failure + ("" if matrix.ndim == 2 else f" at stack entry {k}"))
        matrix.setflags(write=False)
        low.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "min_eigenvalue", low if low.ndim else float(low))

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def _metric_failures(matrix: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Each stack entry's smallest eigenvalue and first failed check, or None."""
    stack = matrix.reshape(-1, *matrix.shape[-2:])
    finite = np.isfinite(stack).all(axis=(-2, -1))
    # eigvalsh raises on a non-finite entry, which fails as non-finite instead
    stack = stack if finite.all() else np.where(finite[:, None, None], stack, 0.0)
    skew = np.abs(stack - stack.conj().mT).max(axis=(-2, -1))
    cap = HERMITICITY_TOL * np.abs(stack).max(axis=(-2, -1))
    low = np.linalg.eigvalsh(stack)[:, 0]
    return low.reshape(matrix.shape[:-2]), [
        "metric entries must be finite" if not ok
        else f"metric must be hermitian, asymmetry {s:.3e}" if s > c
        else f"metric must be positive-definite, smallest eigenvalue {e:.3e}" if e <= 0.0
        else None
        for ok, s, c, e in zip(finite.tolist(), skew.tolist(), cap.tolist(), low.tolist())
    ]


@dataclass(frozen=True, eq=False)
class Diagnosis:
    """Outcome of a pseudo-hermiticity diagnosis.

    Attributes:
        spectrum: Eigenvalues sorted by (real, imaginary) part; rows of an
            ``(..., n)`` array for a stack, whose flags are ``(...)`` arrays.
        spectrum_real: Whether every eigenvalue satisfies
            ``|Im| <= REALITY_TOL * max|A|``, A the diagnosed operator.
        diagonalizable: Whether the eigenvector matrix is numerically
            invertible (condition number within ``COND_CAP``) and the constructed
            metric verified internally.
        metric: A metric rendering the operator hermitian; present exactly
            when ``spectrum_real and diagonalizable``.  For a stack, one
            ``(k, n, n)`` stack of those entries' metrics, in C order.
    """

    spectrum: tuple[complex, ...] | np.ndarray
    spectrum_real: bool | np.ndarray
    diagonalizable: bool | np.ndarray
    metric: Metric | None


def eta_inner(x: StateVector, y: StateVector, eta: Metric) -> complex | np.ndarray:
    """Evaluate the deformed inner product ``<x, eta y>``.

    Conjugate-linear in the first argument, linear in the second, matching
    the canonical product at ``eta = I``.  The states may be stacked: the
    last axis holds the components and the leading axes broadcast, so one
    call evaluates a whole time series.  Every product is the same
    matrix-vector and vector-vector kernel, so a stacked entry has the bits
    of the call on its own pair of states.

    Args:
        x: Bra-side state(s), shape ``(..., n)``.
        y: Ket-side state(s), shape ``(..., n)``.
        eta: Metric defining the product, of dimension ``n``.

    Returns:
        The complex scalar ``<x, eta y>`` for two 1-D states; otherwise an
        array of the broadcast leading shape.

    Raises:
        ValueError: If a state's last axis does not match the metric
            dimension.
    """
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape[-1:] != (eta.dim,) or y.shape[-1:] != (eta.dim,):
        raise ValueError("state dimensions must match the metric")
    product = np.matmul(
        x.conj()[..., None, :], np.matmul(eta.matrix, y[..., None])
    )[..., 0, 0]
    return complex(product) if product.ndim == 0 else product


def rho_adjoint(a: OperatorMatrix, rho: Metric) -> OperatorMatrix:
    """Return the adjoint of ``a`` with respect to the metric inner product.

    The deformed adjoint is ``rho^-1 a^dag rho``; an operator equal to its
    own deformed adjoint is hermitian for the metric product.

    Args:
        a: Operator matrix, or a ``(..., n, n)`` stack.
        rho: Metric defining the product, or a stack broadcasting with ``a``.

    Returns:
        The matrix (or stack) of the deformed adjoint.

    Raises:
        ValueError: If the operator dimension does not match the metric.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (rho.dim, rho.dim):
        raise ValueError("operator dimension must match the metric")
    return np.linalg.solve(rho.matrix, a.conj().mT @ rho.matrix)


def is_rho_hermitian(
    a: OperatorMatrix, rho: Metric, tol: float = METRIC_RESIDUAL_TOL
) -> bool | np.ndarray:
    """Check ``rho a == a^dag rho`` entrywise within ``tol``: a bool for one
    pair, else one verdict per entry of the broadcast stacks."""
    a = np.asarray(a, dtype=complex)
    if a.shape[-2:] != (rho.dim, rho.dim):
        raise ValueError("operator dimension must match the metric")
    verdict = _rho_residuals(a, rho.matrix) <= tol
    return bool(verdict) if verdict.ndim == 0 else verdict


def _rho_residuals(a: OperatorMatrix, rho: np.ndarray) -> np.ndarray:
    """max|rho a - a^dag rho| of each pair in ``(..., n, n)`` stacks."""
    return np.max(np.abs(rho @ a - a.conj().mT @ rho), axis=(-2, -1))


def metric_from_isomorphism(u: OperatorMatrix, eta: Metric | None = None) -> Metric:
    """Pull a metric back through an isomorphism to a hermitian partner.

    If ``u`` maps the deformed system onto a partner that is hermitian for
    ``eta``, the deformed system is hermitian for the returned metric
    ``(u^dag)^-1 eta u^-1``; with ``eta = I`` this is ``(u u^dag)^-1``.

    Args:
        u: Invertible isomorphism matrix, or a ``(..., n, n)`` stack.
        eta: Metric on the partner side, or a stack; identity when omitted.

    Returns:
        The pulled-back metric (or stack), validated hermitian positive-definite.

    Raises:
        ValueError: If ``u`` is not square, is singular, or its dimension
            does not match ``eta``.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-2] != u.shape[-1]:
        raise ValueError("isomorphism must be a square matrix")
    if eta is not None and eta.dim != u.shape[-1]:
        raise ValueError("isomorphism dimension must match the metric")
    try:
        u_inv = np.linalg.inv(u)
    except np.linalg.LinAlgError as exc:
        raise ValueError("isomorphism must be invertible") from exc
    eta = np.eye(u.shape[-1], dtype=complex) if eta is None else eta.matrix
    rho = u_inv.conj().mT @ eta @ u_inv
    return Metric(0.5 * (rho + rho.conj().mT))


def diagnose(a: OperatorMatrix) -> Diagnosis:
    """Decide whether an operator admits a positive metric, and build one.

    The spectrum is computed first; the operator is metric-compatible
    exactly when every |Im lambda| is within ``REALITY_TOL * max|a|`` and
    the eigenvector matrix ``s`` is numerically invertible (condition number
    at most ``COND_CAP``).  Then the columns of ``s`` are scaled to unit
    norm, so the construction is reproducible, and the metric ``(s s^dag)^-1``
    is returned once its residual is within ``METRIC_RESIDUAL_TOL * max|a|``.
    A verification failure or a non-positive candidate downgrades the
    ``diagonalizable`` flag instead of raising: near a spectral degeneracy
    the condition number is only a proxy, and the residual is the honest
    arbiter.

    The operators may be stacked along leading axes.  Every step, the
    residual gate and ``Metric`` check included, runs the same LAPACK or BLAS
    routine on each matrix, so a stacked entry has the bits of its own call.

    Args:
        a: Operator matrix to classify, shape ``(n, n)`` or ``(..., n, n)``.

    Returns:
        One :class:`Diagnosis`: of scalars and a ``Metric`` or None for one
        matrix, of stacked arrays and one ``Metric`` stack for a stack.

    Raises:
        ValueError: If ``a`` is not a non-empty square matrix or stack, or
            holds a non-finite entry (its stack entry named).
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1] or not a.shape[-1]:
        raise ValueError("operator must be a square matrix")
    stack = a.reshape(-1, *a.shape[-2:])
    for k in np.flatnonzero(~np.isfinite(stack).all(axis=(-2, -1)))[:1].tolist():
        at = "" if a.ndim == 2 else f" at stack entry {k}"
        raise ValueError("operator entries must be finite" + at)
    values, vectors = np.linalg.eig(stack)
    order = np.lexsort((values.imag, values.real))
    values = np.take_along_axis(values, order, -1)
    vectors = np.take_along_axis(vectors, order[:, None, :], -1)
    scale = np.max(np.abs(stack), axis=(-2, -1))
    spectrum_real = np.all(np.abs(values.imag) <= REALITY_TOL * scale[:, None], -1)
    cond = np.linalg.cond(vectors)
    diagonalizable = np.isfinite(cond) & (cond <= COND_CAP)
    ok = np.flatnonzero(spectrum_real & diagonalizable)
    unit = vectors[ok] / np.linalg.norm(vectors[ok], axis=-2, keepdims=True)
    rho = np.linalg.inv(unit @ unit.conj().mT)
    rho = 0.5 * (rho + rho.conj().mT)
    hermitized = _rho_residuals(stack[ok], rho) <= METRIC_RESIDUAL_TOL * scale[ok]
    keep, candidates = ok[hermitized], rho[hermitized]
    try:
        checked = Metric(candidates)
    except ValueError:  # a candidate failed Metric's checks: only it gets none
        passing = [failure is None for failure in _metric_failures(candidates)[1]]
        keep, checked = keep[passing], Metric(candidates[passing])
    diagonalizable[ok] = False  # a real spectrum without a metric is not diagonalizable
    diagonalizable[keep] = True
    flags = spectrum_real.reshape(a.shape[:-2]), diagonalizable.reshape(a.shape[:-2])
    if a.ndim > 2:
        return Diagnosis(values.reshape(a.shape[:-1]), *flags, checked)
    metric = Metric(checked.matrix[0]) if len(keep) else None
    return Diagnosis(tuple(values[0].tolist()), *map(bool, flags), metric)
