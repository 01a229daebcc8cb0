"""Complex orthogonal canonical transformations and their transport maps.

Linear generator maps ``zeta = Lambda xi`` preserve the canonical bracket
table exactly when ``Lambda Lambda^T = I`` with complex entries, so the
canonical group is the complex orthogonal group.  This module validates
such matrices, samples them as Cayley transforms, and transports
antisymmetric coefficient tables (by per-family minors of a block-diagonal
``Lambda``) and field vectors along them.
"""

import math
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from pseudospin.grassmann import GrassmannElement, _substitute

__all__ = [
    "ComplexOrthogonal",
    "FieldVector",
    "pushforward_field",
    "random_orthogonal",
    "transform_coefficients",
    "verify_orthogonal",
]

#: Max-norm tolerance on Lambda Lambda^T - I.
ORTHO_TOL = 1e-10
#: Tolerance for snapping the determinant to +1 or -1.
DET_TOL = 1e-8
#: Tolerance for the bilinear invariant of pushed-forward fields.
INVARIANT_TOL = 1e-10

#: Complex 3-vector of classical field components.
FieldVector: TypeAlias = np.ndarray


@dataclass(frozen=True)
class ComplexOrthogonal:
    """Validated complex orthogonal matrix.

    Attributes:
        n: Matrix dimension.
        entries: The matrix itself, stored read-only.
        det: Determinant snapped to +1.0 or -1.0.
    """

    n: int
    entries: np.ndarray
    det: float

    def __post_init__(self) -> None:
        self.entries.setflags(write=False)


def verify_orthogonal(matrix: np.ndarray) -> ComplexOrthogonal:
    """Validate ``Lambda Lambda^T = I`` and wrap the result.

    Args:
        matrix: Square complex matrix.

    Returns:
        The validated matrix with its determinant snapped to +1 or -1.

    Raises:
        ValueError: If the matrix is not square, the residual exceeds
            ``ORTHO_TOL``, or the determinant is not within ``DET_TOL`` of
            +1 or -1.
    """
    entries = np.array(matrix, dtype=complex)
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise ValueError("expected a square matrix")
    return _verified(entries[None])[0]


def _verified(stack: np.ndarray) -> list[ComplexOrthogonal]:
    """:func:`verify_orthogonal` on each matrix of an ``(m, n, n)`` stack."""
    n = stack.shape[-1]
    residuals = np.max(np.abs(stack @ stack.mT - np.eye(n)), axis=(-2, -1))
    out = []
    for entries, residual, det in zip(stack, residuals, np.linalg.det(stack)):
        if residual > ORTHO_TOL:
            raise ValueError(
                f"orthogonality residual {residual:.3e} exceeds {ORTHO_TOL:.1e}"
            )
        if abs(det - 1.0) <= DET_TOL:
            snapped = 1.0
        elif abs(det + 1.0) <= DET_TOL:
            snapped = -1.0
        else:
            raise ValueError(f"determinant {det} is not close to +1 or -1")
        out.append(ComplexOrthogonal(n=n, entries=entries, det=snapped))
    return out


def random_orthogonal(n: int, seed: int | None = None) -> ComplexOrthogonal:
    """Draw a random complex orthogonal matrix.

    The matrix is the Cayley transform ``(I - A)^-1 (I + A)`` of a complex
    antisymmetric ``A`` with independent real and imaginary parts, capped at
    2-norm ``tanh(3/4)`` so that ``||Lambda||_2 <= e^1.5``; it is orthogonal
    with determinant +1 by construction.  A reflection is applied with
    probability one half, so both determinant components are sampled.

    Args:
        n: Dimension.
        seed: Seed for the underlying generator; None draws fresh entropy.
    """
    return _random_orthogonals(np.random.default_rng(seed), n, 1)[0]


def _random_orthogonals(rng: np.random.Generator, n: int, count: int) -> list[ComplexOrthogonal]:
    """``count`` draws of :func:`random_orthogonal` from one generator, with
    stacked linear algebra; each ``verify`` group passes its own."""
    real, imag = np.moveaxis(rng.standard_normal((count, 2, n, n)), 1, 0)
    gen = 0.5 * (real - real.mT) + 0.5j * (imag - imag.mT)
    norm = np.linalg.norm(gen, 2, axis=(-2, -1))
    cap = math.tanh(0.75)
    over = norm > cap
    gen[over] *= (cap / norm[over])[:, None, None]
    entries = np.linalg.solve(np.eye(n) - gen, np.eye(n) + gen)
    entries[rng.random(count) < 0.5, 0, :] *= -1.0
    return _verified(entries)


def pushforward_field(field: FieldVector, lam: ComplexOrthogonal) -> FieldVector:
    """Transport a field vector along a canonical transformation.

    The transported field is ``det(Lambda) Lambda field``; the determinant
    factor makes the quadratic spin Hamiltonian covariant.  The bilinear
    square ``F . F`` (no conjugation) is an exact invariant, zero on a null
    field, and is verified to ``INVARIANT_TOL * |field|^2`` before returning.

    Raises:
        RuntimeError: If the bilinear invariant drifts beyond that bound,
            signalling numerical degradation.
    """
    b = np.asarray(field, dtype=complex)
    if b.shape != (lam.n,):
        raise ValueError(f"field must have shape ({lam.n},)")
    f = lam.det * lam.entries @ b
    drift = abs(f @ f - b @ b)
    if drift > INVARIANT_TOL * np.vdot(b, b).real:
        raise RuntimeError(f"bilinear invariant drifted by {drift:.3e}")
    return f


def transform_coefficients(
    f: GrassmannElement, lam: ComplexOrthogonal
) -> GrassmannElement:
    """Re-express an element in the transformed generator basis.

    For ``zeta = Lambda xi`` the degree-k coefficient table transports with
    k x k minors of ``Lambda``: the new coefficient of the ordered monomial
    ``zeta_J`` is ``sum_I det(Lambda[J, I]) c_I`` over ordered index tuples,
    family by family.  ``Lambda`` must be block-diagonal, so that the map is an algebra
    automorphism; a cross-family entry raises ``ValueError``.

    Args:
        f: Element with coordinate monomials only.
        lam: Transformation with matching dimension.

    Returns:
        Element over the same algebra holding the transported table.
    """
    return _substitute(f, lam.entries)
