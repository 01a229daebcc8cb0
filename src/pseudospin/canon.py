"""Complex orthogonal canonical transformations and their transport maps.

Linear generator maps ``zeta = Lambda xi`` preserve the canonical bracket
table exactly when ``Lambda Lambda^T = I`` with complex entries, so the
canonical group is the complex orthogonal group.  This module validates
such matrices, samples them as Cayley transforms, and transports
antisymmetric coefficient tables and field vectors along them.
"""

import math
from dataclasses import dataclass
from itertools import combinations
from typing import TypeAlias

import numpy as np

from pseudospin.grassmann import GrassmannElement, _accumulate, _bits

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
    """Validate ``matrix Lambda^T = I`` and wrap the result.

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
    n = entries.shape[0]
    residual = np.max(np.abs(entries @ entries.T - np.eye(n)))
    if residual > ORTHO_TOL:
        raise ValueError(
            f"orthogonality residual {residual:.3e} exceeds {ORTHO_TOL:.1e}"
        )
    det = np.linalg.det(entries)
    if abs(det - 1.0) <= DET_TOL:
        snapped = 1.0
    elif abs(det + 1.0) <= DET_TOL:
        snapped = -1.0
    else:
        raise ValueError(f"determinant {det} is not close to +1 or -1")
    return ComplexOrthogonal(n=n, entries=entries, det=snapped)


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
    rng = np.random.default_rng(seed)
    real = rng.standard_normal((n, n))
    imag = rng.standard_normal((n, n))
    gen = 0.5 * (real - real.T) + 0.5j * (imag - imag.T)
    norm = np.linalg.norm(gen, 2)
    cap = math.tanh(0.75)
    if norm > cap:
        gen *= cap / norm
    entries = np.linalg.solve(np.eye(n) - gen, np.eye(n) + gen)
    if rng.random() < 0.5:
        entries = entries.copy()
        entries[0, :] *= -1.0
    return verify_orthogonal(entries)


def pushforward_field(field: FieldVector, lam: ComplexOrthogonal) -> FieldVector:
    """Transport a field vector along a canonical transformation.

    The transported field is ``det(Lambda) Lambda field``; the determinant
    factor makes the quadratic spin Hamiltonian covariant.  The bilinear
    square ``F . F`` (no conjugation) is an exact invariant and is verified
    before returning.

    Raises:
        RuntimeError: If the bilinear invariant drifts beyond
            :data:`INVARIANT_TOL`, signalling numerical degradation.
    """
    b = np.asarray(field, dtype=complex)
    if b.shape != (lam.n,):
        raise ValueError(f"field must have shape ({lam.n},)")
    f = lam.det * lam.entries @ b
    drift = abs(f @ f - b @ b)
    if drift > INVARIANT_TOL * (1.0 + abs(b @ b)):
        raise RuntimeError(f"bilinear invariant drifted by {drift:.3e}")
    return f


def transform_coefficients(
    f: GrassmannElement, lam: ComplexOrthogonal
) -> GrassmannElement:
    """Re-express an element in the transformed generator basis.

    For ``zeta = Lambda xi`` the degree-k coefficient table transports with
    k x k minors of ``Lambda``: the new coefficient of the ordered monomial
    ``zeta_J`` is ``sum_I det(Lambda[J, I]) c_I`` over ordered index tuples.
    Restricted to single-family algebras, where the map is an algebra
    automorphism.

    Args:
        f: Element with coordinate monomials only.
        lam: Transformation with matching dimension.

    Returns:
        Element over the same algebra holding the transported table.
    """
    algebra = f.algebra
    if len(algebra.family_sizes) != 1:
        raise ValueError("coefficient transport is defined for a single family")
    n = algebra.family_sizes[0]
    if lam.n != n:
        raise ValueError(f"transformation dimension {lam.n} does not match {n}")
    # In a single family, coordinate xi_i is bit i and momenta lie above bit n.
    by_degree: dict[int, dict[int, complex]] = {}
    for mask, coeff in f.by_mask.items():
        if mask >> n:
            raise ValueError("coefficient transport acts on coordinate monomials")
        by_degree.setdefault(mask.bit_count(), {})[mask] = coeff
    table: dict[int, complex] = {}
    for degree, sources in by_degree.items():
        if degree == 0:
            _accumulate(table, 0, complex(sources[0]))
            continue
        targets = list(combinations(range(n), degree))
        rows = np.array(targets)
        cols = np.array([list(_bits(mask)) for mask in sources])
        # minors[t, s] = det(Lambda[targets[t], sources[s]]), one batched call.
        minors = np.linalg.det(
            lam.entries[rows[:, None, :, None], cols[None, :, None, :]]
        )
        for target, row in zip(targets, minors):
            value = 0.0 + 0.0j
            for minor, coeff in zip(row, sources.values()):
                value += minor * coeff
            if value != 0:
                _accumulate(table, sum(1 << i for i in target), complex(value))
    return GrassmannElement(algebra, table)
