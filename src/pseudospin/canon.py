"""Complex orthogonal canonical transformations and their transport maps.

Linear generator maps ``zeta = Lambda xi`` preserve the canonical bracket
table exactly when ``Lambda Lambda^T = I`` with complex entries, so the
canonical group is the complex orthogonal group.  ``ComplexOrthogonal``
validates such a matrix, or an ``(m, n, n)`` stack of them, when it is
built, as ``Metric`` does.  This module samples them as Cayley transforms
and transports antisymmetric coefficient tables (by per-family minors of a
block-diagonal ``Lambda``) and field vectors along them, one or a stack at
a time: each stacked entry has the bits of its own call.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence, TypeAlias

import numpy as np

from pseudospin.grassmann import GrassmannElement, _substitute

__all__ = [
    "ComplexOrthogonal",
    "FieldVector",
    "pushforward_field",
    "random_orthogonal",
    "transform_coefficients",
]

#: Max-norm tolerance on Lambda Lambda^T - I, per unit of ||Lambda||_1 ||Lambda||_inf.
ORTHO_TOL = 1e-10
#: Tolerance for snapping the determinant to +1 or -1, on the same scale.
DET_TOL = 1e-8
#: Tolerance for the bilinear invariant F . F, per unit of the moved field's |F|^2.
INVARIANT_TOL = 1e-10

#: Complex 3-vector of classical field components.
FieldVector: TypeAlias = np.ndarray


@dataclass(frozen=True, eq=False)
class ComplexOrthogonal:
    """Validated complex orthogonal matrix, or an ``(m, n, n)`` stack of them.

    The stack is checked in one pass, the first failing entry named.
    Instances compare and hash by identity, as ``Metric`` does.

    Attributes:
        entries: A copy of the matrix (or stack), frozen read-only.
        det: Determinant snapped to +1.0 or -1.0 (a read-only array for a
            stack); computed, not passed.

    Raises:
        ValueError: If the matrix is not square or not finite, its
            ``s = ||Lambda||_1 ||Lambda||_inf`` (at least cond_2 of an
            orthogonal Lambda) overflows or reaches ``1 / (n ORTHO_TOL)``, the
            residual exceeds ``ORTHO_TOL * s``, or the determinant is not
            within ``DET_TOL * s`` of +1 or -1.
    """

    entries: np.ndarray
    det: float | np.ndarray = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        entries = np.array(self.entries, dtype=complex)
        if entries.ndim not in (2, 3) or entries.shape[-1] != entries.shape[-2]:
            raise ValueError("expected a square matrix or a stack of them")
        n, single = entries.shape[-1], entries.ndim == 2
        stack = entries.reshape(-1, n, n)
        for k in np.flatnonzero(~np.isfinite(stack).all(axis=(1, 2)))[:1].tolist():
            raise ValueError("matrix is not finite" + ("" if single else f" at stack entry {k}"))
        with np.errstate(invalid="ignore", over="ignore"):  # an overflow is refused below
            residuals = np.max(np.abs(stack @ stack.mT - np.eye(n)), axis=(1, 2))
            dets = np.linalg.det(stack)
            signs = np.where(dets.real < 0, -1.0, 1.0)
            scales = np.linalg.matrix_norm(stack, ord=1) * np.linalg.matrix_norm(stack, ord=np.inf)
        for k, (residual, det, sign, s) in enumerate(zip(residuals, dets, signs, scales)):
            at = "" if single else f" at stack entry {k}"
            limit = ORTHO_TOL * s
            if not math.isfinite(s):
                raise ValueError("matrix norm overflows" + at)
            # Past n * limit = 1 a passing residual no longer keeps Lambda Lambda^T invertible.
            if not n * limit < 1.0:
                raise ValueError(f"condition bound {s:.3e} exceeds {1 / (n * ORTHO_TOL):.1e}" + at)
            if not residual <= limit:
                raise ValueError(f"orthogonality residual {residual:.3e} exceeds {limit:.1e}" + at)
            if not abs(det - sign) <= DET_TOL * s:
                raise ValueError(f"determinant {det} is not close to +1 or -1" + at)
        entries.setflags(write=False)
        signs.setflags(write=False)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "det", float(signs[0]) if single else signs)


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
    return _random_orthogonals(np.random.default_rng(seed), n, None)


def _random_orthogonals(rng: np.random.Generator, n: int, count: int | None) -> ComplexOrthogonal:
    """A stack of ``count`` draws of :func:`random_orthogonal` from one
    generator, with stacked linear algebra, or one matrix, drawn as a stack of
    one, for None; each ``verify`` group passes its own generator."""
    size = 1 if count is None else count
    real, imag = np.moveaxis(rng.standard_normal((size, 2, n, n)), 1, 0)
    gen = 0.5 * (real - real.mT) + 0.5j * (imag - imag.mT)
    norm = np.linalg.norm(gen, 2, axis=(-2, -1))
    cap = math.tanh(0.75)
    over = norm > cap
    gen[over] *= (cap / norm[over])[:, None, None]
    entries = np.linalg.solve(np.eye(n) - gen, np.eye(n) + gen)
    entries[rng.random(size) < 0.5, 0, :] *= -1.0
    return ComplexOrthogonal(entries[0] if count is None else entries)


def pushforward_field(field: FieldVector, lam: ComplexOrthogonal) -> FieldVector:
    """Transport a field vector along a canonical transformation.

    The transported field is ``det(Lambda) Lambda field``; the determinant
    factor makes the quadratic spin Hamiltonian covariant.  The bilinear
    square ``F . F`` (no conjugation) is an exact invariant, zero on a null
    field, and is verified to ``INVARIANT_TOL * |Lambda field|^2`` before returning.
    An ``(m, n)`` array of fields moves with an ``(m, n, n)`` stack, each row
    with its own call's bits.

    Raises:
        ValueError: If a field is not finite or its shape does not match.
        RuntimeError: If the bilinear invariant drifts beyond that bound,
            signalling numerical degradation, or overflows.
    """
    b = np.asarray(field, dtype=complex)
    if b.shape != lam.entries.shape[:-1]:
        raise ValueError(f"need one field per transformation, of its size; got {b.shape}")
    n = b.shape[-1]
    b = b.reshape(-1, n)
    for k in np.flatnonzero(~np.isfinite(b).all(axis=1))[:1].tolist():
        raise ValueError(f"field is not finite at stack entry {k}")
    scaled = np.reshape(lam.det, (-1, 1, 1)) * lam.entries.reshape(-1, n, n)
    with np.errstate(invalid="ignore", over="ignore"):  # an overflow fails the gate
        f = (scaled @ b[..., None])[..., 0]
        drift = np.abs(f[:, None] @ f[..., None] - b[:, None] @ b[..., None])[:, 0, 0]
        bound = INVARIANT_TOL * (f.conj()[:, None] @ f[..., None])[:, 0, 0].real
    # Written so that a nan drift, or an overflowed bound, fails too.
    for k in np.flatnonzero(~(drift <= bound) | np.isinf(bound))[:1].tolist():
        raise RuntimeError(f"bilinear invariant drifted by {drift[k]:.3e} at stack entry {k}")
    return f.reshape(lam.entries.shape[:-1])


def transform_coefficients(
    f: GrassmannElement | Sequence[GrassmannElement], lam: ComplexOrthogonal
) -> GrassmannElement | list[GrassmannElement]:
    """Re-express an element in the transformed generator basis.

    For ``zeta = Lambda xi`` the degree-k coefficient table transports with
    k x k minors of ``Lambda``: the new coefficient of the ordered monomial
    ``zeta_J`` is ``sum_I det(Lambda[J, I]) c_I`` over ordered index tuples,
    family by family.  ``Lambda`` must be block-diagonal, so that the map is an algebra
    automorphism; a cross-family entry raises ``ValueError``.

    Args:
        f: Element with coordinate monomials only, or a sequence of them.
        lam: Transformation with matching dimension, or a stack of one per
            element.

    Returns:
        Element over the same algebra holding the transported table, or a
        list of them, each with its own call's bits.
    """
    return _substitute(f, lam.entries)
