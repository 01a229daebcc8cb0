"""Complex orthogonal canonical transformations and their transport maps.

Generator maps ``zeta = Lambda xi`` keep the canonical bracket table exactly
when ``Lambda Lambda^T = I``.  By Cartan-Dieudonne such a Lambda is a product
of at most n reflections ``R_v = I - 2 v v^T / (v^T v)`` (Lounesto, *Clifford
Algebras and Spinors*, 2001), and ``ComplexOrthogonal`` holds those vectors.
Coefficient tables (by per-family minors of a block-diagonal Lambda) and
fields move one or a stack at a time, each entry with its own call's bits.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
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

#: Largest |v|^2 / |v^T v| of a reflection vector: the computed v^T v carries a
#: relative error up to n eps |v|^2 / |v^T v| (Higham 2002, section 3.1), which
#: the cap keeps below n / 256.  The boost at theta = 30 has cosh 30 ~ 5.3e12.
FACTOR_CAP = 1.0 / (256 * np.finfo(float).eps)
#: Tolerance for the bilinear invariant F . F, per unit of the moved field's |F|^2.
INVARIANT_TOL = 1e-10

#: Complex 3-vector of classical field components.
FieldVector: TypeAlias = np.ndarray


@dataclass(frozen=True, eq=False)
class ComplexOrthogonal:
    """The product ``R_{v_k} ... R_{v_1}`` of complex reflections, or a stack.

    Factor j is applied j-th, and an all-zero vector is an absent factor, so
    products of different lengths share one array and composition is
    concatenation along the factor axis.  The stack is checked in one pass,
    the first failing entry named.  Instances compare and hash by identity.

    Attributes:
        vectors: The ``(k, n)`` vectors (or ``(m, k, n)`` stack), copied read-only.
        det: ``(-1)^k`` over the nonzero vectors (a read-only array for a
            stack); computed, not passed.
        entries: The matrix (or ``(m, n, n)`` stack), multiplied out one
            reflection at a time when first read; read-only.

    Raises:
        ValueError: If the array is not ``(k, n)`` or ``(m, k, n)``, or a
            vector is not finite or nonzero with ``|v|^2 / |v^T v|`` (inf at
            ``v^T v = 0``) above ``FACTOR_CAP``.
    """

    vectors: np.ndarray
    det: float | np.ndarray = field(init=False, default=1.0)

    def __post_init__(self) -> None:
        vectors = np.array(self.vectors, dtype=complex)
        if vectors.ndim not in (2, 3):
            raise ValueError("expected (k, n) reflection vectors or an (m, k, n) stack of them")
        single = vectors.ndim == 2
        stack = vectors[None] if single else vectors
        finite, present = np.isfinite(stack).all(axis=-1), (stack != 0).any(axis=-1)
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):  # refused below
            squares = np.sum(stack * stack, axis=-1)
            ratios = np.sum(stack.real**2 + stack.imag**2, axis=-1) / np.abs(squares)
        for k, j in np.argwhere(~finite | present & ~(ratios <= FACTOR_CAP))[:1].tolist():
            problem = (
                "is not finite" if not finite[k, j]
                else "has v^T v = 0" if squares[k, j] == 0
                else f"has |v|^2/|v^T v| = {ratios[k, j]:.3e} over {FACTOR_CAP:.1e}"
            )
            at = "" if single else f" at stack entry {k}"
            raise ValueError(f"reflection vector {j} {problem}" + at)
        signs = np.where(present.sum(axis=-1) % 2, -1.0, 1.0)
        vectors.setflags(write=False)
        signs.setflags(write=False)
        object.__setattr__(self, "vectors", vectors)
        object.__setattr__(self, "det", float(signs[0]) if single else signs)

    @cached_property
    def entries(self) -> np.ndarray:
        *shape, k, n = self.vectors.shape
        stack = self.vectors.reshape(math.prod(shape), k, n)
        entries = np.tile(np.eye(n, dtype=complex), (len(stack), 1, 1))
        for v in np.moveaxis(stack, 1, 0):
            v = v[on := (v != 0).any(axis=-1)]
            scale = (2.0 / np.sum(v * v, axis=-1))[:, None, None]
            entries[on] = (np.eye(n) - v[:, :, None] * v[:, None, :] * scale) @ entries[on]
        entries = entries.reshape(*shape, n, n)
        entries.setflags(write=False)
        return entries


def random_orthogonal(
    n: int, seed: int | np.random.Generator | None = None, count: int | None = None
) -> ComplexOrthogonal:
    """Draw a random complex orthogonal transformation, or a stack of ``count``.

    Each draw has 1 to n reflections, uniformly many, so both determinants
    are sampled.  Each vector ``x + i y`` has standard normal parts, ``y``
    scaled to ``|y|^2 <= |x|^2 / 8`` so that ``|v|^2 / |v^T v| <= 9 / 7``.
    All factor counts are drawn, then all ``x``, then all ``y``.

    Args:
        n: Dimension.
        seed: Seed or generator for the draws; None draws fresh entropy.
        count: Number of draws, returned as one stack; None draws one.
    """
    rng = np.random.default_rng(seed)
    factors = rng.integers(1, n + 1, size=1 if count is None else count)
    real, imag = rng.standard_normal((2, len(factors), n, n))
    norms = np.sqrt(np.sum(real**2, axis=-1) / (8.0 * np.sum(imag**2, axis=-1)))
    vectors = real + 1j * imag * np.minimum(1.0, norms)[..., None]
    vectors[np.arange(n) >= factors[:, None]] = 0.0
    return ComplexOrthogonal(vectors[0] if count is None else vectors)


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
