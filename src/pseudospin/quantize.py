"""Quantization of Grassmann elements onto finite matrix realizations.

Coordinate generators map to scaled Clifford generators, ``sqrt(hbar/2)``
times a Pauli string, so that anticommutators reproduce the Dirac bracket
table: same-family pairs close on ``hbar delta_ij`` and cross-family pairs
commute.  Conjugate momenta are second class and are eliminated before
mapping by :func:`pseudospin.grassmann.constraint_reduce`, so the map only
sees the coordinate algebra.  On canonical monomials of distinct
generators the graded symmetrization of the images collapses to the plain
ordered product, which is what :func:`quantize` evaluates.
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import TypeAlias

import numpy as np

from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    _bits,
    commutation_factor,
    constraint_reduce,
    dirac_bracket,
    family_components,
)

__all__ = [
    "OperatorMatrix",
    "PAULI",
    "Realization",
    "check_relations",
    "correspondence_check",
    "quantize",
    "tensor_realization",
]

OperatorMatrix: TypeAlias = np.ndarray

PAULI = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)
for _sigma in PAULI:
    _sigma.setflags(write=False)


@dataclass(frozen=True, eq=False)
class Realization:
    """Matrix images of the coordinate generators.

    Instances compare and hash by identity: each holds its own image table.

    Attributes:
        algebra: Coordinate-only algebra the images represent.
        hbar: Scale entering the anticommutation relations.
        dim: Dimension of the representation space.
        gens: Generator images in family-major order, read-only.

    Raises:
        ValueError: If the image count differs from the algebra's
            coordinate count, an image is not ``dim x dim``, or ``hbar`` is
            not finite and positive.
    """

    algebra: AlgebraSpec
    hbar: float
    dim: int
    gens: tuple[np.ndarray, ...]
    # Coordinate monomial mask (bit i stands for gens[i]) -> ordered product
    # of its generator images, filled by quantize on first use.
    _images: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        if len(self.gens) != self.algebra.total_coordinates:
            raise ValueError(
                f"expected {self.algebra.total_coordinates} generator images,"
                f" got {len(self.gens)}"
            )
        for gen in self.gens:
            if np.shape(gen) != (self.dim, self.dim):
                raise ValueError(
                    f"generator image of shape {np.shape(gen)} does not match"
                    f" dim {self.dim}"
                )
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")
        for gen in self.gens:
            gen.setflags(write=False)


def _clifford_family(n: int) -> list[np.ndarray]:
    """Unnormalized Clifford generators over dimension 2**(n // 2).

    Built recursively: two extra generators per doubling, so a family of
    three is exactly the Pauli triple.
    """
    if n == 1:
        return [np.eye(1, dtype=complex)]
    if n == 2:
        return [np.array(PAULI[0]), np.array(PAULI[1])]
    smaller = _clifford_family(n - 2)
    dim = smaller[0].shape[0]
    out = [np.kron(PAULI[0], gamma) for gamma in smaller]
    out.append(np.kron(PAULI[1], np.eye(dim)))
    out.append(np.kron(PAULI[2], np.eye(dim)))
    return out


def tensor_realization(algebra: AlgebraSpec, hbar: float = 1.0) -> Realization:
    """Kronecker-product realization for any family structure.

    Each family gets its own Clifford block; family 0 occupies the fastest
    tensor slot, so for two families of three the images are
    ``sqrt(hbar/2) kron(I, sigma_i)`` and ``sqrt(hbar/2) kron(sigma_i, I)``.
    Cross-family images then commute, matching the classical algebra.

    Args:
        algebra: Family sizes to realize (momenta, if any, are ignored
            here and handled by constraint reduction during quantization).
        hbar: Anticommutator scale.
    """
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    families = [_clifford_family(n) for n in algebra.family_sizes]
    dims = [fam[0].shape[0] for fam in families]
    total_dim = int(np.prod(dims))
    scale = np.sqrt(hbar / 2.0)
    gens: list[np.ndarray] = []
    for fam_index, family in enumerate(families):
        below = int(np.prod(dims[:fam_index])) if fam_index else 1
        above = int(np.prod(dims[fam_index + 1 :])) if fam_index + 1 < len(dims) else 1
        for gamma in family:
            image = np.kron(np.eye(above), np.kron(gamma, np.eye(below)))
            gens.append(scale * image)
    return Realization(
        AlgebraSpec(algebra.family_sizes), float(hbar), total_dim, tuple(gens)
    )


def quantize(f: GrassmannElement, realization: Realization) -> OperatorMatrix:
    """Map a Grassmann element to its operator matrix.

    Momenta are eliminated first by :func:`constraint_reduce`; each
    coordinate monomial then maps to the ordered product of its generator
    images and the unit to the identity.  Products are kept per realization,
    so each monomial's image is multiplied out once.

    Raises:
        ValueError: If the element's family sizes do not match the
            realization.
    """
    if f.algebra.family_sizes != realization.algebra.family_sizes:
        raise ValueError("element and realization have different family sizes")
    images = realization._images
    out = np.zeros((realization.dim, realization.dim), dtype=complex)
    for mask, coeff in constraint_reduce(f).by_mask.items():
        image = images.get(mask)
        if image is None:
            identity = np.eye(realization.dim, dtype=complex)
            factors = [realization.gens[b] for b in _bits(mask)]
            image = images[mask] = reduce(np.matmul, factors, identity)
            image.setflags(write=False)
        out += coeff * image
    return out


def check_relations(realization: Realization) -> float:
    """Largest residual of the quantum algebra over all generator pairs.

    Same-family pairs must close on ``hbar delta_ij`` under the
    anticommutator; cross-family pairs must commute.
    """
    # One generator row at a time: no intermediate outgrows the image stack.
    gens = np.array(realization.gens)
    families = np.array([g.family for g in realization.algebra.coordinates()])
    identity = np.eye(realization.dim)
    worst = 0.0
    for a, qa in enumerate(gens):
        left, right = qa @ gens, gens @ qa
        anti = left + right
        anti[a] -= realization.hbar * identity
        residual = np.where((families == families[a])[:, None, None], anti, left - right)
        worst = max(worst, float(np.abs(residual).max()))
    return worst


def correspondence_check(
    f: GrassmannElement, g: GrassmannElement, realization: Realization
) -> float:
    """Largest entry of ``[Q(f), Q(g)] - i hbar Q({f, g}_D)``.

    The commutator is graded with the same family-wise commutation factor
    as the classical bracket: one sign flip per family in which both
    elements are odd, so cross-family generator pairs use the plain
    commutator and same-family ones the anticommutator.  Mixed elements are
    split into homogeneous components and the commutator extends
    bilinearly.  The correspondence is exact when both elements have degree
    at most two; the residual is still reported outside that range.
    """
    q_f, q_g = (
        [(p, quantize(part, realization)) for p, part in family_components(h).items()]
        for h in (f, g)
    )
    bracket = quantize(dirac_bracket(f, g), realization)
    commutator = np.zeros(bracket.shape, dtype=complex)
    for pf, qf in q_f:
        for pg, qg in q_g:
            commutator += qf @ qg - commutation_factor(pf, pg) * qg @ qf
    return float(np.abs(commutator - 1j * realization.hbar * bracket).max())
