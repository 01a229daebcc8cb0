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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TypeAlias

import numpy as np

from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
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

    Instances compare and hash by identity, since they hold arrays.

    Attributes:
        algebra: Coordinate-only algebra the images represent.
        hbar: Scale entering the anticommutation relations.
        gens: A copy of the generator images in family-major order, one
            read-only ``(N, dim, dim)`` stack.

    Raises:
        ValueError: If ``hbar`` is not finite and positive, or the images
            are not one finite square image per coordinate of the algebra.
    """

    algebra: AlgebraSpec
    hbar: float
    gens: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.hbar) and self.hbar > 0):
            raise ValueError("hbar must be finite and positive")
        count = self.algebra.total_coordinates
        shapes = sorted({np.shape(gen) for gen in self.gens})
        square = len(shapes) == 1 and len(shapes[0]) == 2 and shapes[0][0] == shapes[0][1]
        if not (square and len(self.gens) == count):
            raise ValueError(
                f"expected {count} square generator images of one shape,"
                f" got {len(self.gens)} of shapes {shapes}"
            )
        gens = np.array(self.gens, dtype=complex)
        if not np.isfinite(gens).all():
            raise ValueError("generator images must be finite")
        gens.setflags(write=False)
        object.__setattr__(self, "gens", gens)

    @property
    def dim(self) -> int:
        return self.gens.shape[-1]


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
    if not (math.isfinite(hbar) and hbar > 0):  # before inf * 0 in the images
        raise ValueError("hbar must be finite and positive")
    families = [_clifford_family(n) for n in algebra.family_sizes]
    dims = [fam[0].shape[0] for fam in families]
    scale = np.sqrt(hbar / 2.0)
    gens: list[np.ndarray] = []
    for fam_index, family in enumerate(families):
        below = int(np.prod(dims[:fam_index])) if fam_index else 1
        above = int(np.prod(dims[fam_index + 1 :])) if fam_index + 1 < len(dims) else 1
        for gamma in family:
            image = np.kron(np.eye(above), np.kron(gamma, np.eye(below)))
            gens.append(scale * image)
    return Realization(AlgebraSpec(algebra.family_sizes), float(hbar), gens)


def _image(images: dict[int, np.ndarray], mask: int, gens: np.ndarray) -> np.ndarray:
    """The ordered product of ``mask``'s generator images (bit i is ``gens[i]``),
    kept in ``images`` as its prefix's image times its highest generator's."""
    image = images.get(mask)
    if image is None:
        top = mask.bit_length() - 1
        image = images[mask] = _image(images, mask ^ (1 << top), gens) @ gens[top]
    return image


def quantize(
    f: GrassmannElement | Sequence[GrassmannElement], realization: Realization
) -> OperatorMatrix:
    """Map a Grassmann element, or a sequence of them, to operator matrices.

    Momenta are eliminated first by :func:`constraint_reduce`; each
    coordinate monomial then maps to the ordered product of its generator
    images and the unit to the identity.  Each call builds every distinct
    monomial image once, and keeps none: its prefix's image (up from the
    identity) times its highest generator's image, the left fold's bits.

    Returns:
        The ``(dim, dim)`` matrix, or for a sequence an ``(m, dim, dim)``
        stack, each entry with the bits of its own call.

    Raises:
        ValueError: If an element's family sizes do not match the
            realization.
    """
    single = isinstance(f, GrassmannElement)
    elements = [f] if single else list(f)
    if any(g.algebra.family_sizes != realization.algebra.family_sizes for g in elements):
        raise ValueError("element and realization have different family sizes")
    images = {0: np.eye(realization.dim, dtype=complex)}
    out = np.zeros((len(elements), realization.dim, realization.dim), dtype=complex)
    for entry, g in zip(out, elements):
        for mask, coeff in constraint_reduce(g).by_mask.items():
            entry += coeff * _image(images, mask, realization.gens)
    return out[0] if single else out


def check_relations(realization: Realization) -> float:
    """Largest residual of the quantum algebra over all generator pairs.

    Same-family pairs must close on ``hbar delta_ij`` under the
    anticommutator; cross-family pairs must commute.
    """
    # One generator row at a time: no intermediate outgrows the image stack.
    gens = realization.gens
    families = np.array([g.family for g in realization.algebra.coordinates()])
    identity = np.eye(realization.dim)
    worst = []
    for a, qa in enumerate(gens):
        left, right = qa @ gens, gens @ qa
        anti = left + right
        anti[a] -= realization.hbar * identity
        residual = np.where((families == families[a])[:, None, None], anti, left - right)
        worst.append(np.abs(residual).max())
    # np.max keeps a nan residual, which a Python max fold could drop.
    return float(np.max(worst, initial=0.0))


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
    parts_f, parts_g = family_components(f), family_components(g)
    images = quantize([*parts_f.values(), *parts_g.values(), dirac_bracket(f, g)], realization)
    bracket = images[-1]
    commutator = np.zeros(bracket.shape, dtype=complex)
    for pf, qf in zip(parts_f, images):
        for pg, qg in zip(parts_g, images[len(parts_f) :]):
            commutator += qf @ qg - commutation_factor(pf, pg) * qg @ qf
    return float(np.abs(commutator - 1j * realization.hbar * bracket).max())
