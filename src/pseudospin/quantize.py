"""Quantization of Grassmann elements onto finite matrix realizations.

Coordinate generators map to scaled Clifford generators, ``sqrt(hbar/2)``
times a Pauli string, so that anticommutators reproduce the Dirac bracket
table: same-family pairs close on ``hbar delta_ij`` and cross-family pairs
commute.  Conjugate momenta are second class and are eliminated before
mapping (``pi -> (i/2) xi`` inside the Grassmann algebra, where nilpotency
does the antisymmetrization).  On canonical monomials of distinct
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
    Generator,
    GrassmannElement,
    _accumulate,
    _bits,
    _layout,
    _Layout,
    commutation_factor,
    dirac_bracket,
    family_components,
)

__all__ = [
    "OperatorMatrix",
    "PAULI",
    "Realization",
    "check_relations",
    "constraint_reduce",
    "correspondence_check",
    "pauli_realization",
    "quantize",
    "similarity_transport",
    "tensor_realization",
]

OperatorMatrix: TypeAlias = np.ndarray

RELATION_TOL = 1e-12
TRANSPORT_COND_CAP = 1e12

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
    # Keyed by the element algebra's layout (masks differ with and without
    # momenta): monomial mask -> ordered product of its generator images,
    # filled by quantize on first use.
    _images: dict[_Layout, dict[int, np.ndarray]] = field(
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

    def matrix_for(self, gen: Generator) -> np.ndarray:
        """Image of a coordinate generator."""
        if gen.momentum:
            raise ValueError("momenta have no direct image; reduce them first")
        return self.gens[self.algebra.merged_index(gen)]


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
    coord_algebra = AlgebraSpec(algebra.family_sizes, momenta_attached=False)
    for fam_index, family in enumerate(families):
        below = int(np.prod(dims[:fam_index])) if fam_index else 1
        above = int(np.prod(dims[fam_index + 1 :])) if fam_index + 1 < len(dims) else 1
        for gamma in family:
            image = np.kron(np.eye(above), np.kron(gamma, np.eye(below)))
            gens.append(scale * image)
    return Realization(
        algebra=coord_algebra, hbar=float(hbar), dim=total_dim, gens=tuple(gens)
    )


def pauli_realization(hbar: float = 1.0) -> Realization:
    """Single spin: three generators imaged as ``sqrt(hbar/2) sigma_i``."""
    return tensor_realization(AlgebraSpec((3,)), hbar)


def _reduced_terms(terms: dict[int, complex], layout: _Layout) -> dict[int, complex]:
    table: dict[int, complex] = {}
    reduced = layout.reduced
    for mask, coeff in terms.items():
        move = reduced[mask]
        if move is None:
            continue
        target, sign, momenta = move
        for _ in range(momenta):
            coeff = coeff * 0.5j
        _accumulate(table, target, sign * complex(coeff))
    return table


def constraint_reduce(f: GrassmannElement) -> GrassmannElement:
    """Eliminate momenta through the second-class constraints.

    Substitutes ``pi_i -> (i/2) xi_i`` term by term; repeated coordinates
    produced by the substitution annihilate, which is exactly the
    antisymmetrization the symmetrized operator product would perform.
    """
    return GrassmannElement(f.algebra, _reduced_terms(f.by_mask, _layout(f.algebra)))


def quantize(f: GrassmannElement, realization: Realization) -> OperatorMatrix:
    """Map a Grassmann element to its operator matrix.

    Momenta are constraint-reduced first; each canonical monomial then maps
    to the ordered product of its generator images and the unit maps to the
    identity.  Products are kept per realization, so each monomial's image
    is multiplied out once.

    Raises:
        ValueError: If the element's family sizes do not match the
            realization.
    """
    if f.algebra.family_sizes != realization.algebra.family_sizes:
        raise ValueError("element and realization have different family sizes")
    layout = _layout(f.algebra)
    images = realization._images.setdefault(layout, {})
    out = np.zeros((realization.dim, realization.dim), dtype=complex)
    for mask, coeff in _reduced_terms(f.by_mask, layout).items():
        image = images.get(mask)
        if image is None:
            identity = np.eye(realization.dim, dtype=complex)
            factors = [realization.gens[layout.merged[b]] for b in _bits(mask)]
            image = images[mask] = reduce(np.matmul, factors, identity)
            image.setflags(write=False)
        out += coeff * image
    return out


@dataclass(frozen=True)
class RelationCheck:
    """Residual of one generator-pair relation."""

    left: Generator
    right: Generator
    residual: float
    passed: bool


@dataclass(frozen=True)
class RelationReport:
    """Outcome of the full anticommutator sweep."""

    checks: tuple[RelationCheck, ...]
    max_violation: float
    passed: bool


def check_relations(realization: Realization) -> RelationReport:
    """Check the quantum algebra over all generator pairs.

    Same-family pairs must close on ``hbar delta_ij`` under the
    anticommutator; cross-family pairs must commute.  Each residual must
    stay within ``RELATION_TOL``.
    """
    algebra = realization.algebra
    coords = list(algebra.coordinates())
    identity = np.eye(realization.dim)
    checks = []
    worst = 0.0
    for a in coords:
        for b in coords:
            qa = realization.matrix_for(a)
            qb = realization.matrix_for(b)
            if a.family == b.family:
                target = realization.hbar * identity if a == b else 0.0
                residual = np.max(np.abs(qa @ qb + qb @ qa - target))
            else:
                residual = np.max(np.abs(qa @ qb - qb @ qa))
            residual = float(residual)
            worst = max(worst, residual)
            checks.append(RelationCheck(a, b, residual, residual <= RELATION_TOL))
    return RelationReport(tuple(checks), worst, worst <= RELATION_TOL)


@dataclass(frozen=True)
class CorrespondenceReport:
    """Residual of the bracket-to-commutator correspondence."""

    residual: float
    passed: bool
    supported: bool


def correspondence_check(
    f: GrassmannElement, g: GrassmannElement, realization: Realization
) -> CorrespondenceReport:
    """Compare ``[Q(f), Q(g)]`` against ``i hbar Q({f, g}_D)``.

    The commutator is graded with the same family-wise commutation factor
    as the classical bracket: one sign flip per family in which both
    elements are odd, so cross-family generator pairs use the plain
    commutator and same-family ones the anticommutator.  Mixed elements are
    split into homogeneous components and the commutator extends
    bilinearly.  The check passes when the residual is within
    ``RELATION_TOL``.  ``supported`` is True when both elements have degree at
    most two, the range where the correspondence is exact; the residual is
    still reported outside it.
    """
    bracket = quantize(dirac_bracket(f, g), realization)
    q_f = [(p, quantize(part, realization)) for p, part in family_components(f).items()]
    q_g = [(p, quantize(part, realization)) for p, part in family_components(g).items()]
    commutator = np.zeros((realization.dim, realization.dim), dtype=complex)
    for pf, qf in q_f:
        for pg, qg in q_g:
            sign = commutation_factor(pf, pg)
            commutator += qf @ qg - sign * qg @ qf
    residual = float(np.abs(commutator - 1j * realization.hbar * bracket).max())
    supported = f.max_degree <= 2 and g.max_degree <= 2
    return CorrespondenceReport(residual, residual <= RELATION_TOL, supported)


def similarity_transport(realization: Realization, u: np.ndarray) -> Realization:
    """Conjugate every generator image by an invertible matrix.

    Products, sums and hence all algebra relations transport verbatim, so
    the result realizes the same algebra on a different basis.

    Raises:
        ValueError: If ``u`` has the wrong shape or its condition number
            exceeds ``TRANSPORT_COND_CAP``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (realization.dim, realization.dim):
        raise ValueError(f"u must have shape ({realization.dim}, {realization.dim})")
    cond = np.linalg.cond(u)
    if not np.isfinite(cond) or cond > TRANSPORT_COND_CAP:
        raise ValueError(f"transformation is too ill-conditioned (cond={cond:.3e})")
    uinv = np.linalg.inv(u)
    gens = tuple(u @ gen @ uinv for gen in realization.gens)
    return Realization(
        algebra=realization.algebra,
        hbar=realization.hbar,
        dim=realization.dim,
        gens=gens,
    )
