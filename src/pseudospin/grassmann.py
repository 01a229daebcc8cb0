"""Symbolic Grassmann algebra with graded brackets.

Anticommuting generators are organized into families: generators within a
family anticommute, generators from different families commute.  Each
coordinate generator may carry a conjugate momentum generator of the same
(odd) parity.  Elements are stored as dictionaries from canonically ordered
monomials to complex coefficients, so element equality is coefficient-table
equality.

Canonical monomial order sorts generators by (family, coordinate before
momentum, index).  Reordering signs are tracked automatically and a repeated
generator annihilates its term.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple, Sequence, TypeAlias

import numpy as np

__all__ = [
    "AlgebraSpec",
    "Generator",
    "GrassmannElement",
    "Monomial",
    "canonical_constraints",
    "canonicalize",
    "commutation_factor",
    "dirac_bracket",
    "family_components",
    "graded_poisson",
    "is_plus_real",
    "left_derivative",
    "multiply",
    "plus_involution",
    "right_derivative",
    "star_involution",
]

#: Default tolerance for coefficient comparisons.
COEFF_TOL = 1e-12

_FAMILY_NAMES = (("xi", "pi"), ("chi", "varpi"))


class Generator(NamedTuple):
    """Single odd generator of the algebra.

    The tuple order (family, momentum, index) is also the canonical sort
    order: families ascend, coordinates precede conjugate momenta, indices
    ascend.
    """

    family: int
    momentum: bool
    index: int

    @property
    def name(self) -> str:
        """Printable token, 1-based (``xi1``, ``pi1``, ``chi2``, ``varpi2``)."""
        if self.family < len(_FAMILY_NAMES):
            stem = _FAMILY_NAMES[self.family][1 if self.momentum else 0]
        else:
            stem = f"g{self.family}{'p' if self.momentum else 'c'}"
        return f"{stem}{self.index + 1}"


Monomial: TypeAlias = tuple[Generator, ...]


@dataclass(frozen=True)
class AlgebraSpec:
    """Shape of a Grassmann algebra.

    Args:
        family_sizes: Number of coordinate generators in each mutually
            commuting family.
        momenta_attached: Whether every coordinate carries a conjugate
            momentum generator (doubling the generator count).
    """

    family_sizes: tuple[int, ...]
    momenta_attached: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "family_sizes", tuple(int(n) for n in self.family_sizes)
        )
        if not self.family_sizes or any(n < 1 for n in self.family_sizes):
            raise ValueError("family sizes must be positive integers")

    @property
    def total_coordinates(self) -> int:
        return sum(self.family_sizes)

    def coordinate(self, family: int, index: int) -> Generator:
        gen = Generator(int(family), False, int(index))
        self.validate_generator(gen)
        return gen

    def momentum(self, family: int, index: int) -> Generator:
        gen = Generator(int(family), True, int(index))
        self.validate_generator(gen)
        return gen

    def coordinates(self) -> Iterator[Generator]:
        for family, size in enumerate(self.family_sizes):
            for index in range(size):
                yield Generator(family, False, index)

    def momenta(self) -> Iterator[Generator]:
        if not self.momenta_attached:
            return
        for family, size in enumerate(self.family_sizes):
            for index in range(size):
                yield Generator(family, True, index)

    def merged_index(self, gen: Generator) -> int:
        """Position of ``gen`` in the family-major coordinate flattening."""
        self.validate_generator(gen)
        return sum(self.family_sizes[: gen.family]) + gen.index

    def validate_generator(self, gen: Generator) -> None:
        if not 0 <= gen.family < len(self.family_sizes):
            raise ValueError(f"unknown family {gen.family}")
        if not 0 <= gen.index < self.family_sizes[gen.family]:
            raise ValueError(f"index out of range for {gen}")
        if gen.momentum and not self.momenta_attached:
            raise ValueError("algebra carries no momentum generators")


def canonicalize(
    generators: Sequence[Generator],
    coefficient: complex,
    algebra: AlgebraSpec | None = None,
) -> tuple[Monomial, complex] | None:
    """Bring a generator word into canonical order.

    Counts the same-family inversions of the word (cross-family swaps are
    free) and sorts.  Returns the (monomial, signed coefficient) pair, or
    None when a generator repeats and the term vanishes.

    Args:
        generators: Generator word in any order.
        coefficient: Coefficient multiplying the word.
        algebra: Optional algebra used to validate the generators.
    """
    gens = tuple(generators)
    if algebra is not None:
        for gen in gens:
            algebra.validate_generator(gen)
    sign = 1
    for p in range(len(gens)):
        for q in range(p + 1, len(gens)):
            a, b = gens[p], gens[q]
            if a == b:
                return None
            if a.family == b.family and a > b:
                sign = -sign
    return tuple(sorted(gens)), sign * complex(coefficient)


@dataclass
class GrassmannElement:
    """Element of a Grassmann algebra in canonical form.

    The ``terms`` mapping sends canonical monomials (the empty tuple is the
    unit) to complex coefficients.  Construct through the classmethods, which
    canonicalize on entry; treat instances as immutable.
    """

    algebra: AlgebraSpec
    terms: dict[Monomial, complex]

    @classmethod
    def zero(cls, algebra: AlgebraSpec) -> "GrassmannElement":
        return cls(algebra, {})

    @classmethod
    def unit(cls, algebra: AlgebraSpec, coefficient: complex = 1.0) -> "GrassmannElement":
        return cls.from_terms(algebra, [((), coefficient)])

    @classmethod
    def from_generator(
        cls, algebra: AlgebraSpec, gen: Generator, coefficient: complex = 1.0
    ) -> "GrassmannElement":
        return cls.from_terms(algebra, [((gen,), coefficient)])

    @classmethod
    def from_terms(
        cls,
        algebra: AlgebraSpec,
        terms: Sequence[tuple[Sequence[Generator], complex]],
    ) -> "GrassmannElement":
        """Build an element from (generator word, coefficient) pairs."""
        table: dict[Monomial, complex] = {}
        for gens, coefficient in terms:
            term = canonicalize(gens, coefficient, algebra)
            if term is None:
                continue
            mono, coeff = term
            value = table.get(mono, 0.0) + coeff
            if value == 0:
                table.pop(mono, None)
            else:
                table[mono] = value
        return cls(algebra, table)

    def coefficient(self, generators: Sequence[Generator]) -> complex:
        """Coefficient of a generator word (sign-adjusted if unordered)."""
        term = canonicalize(generators, 1.0, self.algebra)
        if term is None:
            return 0.0
        mono, sign = term
        return sign * self.terms.get(mono, 0.0)

    @property
    def scalar_part(self) -> complex:
        return self.terms.get((), 0.0)

    @property
    def max_degree(self) -> int:
        return max((len(mono) for mono in self.terms), default=0)

    @property
    def parity(self) -> int:
        """0 for even, 1 for odd; raises on elements of mixed parity."""
        parities = {len(mono) % 2 for mono in self.terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("element has no definite parity")
        return parities.pop()

    @property
    def family_parity(self) -> tuple[int, ...]:
        """Per-family degree parities; raises when monomials disagree."""
        vectors = {_mono_family_parity(mono, self.algebra) for mono in self.terms}
        if not vectors:
            return tuple(0 for _ in self.algebra.family_sizes)
        if len(vectors) > 1:
            raise ValueError("element is not homogeneous family-wise")
        return vectors.pop()

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def allclose(self, other: "GrassmannElement", tol: float = COEFF_TOL) -> bool:
        if self.algebra != other.algebra:
            return False
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        _check_same_algebra(self, other)
        table = dict(self.terms)
        for mono, coeff in other.terms.items():
            value = table.get(mono, 0.0) + coeff
            if value == 0:
                table.pop(mono, None)
            else:
                table[mono] = value
        return GrassmannElement(self.algebra, table)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(
            self.algebra, {mono: -coeff for mono, coeff in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return multiply(self, other)
        return self._scaled(other)

    def __rmul__(self, other):
        return self._scaled(other)

    def __truediv__(self, other):
        return self._scaled(1.0 / complex(other))

    def _scaled(self, factor: complex) -> "GrassmannElement":
        factor = complex(factor)
        if factor == 0:
            return GrassmannElement.zero(self.algebra)
        return GrassmannElement(
            self.algebra, {mono: factor * coeff for mono, coeff in self.terms.items()}
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            word = "*".join(gen.name for gen in mono) or "1"
            parts.append(f"({self.terms[mono]})*{word}")
        return " + ".join(parts)


def _check_same_algebra(f: GrassmannElement, g: GrassmannElement) -> None:
    if f.algebra != g.algebra:
        raise ValueError("elements live in different algebras")


def multiply(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Product in the graded algebra.

    Same-family generators anticommute, cross-family generators commute,
    and squares vanish; the result is returned in canonical form.
    """
    _check_same_algebra(f, g)
    table: dict[Monomial, complex] = {}
    for mono_f, coeff_f in f.terms.items():
        for mono_g, coeff_g in g.terms.items():
            sign = 1
            zero = False
            # Both factors are canonical, so only cross inversions count.
            for a in mono_f:
                for b in mono_g:
                    if a == b:
                        zero = True
                        break
                    if a.family == b.family and a > b:
                        sign = -sign
                if zero:
                    break
            if zero:
                continue
            mono = tuple(sorted(mono_f + mono_g))
            value = table.get(mono, 0.0) + sign * coeff_f * coeff_g
            if value == 0:
                table.pop(mono, None)
            else:
                table[mono] = value
    return GrassmannElement(f.algebra, table)


def _derivatives(
    f: GrassmannElement, right: bool
) -> dict[Generator, dict[Monomial, complex]]:
    """Right (or left) derivative terms of ``f`` by each generator it has."""
    out: dict[Generator, dict[Monomial, complex]] = {}
    for mono, coeff in f.terms.items():
        for pos, gen in enumerate(mono):
            # Move gen to the right (left) end, one flip per same-family hop.
            passed = mono[pos + 1 :] if right else mono[:pos]
            hops = sum(1 for other in passed if other.family == gen.family)
            out.setdefault(gen, {})[mono[:pos] + mono[pos + 1 :]] = coeff * (-1) ** hops
    return out


def right_derivative(f: GrassmannElement, gen: Generator) -> GrassmannElement:
    """Right-acting derivative with respect to a single generator."""
    f.algebra.validate_generator(gen)
    return GrassmannElement(f.algebra, _derivatives(f, right=True).get(gen, {}))


def left_derivative(f: GrassmannElement, gen: Generator) -> GrassmannElement:
    """Left-acting derivative: the generator moves to the left end instead."""
    f.algebra.validate_generator(gen)
    return GrassmannElement(f.algebra, _derivatives(f, right=False).get(gen, {}))


def star_involution(f: GrassmannElement) -> GrassmannElement:
    """Graded star: conjugate coefficients and reverse each monomial.

    Generators are star-fixed, so a degree-k same-family block picks up the
    reversal sign (-1)**(k(k-1)/2).
    """
    terms = [
        (tuple(reversed(mono)), np.conj(coeff)) for mono, coeff in f.terms.items()
    ]
    return GrassmannElement.from_terms(f.algebra, terms)


def plus_involution(f: GrassmannElement, rho: np.ndarray) -> GrassmannElement:
    """Involution adapted to transformed generators.

    Each coordinate generator maps to ``sum_k rho[k, i] zeta_k`` (merged
    family-major index), coefficients are conjugated and monomials reversed.
    With ``rho`` the identity this reduces to :func:`star_involution`.

    Args:
        f: Element containing coordinate generators only.
        rho: Positive matrix of shape (N, N), N the total coordinate count,
            built from the transformation as Lambda Lambda^dagger.
    """
    algebra = f.algebra
    n = algebra.total_coordinates
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (n, n):
        raise ValueError(f"rho must have shape ({n}, {n})")
    images = []
    for gen in algebra.coordinates():
        col = algebra.merged_index(gen)
        images.append(
            GrassmannElement.from_terms(
                algebra,
                [
                    ((other,), rho[algebra.merged_index(other), col])
                    for other in algebra.coordinates()
                ],
            )
        )
    result = GrassmannElement.zero(algebra)
    for mono, coeff in f.terms.items():
        if any(gen.momentum for gen in mono):
            raise ValueError("plus involution is defined on coordinate monomials")
        acc = GrassmannElement.unit(algebra, np.conj(coeff))
        for gen in reversed(mono):
            acc = multiply(acc, images[algebra.merged_index(gen)])
        result = result + acc
    return result


def is_plus_real(
    f: GrassmannElement, rho: np.ndarray, tol: float = COEFF_TOL
) -> bool:
    """Whether ``f`` is fixed by the plus involution within ``tol``."""
    return plus_involution(f, rho).allclose(f, tol)


def _mono_family_parity(mono: Monomial, algebra: AlgebraSpec) -> tuple[int, ...]:
    counts = [0] * len(algebra.family_sizes)
    for gen in mono:
        counts[gen.family] += 1
    return tuple(c % 2 for c in counts)


def family_components(
    f: GrassmannElement,
) -> dict[tuple[int, ...], GrassmannElement]:
    """Split an element into its family-parity homogeneous pieces."""
    pieces: dict[tuple[int, ...], dict[Monomial, complex]] = {}
    for mono, coeff in f.terms.items():
        key = _mono_family_parity(mono, f.algebra)
        pieces.setdefault(key, {})[mono] = coeff
    return {
        key: GrassmannElement(f.algebra, table) for key, table in pieces.items()
    }


def commutation_factor(pf: Sequence[int], pg: Sequence[int]) -> int:
    """Sign picked up when family-graded elements swap.

    One flip per family in which both parity vectors are odd; families are
    independent, so a single total parity cannot express this.
    """
    sign = 1
    for a, b in zip(pf, pg):
        if a and b:
            sign = -sign
    return sign


#: Generator -> ((generator, scalar bracket), ...), nonzero entries only.
_BracketTable: TypeAlias = dict[Generator, tuple[tuple[Generator, complex], ...]]


def _bracket_table(
    algebra: AlgebraSpec, constraints: Sequence[GrassmannElement]
) -> _BracketTable:
    """Canonical table omega_P, minus A C^-1 B when constraints are given."""
    if not algebra.momenta_attached:
        raise ValueError("brackets need an algebra with momenta")
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    n = algebra.total_coordinates
    omega = np.zeros((2 * n, 2 * n), dtype=complex)
    omega[:n, n:] = omega[n:, :n] = np.eye(n)
    if constraints:
        # Row k of u holds the coefficients of phi_k = sum_c u_kc z_c.
        u = np.zeros((len(constraints), 2 * n), dtype=complex)
        for k, phi in enumerate(constraints):
            if phi.algebra != algebra:
                raise ValueError(f"constraint {k} lives in a different algebra")
            for mono, coeff in phi.terms.items():
                if len(mono) != 1:
                    raise ValueError(f"constraint {k} is not linear in the generators")
                u[k, gens.index(mono[0])] = coeff
        a = omega @ u.T
        b = u @ omega
        c = u @ a
        if np.linalg.matrix_rank(c) < len(constraints):
            raise ValueError("constraint bracket matrix C is singular")
        omega = omega - a @ np.linalg.solve(c, b)
    return {
        gens[i]: tuple((gens[j], complex(omega[i, j])) for j in np.flatnonzero(omega[i]))
        for i in range(2 * n)
    }


@lru_cache(maxsize=None)
def _canonical_tables(algebra: AlgebraSpec) -> tuple[_BracketTable, _BracketTable]:
    """Poisson table and the Dirac table of :func:`canonical_constraints`."""
    dirac = _bracket_table(algebra, canonical_constraints(algebra))
    return _bracket_table(algebra, ()), dirac


def _table_bracket(
    f: GrassmannElement, g: GrassmannElement, table: _BracketTable
) -> GrassmannElement:
    """sum_(a,b) d_R f/dz_a . table_ab . d_L g/dz_b, visiting only entries
    whose row generator occurs in ``f`` and column generator in ``g``."""
    _check_same_algebra(f, g)
    left = _derivatives(g, right=False)
    terms = [
        (mono_f + mono_g, weight * coeff_f * coeff_g)
        for a, df in _derivatives(f, right=True).items()
        for b, weight in table[a] if b in left
        for mono_f, coeff_f in df.items()
        for mono_g, coeff_g in left[b].items()
    ]
    return GrassmannElement.from_terms(f.algebra, terms)


def graded_poisson(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Graded Poisson bracket for odd coordinates and momenta.

        {f, g} = sum_(a,b) d_R f/dz_a . omega_ab . d_L g/dz_b

    over the generators z, with d_R and d_L the right- and left-acting
    derivatives and omega the canonical table {xi_i, pi_i} = {pi_i, xi_i}
    = 1, zero elsewhere, built once per algebra.  The bracket is graded
    antisymmetric with the family-wise :func:`commutation_factor` and obeys
    the graded Leibniz rule in both slots; it is bilinear, so arguments of
    mixed parity need no splitting.
    """
    return _table_bracket(f, g, _canonical_tables(f.algebra)[0])


def canonical_constraints(algebra: AlgebraSpec) -> tuple[GrassmannElement, ...]:
    """Second-class constraints pi_i - (i/2) xi_i, family-major order.

    Being linear, they give C = {phi_i, phi_j} = -i times the identity and
    the constant Dirac table of :func:`dirac_bracket`.
    """
    if not algebra.momenta_attached:
        raise ValueError("constraints need an algebra with momenta")
    return tuple(
        GrassmannElement.from_terms(
            algebra, [((coord._replace(momentum=True),), 1.0), ((coord,), -0.5j)]
        )
        for coord in algebra.coordinates()
    )


def dirac_bracket(
    f: GrassmannElement,
    g: GrassmannElement,
    constraints: Sequence[GrassmannElement] | None = None,
) -> GrassmannElement:
    """Dirac bracket induced by linear second-class constraints phi_k.

    It is :func:`graded_poisson` with the table omega_D = omega_P - A C^-1 B,
    where A_ak = {z_a, phi_k}, B_kb = {phi_k, z_b} and C_kl = {phi_k, phi_l}
    are scalar Poisson brackets; this equals {f, g} - {f, phi_k} (C^-1)_kl
    {phi_l, g}.  For the default :func:`canonical_constraints` the table,
    built once per algebra, is {xi_i, xi_j}_D = -i delta_ij, {xi_i, pi_j}_D
    = delta_ij / 2, {pi_i, pi_j}_D = i delta_ij / 4, cross-family entries
    zero.  Explicit constraints get their table derived on each call.

    Raises:
        ValueError: If an explicit constraint lives in another algebra or is
            not linear in the generators, or if C is singular.
    """
    if constraints is None:
        table = _canonical_tables(f.algebra)[1]
    else:
        table = _bracket_table(f.algebra, tuple(constraints))
    return _table_bracket(f, g, table)
