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

Internally a monomial is one integer bitmask over a layout fixed per
:class:`AlgebraSpec` (the bitmap basis blades of Dorst, Fontijne & Mann,
*Geometric Algebra for Computer Science*, 2007).  Bit order is the canonical
order, so for families of sizes (n_0, n_1, ...) with momenta attached, family
f occupies one contiguous block: its coordinates xi_0..xi_{n_f - 1}, then its
momenta pi_0..pi_{n_f - 1}; without momenta the block holds the coordinates
only and bit b is the family-major coordinate index.  A canonical monomial is
the OR of its generators' bits, read low to high.  Two monomials share a
generator, and their product vanishes, when ``m_f & m_g`` is nonzero.  The
sign of the product ``m_f * m_g`` is the parity of its same-family
inversions, ``sum(popcount(m_f & hi[b]) for b in bits(m_g))``, where
``hi[b]`` masks the bits above b inside b's family; cross-family swaps are
free.  Generators are validated once, where words of :class:`Generator`
enter (``from_terms``, ``from_generator``), and the
Generator-keyed :attr:`GrassmannElement.terms` is a view built on demand.
"""

import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice
from typing import Callable, Iterator, NamedTuple, Sequence, TypeAlias

import numpy as np

__all__ = [
    "AlgebraSpec",
    "Generator",
    "GrassmannElement",
    "Monomial",
    "canonical_constraints",
    "commutation_factor",
    "constraint_reduce",
    "dirac_bracket",
    "family_components",
    "graded_poisson",
    "left_derivative",
    "multiply",
    "plus_involution",
    "right_derivative",
    "star_involution",
]

#: Relative tolerance of :meth:`GrassmannElement.allclose`.
COEFF_TOL = 1e-12

#: The i/2 of the constraints pi_i - (i/2) xi_i, which send pi_i -> (i/2) xi_i.
_HALF_I = 0.5j

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
        # operator.index takes numpy integers and refuses floats; a bool is
        # an int, so it maps to 0 and is refused with the other non-positives.
        try:
            sizes = tuple(
                0 if isinstance(n, bool) else operator.index(n)
                for n in self.family_sizes
            )
        except TypeError:
            sizes = ()
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("family sizes must be positive integers")
        object.__setattr__(self, "family_sizes", sizes)

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

    def validate_generator(self, gen: Generator) -> None:
        if not 0 <= gen.family < len(self.family_sizes):
            raise ValueError(f"unknown family {gen.family}")
        if not 0 <= gen.index < self.family_sizes[gen.family]:
            raise ValueError(f"index out of range for {gen}")
        if gen.momentum and not self.momenta_attached:
            raise ValueError("algebra carries no momentum generators")


def _bits(mask: int) -> Iterator[int]:
    """Set bit positions of ``mask``, low to high."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _product_sign(mask_f: int, mask_g: int, flip: dict[int, int]) -> int:
    """Sign of the product of canonical monomials ``mask_f * mask_g``."""
    return -1 if (mask_f & flip[mask_g]).bit_count() & 1 else 1


def _accumulate(table: dict[int, complex], mask: int, value: complex) -> None:
    """Add ``value`` to the coefficient of ``mask``, dropping exact zeros."""
    value = table.get(mask, 0.0) + value
    if value == 0:
        table.pop(mask, None)
    else:
        table[mask] = value


class _MaskMemo(dict):
    """Mask-keyed table filled on first lookup from ``build(mask)``."""

    def __init__(self, build: Callable[[int], object]) -> None:
        super().__init__()
        self._build = build

    def __missing__(self, mask: int):
        value = self[mask] = self._build(mask)
        return value


class _Layout:
    """Bit layout of one algebra (see the module docstring).

    Attributes:
        coordinate_algebra: Where :func:`constraint_reduce` lands.
        gens: Generator at each bit.
        bit: Generator -> bit.
        hi, lo: Per bit, the mask of the higher (lower) bits of its family.
        family_masks: Per family, the mask of its bits.
        momentum_mask: Mask of every momentum bit.
        merged: Coordinate bit -> family-major coordinate index.
        cross_family: (N, N) bool, True where merged coordinates i and j
            lie in different families.
        flip: mask m -> XOR of ``hi[b]`` over the bits b of m, so that
            ``popcount(m_f & flip[m_g])`` has the parity of the inversions
            of ``m_f * m_g``.
        right_splits, left_splits: mask -> ((bit, mask without it, sign),
            ...), the sign of moving that generator to the right (left) end.
        parities: mask -> per-family degree parities.
        signatures: mask -> (family, degree) of each family the monomial meets.
        monomials: mask -> canonical Generator tuple.
        reduced: mask -> (coordinate-algebra mask, sign, momentum count)
            after pi_i -> xi_i in place, or None when a coordinate repeats.
    """

    def __init__(self, algebra: AlgebraSpec) -> None:
        self.algebra = algebra
        self.coordinate_algebra = AlgebraSpec(algebra.family_sizes)
        self.gens = tuple(sorted([*algebra.coordinates(), *algebra.momenta()]))
        self.bit = {gen: b for b, gen in enumerate(self.gens)}
        family_masks = [0] * len(algebra.family_sizes)
        for b, gen in enumerate(self.gens):
            family_masks[gen.family] |= 1 << b
        self.family_masks = tuple(family_masks)
        below = [(1 << b) - 1 for b in range(len(self.gens))]
        self.hi = tuple(
            family_masks[gen.family] & ~below[b] & ~(1 << b)
            for b, gen in enumerate(self.gens)
        )
        self.lo = tuple(
            family_masks[gen.family] & below[b] for b, gen in enumerate(self.gens)
        )
        self.momentum_mask = sum(
            1 << b for b, gen in enumerate(self.gens) if gen.momentum
        )
        self.merged = {self.bit[gen]: i for i, gen in enumerate(algebra.coordinates())}
        families = [self.gens[b].family for b in self.merged]
        self.cross_family = np.not_equal.outer(families, families)
        self.flip = _MaskMemo(self._flip)
        self.right_splits = _MaskMemo(lambda mask: self._splits(mask, self.hi))
        self.left_splits = _MaskMemo(lambda mask: self._splits(mask, self.lo))
        self.parities = _MaskMemo(self._parities)
        self.signatures = _MaskMemo(lambda mask: tuple(
            (i, (mask & fm).bit_count()) for i, fm in enumerate(self.family_masks) if mask & fm))
        self.monomials = _MaskMemo(
            lambda mask: tuple(self.gens[b] for b in _bits(mask))
        )
        self.reduced = _MaskMemo(self._reduced)

    def word(self, generators: Sequence[Generator]) -> tuple[int, int] | None:
        """(mask, sign) of a generator word, or None when one repeats.

        Every generator is validated against the algebra first.
        """
        bits = []
        for gen in generators:
            b = self.bit.get(gen)
            if b is None:
                self.algebra.validate_generator(gen)
                raise ValueError(f"unknown generator {gen!r}")
            bits.append(b)
        mask = odd = 0
        for b in bits:
            if mask >> b & 1:
                return None
            odd ^= (mask & self.hi[b]).bit_count() & 1
            mask |= 1 << b
        return mask, -1 if odd else 1

    def _flip(self, mask: int) -> int:
        out = 0
        for b in _bits(mask):
            out ^= self.hi[b]
        return out

    @staticmethod
    def _splits(mask: int, passed: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
        return tuple(
            (b, mask ^ 1 << b, -1 if (mask & passed[b]).bit_count() & 1 else 1)
            for b in _bits(mask)
        )

    def _parities(self, mask: int) -> tuple[int, ...]:
        return tuple((mask & fm).bit_count() & 1 for fm in self.family_masks)

    def _reduced(self, mask: int) -> tuple[int, int, int] | None:
        # Momentum bits sit n_f above their coordinates within family f.
        momenta = mask & self.momentum_mask
        moved = 0
        for b in _bits(momenta):
            moved |= 1 << (b - self.algebra.family_sizes[self.gens[b].family])
        coords = mask ^ momenta
        if coords & moved:
            return None
        sign = _product_sign(coords, moved, self.flip)
        target = sum(1 << self.merged[b] for b in _bits(coords | moved))
        return target, sign, momenta.bit_count()


@lru_cache(maxsize=None)
def _subsets(layout: _Layout, family: int, k: int) -> tuple[np.ndarray, dict[int, int]]:
    """A family's k-subsets as rows of merged indices, and their masks -> row."""
    bits = [b for b in layout.merged if layout.gens[b].family == family]
    rows = list(combinations(bits, k))
    index = {sum(1 << b for b in row): t for t, row in enumerate(rows)}
    return np.array([[layout.merged[b] for b in row] for row in rows]), index


def _layout(algebra: AlgebraSpec) -> _Layout:
    # Keyed by the spec's fields: equal specs built apart share one layout
    # without the dataclass-generated __hash__ and __eq__ on every lookup.
    return _layout_for(algebra.family_sizes, algebra.momenta_attached)


@lru_cache(maxsize=None)
def _layout_for(family_sizes: tuple[int, ...], momenta_attached: bool) -> _Layout:
    return _Layout(AlgebraSpec(family_sizes, momenta_attached))


@dataclass
class GrassmannElement:
    """Element of a Grassmann algebra in canonical form.

    ``by_mask`` sends canonical monomials, as bitmasks of the algebra's
    layout (0 is the unit), to complex coefficients; ``terms`` is the same
    table keyed by Generator tuples.  Construct through the classmethods,
    which bring words into canonical order on entry; treat instances as immutable.
    """

    algebra: AlgebraSpec
    by_mask: dict[int, complex]

    @classmethod
    def zero(cls, algebra: AlgebraSpec) -> "GrassmannElement":
        return cls(algebra, {})

    @classmethod
    def unit(cls, algebra: AlgebraSpec) -> "GrassmannElement":
        return cls.from_terms(algebra, [((), 1.0)])

    @classmethod
    def from_generator(cls, algebra: AlgebraSpec, gen: Generator) -> "GrassmannElement":
        return cls.from_terms(algebra, [((gen,), 1.0)])

    @classmethod
    def from_terms(
        cls,
        algebra: AlgebraSpec,
        terms: Sequence[tuple[Sequence[Generator], complex]],
    ) -> "GrassmannElement":
        """Build an element from (generator word, coefficient) pairs."""
        layout = _layout(algebra)
        table: dict[int, complex] = {}
        for gens, coefficient in terms:
            term = layout.word(gens)
            if term is not None:
                mask, sign = term
                _accumulate(table, mask, sign * complex(coefficient))
        return cls(algebra, table)

    @property
    def terms(self) -> dict[Monomial, complex]:
        """Coefficients keyed by canonical Generator tuples (the unit is ())."""
        monomials = _layout(self.algebra).monomials
        return {monomials[mask]: coeff for mask, coeff in self.by_mask.items()}

    @property
    def family_parity(self) -> tuple[int, ...]:
        """Per-family degree parities; raises when monomials disagree."""
        parities = _layout(self.algebra).parities
        vectors = {parities[mask] for mask in self.by_mask}
        if not vectors:
            return tuple(0 for _ in self.algebra.family_sizes)
        if len(vectors) > 1:
            raise ValueError("element is not homogeneous family-wise")
        return vectors.pop()

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.by_mask.values())

    def allclose(self, other: "GrassmannElement") -> bool:
        """Each coefficient gap within ``COEFF_TOL`` times either element's max |c|."""
        if self.algebra != other.algebra:
            return False
        scale = max(map(abs, [*self.by_mask.values(), *other.by_mask.values()]), default=0.0)
        return all(abs(c) <= COEFF_TOL * scale for c in (self - other).by_mask.values())

    def __add__(self, other: "GrassmannElement") -> "GrassmannElement":
        _check_same_algebra(self, other)
        table = dict(self.by_mask)
        for mask, coeff in other.by_mask.items():
            _accumulate(table, mask, coeff)
        return GrassmannElement(self.algebra, table)

    def __sub__(self, other: "GrassmannElement") -> "GrassmannElement":
        return self + (-other)

    def __neg__(self) -> "GrassmannElement":
        return GrassmannElement(
            self.algebra, {mask: -coeff for mask, coeff in self.by_mask.items()}
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
            self.algebra, {mask: factor * coeff for mask, coeff in self.by_mask.items()}
        )

    def __str__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mono in sorted(terms, key=lambda m: (len(m), m)):
            word = "*".join(gen.name for gen in mono) or "1"
            parts.append(f"({terms[mono]})*{word}")
        return " + ".join(parts)


def _check_same_algebra(f: GrassmannElement, g: GrassmannElement) -> None:
    if f.algebra is not g.algebra and f.algebra != g.algebra:
        raise ValueError("elements live in different algebras")


def multiply(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Product in the graded algebra.

    Same-family generators anticommute, cross-family generators commute,
    and squares vanish; the result is returned in canonical form.
    """
    _check_same_algebra(f, g)
    flip = _layout(f.algebra).flip
    table: dict[int, complex] = {}
    for mask_f, coeff_f in f.by_mask.items():
        for mask_g, coeff_g in g.by_mask.items():
            if mask_f & mask_g:
                continue
            sign = _product_sign(mask_f, mask_g, flip)
            _accumulate(table, mask_f | mask_g, sign * coeff_f * coeff_g)
    return GrassmannElement(f.algebra, table)


def _derivatives(
    f: GrassmannElement, splits: dict[int, tuple[tuple[int, int, int], ...]]
) -> dict[int, dict[int, complex]]:
    """Derivative terms of ``f`` by each generator bit it has.

    ``splits`` is the layout's ``right_splits`` or ``left_splits``: each
    generator moves to the right (left) end, one flip per same-family hop.
    """
    out: dict[int, dict[int, complex]] = {}
    for mask, coeff in f.by_mask.items():
        for b, rest, sign in splits[mask]:
            out.setdefault(b, {})[rest] = coeff * sign
    return out


def _derivative(f: GrassmannElement, gen: Generator, right: bool) -> GrassmannElement:
    layout = _layout(f.algebra)
    mask, _ = layout.word((gen,))
    splits = layout.right_splits if right else layout.left_splits
    derivatives = _derivatives(f, splits)
    return GrassmannElement(f.algebra, derivatives.get(mask.bit_length() - 1, {}))


def right_derivative(f: GrassmannElement, gen: Generator) -> GrassmannElement:
    """Right-acting derivative with respect to a single generator."""
    return _derivative(f, gen, right=True)


def left_derivative(f: GrassmannElement, gen: Generator) -> GrassmannElement:
    """Left-acting derivative: the generator moves to the left end instead."""
    return _derivative(f, gen, right=False)


def star_involution(f: GrassmannElement) -> GrassmannElement:
    """Graded star: conjugate coefficients and reverse each monomial.

    Generators are star-fixed, so a degree-k same-family block picks up the
    reversal sign (-1)**(k(k-1)/2).
    """
    flip = _layout(f.algebra).flip
    table: dict[int, complex] = {}
    for mask, coeff in f.by_mask.items():
        # Reversal inverts every same-family pair: the sign of mask * mask.
        _accumulate(table, mask, _product_sign(mask, mask, flip) * coeff.conjugate())
    return GrassmannElement(f.algebra, table)


def plus_involution(
    f: GrassmannElement | Sequence[GrassmannElement], rho: np.ndarray
) -> GrassmannElement | list[GrassmannElement]:
    """Involution adapted to transformed generators.

    Each coordinate generator maps to ``sum_k rho[k, i] zeta_k`` (merged
    family-major index), coefficients are conjugated and monomials reversed.
    With ``rho`` the identity this reduces to :func:`star_involution`.

    Args:
        f: Element containing coordinate generators only, or a sequence.
        rho: Block-diagonal (N, N) matrix, N the total coordinate count, built
            as Lambda Lambda^dagger, or an (m, N, N) stack, one per element.  A
            cross-family entry is refused: it would send a generator out of its
            family and break the algebra relations.
    """
    one = isinstance(f, GrassmannElement)
    return _substitute(star_involution(f) if one else [*map(star_involution, f)], rho)


def _substitute(f, matrix):
    """Change of generators ``xi_i -> sum_k matrix[k, i] xi_k`` in each family.

    A degree-k part moves with the k x k minors of its family's block M_f
    (Berezin 1987): ``xi_J`` gets ``sum_I c_I prod_f det(M_f[J_f, I_f])`` over
    sources I of equal per-family degrees, in insertion order.  Elements of one
    algebra move with an (m, N, N) stack in one batched det per family and
    degree, each with its own call's bits.  A cross-family or non-finite entry
    is refused by stack entry: its images break the algebra relations.
    """
    if isinstance(f, GrassmannElement):
        return _substitute([f], np.asarray(matrix)[None])[0]
    stack = np.asarray(matrix, dtype=complex)
    if not f:
        if stack.ndim != 3 or len(stack):
            raise ValueError(f"need 0 matrices, got shape {stack.shape}")
        return []
    layout = _layout(f[0].algebra)
    cross = layout.cross_family
    if stack.shape != (len(f), *cross.shape):
        raise ValueError(f"need {len(f)} matrices of shape {cross.shape}, got {stack.shape}")
    finite = np.isfinite(stack).all(axis=(1, 2))
    for k in np.flatnonzero(~finite | stack[:, cross].any(axis=1))[:1].tolist():
        failure = "block-diagonal over the families" if finite[k] else "finite"
        raise ValueError(f"matrix is not {failure} at stack entry {k}")
    # Sources keyed by their signature, the (family, degree) of each family met;
    # each (family, degree) gathers its (entry, source subset) picks in stack order.
    jobs, picks = [], {}
    for e, g in enumerate(f):
        _check_same_algebra(f[0], g)
        groups: dict[tuple[tuple[int, int], ...], dict[int, complex]] = {}
        for mask, coeff in g.by_mask.items():
            if mask & layout.momentum_mask:
                raise ValueError("a change of generators acts on coordinate monomials")
            groups.setdefault(layout.signatures[mask], {})[mask] = coeff
        for signature, sources in groups.items():
            jobs.append((e, signature, sources))
            for i, k in signature:
                index, fm = _subsets(layout, i, k)[1], layout.family_masks[i]
                picks.setdefault((i, k), []).extend((e, index[m & fm]) for m in sources)
    # On merged indices, a block-diagonal matrix's in-family minors are its blocks'.
    columns = {}
    for (i, k), pairs in picks.items():
        subsets = _subsets(layout, i, k)[0]
        e, rows = np.array(pairs).T
        minors = stack[e[:, None, None, None], subsets[:, :, None], subsets[rows][:, None, None]]
        columns[i, k] = iter(np.linalg.det(minors).tolist())
    tables: list[dict[int, complex]] = [{} for _ in f]
    for e, signature, sources in jobs:
        # Rows pair each target, first family outermost, with one term per source:
        # its coefficient times its families' minors, in family order, taken back
        # from each (family, degree) in the order its picks were gathered.
        rows = [(0, tuple(sources.values()))]
        for i, k in signature:
            pairs = list(zip(_subsets(layout, i, k)[1], zip(*islice(columns[i, k], len(sources)))))
            rows = [(t + u, tuple(map(operator.mul, a, b))) for t, a in rows for u, b in pairs]
        for target, terms in rows:
            _accumulate(tables[e], target, reduce(operator.add, terms, 0j))
    return [GrassmannElement(g.algebra, table) for g, table in zip(f, tables)]


def family_components(
    f: GrassmannElement,
) -> dict[tuple[int, ...], GrassmannElement]:
    """Split an element into its family-parity homogeneous pieces."""
    parities = _layout(f.algebra).parities
    pieces: dict[tuple[int, ...], dict[int, complex]] = {}
    for mask, coeff in f.by_mask.items():
        pieces.setdefault(parities[mask], {})[mask] = coeff
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


#: Row per generator bit: ((column bit, scalar bracket), ...), nonzero
#: entries only, columns in coordinates-then-momenta order.
_BracketTable: TypeAlias = tuple[tuple[tuple[int, complex], ...], ...]


def _rows(omega: np.ndarray, bits: list[int]) -> _BracketTable:
    """Table rows keyed by generator bit, from a coordinates-then-momenta
    matrix."""
    rows: list[tuple[tuple[int, complex], ...]] = [()] * len(bits)
    for i, row in enumerate(omega):
        rows[bits[i]] = tuple((bits[j], complex(row[j])) for j in np.flatnonzero(row))
    return tuple(rows)


@lru_cache(maxsize=None)
def _canonical_tables(algebra: AlgebraSpec) -> tuple[_BracketTable, _BracketTable]:
    """Poisson table omega_P and Dirac table omega_P - A C^-1 B of
    :func:`canonical_constraints`."""
    if not algebra.momenta_attached:
        raise ValueError("brackets need an algebra with momenta")
    layout = _layout(algebra)
    bits = [layout.bit[gen] for gen in [*algebra.coordinates(), *algebra.momenta()]]
    n = algebra.total_coordinates
    omega = np.zeros((2 * n, 2 * n), dtype=complex)
    omega[:n, n:] = omega[n:, :n] = np.eye(n)
    # Row k of u holds the coefficients of phi_k = sum_c u_kc z_c.
    u = np.zeros((n, 2 * n), dtype=complex)
    for k, phi in enumerate(canonical_constraints(algebra)):
        for mask, coeff in phi.by_mask.items():
            u[k, bits.index(mask.bit_length() - 1)] = coeff
    a = omega @ u.T
    b = u @ omega
    c = u @ a
    return _rows(omega, bits), _rows(omega - a @ np.linalg.solve(c, b), bits)


def _table_bracket(
    f: GrassmannElement, g: GrassmannElement, table: _BracketTable
) -> GrassmannElement:
    """sum_(a,b) d_R f/dz_a . table_ab . d_L g/dz_b, visiting only entries
    whose row generator occurs in ``f`` and column generator in ``g``."""
    _check_same_algebra(f, g)
    layout = _layout(f.algebra)
    flip = layout.flip
    left = _derivatives(g, layout.left_splits)
    out: dict[int, complex] = {}
    for a, df in _derivatives(f, layout.right_splits).items():
        for b, weight in table[a]:
            dg = left.get(b)
            if dg is None:
                continue
            for mask_f, coeff_f in df.items():
                scaled = weight * coeff_f
                for mask_g, coeff_g in dg.items():
                    if mask_f & mask_g:
                        continue
                    sign = _product_sign(mask_f, mask_g, flip)
                    _accumulate(out, mask_f | mask_g, sign * (scaled * coeff_g))
    return GrassmannElement(f.algebra, out)


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
            algebra, [((coord._replace(momentum=True),), 1.0), ((coord,), -_HALF_I)]
        )
        for coord in algebra.coordinates()
    )


def constraint_reduce(f: GrassmannElement) -> GrassmannElement:
    """Eliminate momenta through the second-class :func:`canonical_constraints`.

    Substitutes ``pi_i -> (i/2) xi_i`` term by term, landing in the
    coordinate-only ``AlgebraSpec(f.algebra.family_sizes)`` (one instance
    per algebra); repeated coordinates annihilate, which is exactly the
    antisymmetrization the symmetrized operator product would perform.
    """
    layout = _layout(f.algebra)
    table: dict[int, complex] = {}
    for mask, coeff in f.by_mask.items():
        move = layout.reduced[mask]
        if move is None:
            continue
        target, sign, momenta = move
        for _ in range(momenta):
            coeff = coeff * _HALF_I
        _accumulate(table, target, sign * complex(coeff))
    return GrassmannElement(layout.coordinate_algebra, table)


def dirac_bracket(f: GrassmannElement, g: GrassmannElement) -> GrassmannElement:
    """Dirac bracket induced by the second-class :func:`canonical_constraints`.

    It is :func:`graded_poisson` with the table omega_D = omega_P - A C^-1 B,
    where A_ak = {z_a, phi_k}, B_kb = {phi_k, z_b} and C_kl = {phi_k, phi_l}
    are scalar Poisson brackets; this equals {f, g} - {f, phi_k} (C^-1)_kl
    {phi_l, g}.  The table, built once per algebra, is {xi_i, xi_j}_D =
    -i delta_ij, {xi_i, pi_j}_D = delta_ij / 2, {pi_i, pi_j}_D = i delta_ij / 4,
    cross-family entries zero.
    """
    return _table_bracket(f, g, _canonical_tables(f.algebra)[1])
