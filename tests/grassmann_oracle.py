"""Tuple-keyed reference implementations of the Grassmann core.

These are the monomial-as-Generator-tuple versions of canonicalization,
products, derivatives, involutions, constraint reduction, quantization and
coefficient transport that the bitmask core replaced.  Tables are plain
``dict[Monomial, complex]`` and accumulate in the same term order and with
the same arithmetic as the production code, so the tests compare the two
bit for bit: same keys in the same order, same coefficient ``repr`` (signed
zeros included), byte-equal matrices.
"""

from functools import reduce
from itertools import combinations, product
from operator import mul

import numpy as np
from hypothesis import strategies as st

from pseudospin.grassmann import AlgebraSpec, Generator

#: (3,), (3, 3), (2, 4) and (1, 2, 3), each without and with momenta.
ALGEBRAS = [
    AlgebraSpec(sizes, momenta_attached=momenta)
    for sizes in ((3,), (3, 3), (2, 4), (1, 2, 3))
    for momenta in (False, True)
]
ALGEBRA_IDS = [
    f"{alg.family_sizes}{'+momenta' if alg.momenta_attached else ''}"
    for alg in ALGEBRAS
]


def exact(table):
    """Order-, key- and bit-exact view of a coefficient table."""
    return [(mono, repr(coeff)) for mono, coeff in table.items()]


def generators_of(algebra):
    return list(algebra.coordinates()) + list(algebra.momenta())


def close_within(f, g, tol):
    """Whether two elements share an algebra and every coefficient gap of
    ``f - g`` is at most ``tol``, an absolute bound (a NaN gap never is)."""
    return f.algebra == g.algebra and all(abs(c) <= tol for c in (f - g).by_mask.values())


# Finite coefficients, with signed zeros forced into some of them.
_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)
coefficients = st.builds(complex, _parts, _parts)


def word_terms(algebra, max_terms=4, max_degree=5):
    """(word, coefficient) lists; words may repeat generators or be unsorted."""
    word = st.lists(st.sampled_from(generators_of(algebra)), max_size=max_degree)
    return st.lists(st.tuples(word, coefficients), max_size=max_terms)


def canonicalize(generators, coefficient, algebra):
    gens = tuple(generators)
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


def _accumulate(table, mono, coeff):
    value = table.get(mono, 0.0) + coeff
    if value == 0:
        table.pop(mono, None)
    else:
        table[mono] = value


def from_terms(algebra, terms):
    table = {}
    for gens, coefficient in terms:
        term = canonicalize(gens, coefficient, algebra)
        if term is not None:
            _accumulate(table, *term)
    return table


def add(f, g):
    table = dict(f)
    for mono, coeff in g.items():
        _accumulate(table, mono, coeff)
    return table


def multiply(f, g):
    table = {}
    for mono_f, coeff_f in f.items():
        for mono_g, coeff_g in g.items():
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
            _accumulate(table, tuple(sorted(mono_f + mono_g)), sign * coeff_f * coeff_g)
    return table


def derivatives(f, right):
    """Right (or left) derivative terms of ``f`` by each generator it has."""
    out = {}
    for mono, coeff in f.items():
        for pos, gen in enumerate(mono):
            passed = mono[pos + 1 :] if right else mono[:pos]
            hops = sum(1 for other in passed if other.family == gen.family)
            out.setdefault(gen, {})[mono[:pos] + mono[pos + 1 :]] = coeff * (-1) ** hops
    return out


def star_involution(algebra, f):
    terms = [(tuple(reversed(mono)), np.conj(coeff)) for mono, coeff in f.items()]
    return from_terms(algebra, terms)


def merged_index(algebra, gen):
    """Position of a coordinate in the family-major flattening."""
    return sum(algebra.family_sizes[: gen.family]) + gen.index


def plus_involution(algebra, f, rho):
    rho = np.asarray(rho, dtype=complex)
    images = []
    for gen in algebra.coordinates():
        col = merged_index(algebra, gen)
        images.append(
            from_terms(
                algebra,
                [
                    ((other,), rho[merged_index(algebra, other), col])
                    for other in algebra.coordinates()
                ],
            )
        )
    result = {}
    for mono, coeff in f.items():
        assert not any(gen.momentum for gen in mono)
        acc = from_terms(algebra, [((), np.conj(coeff))])
        for gen in reversed(mono):
            acc = multiply(acc, images[merged_index(algebra, gen)])
        result = add(result, acc)
    return result


def family_components(algebra, f):
    pieces = {}
    for mono, coeff in f.items():
        counts = [0] * len(algebra.family_sizes)
        for gen in mono:
            counts[gen.family] += 1
        pieces.setdefault(tuple(c % 2 for c in counts), {})[mono] = coeff
    return pieces


def constraint_reduce(algebra, f):
    terms = []
    for mono, coeff in f.items():
        word = []
        for gen in mono:
            if gen.momentum:
                coeff = coeff * 0.5j
                word.append(Generator(gen.family, False, gen.index))
            else:
                word.append(gen)
        terms.append((tuple(word), coeff))
    return from_terms(algebra, terms)


def quantize(algebra, f, realization):
    reduced = constraint_reduce(algebra, f)
    out = np.zeros((realization.dim, realization.dim), dtype=complex)
    identity = np.eye(realization.dim, dtype=complex)
    for mono, coeff in reduced.items():
        factors = [realization.gens[merged_index(algebra, gen)] for gen in mono]
        out += coeff * reduce(np.matmul, factors, identity)
    return out


def transform_coefficients(algebra, f, matrix):
    """Substitution by a block-diagonal matrix: one ``det`` per family minor.

    Sources group by per-family degrees; each term is the coefficient times
    ``det(M_f[J_f, I_f])`` for each family it spans, in family order.
    """
    matrix = np.asarray(matrix, dtype=complex)
    starts = np.cumsum((0,) + algebra.family_sizes)
    groups = {}
    for mono, coeff in f.items():
        parts = tuple(
            tuple(gen.index for gen in mono if gen.family == fam)
            for fam in range(len(algebra.family_sizes))
        )
        groups.setdefault(tuple(map(len, parts)), {})[parts] = coeff
    terms = []
    for degrees, table in groups.items():
        if not any(degrees):
            terms.append(((), table[((),) * len(degrees)]))
            continue
        active = [fam for fam, k in enumerate(degrees) if k]
        blocks = {
            fam: matrix[starts[fam] : starts[fam + 1], starts[fam] : starts[fam + 1]]
            for fam in active
        }
        choices = [combinations(range(algebra.family_sizes[fam]), degrees[fam]) for fam in active]
        for target in product(*choices):
            value = 0.0 + 0.0j
            for source, coeff in table.items():
                minors = [
                    np.linalg.det(blocks[fam][np.ix_(rows, source[fam])])
                    for fam, rows in zip(active, target)
                ]
                value += reduce(mul, minors, coeff)
            if value != 0:
                word = [algebra.coordinate(fam, i) for fam, rows in zip(active, target) for i in rows]
                terms.append((tuple(word), value))
    return from_terms(algebra, terms)
