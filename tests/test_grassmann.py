"""Tests for the symbolic Grassmann layer.

Hand-computed oracles are frozen as exact coefficient tables.  Algebraic laws
are checked property-style with small Gaussian-integer coefficients, so every
float operation involved is exact and equality can be tested without
tolerances.
"""

import grassmann_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin.grassmann import (
    COEFF_TOL,
    AlgebraSpec,
    Generator,
    GrassmannElement,
    canonical_constraints,
    commutation_factor,
    constraint_reduce,
    dirac_bracket,
    family_components,
    graded_poisson,
    left_derivative,
    multiply,
    plus_involution,
    right_derivative,
    star_involution,
)

ALG = AlgebraSpec((3, 3), momenta_attached=True)
XI = [ALG.coordinate(0, i) for i in range(3)]
CHI = [ALG.coordinate(1, i) for i in range(3)]
PI = [ALG.momentum(0, i) for i in range(3)]
VARPI = [ALG.momentum(1, i) for i in range(3)]
ALL_GENS = list(ALG.coordinates()) + list(ALG.momenta())

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_j, _i, _k] = -1.0


def elem(*gens, c=1.0):
    return GrassmannElement.from_terms(ALG, [(gens, c)])


def gen_elem(gen):
    return GrassmannElement.from_generator(ALG, gen)


gaussian_ints = st.builds(complex, st.integers(-3, 3), st.integers(-3, 3))
words = st.lists(st.sampled_from(ALL_GENS), max_size=4)
elements = st.lists(st.tuples(words, gaussian_ints), max_size=3).map(
    lambda terms: GrassmannElement.from_terms(ALG, terms)
)


FAM0 = [g for g in ALL_GENS if g.family == 0]
FAM1 = [g for g in ALL_GENS if g.family == 1]


@st.composite
def family_homogeneous(draw, p0, p1):
    """Elements whose monomials all share the family parity (p0, p1)."""
    n0 = draw(st.sampled_from([p0, p0 + 2]))
    n1 = draw(st.sampled_from([p1, p1 + 2]))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        w0 = draw(st.lists(st.sampled_from(FAM0), min_size=n0, max_size=n0))
        w1 = draw(st.lists(st.sampled_from(FAM1), min_size=n1, max_size=n1))
        terms.append((tuple(w0 + w1), draw(gaussian_ints)))
    return GrassmannElement.from_terms(ALG, terms)


# ---------------------------------------------------------------------------
# canonical form


def canonical_terms(word, coefficient):
    return GrassmannElement.from_terms(ALG, [(word, coefficient)]).terms


def test_canonicalize_counts_same_family_inversions():
    assert canonical_terms([XI[1], XI[0]], 1.0) == {(XI[0], XI[1]): -1.0}
    assert canonical_terms([CHI[0], XI[0]], 1.0) == {(XI[0], CHI[0]): 1.0}
    assert canonical_terms([PI[0], XI[2]], 2.0) == {(XI[2], PI[0]): -2.0}
    assert canonical_terms([XI[0], XI[0]], 1.0) == {}


def test_canonical_order_is_family_kind_index():
    word = [VARPI[0], CHI[2], PI[1], XI[0]]
    (mono,) = canonical_terms(word, 1.0)
    assert mono == (XI[0], PI[1], CHI[2], VARPI[0])


def test_validation_errors():
    with pytest.raises(ValueError):
        ALG.coordinate(0, 3)
    with pytest.raises(ValueError):
        ALG.coordinate(2, 0)
    with pytest.raises(ValueError):
        AlgebraSpec((3,)).momentum(0, 0)
    other = GrassmannElement.unit(AlgebraSpec((3,)))
    with pytest.raises(ValueError):
        multiply(GrassmannElement.unit(ALG), other)
    for sizes in ((2.7, 1), (3, True), (np.True_,)):
        with pytest.raises(ValueError, match="family sizes"):
            AlgebraSpec(sizes)
    assert AlgebraSpec((np.int64(3),)).family_sizes == (3,)


# ---------------------------------------------------------------------------
# product structure


def test_generator_pair_relations_exhaustive():
    for a in ALL_GENS:
        for b in ALL_GENS:
            ab = multiply(gen_elem(a), gen_elem(b))
            ba = multiply(gen_elem(b), gen_elem(a))
            if a == b:
                assert ab.terms == {}
            elif a.family == b.family:
                assert (ab + ba).terms == {}
            else:
                assert (ab - ba).terms == {}


def test_known_four_generator_product():
    lhs = multiply(elem(XI[0], CHI[1]), elem(XI[1], CHI[0]))
    assert lhs.terms == elem(XI[0], XI[1], CHI[0], CHI[1], c=-1.0).terms


@given(elements, elements, elements)
def test_multiply_associative(f, g, h):
    assert multiply(multiply(f, g), h).terms == multiply(f, multiply(g, h)).terms


@given(elements, elements, elements)
def test_multiply_distributive(f, g, h):
    lhs = multiply(f, g + h)
    rhs = multiply(f, g) + multiply(f, h)
    assert lhs.terms == rhs.terms


@given(words, words)
def test_monomials_commute_family_wise(word_a, word_b):
    # Swapping two monomials costs one sign per same-family generator pair.
    sign = 1
    for fam in (0, 1):
        ka = sum(1 for g in word_a if g.family == fam)
        kb = sum(1 for g in word_b if g.family == fam)
        sign *= (-1) ** (ka * kb)
    f = GrassmannElement.from_terms(ALG, [(word_a, 1.0)])
    g = GrassmannElement.from_terms(ALG, [(word_b, 1.0)])
    assert multiply(f, g).terms == (sign * multiply(g, f)).terms


# ---------------------------------------------------------------------------
# derivatives


def test_right_derivative_known_values():
    f = elem(XI[0], XI[1], XI[2])
    assert right_derivative(f, XI[1]).terms == elem(XI[0], XI[2], c=-1.0).terms
    assert right_derivative(f, XI[2]).terms == elem(XI[0], XI[1]).terms
    assert right_derivative(f, CHI[0]).terms == {}
    # Cross-family generators are passed without sign.
    g = elem(XI[0], CHI[0])
    assert right_derivative(g, XI[0]).terms == elem(CHI[0]).terms
    assert right_derivative(g, CHI[0]).terms == elem(XI[0]).terms


def test_left_derivative_known_values():
    f = elem(XI[0], XI[1])
    assert left_derivative(f, XI[0]).terms == elem(XI[1]).terms
    assert left_derivative(f, XI[1]).terms == elem(XI[0], c=-1.0).terms
    # On a degree-2 word the left and right derivatives differ by a sign.
    assert left_derivative(f, XI[1]).terms == (-right_derivative(f, XI[1])).terms
    # Cross-family generators contribute no sign on either side.
    g = elem(CHI[0], XI[0], XI[1])
    assert left_derivative(g, XI[1]).terms == elem(CHI[0], XI[0], c=-1.0).terms


@given(elements)
def test_right_derivative_nilpotent(f):
    d1 = right_derivative(f, XI[0])
    assert right_derivative(d1, XI[0]).terms == {}


# ---------------------------------------------------------------------------
# involutions


def test_star_sign_table():
    assert star_involution(elem(XI[0], XI[1])).terms == elem(XI[0], XI[1], c=-1).terms
    assert star_involution(elem(XI[0], XI[1], c=1j)).terms == elem(XI[0], XI[1], c=1j).terms
    assert (
        star_involution(elem(XI[0], XI[1], XI[2])).terms
        == elem(XI[0], XI[1], XI[2], c=-1).terms
    )
    # Degree four with a 2+2 family split: both blocks flip, net sign +1.
    f = elem(XI[0], XI[1], CHI[0], CHI[1], c=2 + 1j)
    assert star_involution(f).terms == elem(XI[0], XI[1], CHI[0], CHI[1], c=2 - 1j).terms


@given(elements)
def test_star_is_involutive(f):
    assert star_involution(star_involution(f)).terms == f.terms


@given(elements, elements)
def test_star_reverses_products(f, g):
    lhs = star_involution(multiply(f, g))
    rhs = multiply(star_involution(g), star_involution(f))
    assert lhs.terms == rhs.terms


def test_plus_involution_with_identity_is_star():
    f = GrassmannElement.from_terms(
        ALG, [((XI[0], CHI[1]), 1 + 2j), ((XI[1],), -3j), ((), 0.5)]
    )
    rho = np.eye(6)
    assert plus_involution(f, rho).terms == star_involution(f).terms


def test_plus_involution_involutive_for_orthogonal_transport():
    # rho from a complex orthogonal map satisfies rho rho^T = I, which makes
    # the involution square to the identity.
    a = 0.7
    lam = np.array(
        [
            [np.cosh(a), 1j * np.sinh(a), 0.0],
            [-1j * np.sinh(a), np.cosh(a), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert np.max(np.abs(lam @ lam.T - np.eye(3))) < 1e-12
    rho = lam @ lam.conj().T
    alg = AlgebraSpec((3,))
    z = [alg.coordinate(0, i) for i in range(3)]
    f = GrassmannElement.from_terms(
        alg, [((z[0], z[1]), 1 + 2j), ((z[1], z[2]), 0.5 - 1j), ((z[0],), 3.0)]
    )
    f_pp = plus_involution(plus_involution(f, rho), rho)
    assert oracle.close_within(f_pp, f, 1e-12)
    assert not oracle.close_within(plus_involution(f, np.eye(3)), f, 1e-12)


@pytest.mark.parametrize("c", [2.0**-600, 1.0, 2.0**600], ids=["2^-600", "1", "2^600"])
def test_allclose_is_relative_to_the_largest_coefficient(c):
    f = elem(XI[0], XI[1], c=3 - 4j) + elem(CHI[0], c=0.5)  # max |c| = 5
    near = f + elem(XI[2], c=COEFF_TOL / 2 * 5)
    far = f + elem(XI[2], c=2 * COEFF_TOL * 5)
    for g, close in [(f, True), (near, True), (far, False)]:
        assert f.allclose(g) is (c * f).allclose(c * g) is close
        assert g.allclose(f) is (c * g).allclose(c * f) is close
    # A NaN gap is not within any tolerance, whichever side carries it.
    poisoned = f + elem(XI[2], c=float("nan"))
    assert not (c * f).allclose(c * poisoned)
    assert not (c * poisoned).allclose(c * f)
    zero = GrassmannElement.zero(ALG)
    assert zero.allclose(zero)
    assert not zero.allclose(c * far - c * f)
    other = GrassmannElement.from_terms(AlgebraSpec((3, 3)), [((XI[0], XI[1]), 3 - 4j)])
    assert not (c * f).allclose(c * other)


def test_plus_involution_rejects_momenta():
    with pytest.raises(ValueError):
        plus_involution(elem(PI[0]), np.eye(6))
    with pytest.raises(ValueError):
        plus_involution(elem(XI[0]), np.eye(5))


# ---------------------------------------------------------------------------
# brackets


def test_poisson_generator_table():
    for fam, coords, moms in ((0, XI, PI), (1, CHI, VARPI)):
        for i in range(3):
            for j in range(3):
                delta = 1.0 if i == j else 0.0
                assert graded_poisson(
                    gen_elem(coords[i]), gen_elem(moms[j])
                ).terms == ({(): delta} if delta else {})
                assert graded_poisson(
                    gen_elem(moms[i]), gen_elem(coords[j])
                ).terms == ({(): delta} if delta else {})
                assert graded_poisson(gen_elem(coords[i]), gen_elem(coords[j])).terms == {}
                assert graded_poisson(gen_elem(moms[i]), gen_elem(moms[j])).terms == {}
    # Cross-family brackets vanish identically.
    for a in (XI[0], PI[2]):
        for b in (CHI[1], VARPI[0]):
            assert graded_poisson(gen_elem(a), gen_elem(b)).terms == {}


def test_poisson_known_composites():
    # Right derivative on the first slot, left derivative on the second:
    # {xi1 xi2, pi2 pi1} picks up two compensating inversions per pairing.
    f = elem(XI[0], XI[1])
    g = elem(PI[1], PI[0])
    expect = elem(XI[0], PI[0]) + elem(XI[1], PI[1])
    assert graded_poisson(f, g).terms == expect.terms
    # Degree-1 against degree-2 probes the left derivative in isolation.
    assert graded_poisson(elem(XI[0]), elem(XI[1], PI[0])).terms == elem(
        XI[1], c=-1.0
    ).terms


@given(
    family_homogeneous(1, 0),
    family_homogeneous(0, 1),
    family_homogeneous(1, 1),
)
def test_poisson_color_antisymmetry(f01, g10, h11):
    for f, g in ((f01, g10), (f01, h11), (g10, h11), (h11, h11)):
        eps = commutation_factor(f.family_parity, g.family_parity)
        lhs = graded_poisson(f, g)
        rhs = -eps * graded_poisson(g, f)
        assert lhs.terms == rhs.terms


@given(elements, elements, elements)
def test_poisson_bilinear(f, g, h):
    lhs = graded_poisson(f + g, h)
    rhs = graded_poisson(f, h) + graded_poisson(g, h)
    assert lhs.terms == rhs.terms
    lhs = graded_poisson(h, f + g)
    rhs = graded_poisson(h, f) + graded_poisson(h, g)
    assert lhs.terms == rhs.terms


@given(family_homogeneous(1, 0), family_homogeneous(0, 1), elements)
def test_poisson_color_leibniz(f, g, h):
    eps = commutation_factor(f.family_parity, g.family_parity)
    lhs = graded_poisson(f, g * h)
    rhs = graded_poisson(f, g) * h + eps * (g * graded_poisson(f, h))
    assert lhs.terms == rhs.terms


def test_poisson_requires_momenta():
    no_momenta = AlgebraSpec((3,))
    u = GrassmannElement.unit(no_momenta)
    with pytest.raises(ValueError):
        graded_poisson(u, u)


def test_constraint_matrix_is_minus_i_identity():
    phis = canonical_constraints(ALG)
    assert len(phis) == 6
    for i, phi_i in enumerate(phis):
        for j, phi_j in enumerate(phis):
            expect = {(): -1j} if i == j else {}
            assert graded_poisson(phi_i, phi_j).terms == expect


def test_dirac_generator_table_exact():
    # {xi,xi}_D = -i, {xi,pi}_D = 1/2, {pi,pi}_D = i/4 within a family,
    # everything cross-family vanishes; all values exact in floats.
    for a in ALL_GENS:
        for b in ALL_GENS:
            bracket = dirac_bracket(gen_elem(a), gen_elem(b))
            if a.family != b.family or a.index != b.index:
                assert bracket.terms == {}
                continue
            key = (a.momentum, b.momentum)
            expect = {
                (False, False): -1j,
                (False, True): 0.5,
                (True, False): 0.5,
                (True, True): 0.25j,
            }[key]
            assert bracket.terms == {(): expect}


def test_dirac_known_composite():
    # Hand-derived: {xi1, xi1 pi1}_D = -(1/2) xi1 - i pi1.
    bracket = dirac_bracket(elem(XI[0]), elem(XI[0], PI[0]))
    expect = elem(XI[0], c=-0.5) + elem(PI[0], c=-1j)
    assert bracket.terms == expect.terms


def test_dirac_reproduces_precession_equations():
    # With H = -(i/2) eps_ijk xi_i xi_j B_k the Dirac bracket generates
    # xidot_i = -eps_ijk xi_j B_k, the classical precession equation.
    alg = AlgebraSpec((3,), momenta_attached=True)
    xi = [GrassmannElement.from_generator(alg, alg.coordinate(0, i)) for i in range(3)]
    field = (1.5, -2.25, 0.75)
    ham = GrassmannElement.zero(alg)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if LEVI_CIVITA[i, j, k]:
                    ham = ham + (-0.5j * LEVI_CIVITA[i, j, k] * field[k]) * (
                        xi[i] * xi[j]
                    )
    for i in range(3):
        expect = GrassmannElement.zero(alg)
        for j in range(3):
            for k in range(3):
                if LEVI_CIVITA[i, j, k]:
                    expect = expect - LEVI_CIVITA[i, j, k] * field[k] * xi[j]
        assert dirac_bracket(xi[i], ham).terms == expect.terms


def test_dirac_jacobi_on_generator_triples():
    # Inner generator brackets are scalars, so each cyclic term vanishes and
    # the graded Jacobi identity holds exactly.
    zero = GrassmannElement.zero(ALG)
    sample = [XI[0], XI[1], PI[0], CHI[2], VARPI[1]]
    for a in sample:
        for b in sample:
            for c in sample:
                total = zero
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = dirac_bracket(gen_elem(y), gen_elem(z))
                    total = total + dirac_bracket(gen_elem(x), inner)
                assert total.terms == {}


def test_dirac_with_explicit_constraints_matches_default():
    # The table path against the reference bracket built from the
    # constraints themselves.
    phis = canonical_constraints(ALG)
    f = elem(XI[0], XI[1])
    g = elem(PI[1])
    assert reference_dirac(f, g, phis).terms == dirac_bracket(f, g).terms


@pytest.mark.parametrize("sizes", [(3,), (3, 3), (2, 4)])
@pytest.mark.parametrize("momenta", [False, True])
def test_constraint_reduce_lands_in_one_coordinate_algebra(sizes, momenta):
    algebra = AlgebraSpec(sizes, momenta_attached=momenta)
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    first = constraint_reduce(GrassmannElement.unit(algebra)).algebra
    assert first == AlgebraSpec(sizes)
    assert not first.momenta_attached
    # Equal specs built apart share one layout, hence one coordinate algebra.
    for gen in gens:
        element = GrassmannElement.from_generator(AlgebraSpec(sizes, momenta), gen)
        assert constraint_reduce(element).algebra is first


# ---------------------------------------------------------------------------
# reference brackets without the generator table: Poisson from derivative
# pairs per family component, Dirac from 1 + 2k Poisson brackets for k
# constraints


def reference_poisson(f, g):
    """sum_i [dR f/dxi_i . dL g/dpi_i - eps dR g/dxi_i . dL f/dpi_i] per component."""
    algebra = f.algebra
    result = GrassmannElement.zero(algebra)
    for pf, f_part in family_components(f).items():
        for pg, g_part in family_components(g).items():
            sign = commutation_factor(pf, pg)
            for coord in algebra.coordinates():
                mom = Generator(coord.family, True, coord.index)
                term = multiply(
                    right_derivative(f_part, coord), left_derivative(g_part, mom)
                )
                result = result + term
                term = multiply(
                    right_derivative(g_part, coord), left_derivative(f_part, mom)
                )
                result = result - sign * term
    return result


def reference_dirac(f, g, constraints=None):
    """{f, g} - {f, phi_i} (C^-1)_ij {phi_j, g} with C_ij = {phi_i, phi_j}."""
    if constraints is None:
        constraints = canonical_constraints(f.algebra)
    matrix = np.empty((len(constraints), len(constraints)), dtype=complex)
    for i, phi_i in enumerate(constraints):
        for j, phi_j in enumerate(constraints):
            bracket = reference_poisson(phi_i, phi_j)
            assert all(not mono for mono in bracket.terms)
            matrix[i, j] = bracket.by_mask.get(0, 0.0)
    cinv = np.linalg.inv(matrix)
    result = reference_poisson(f, g)
    left = [reference_poisson(f, phi) for phi in constraints]
    right = [reference_poisson(phi, g) for phi in constraints]
    for i in range(len(constraints)):
        for j in range(len(constraints)):
            weight = cinv[i, j]
            if weight == 0:
                continue
            result = result - weight * multiply(left[i], right[j])
    return result


ORACLE_ALGEBRAS = [
    AlgebraSpec(sizes, momenta_attached=True) for sizes in ((3,), (3, 3), (2, 4), (1, 2, 3))
]
ORACLE_IDS = [str(alg.family_sizes) for alg in ORACLE_ALGEBRAS]


def generators_of(algebra):
    return list(algebra.coordinates()) + list(algebra.momenta())


def mixed_elements(algebra):
    """Up to four terms of degree at most four, any family parities."""
    word = st.lists(st.sampled_from(generators_of(algebra)), max_size=4, unique=True)
    return st.lists(st.tuples(word, gaussian_ints), min_size=1, max_size=4).map(
        lambda terms: GrassmannElement.from_terms(algebra, terms)
    )


def random_mixed_element(rng, algebra):
    gens = generators_of(algebra)
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        picks = rng.choice(len(gens), size=int(rng.integers(0, 5)), replace=False)
        terms.append(([gens[int(k)] for k in picks], complex(*rng.normal(size=2))))
    return GrassmannElement.from_terms(algebra, terms)


@pytest.mark.parametrize("algebra", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
@settings(max_examples=60)
@given(data=st.data())
def test_table_brackets_match_reference_exactly(algebra, data):
    # Gaussian-integer coefficients keep every float operation exact, so the
    # different summation order of the table kernel cannot show.
    f = data.draw(mixed_elements(algebra))
    g = data.draw(mixed_elements(algebra))
    assert graded_poisson(f, g).terms == reference_poisson(f, g).terms
    assert dirac_bracket(f, g).terms == reference_dirac(f, g).terms


@pytest.mark.parametrize("algebra", ORACLE_ALGEBRAS, ids=ORACLE_IDS)
def test_table_brackets_match_reference_with_float_coefficients(algebra):
    # With general coefficients only the summation order differs: allow a
    # few ulps of the largest product that can enter a coefficient.
    rng = np.random.default_rng(2024)
    eps = np.finfo(float).eps
    for _ in range(40):
        f = random_mixed_element(rng, algebra)
        g = random_mixed_element(rng, algebra)
        scale = sum(map(abs, f.terms.values())) * sum(map(abs, g.terms.values()))
        tol = 64 * eps * max(scale, 1.0)
        assert oracle.close_within(graded_poisson(f, g), reference_poisson(f, g), tol)
        assert oracle.close_within(dirac_bracket(f, g), reference_dirac(f, g), tol)


@settings(max_examples=30)
@given(elements, elements)
def test_dirac_unchanged_by_rescaled_constraints(f, g):
    doubled = [2 * phi for phi in canonical_constraints(ALG)]
    assert reference_dirac(f, g, doubled).terms == dirac_bracket(f, g).terms


@settings(max_examples=30)
@given(elements, elements)
def test_dirac_unchanged_by_recombined_constraints(f, g):
    # phi'_i = M_ij phi_j spans the same constraint surface, so A C^-1 B and
    # the bracket are unchanged up to rounding.
    rng = np.random.default_rng(11)
    mix = np.eye(6) + 0.3 * rng.normal(size=(6, 6))
    assert np.linalg.cond(mix) < 10
    phis = canonical_constraints(ALG)
    recombined = [
        sum((mix[i, j] * phi for j, phi in enumerate(phis)), GrassmannElement.zero(ALG))
        for i in range(6)
    ]
    assert oracle.close_within(reference_dirac(f, g, recombined), dirac_bracket(f, g), 1e-12)


# ---------------------------------------------------------------------------
# the bitmask core against the tuple-keyed reference it replaced: same keys
# in the same order and the same coefficient bits


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS, ids=oracle.ALGEBRA_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_bitmask_core_matches_tuple_reference(algebra, data):
    terms_f = data.draw(oracle.word_terms(algebra))
    terms_g = data.draw(oracle.word_terms(algebra))
    f = GrassmannElement.from_terms(algebra, terms_f)
    g = GrassmannElement.from_terms(algebra, terms_g)
    ref_f = oracle.from_terms(algebra, terms_f)
    ref_g = oracle.from_terms(algebra, terms_g)
    assert oracle.exact(f.terms) == oracle.exact(ref_f)
    assert oracle.exact(g.terms) == oracle.exact(ref_g)
    for word, coeff in terms_f:
        term = GrassmannElement.from_terms(algebra, [(word, coeff)]).terms
        expect = oracle.from_terms(algebra, [(word, coeff)])
        assert oracle.exact(term) == oracle.exact(expect)
    expect = oracle.multiply(ref_f, ref_g)
    assert oracle.exact(multiply(f, g).terms) == oracle.exact(expect)
    assert oracle.exact((f + g).terms) == oracle.exact(oracle.add(ref_f, ref_g))
    expect = oracle.star_involution(algebra, ref_f)
    assert oracle.exact(star_involution(f).terms) == oracle.exact(expect)
    parts = family_components(f)
    expect = oracle.family_components(algebra, ref_f)
    assert list(parts) == list(expect)
    for key, part in parts.items():
        assert oracle.exact(part.terms) == oracle.exact(expect[key])
    for right, derivative in ((True, right_derivative), (False, left_derivative)):
        expect = oracle.derivatives(ref_f, right)
        for gen in oracle.generators_of(algebra):
            got = derivative(f, gen).terms
            assert oracle.exact(got) == oracle.exact(expect.get(gen, {}))


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS[::2], ids=oracle.ALGEBRA_IDS[::2])
def test_plus_involution_matches_tuple_reference(algebra):
    # rho is block-diagonal, one Gram block per family: a cross-family entry is
    # refused.  The bits are those of the per-family minors applied to the
    # star image; the multiply-chain reference checks the values independently.
    rng = np.random.default_rng(7)
    n = algebra.total_coordinates
    coords = list(algebra.coordinates())
    for _ in range(20):
        rho = np.zeros((n, n), dtype=complex)
        start = 0
        for size in algebra.family_sizes:
            a = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            rho[start : start + size, start : start + size] = a @ a.conj().T
            start += size
        terms = [
            (
                [coords[int(k)] for k in rng.choice(n, size=int(rng.integers(0, 4)))],
                complex(*rng.normal(size=2)),
            )
            for _ in range(3)
        ]
        f = GrassmannElement.from_terms(algebra, terms)
        ref = oracle.from_terms(algebra, terms)
        got = plus_involution(f, rho).terms
        starred = oracle.star_involution(algebra, ref)
        expect = oracle.transform_coefficients(algebra, starred, rho)
        assert oracle.exact(got) == oracle.exact(expect)
        chain = oracle.plus_involution(algebra, ref, rho)
        scale = max((abs(c) for c in chain.values()), default=1.0)
        gaps = [abs(got.get(m, 0) - chain.get(m, 0)) for m in got.keys() | chain.keys()]
        assert max(gaps, default=0.0) <= 1e-12 * scale
