"""Tests for the matrix realization layer.

The anchor values (Pauli blocks, precession Hamiltonian, anticommutator
tables) are frozen by hand from the Clifford relations; the correspondence
with the Dirac bracket is swept over every low-degree monomial pair.
"""

import itertools
import math
from functools import reduce

import grassmann_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    constraint_reduce,
    family_components,
    star_involution,
)
from pseudospin.quantize import (
    PAULI,
    Realization,
    _image,
    check_relations,
    correspondence_check,
    quantize,
    tensor_realization,
)

ALG = AlgebraSpec((3, 3), momenta_attached=True)
XI = [ALG.coordinate(0, i) for i in range(3)]
CHI = [ALG.coordinate(1, i) for i in range(3)]
PI = [ALG.momentum(0, i) for i in range(3)]

ATOL = 1e-13


def elem(*gens, c=1.0, algebra=ALG):
    return GrassmannElement.from_terms(algebra, [(gens, c)])


def degree(f):
    return max(map(len, f.terms), default=0)


def test_pauli_constants():
    assert np.array_equal(PAULI[0], np.array([[0, 1], [1, 0]], dtype=complex))
    assert np.array_equal(PAULI[1], np.array([[0, -1j], [1j, 0]]))
    assert np.array_equal(PAULI[2], np.array([[1, 0], [0, -1]], dtype=complex))
    with pytest.raises(ValueError):
        PAULI[0][0, 0] = 5.0


@pytest.mark.parametrize(
    "sizes, dim",
    [((1,), 1), ((2,), 2), ((3,), 2), ((5,), 4), ((3, 3), 4), ((2, 4), 8)],
)
def test_clifford_relations_across_structures(sizes, dim):
    real = tensor_realization(AlgebraSpec(sizes), hbar=1.0)
    assert real.dim == dim
    # Same-family pairs anticommute to hbar*delta, cross-family pairs commute.
    assert check_relations(real) <= 1e-15


def pairwise_relations(realization):
    """Reference residual: one anticommutator or commutator per pair."""
    pairs = list(zip(realization.algebra.coordinates(), realization.gens))
    identity = np.eye(realization.dim)
    worst = 0.0
    for a, qa in pairs:
        for b, qb in pairs:
            if a.family == b.family:
                target = realization.hbar * identity if a == b else 0.0
                residual = np.max(np.abs(qa @ qb + qb @ qa - target))
            else:
                residual = np.max(np.abs(qa @ qb - qb @ qa))
            worst = max(worst, float(residual))
    return worst


@pytest.mark.parametrize("mixed", [False, True], ids=["scaled", "mixed"])
@pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "sizes", [(1,), (3,), (5,), (2, 4), (3, 3), (1, 2, 3)], ids=str
)
def test_relations_locate_a_faulty_last_generator(sizes, hbar, mixed):
    # The stacked rows must reduce over the right axes.  Scaling the last
    # image by 1 + 1e-6 shows on its own diagonal pair; mixing in 1e-6 of
    # the first image shows on the off-diagonal pairs with the first.
    base = tensor_realization(AlgebraSpec(sizes), hbar=hbar)
    last = base.gens[-1] * (1 + 1e-6) if not mixed else base.gens[-1] + 1e-6 * base.gens[0]
    faulty = Realization(base.algebra, base.hbar, [*base.gens[:-1], last])
    residual = check_relations(faulty)
    assert residual == pairwise_relations(faulty)
    assert residual > 1e-7 * hbar


@pytest.mark.parametrize("sizes", [(3,), (3, 3), (2, 4)], ids=str)
def test_relations_of_an_overflowing_realization_are_not_finite(sizes):
    # Images scaled by 1e200 multiply out to inf, and inf - inf is nan: the
    # fold over generator rows must keep it rather than report 0.0.
    base = tensor_realization(AlgebraSpec(sizes))
    huge = Realization(base.algebra, base.hbar, base.gens * 1e200)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not math.isfinite(check_relations(huge))


def test_realization_respects_hbar_scale():
    for hbar in (0.5, 1.0, 2.0):
        real = tensor_realization(AlgebraSpec((3,)), hbar)
        for i in range(3):
            assert np.allclose(real.gens[i], np.sqrt(hbar / 2) * PAULI[i], atol=ATOL)
        assert check_relations(real) <= 1e-12


def test_two_family_slot_assignment():
    # First family acts on the fast tensor slot, second family on the slow
    # one: Q(xi_i) = sqrt(h/2) kron(I2, sigma_i), Q(chi_i) = sqrt(h/2)
    # kron(sigma_i, I2).
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    s = np.sqrt(0.5)
    for i in range(3):
        assert np.allclose(
            real.gens[i],
            s * np.kron(np.eye(2), PAULI[i]),
            atol=ATOL,
        )
        assert np.allclose(
            real.gens[3 + i],
            s * np.kron(PAULI[i], np.eye(2)),
            atol=ATOL,
        )
    # Frozen diagonal anchors for the third components.
    assert np.allclose(
        np.diag(real.gens[2]),
        s * np.array([1, -1, 1, -1]),
        atol=ATOL,
    )
    assert np.allclose(
        np.diag(real.gens[5]),
        s * np.array([1, 1, -1, -1]),
        atol=ATOL,
    )


def test_realization_validation():
    # Refused before any image is built: inf * 0 in the Kronecker images
    # would warn, and nan would fill them.
    for hbar in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="^hbar must be finite and positive$"):
            tensor_realization(AlgebraSpec((3,)), hbar=hbar)


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(gens=(np.eye(2),)), r"expected 3 square .*, got 1 of shapes \[\(2, 2\)\]$"),
        (dict(gens=(*PAULI[:2], np.eye(4))), r"got 3 of shapes \[\(2, 2\), \(4, 4\)\]$"),
        (dict(gens=np.ones((3, 2, 3))), r"got 3 of shapes \[\(2, 3\)\]$"),
        (dict(gens=np.ones((4, 2, 2))), r"expected 3 square .*, got 4 of shapes \[\(2, 2\)\]$"),
        (dict(gens=(*PAULI[:2], np.full((2, 2), math.nan))), "^generator images must be finite$"),
        (dict(hbar=-1.0), "hbar"),
        (dict(hbar=0.0), "hbar"),
        (dict(hbar=math.nan), "hbar"),
        (dict(hbar=math.inf), "hbar"),
    ],
    ids=[
        "image count", "image shape", "non-square", "too many", "non-finite image",
        "negative", "zero", "nan", "inf",
    ],
)
def test_realization_validates_on_construction(bad, match):
    fields = dict(algebra=AlgebraSpec((3,)), hbar=1.0, gens=PAULI)
    Realization(**fields)
    with pytest.raises(ValueError, match=match):
        Realization(**{**fields, **bad})


def test_realization_holds_a_frozen_copy_of_its_images():
    # One read-only (N, dim, dim) stack, dim read off it; the caller's
    # images stay writable and a later write does not reach the copy.
    paulis = [np.array(p) for p in PAULI]
    real = Realization(AlgebraSpec((3,)), 1.0, paulis)
    paulis[0][0, 0] = 7.0
    assert paulis[0].flags.writeable and not real.gens.flags.writeable
    assert real.gens.shape == (3, 2, 2) and real.dim == 2
    assert np.array_equal(real.gens, PAULI)
    with pytest.raises(ValueError, match="read-only"):
        real.gens[0, 0, 0] = 1.0
    with pytest.raises(TypeError, match="dim"):
        Realization(AlgebraSpec((3,)), 1.0, PAULI, dim=2)


def test_realizations_compare_and_hash_by_identity():
    # Realizations hold arrays, so two built alike stay distinct.
    first = tensor_realization(AlgebraSpec((3,)))
    second = tensor_realization(AlgebraSpec((3,)))
    assert (first == second) is False
    assert first == first
    assert len({first, second, first}) == 2


def test_constraint_reduce_known_values():
    # pi_i -> (i/2) xi_i inside the algebra; nilpotency kills xi_1 pi_1.
    assert constraint_reduce(elem(XI[0], PI[0])).terms == {}
    reduced = constraint_reduce(elem(XI[1], PI[0]))
    assert reduced.terms == elem(XI[0], XI[1], c=-0.5j).terms
    # Coordinates pass through untouched, into the coordinate-only algebra.
    f = elem(XI[0], CHI[1], c=2.0 - 1.0j)
    assert constraint_reduce(f).terms == f.terms
    assert constraint_reduce(f).algebra == AlgebraSpec((3, 3))


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS, ids=oracle.ALGEBRA_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_reduce_and_quantize_match_tuple_reference(algebra, data):
    terms = data.draw(oracle.word_terms(algebra, max_degree=7))
    hbar = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    f = GrassmannElement.from_terms(algebra, terms)
    ref_f = oracle.from_terms(algebra, terms)
    assert oracle.exact(constraint_reduce(f).terms) == oracle.exact(
        oracle.constraint_reduce(algebra, ref_f)
    )
    real = tensor_realization(algebra, hbar=hbar)
    expect = oracle.quantize(algebra, ref_f, real).tobytes()
    # Twice: each call builds its images afresh, so the second call repeats
    # the first's bits.
    assert quantize(f, real).tobytes() == expect
    assert quantize(f, real).tobytes() == expect


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS, ids=oracle.ALGEBRA_IDS)
@settings(max_examples=40)
@given(data=st.data())
def test_constraint_reduce_contract(algebra, data):
    f = GrassmannElement.from_terms(
        algebra, data.draw(oracle.word_terms(algebra, max_degree=7))
    )
    reduced = constraint_reduce(f)
    assert reduced.algebra == AlgebraSpec(algebra.family_sizes)
    # Reducing is idempotent, bit for bit.
    twice = constraint_reduce(reduced)
    assert twice.algebra == reduced.algebra
    assert oracle.exact(twice.by_mask) == oracle.exact(reduced.by_mask)
    # pi_i -> (i/2) xi_i stays in the family, so family parities survive.
    for piece in family_components(f).values():
        piece_reduced = constraint_reduce(piece)
        if not piece_reduced.is_zero():
            assert piece_reduced.family_parity == piece.family_parity
    # quantize reduces first, so it cannot tell f from its reduction.
    real = tensor_realization(algebra)
    assert quantize(f, real).tobytes() == quantize(reduced, real).tobytes()


def test_one_image_table_per_call():
    # The same element written with and without momenta in its algebra has
    # the same coordinate monomials, so one stacked call maps both alike, to
    # the bits of a call on either alone.
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=0.5)
    elements = []
    for algebra in (AlgebraSpec((3, 3), momenta_attached=True), AlgebraSpec((3, 3))):
        xi = [algebra.coordinate(0, i) for i in range(3)]
        chi = [algebra.coordinate(1, i) for i in range(3)]
        words = [((), 0.5), ((xi[0], chi[1]), 2.0 - 1.0j), ((xi[2], xi[0], xi[1]), 1.0j),
                 ((chi[2],), -1.5)]
        elements.append(GrassmannElement.from_terms(algebra, words))
    stack = quantize(elements, real)
    assert stack.shape == (2, 4, 4)
    assert stack[0].tobytes() == stack[1].tobytes() == quantize(elements[0], real).tobytes()


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS, ids=oracle.ALGEBRA_IDS)
@settings(max_examples=20)
@given(data=st.data())
def test_stacked_quantize_matches_one_call_per_element(algebra, data):
    # Elements written with and without momenta share one realization.
    twin = AlgebraSpec(algebra.family_sizes, momenta_attached=not algebra.momenta_attached)
    elements = [
        GrassmannElement.from_terms(alg, data.draw(oracle.word_terms(alg)))
        for alg in data.draw(st.lists(st.sampled_from([algebra, twin]), max_size=6))
    ]
    real = tensor_realization(algebra, hbar=data.draw(st.sampled_from([0.5, 1.0, 2.0])))
    stack = quantize(elements, real)
    assert stack.shape == (len(elements), real.dim, real.dim)
    assert [entry.tobytes() for entry in stack] == [quantize(f, real).tobytes() for f in elements]
    assert quantize([], real).shape == (0, real.dim, real.dim)
    # One element of another family structure, anywhere, refuses the call.
    stranger = GrassmannElement.unit(AlgebraSpec((*algebra.family_sizes, 1)))
    at = data.draw(st.integers(0, len(elements)))
    with pytest.raises(ValueError, match="different family sizes"):
        quantize([*elements[:at], stranger, *elements[at:]], real)


@pytest.mark.parametrize("sizes", [(12,), (6, 6)], ids=str)
def test_prefix_built_images_match_the_left_fold(sizes):
    # Each monomial's image is its prefix's image times one generator image,
    # which is the left fold from the identity bit for bit, on every monomial
    # of degree <= 3 (one stacked call, so the prefixes are shared).  The
    # images themselves are compared too: a one-generator image taken as the
    # generator's own array would keep its -0.0 entries, which identity @ g
    # does not, though adding into the zero matrix erases the difference.
    algebra = AlgebraSpec(sizes)
    real = tensor_realization(algebra, hbar=0.5)
    gens = list(algebra.coordinates())
    words = [w for k in range(4) for w in itertools.combinations(range(len(gens)), k)]
    monomials = [elem(*(gens[i] for i in w), algebra=algebra) for w in words]
    identity = np.eye(real.dim, dtype=complex)
    images = {0: identity}
    for word, f, matrix in zip(words, monomials, quantize(monomials, real), strict=True):
        fold = reduce(np.matmul, [real.gens[i] for i in word], identity)
        (mask,) = f.by_mask
        assert _image(images, mask, real.gens).tobytes() == fold.tobytes(), word
        expect = np.zeros_like(identity)
        expect += 1.0 * fold
        assert matrix.tobytes() == expect.tobytes(), word


def test_quantize_monomials_and_linearity():
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    s = np.sqrt(0.5)
    q1 = quantize(elem(XI[0]), real)
    q2 = quantize(elem(CHI[1]), real)
    assert np.allclose(q1, s * np.kron(np.eye(2), PAULI[0]), atol=ATOL)
    prod = quantize(elem(XI[0], CHI[1], c=3.0), real)
    assert np.allclose(prod, 3.0 * q1 @ q2, atol=ATOL)
    unit = quantize(GrassmannElement.unit(ALG), real)
    assert np.allclose(unit, np.eye(4), atol=ATOL)
    with pytest.raises(ValueError):
        quantize(elem(XI[0]), tensor_realization(AlgebraSpec((3,))))


def test_quantize_matches_graded_symmetrization():
    # For distinct generators the ordered product already equals the averaged
    # sign-weighted sum over permutations, so plain products are the map.
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    words = [
        (XI[0], XI[1]),
        (XI[0], CHI[0]),
        (XI[0], XI[1], CHI[2]),
        (XI[0], XI[1], XI[2], CHI[1]),
    ]
    for word in words:
        mats = [real.gens[oracle.merged_index(ALG, g)] for g in word]
        direct = quantize(elem(*word), real)
        acc = np.zeros((4, 4), dtype=complex)
        for perm in itertools.permutations(range(len(word))):
            sign = _permutation_color_sign(word, perm)
            term = np.eye(4, dtype=complex)
            for k in perm:
                term = term @ mats[k]
            acc += sign * term
        acc /= math.factorial(len(word))
        assert np.allclose(direct, acc, atol=1e-12)


@pytest.mark.parametrize(
    "sizes", [(1,), (3,), (3, 3), (5,), (2, 4), (1, 2, 3), (4, 4), (6,)], ids=str
)
def test_adjoint_is_the_image_of_the_star_exactly(sizes):
    # Q(f*) = Q(f)^dagger bit for bit: each monomial's image is a product of
    # hermitian generator images, and Q(f*) repeats every operation of Q(f)
    # on conjugate bits.  quantize-file --check relies on this equality.
    rng = np.random.default_rng(sum(sizes) * 10 + len(sizes))
    algebra = AlgebraSpec(sizes, momenta_attached=True)
    # Each term takes xi_i, pi_i or neither for each i, in shuffled order,
    # so that no term vanishes under pi_i -> (i/2) xi_i.
    pairs = list(zip(algebra.coordinates(), algebra.momenta()))
    for hbar in (1e-6, 0.5, 1.0, 3.0, 7.3, 1e4):
        real = tensor_realization(algebra, hbar=hbar)
        for _ in range(20):
            count = rng.integers(1, 13)
            picks = rng.integers(0, 3, size=(count, len(pairs)))
            # Coefficients over 300 decades, within one element too.
            scales = 10.0 ** rng.uniform(-150, 150, size=count)
            coefficients = (rng.normal(size=count) + 1j * rng.normal(size=count)) * scales
            terms = [
                ([pairs[i][pick[i] - 1] for i in rng.permutation(len(pairs)) if pick[i]], c)
                for pick, c in zip(picks, coefficients.tolist())
            ]
            f = constraint_reduce(GrassmannElement.from_terms(algebra, terms))
            assert np.array_equal(quantize(f, real).conj().T, quantize(star_involution(f), real))


def _permutation_color_sign(word, perm):
    sign = 1.0
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] > perm[b] and word[perm[a]].family == word[perm[b]].family:
                sign = -sign
    return sign


def test_correspondence_on_momentum_sector():
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    pairs = [
        (elem(XI[0]), elem(PI[0])),
        (elem(XI[0]), elem(XI[1], PI[0])),
        (elem(PI[0]), elem(PI[0])),
        (elem(XI[0]), elem(XI[0], CHI[0])),
        (elem(XI[0], XI[1]), elem(PI[1], PI[0])),
        (elem(XI[0], CHI[1]), elem(PI[0], CHI[1])),
    ]
    for f, g in pairs:
        assert degree(f) <= 2 and degree(g) <= 2
        residual = correspondence_check(f, g, real)
        assert residual <= 1e-12, (f, g, residual)


def test_correspondence_sweep_at_multiple_hbar():
    for hbar in (0.5, 2.0):
        real = tensor_realization(AlgebraSpec((3, 3)), hbar=hbar)
        gens = list(ALG.coordinates()) + list(ALG.momenta())
        singles = [elem(g) for g in gens[:4]]
        doubles = [elem(XI[0], PI[0]), elem(XI[1], CHI[1]), elem(PI[0], PI[1])]
        assert all(degree(m) <= 2 for m in singles + doubles)
        for f in singles + doubles:
            for g in singles + doubles:
                assert correspondence_check(f, g, real) <= 1e-12


@pytest.mark.parametrize(
    "sizes",
    [(1,), (2,), (3,), (4,), (5,), (2, 2), (1, 3), (2, 4), (1, 2, 3)],
    ids=str,
)
def test_correspondence_on_every_low_degree_pair(sizes):
    # Every unit, generator and degree-2 monomial against every other one.
    algebra = AlgebraSpec(sizes, momenta_attached=True)
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    monomials = [GrassmannElement.unit(algebra)]
    monomials += [GrassmannElement.from_generator(algebra, g) for g in gens]
    monomials += [
        GrassmannElement.from_terms(algebra, [(pair, 1.0)])
        for pair in itertools.combinations(gens, 2)
    ]
    assert all(degree(m) <= 2 for m in monomials)
    real = tensor_realization(AlgebraSpec(sizes), hbar=1.0)
    worst = 0.0
    for f in monomials:
        for g in monomials:
            worst = max(worst, correspondence_check(f, g, real))
    assert worst <= 1e-12


def test_correspondence_flags_high_degree_unsupported():
    # Beyond degree two the correspondence is not exact; the check still
    # reports the residual rather than hiding it.
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    cubic = elem(XI[0], XI[1], XI[2])
    assert degree(cubic) == 3
    assert correspondence_check(cubic, cubic, real) == pytest.approx(0.25)
