"""Tests for the matrix realization layer.

The anchor values (Pauli blocks, precession Hamiltonian, anticommutator
tables) are frozen by hand from the Clifford relations; the correspondence
with the Dirac bracket is swept over every low-degree monomial pair.
"""

import itertools
import math

import grassmann_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    dirac_bracket,
)
from pseudospin.quantize import (
    PAULI,
    Realization,
    check_relations,
    constraint_reduce,
    correspondence_check,
    pauli_realization,
    quantize,
    similarity_transport,
    tensor_realization,
)

ALG = AlgebraSpec((3, 3), momenta_attached=True)
XI = [ALG.coordinate(0, i) for i in range(3)]
CHI = [ALG.coordinate(1, i) for i in range(3)]
PI = [ALG.momentum(0, i) for i in range(3)]

ATOL = 1e-13


def elem(*gens, c=1.0, algebra=ALG):
    return GrassmannElement.from_terms(algebra, [(gens, c)])


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
    report = check_relations(real)
    assert report.passed
    assert report.max_violation <= 1e-15
    # Same-family pairs anticommute to hbar*delta, cross-family pairs commute.
    for check in report.checks:
        assert check.residual <= 1e-15


def test_realization_respects_hbar_scale():
    for hbar in (0.5, 1.0, 2.0):
        real = pauli_realization(hbar=hbar)
        for i in range(3):
            m = real.matrix_for(real.algebra.coordinate(0, i))
            assert np.allclose(m, np.sqrt(hbar / 2) * PAULI[i], atol=ATOL)
        assert check_relations(real).passed


def test_two_family_slot_assignment():
    # First family acts on the fast tensor slot, second family on the slow
    # one: Q(xi_i) = sqrt(h/2) kron(I2, sigma_i), Q(chi_i) = sqrt(h/2)
    # kron(sigma_i, I2).
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    s = np.sqrt(0.5)
    for i in range(3):
        assert np.allclose(
            real.matrix_for(real.algebra.coordinate(0, i)),
            s * np.kron(np.eye(2), PAULI[i]),
            atol=ATOL,
        )
        assert np.allclose(
            real.matrix_for(real.algebra.coordinate(1, i)),
            s * np.kron(PAULI[i], np.eye(2)),
            atol=ATOL,
        )
    # Frozen diagonal anchors for the third components.
    assert np.allclose(
        np.diag(real.matrix_for(real.algebra.coordinate(0, 2))),
        s * np.array([1, -1, 1, -1]),
        atol=ATOL,
    )
    assert np.allclose(
        np.diag(real.matrix_for(real.algebra.coordinate(1, 2))),
        s * np.array([1, 1, -1, -1]),
        atol=ATOL,
    )


def test_realization_validation():
    with pytest.raises(ValueError):
        tensor_realization(AlgebraSpec((3,)), hbar=0.0)
    with pytest.raises(ValueError):
        tensor_realization(AlgebraSpec((3,)), hbar=-1.0)
    real = pauli_realization()
    carrier = AlgebraSpec((3,), momenta_attached=True)
    with pytest.raises(ValueError):
        real.matrix_for(carrier.momentum(0, 0))


@pytest.mark.parametrize(
    "bad, match",
    [
        (dict(gens=(np.eye(2, dtype=complex),)), "expected 3 generator images, got 1"),
        (dict(dim=4), "does not match dim 4"),
        (dict(hbar=-1.0), "hbar"),
        (dict(hbar=0.0), "hbar"),
        (dict(hbar=math.nan), "hbar"),
        (dict(hbar=math.inf), "hbar"),
    ],
    ids=["image count", "image shape", "negative", "zero", "nan", "inf"],
)
def test_realization_validates_on_construction(bad, match):
    paulis = tuple(np.array(p) for p in PAULI)
    fields = dict(algebra=AlgebraSpec((3,)), hbar=1.0, dim=2, gens=paulis)
    Realization(**fields)
    with pytest.raises(ValueError, match=match):
        Realization(**{**fields, **bad})


def test_realizations_compare_and_hash_by_identity():
    # Each realization owns its image table, so two built alike stay distinct.
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
    # Coordinates pass through untouched.
    f = elem(XI[0], CHI[1], c=2.0 - 1.0j)
    assert constraint_reduce(f).terms == f.terms


@pytest.mark.parametrize("algebra", oracle.ALGEBRAS, ids=oracle.ALGEBRA_IDS)
@settings(deadline=None, max_examples=40)
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
    # Twice: the first call fills the realization's image table, the second
    # reads it back.
    assert quantize(f, real).tobytes() == expect
    assert quantize(f, real).tobytes() == expect


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
        quantize(elem(XI[0]), pauli_realization())


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
        mats = [real.matrix_for(g) for g in word]
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
        report = correspondence_check(f, g, real)
        assert report.supported
        assert report.passed, (f, g, report.residual)


def test_correspondence_sweep_at_multiple_hbar():
    for hbar in (0.5, 2.0):
        real = tensor_realization(AlgebraSpec((3, 3)), hbar=hbar)
        gens = list(ALG.coordinates()) + list(ALG.momenta())
        singles = [elem(g) for g in gens[:4]]
        doubles = [elem(XI[0], PI[0]), elem(XI[1], CHI[1]), elem(PI[0], PI[1])]
        for f in singles + doubles:
            for g in singles + doubles:
                report = correspondence_check(f, g, real)
                assert report.supported
                assert report.residual <= 1e-12


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
    real = tensor_realization(AlgebraSpec(sizes), hbar=1.0)
    worst = 0.0
    for f in monomials:
        for g in monomials:
            report = correspondence_check(f, g, real)
            assert report.supported
            worst = max(worst, report.residual)
    assert worst <= 1e-12


def test_correspondence_flags_high_degree_unsupported():
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    cubic = elem(XI[0], XI[1], XI[2])
    report = correspondence_check(cubic, elem(XI[0]), real)
    assert not report.supported


def test_similarity_transport_preserves_relations():
    rng = np.random.default_rng(42)
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    u = np.linalg.qr(a)[0] @ np.diag([1.0, 1.0, 1.0, 2.0])
    moved = similarity_transport(real, u)
    assert check_relations(moved).passed
    g = ALG.coordinate(0, 0)
    assert np.allclose(
        moved.matrix_for(g),
        u @ real.matrix_for(g) @ np.linalg.inv(u),
        atol=1e-12,
    )


def test_similarity_transport_guards():
    real = tensor_realization(AlgebraSpec((3, 3)), hbar=1.0)
    with pytest.raises(ValueError):
        similarity_transport(real, np.eye(3))
    ill = np.diag([1.0, 1.0, 1.0, 1e-14])
    with pytest.raises(ValueError):
        similarity_transport(real, ill)
