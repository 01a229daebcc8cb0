"""Tests for complex orthogonal transformations and transport maps."""

import math

import grassmann_oracle as oracle
import numpy as np
import pytest

from pseudospin.canon import (
    _random_orthogonals,
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
    verify_orthogonal,
)
from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    multiply,
    plus_involution,
    star_involution,
)

ALG3 = AlgebraSpec((3,))
Z = [ALG3.coordinate(0, i) for i in range(3)]

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_j, _i, _k] = -1.0


def spin_hamiltonian(field):
    """Quadratic element -(i/2) eps_ijk xi_i xi_j field_k."""
    ham = GrassmannElement.zero(ALG3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if LEVI_CIVITA[i, j, k]:
                    term = multiply(
                        GrassmannElement.from_generator(ALG3, Z[i]),
                        GrassmannElement.from_generator(ALG3, Z[j]),
                    )
                    ham = ham + (-0.5j * LEVI_CIVITA[i, j, k] * field[k]) * term
    return ham


def random_element(rng, max_terms=3):
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        degree = int(rng.integers(0, 4))
        idx = tuple(sorted(rng.permutation(3)[:degree]))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((tuple(Z[i] for i in idx), coeff))
    return GrassmannElement.from_terms(ALG3, terms)


def substitute(f, lam):
    """Oracle: literal substitution xi_i -> sum_k Lambda_ki zeta_k."""
    images = [
        GrassmannElement.from_terms(
            ALG3, [((Z[k],), lam.entries[k, i]) for k in range(3)]
        )
        for i in range(3)
    ]
    out = GrassmannElement.zero(ALG3)
    for mono, coeff in f.terms.items():
        acc = GrassmannElement.unit(ALG3, coeff)
        for gen in mono:
            acc = multiply(acc, images[gen.index])
        out = out + acc
    return out


# ---------------------------------------------------------------------------
# validation and sampling


def test_verify_orthogonal_accepts_rotation_and_reflection():
    theta = 0.3
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert verify_orthogonal(rot).det == 1.0
    assert verify_orthogonal(np.diag([-1.0, 1.0, 1.0])).det == -1.0


def test_verify_orthogonal_rejects_bad_input():
    with pytest.raises(ValueError):
        verify_orthogonal(np.ones((2, 3)))
    with pytest.raises(ValueError):
        verify_orthogonal(np.eye(3) * 1.001)


def test_random_orthogonal_is_seeded_and_orthogonal():
    a = random_orthogonal(3, seed=7)
    b = random_orthogonal(3, seed=7)
    c = random_orthogonal(3, seed=8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert np.max(np.abs(a.entries @ a.entries.T - np.eye(3))) < 1e-12
    # Every dimension the package uses: the generator cap tanh(3/4) keeps the
    # Cayley transform within the 2-norm e^1.5 and orthogonal to rounding.
    for n in range(1, 7):
        for seed in range(50):
            lam = random_orthogonal(n, seed=seed).entries
            assert np.array_equal(lam, random_orthogonal(n, seed=seed).entries)
            assert np.max(np.abs(lam @ lam.T - np.eye(n))) <= 1e-13
            assert np.linalg.norm(lam, 2) <= np.exp(1.5) * (1.0 + 1e-12)


def test_batched_orthogonal_draws_equal_single_draws_bit_for_bit():
    for n in range(1, 6):
        seeds = list(range(40)) + [98765 * 300 + k for k in range(20)]
        batch = _random_orthogonals(n, seeds)
        reflected = under_cap = 0
        for seed, lam in zip(seeds, batch):
            single = random_orthogonal(n, seed=seed)
            assert lam.n == single.n == n
            assert lam.entries.tobytes() == single.entries.tobytes()
            assert lam.det == single.det
            assert not lam.entries.flags.writeable
            reflected += lam.det == -1.0
            rng = np.random.default_rng(seed)
            real, imag = rng.standard_normal((2, n, n))
            gen = 0.5 * (real - real.T) + 0.5j * (imag - imag.T)
            under_cap += np.linalg.norm(gen, 2) <= math.tanh(0.75)
        assert 0 < reflected < len(seeds)
        if n <= 2:
            assert under_cap > 0


def test_random_orthogonal_samples_both_determinants():
    dets = {random_orthogonal(3, seed=s).det for s in range(20)}
    assert dets == {1.0, -1.0}


# ---------------------------------------------------------------------------
# field pushforward


def test_pushforward_complex_boost_anchor():
    theta = 1.0
    lam = verify_orthogonal(
        np.array(
            [
                [np.cosh(theta), -1j * np.sinh(theta), 0.0],
                [1j * np.sinh(theta), np.cosh(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
    )
    field = pushforward_field(np.array([1.0, 0.0, 0.0]), lam)
    expect = np.array([np.cosh(1.0), 1j * np.sinh(1.0), 0.0])
    assert np.max(np.abs(field - expect)) < 1e-14


def test_pushforward_preserves_bilinear_square():
    rng = np.random.default_rng(3)
    for trial in range(100):
        lam = random_orthogonal(3, seed=300 + trial)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = pushforward_field(b, lam)
        assert abs(f @ f - b @ b) < 1e-12 * (1.0 + abs(b @ b))


def test_pushforward_shape_check():
    lam = random_orthogonal(3, seed=1)
    with pytest.raises(ValueError):
        pushforward_field(np.ones(4), lam)


# ---------------------------------------------------------------------------
# coefficient transport


def test_transform_matches_substitution_oracle():
    rng = np.random.default_rng(12)
    for trial in range(50):
        lam = random_orthogonal(3, seed=500 + trial)
        f = random_element(rng)
        assert transform_coefficients(f, lam).allclose(substitute(f, lam), 1e-10)


@pytest.mark.parametrize(
    "n, momenta", [(1, False), (2, True), (3, False), (4, True), (6, False)]
)
def test_transform_matches_tuple_reference_exactly(n, momenta):
    # One batched det call per degree gives the bits of one det call per minor.
    rng = np.random.default_rng(16 + n)
    alg = AlgebraSpec((n,), momenta_attached=momenta)
    coords = list(alg.coordinates())
    for trial in range(40):
        lam = random_orthogonal(n, seed=3000 + trial)
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            picks = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            terms.append(([coords[int(k)] for k in picks], complex(*rng.normal(size=2))))
        f = GrassmannElement.from_terms(alg, terms)
        expect = oracle.transform_coefficients(alg, oracle.from_terms(alg, terms), lam)
        assert oracle.exact(transform_coefficients(f, lam).terms) == oracle.exact(expect)


def test_transform_is_group_action():
    rng = np.random.default_rng(13)
    f = random_element(rng)
    first = random_orthogonal(3, seed=61)
    second = random_orthogonal(3, seed=62)
    composed = verify_orthogonal(second.entries @ first.entries)
    step_wise = transform_coefficients(transform_coefficients(f, first), second)
    assert step_wise.allclose(transform_coefficients(f, composed), 1e-10)


def test_spin_hamiltonian_covariance_both_determinant_signs():
    # The det(Lambda) weight in the pushforward is exactly what keeps the
    # quadratic spin element covariant, including under reflections.
    rng = np.random.default_rng(14)
    seen = set()
    for trial in range(12):
        lam = random_orthogonal(3, seed=700 + trial)
        seen.add(lam.det)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        transported = transform_coefficients(spin_hamiltonian(b), lam)
        rebuilt = spin_hamiltonian(pushforward_field(b, lam))
        assert transported.allclose(rebuilt, 1e-10)
    assert seen == {1.0, -1.0}


def test_reality_transport_star_to_plus():
    # Star-real inputs stay real for the transported involution built from
    # rho = Lambda Lambda^dagger.
    rng = np.random.default_rng(15)
    for trial in range(100):
        lam = random_orthogonal(3, seed=1000 + trial)
        rho = lam.entries @ lam.entries.conj().T
        g = random_element(rng)
        f = g + star_involution(g)
        assert star_involution(f).allclose(f, 1e-12)
        moved = transform_coefficients(f, lam)
        assert plus_involution(moved, rho).allclose(moved, 1e-9)


def test_transform_rejects_unsupported_inputs():
    lam = random_orthogonal(3, seed=2)
    multi = AlgebraSpec((3, 3))
    with pytest.raises(ValueError):
        transform_coefficients(GrassmannElement.unit(multi), lam)
    with_momenta = AlgebraSpec((3,), momenta_attached=True)
    f = GrassmannElement.from_generator(with_momenta, with_momenta.momentum(0, 0))
    with pytest.raises(ValueError):
        transform_coefficients(f, lam)
    small = random_orthogonal(2, seed=3)
    with pytest.raises(ValueError):
        transform_coefficients(GrassmannElement.unit(ALG3), small)


# ---------------------------------------------------------------------------
# two-family exchange transport


def test_exchange_transport_agrees_with_merged_family_embedding():
    # Embed (xi, chi) into one family of six: the exchange block of the
    # antisymmetric quadratic form transports to R J S^T via the same minors
    # rule that moves every coefficient table.
    alg6 = AlgebraSpec((6,))
    gens = [alg6.coordinate(0, i) for i in range(6)]
    rng = np.random.default_rng(32)
    r = random_orthogonal(3, seed=51)
    s = random_orthogonal(3, seed=52)
    exchange = rng.standard_normal((3, 3))
    element = GrassmannElement.from_terms(
        alg6,
        [
            ((gens[i], gens[j + 3]), exchange[i, j])
            for i in range(3)
            for j in range(3)
        ],
    )
    lam6 = verify_orthogonal(
        np.block(
            [[r.entries, np.zeros((3, 3))], [np.zeros((3, 3)), s.entries]]
        )
    )
    transported = transform_coefficients(element, lam6)
    j_prime = r.entries @ exchange @ s.entries.T
    expect = GrassmannElement.from_terms(
        alg6,
        [
            ((gens[i], gens[j + 3]), j_prime[i, j])
            for i in range(3)
            for j in range(3)
        ],
    )
    assert transported.allclose(expect, 1e-10)
