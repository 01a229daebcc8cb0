"""Tests for the metric / pseudo-hermiticity layer.

Closed-form anchors are frozen by hand (the 2x2 boost metric, the epsilon
ladder matrix); structural laws (involution, isometry transport, metric
preservation along generated evolution) are checked on seeded random draws.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from pseudospin.pseudoherm import (
    Diagnosis,
    Metric,
    diagnose,
    eta_inner,
    is_rho_hermitian,
    metric_from_isomorphism,
    rho_adjoint,
    verify_rho_preserving,
)

ATOL = 1e-12


def random_matrix(rng, dim, scale=1.0):
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_metric(rng, dim):
    a = random_matrix(rng, dim, 0.5)
    return Metric(a @ a.conj().T + np.eye(dim))


# ---------------------------------------------------------------------------
# Metric and inner product


def test_metric_validation():
    with pytest.raises(ValueError):
        Metric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Metric(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        Metric(np.diag([1.0, 0.0]))
    m = Metric.identity(3)
    assert m.dim == 3
    assert m.min_eigenvalue == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 2.0


def test_eta_inner_reduces_to_canonical_product():
    rng = np.random.default_rng(0)
    eta = Metric.identity(4)
    for _ in range(20):
        x = random_matrix(rng, 4)[0]
        y = random_matrix(rng, 4)[0]
        assert eta_inner(x, y, eta) == pytest.approx(np.vdot(x, y), abs=ATOL)


def test_eta_inner_sesquilinear_and_positive():
    rng = np.random.default_rng(1)
    for draw in range(20):
        eta = random_metric(rng, 3)
        x = random_matrix(rng, 3)[0]
        y = random_matrix(rng, 3)[0]
        c = complex(rng.normal(), rng.normal())
        assert eta_inner(c * x, y, eta) == pytest.approx(
            np.conj(c) * eta_inner(x, y, eta), abs=1e-10
        )
        assert eta_inner(x, c * y, eta) == pytest.approx(
            c * eta_inner(x, y, eta), abs=1e-10
        )
        norm = eta_inner(x, x, eta)
        assert abs(norm.imag) <= 1e-12
        assert norm.real > 0.0


def test_eta_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        eta_inner(np.ones(3), np.ones(4), Metric.identity(4))


def test_deformed_norm_of_boost_metric():
    # U differs from the identity in the middle 2x2 block only; with
    # s = sqrt(3) the pulled-back metric has (1,1) entry 4/3 exactly.
    u = np.eye(4, dtype=complex)
    u[1, 1] = np.sqrt(3.0) / 2.0
    u[1, 2] = -0.5j
    rho = metric_from_isomorphism(u)
    basis1 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert eta_inner(basis1, basis1, rho) == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rho.matrix[1, 2] == pytest.approx(2.0j / 3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# adjoints


def test_rho_adjoint_identity_metric_is_dagger():
    rng = np.random.default_rng(2)
    a = random_matrix(rng, 4)
    assert np.allclose(rho_adjoint(a, Metric.identity(4)), a.conj().T, atol=ATOL)


def test_rho_adjoint_is_involutive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_metric(rng, 4)
        a = random_matrix(rng, 4)
        assert np.allclose(rho_adjoint(rho_adjoint(a, rho), rho), a, atol=1e-9)


def test_is_rho_hermitian_matches_definition():
    rng = np.random.default_rng(4)
    rho = random_metric(rng, 3)
    h = random_matrix(rng, 3)
    h = h + h.conj().T
    # rho^-1 h is rho-hermitian by construction: rho (rho^-1 h) = h.
    candidate = np.linalg.solve(rho.matrix, h)
    assert is_rho_hermitian(candidate, rho, tol=1e-10)
    assert not is_rho_hermitian(candidate + 0.1 * 1j * np.eye(3), rho, tol=1e-10)
    assert np.allclose(rho_adjoint(candidate, rho), candidate, atol=1e-10)


def test_rho_adjoint_dimension_mismatch():
    with pytest.raises(ValueError):
        rho_adjoint(np.eye(3), Metric.identity(4))


# ---------------------------------------------------------------------------
# metric from isomorphism


def test_metric_from_isomorphism_trivial_cases():
    assert np.allclose(metric_from_isomorphism(np.eye(4)).matrix, np.eye(4), atol=ATOL)
    rng = np.random.default_rng(5)
    q = np.linalg.qr(random_matrix(rng, 4))[0]
    eta = random_metric(rng, 4)
    moved = metric_from_isomorphism(q, eta)
    assert moved.min_eigenvalue > 0.0
    assert np.allclose(moved.matrix, q @ eta.matrix @ q.conj().T, atol=1e-10)


def test_metric_from_isomorphism_rejects_singular():
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.ones((2, 3)))
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.eye(3), Metric.identity(4))


def test_isometry_transport_of_matrix_elements():
    # <Ux, (U A U^-1) U y>_rho == <x, A y>_eta with rho the pulled-back
    # metric: the isomorphism is an isometry between the two products.
    rng = np.random.default_rng(6)
    for _ in range(20):
        u = random_matrix(rng, 4) + 3.0 * np.eye(4)
        eta = random_metric(rng, 4)
        rho = metric_from_isomorphism(u, eta)
        a = random_matrix(rng, 4)
        x = random_matrix(rng, 4)[0]
        y = random_matrix(rng, 4)[0]
        lhs = eta_inner(u @ x, (u @ a @ np.linalg.inv(u)) @ (u @ y), rho)
        rhs = eta_inner(x, a @ y, eta)
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)


# ---------------------------------------------------------------------------
# diagnosis


def test_diagnose_hermitian_matrix():
    rng = np.random.default_rng(7)
    a = random_matrix(rng, 4)
    a = a + a.conj().T + np.diag([0.0, 1.0, 2.0, 3.0])
    report = diagnose(a)
    assert report.spectrum_real
    assert report.diagonalizable
    assert report.metric is not None
    # Distinct eigenvalues give an orthonormal eigenbasis, so the metric is
    # the identity up to roundoff.
    assert np.allclose(report.metric.matrix, np.eye(4), atol=1e-9)
    assert is_rho_hermitian(a, report.metric, tol=1e-9)


def test_diagnose_epsilon_ladder():
    # [[0, 1], [eps, 0]] with eps = 1/4 has spectrum +-1/2 and eigenvectors
    # (1, +-sqrt(eps)); the constructed metric must hermitize it.
    a = np.array([[0.0, 1.0], [0.25, 0.0]])
    report = diagnose(a)
    assert report.spectrum_real and report.diagonalizable
    assert np.allclose(report.spectrum, [-0.5, 0.5], atol=1e-12)
    rho = report.metric
    assert rho is not None
    residual = np.max(np.abs(rho.matrix @ a - a.conj().T @ rho.matrix))
    assert residual < 1e-10


def test_diagnose_complex_spectrum():
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    report = diagnose(a)
    assert not report.spectrum_real
    assert report.metric is None
    assert np.allclose(sorted(v.imag for v in report.spectrum), [-1.0, 1.0], atol=1e-12)


def test_diagnose_jordan_block():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = diagnose(a)
    assert report.spectrum_real
    assert not report.diagonalizable
    assert report.metric is None


def test_diagnose_planted_similarity():
    rng = np.random.default_rng(8)
    for draw in range(25):
        dim = int(rng.integers(2, 6))
        r = random_matrix(rng, dim, 0.4)
        r *= min(1.0, 1.2 / np.linalg.norm(r, 2))
        t = expm(r)
        plant = np.diag(np.arange(dim) * 0.5 + rng.normal() * 0.01)
        a = t @ plant @ np.linalg.inv(t)
        report = diagnose(a)
        assert report.spectrum_real and report.diagonalizable
        assert report.metric is not None
        residual = np.max(
            np.abs(report.metric.matrix @ a - a.conj().T @ report.metric.matrix)
        )
        assert residual < 1e-10 * (1 + np.max(np.abs(a)))
        assert report.metric.min_eigenvalue > 0.0


def test_diagnose_metric_presence_invariant():
    rng = np.random.default_rng(9)
    for draw in range(40):
        a = random_matrix(rng, 3)
        if draw % 3 == 0:
            a = a + a.conj().T
        report = diagnose(a)
        assert (report.metric is not None) == (
            report.spectrum_real and report.diagonalizable
        )


def test_diagnose_similarity_covariance():
    rng = np.random.default_rng(10)
    for draw in range(10):
        a = random_matrix(rng, 3)
        if draw % 2 == 0:
            a = a + a.conj().T
        t = expm(0.3 * random_matrix(rng, 3))
        base = diagnose(a)
        moved = diagnose(t @ a @ np.linalg.inv(t))
        assert base.spectrum_real == moved.spectrum_real
        assert np.allclose(base.spectrum, moved.spectrum, atol=1e-8)


# ---------------------------------------------------------------------------
# metric preservation


def test_verify_rho_preserving_trivial_cases():
    rng = np.random.default_rng(11)
    q = np.linalg.qr(random_matrix(rng, 4))[0]
    assert verify_rho_preserving(q, Metric.identity(4))
    assert not verify_rho_preserving(2.0 * np.eye(4), Metric.identity(4))


def test_generated_evolution_preserves_diagnosed_metric():
    rng = np.random.default_rng(12)
    r = random_matrix(rng, 4, 0.3)
    t = expm(r * min(1.0, 1.0 / np.linalg.norm(r, 2)))
    a = t @ np.diag([0.0, 0.5, 1.25, 2.0]) @ np.linalg.inv(t)
    report = diagnose(a)
    assert report.metric is not None
    for time in (-2.0, -0.5, 0.1, 1.0, 3.0):
        s = expm(1j * time * a)
        assert verify_rho_preserving(s, report.metric)
