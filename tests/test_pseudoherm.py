"""Tests for the metric / pseudo-hermiticity layer.

Closed-form anchors are frozen by hand (the 2x2 boost metric, the epsilon
ladder matrix); structural laws (involution, isometry transport, metric
preservation along generated evolution) are checked on seeded random draws.
"""

import numpy as np
import pytest
from scipy.linalg import expm

from pseudospin.pseudoherm import (
    COND_CAP,
    Diagnosis,
    Metric,
    diagnose,
    eta_inner,
    metric_from_isomorphism,
    rho_adjoint,
    rho_residuals,
)

ATOL = 1e-12


def random_matrix(rng, dim, scale=1.0):
    return scale * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))


def random_metric(rng, dim):
    a = random_matrix(rng, dim, 0.5)
    return Metric(a @ a.conj().T + np.eye(dim))


# ---------------------------------------------------------------------------
# Metric and inner product


def test_metric_validation(monkeypatch):
    with pytest.raises(ValueError):
        Metric(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        Metric(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Metric(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        Metric(np.diag([1.0, 0.0]))
    m = Metric(np.eye(3))
    assert m.dim == 3
    assert m.min_eigenvalue == pytest.approx(1.0)
    with pytest.raises(ValueError):
        m.matrix[0, 0] = 2.0
    # A metric compares by identity, as its matrix has no one truth value;
    # so does a diagnosis, whose fields may be arrays.
    assert m == m
    assert Metric(np.eye(2)) != Metric(np.eye(2))
    assert diagnose(np.diag([1.0, 2.0])) != diagnose(np.diag([1.0, 2.0]))
    # A stack is checked in one eigvalsh call, and each entry gets the bits
    # of its own call.
    rng = np.random.default_rng(1)
    g = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    matrices = g @ g.conj().mT + 0.1 * np.eye(4)
    singles = [Metric(matrix) for matrix in matrices]
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    stack = Metric(matrices)
    assert len(calls) == 1
    assert stack.dim == 4 and stack.min_eigenvalue.shape == (20,)
    for k, single in enumerate(singles):
        assert stack.min_eigenvalue[k].hex() == single.min_eigenvalue.hex()
        assert stack.matrix[k].tobytes() == single.matrix.tobytes()
    with pytest.raises(ValueError, match="read-only"):
        stack.matrix[0, 0, 0] = 2.0
    # One failing entry refuses the stack with its check's message, naming it.
    skewed = matrices[7].copy()
    skewed[0, 1] += 1e-3
    failing = {"finite": np.full((4, 4), np.nan), "hermitian": skewed,
               "positive-definite": np.diag([1.0, 1.0, -1.0, 1.0])}
    for check, entry in failing.items():
        broken = matrices.copy()
        broken[7] = entry
        with pytest.raises(ValueError, match=f"{check}.* at stack entry 7$"):
            Metric(broken)
        with pytest.raises(ValueError, match=check) as single:
            Metric(entry)
        assert "stack entry" not in str(single.value)


@pytest.mark.parametrize(
    "matrix",
    [np.full((2, 2), np.nan), np.diag([1.0, np.inf]), np.diag([1.0, -np.inf])],
    ids=["nan", "inf", "-inf"],
)
def test_metric_rejects_non_finite_entries(matrix):
    # NaN compares false against every bound, so the hermiticity and
    # positivity checks alone would let it through.
    with pytest.raises(ValueError, match="finite"):
        Metric(matrix)


@pytest.mark.parametrize(
    "entry, asymmetry, accepted",
    [(1e6, 1e-9, True), (1e-6, 1e-13, False)],
    ids=["large-entries", "small-entries"],
)
def test_metric_hermiticity_gate_is_relative_to_its_entries(entry, asymmetry, accepted):
    # The bound is HERMITICITY_TOL * max|M|: an asymmetry is judged against
    # the entries it sits in, not against a fixed 1e-12.
    matrix = entry * np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    matrix[0, 1] += asymmetry
    if accepted:
        assert Metric(matrix).min_eigenvalue > 0.0
    else:
        with pytest.raises(ValueError, match="hermitian"):
            Metric(matrix)


def test_eta_inner_reduces_to_canonical_product():
    rng = np.random.default_rng(0)
    eta = Metric(np.eye(4))
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
        eta_inner(np.ones(3), np.ones(4), Metric(np.eye(4)))
    for x, y in ((np.ones((5, 3)), np.ones((5, 4))), (np.ones(4), np.ones((5, 3)))):
        with pytest.raises(ValueError, match="state dimensions must match the metric"):
            eta_inner(x, y, Metric(np.eye(4)))


def test_eta_inner_stacked_entries_equal_single_calls_bit_for_bit():
    rng = np.random.default_rng(2)
    for _ in range(5):
        eta = random_metric(rng, 4)
        xs = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        ys = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        pairs = eta_inner(xs, ys, eta)
        one_bra = eta_inner(xs[0], ys, eta)
        norms = eta_inner(ys, ys, eta)
        assert pairs.shape == one_bra.shape == norms.shape == (200,)
        for k in range(200):
            single = eta_inner(xs[k], ys[k], eta)
            assert type(single) is complex
            assert complex(pairs[k]) == single
            assert complex(one_bra[k]) == eta_inner(xs[0], ys[k], eta)
            assert complex(norms[k]) == eta_inner(ys[k], ys[k], eta)


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
    assert np.allclose(rho_adjoint(a, Metric(np.eye(4))), a.conj().T, atol=ATOL)


def test_rho_adjoint_is_involutive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        rho = random_metric(rng, 4)
        a = random_matrix(rng, 4)
        assert np.allclose(rho_adjoint(rho_adjoint(a, rho), rho), a, atol=1e-9)
    # Stacked operators, against a stack of metrics or one metric: each
    # entry has the bits of its own call.
    g = 0.5 * (rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4)))
    rhos = Metric(g @ g.conj().mT + np.eye(4))
    a = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4))
    first = Metric(rhos.matrix[0])
    paired, shared = rho_adjoint(a, rhos), rho_adjoint(a, first)
    for k in range(20):
        assert paired[k].tobytes() == rho_adjoint(a[k], Metric(rhos.matrix[k])).tobytes()
        assert shared[k].tobytes() == rho_adjoint(a[k], first).tobytes()


def test_rho_residuals_match_definition():
    rng = np.random.default_rng(4)
    rho = random_metric(rng, 3)
    h = random_matrix(rng, 3)
    h = h + h.conj().T
    # rho^-1 h is rho-hermitian by construction: rho (rho^-1 h) = h.
    candidate = np.linalg.solve(rho.matrix, h)
    assert rho_residuals(candidate, rho.matrix) <= 1e-10
    assert rho_residuals(candidate + 0.1 * 1j * np.eye(3), rho.matrix) > 1e-10
    assert np.allclose(rho_adjoint(candidate, rho), candidate, atol=1e-10)
    # Stacks give one residual per entry, that of the entry's own pair.
    doubled = np.array([np.eye(2), 2 * np.eye(2)])
    assert rho_residuals(np.eye(2), doubled).tolist() == [0.0, 0.0]
    rhos = np.array([rho.matrix, np.eye(3), rho.matrix])
    ops = np.array([candidate, candidate, candidate + 0.1j * np.eye(3)])
    assert (rho_residuals(ops, rhos) <= 1e-10).tolist() == [True, False, False]
    # The residual of a stack has, entry by entry, the bits of its own pair.
    for dim in (2, 3, 4, 5):
        a = rng.normal(size=(50, dim, dim)) + 1j * rng.normal(size=(50, dim, dim))
        r = rng.normal(size=(50, dim, dim)) + 1j * rng.normal(size=(50, dim, dim))
        stacked = rho_residuals(a, r)
        assert stacked.shape == (50,)
        for k in range(50):
            assert stacked[k].tobytes() == rho_residuals(a[k], r[k]).tobytes()


def test_rho_adjoint_dimension_mismatch():
    with pytest.raises(ValueError):
        rho_adjoint(np.eye(3), Metric(np.eye(4)))


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
    # Stacked isomorphisms, with no eta, a stack of etas or one eta: each
    # entry has the bits of its own call.
    us = rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4)) + 3.0 * np.eye(4)
    g = 0.5 * (rng.normal(size=(20, 4, 4)) + 1j * rng.normal(size=(20, 4, 4)))
    etas = Metric(g @ g.conj().mT + np.eye(4))
    first = Metric(etas.matrix[0])
    cases = ((None, lambda k: None), (etas, lambda k: Metric(etas.matrix[k])),
             (first, lambda k: first))
    for eta, eta_of in cases:
        stacked = metric_from_isomorphism(us, eta)
        for k in range(20):
            single = metric_from_isomorphism(us[k], eta_of(k))
            assert stacked.matrix[k].tobytes() == single.matrix.tobytes()
            assert stacked.min_eigenvalue[k].hex() == single.min_eigenvalue.hex()


def test_metric_from_isomorphism_rejects_singular():
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.diag([1.0, 0.0]))
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.ones((2, 3)))
    with pytest.raises(ValueError):
        metric_from_isomorphism(np.eye(3), Metric(np.eye(4)))
    with pytest.raises(ValueError, match="invertible"):
        metric_from_isomorphism(np.array([np.eye(2), np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError, match="square"):
        metric_from_isomorphism(np.ones(2))


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
    assert rho_residuals(a, report.metric.matrix) <= 1e-9


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


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e12])
def test_diagnose_reality_gate_is_relative_to_the_matrix(c):
    # Eigenvalues +-ic: imaginary at every scale, however small.
    report = diagnose(c * np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not report.spectrum_real
    assert report.metric is None


def test_diagnose_zero_matrix_is_real():
    report = diagnose(np.zeros((3, 3)))
    assert report.spectrum_real and report.diagonalizable
    assert np.array_equal(report.metric.matrix, np.eye(3))
    # A non-finite or empty operator is refused by name, not by numpy.
    with pytest.raises(ValueError, match="^operator entries must be finite$"):
        diagnose(np.diag([1.0, np.inf]))
    with pytest.raises(ValueError, match="^operator entries must be finite at stack entry 1$"):
        diagnose(np.stack([np.eye(2), [[np.nan, 0.0], [0.0, 1.0]]]))
    with pytest.raises(ValueError, match="square"):
        diagnose(np.zeros((0, 0)))


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


def test_diagnose_stacked_entries_equal_single_calls_bit_for_bit(monkeypatch):
    # One stack of 2x2 operators reaching every branch: a metric, a complex
    # spectrum, a Jordan block over COND_CAP, and a real spectrum whose
    # eigenvectors pass COND_CAP but whose candidate metric is rejected.
    rng = np.random.default_rng(13)
    named = [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),
        np.array([[0.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 1.0], [1e-14, 1.0]]),
    ]
    planted = []
    for _ in range(40):
        t = np.eye(2) + 0.3 * random_matrix(rng, 2) / 2.0
        planted.append(t @ np.diag(rng.normal(size=2)) @ np.linalg.inv(t))
    operators = np.array(named + planted + [random_matrix(rng, 2) for _ in range(40)])
    stacked = diagnose(operators)
    assert type(stacked) is Diagnosis
    assert stacked.spectrum.shape == (83, 2)
    assert stacked.spectrum_real.shape == stacked.diagonalizable.shape == (83,)
    found = stacked.spectrum_real & stacked.diagonalizable
    assert stacked.metric.matrix.shape == (np.count_nonzero(found), 2, 2)
    shaped = diagnose(operators.reshape(83, 1, 2, 2))
    assert shaped.spectrum.shape == (83, 1, 2) and shaped.diagonalizable.shape == (83, 1)
    assert shaped.metric.matrix.tobytes() == stacked.metric.matrix.tobytes()
    # No entry of the stack has a metric: an empty metric stack.
    assert diagnose(operators[:1]).metric.matrix.shape == (0, 2, 2)
    row = np.cumsum(found) - 1  # the metric row of each found entry
    branches = set()
    for k, a in enumerate(operators):
        single = diagnose(a)
        assert type(single) is Diagnosis and type(single.spectrum) is tuple
        assert stacked.spectrum[k].tobytes() == np.array(single.spectrum).tobytes()
        assert (stacked.spectrum_real[k], stacked.diagonalizable[k]) == (
            single.spectrum_real, single.diagonalizable
        )
        assert found[k] == (single.metric is not None)
        if single.metric is not None:
            assert stacked.metric.matrix[row[k]].tobytes() == single.metric.matrix.tobytes()
            assert stacked.metric.min_eigenvalue[row[k]].hex() == single.metric.min_eigenvalue.hex()
        cond = np.linalg.cond(np.linalg.eig(a)[1])
        branches.add((single.spectrum_real, single.diagonalizable, bool(cond <= COND_CAP)))
    # metric, complex, Jordan block, rejected candidate metric
    assert {(True, True, True), (False, True, True), (True, False, False)} <= branches
    assert (True, False, True) in branches
    # A candidate that passes the residual gate but fails Metric's check
    # (here an eigvalsh made to report it non-positive) gets no metric and
    # is not diagonalizable; the other candidates of its stack keep theirs.
    k = int(np.flatnonzero(found)[0])
    refused = stacked.metric.matrix[0]
    eigvalsh = np.linalg.eigvalsh

    def refuse(m):
        values = eigvalsh(m)
        values[(m == refused).all(axis=(-2, -1))] = -1.0
        return values

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    rerun, single = diagnose(operators), diagnose(operators[k])
    assert (single.spectrum_real, single.diagonalizable, single.metric) == (True, False, None)
    assert (rerun.spectrum_real[k], rerun.diagonalizable[k]) == (True, False)
    others = np.arange(83) != k
    assert rerun.diagonalizable[others].tolist() == stacked.diagonalizable[others].tolist()
    assert rerun.metric.matrix.tobytes() == stacked.metric.matrix[1:].tobytes()


# ---------------------------------------------------------------------------
# metric preservation


def test_generated_evolution_preserves_diagnosed_metric():
    rng = np.random.default_rng(12)
    r = random_matrix(rng, 4, 0.3)
    t = expm(r * min(1.0, 1.0 / np.linalg.norm(r, 2)))
    a = t @ np.diag([0.0, 0.5, 1.25, 2.0]) @ np.linalg.inv(t)
    report = diagnose(a)
    assert report.metric is not None
    for time in (-2.0, -0.5, 0.1, 1.0, 3.0):
        s = expm(1j * time * a)
        rho = report.metric.matrix
        assert np.max(np.abs(s.conj().T @ rho @ s - rho)) <= 1e-10
