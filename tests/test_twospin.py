"""Tests for the two-spin model layer.

Matrix builders are frozen against hand-expanded entry patterns and against
the quantization of the classical model; the closed-form spectrum is checked
against the dense eigensolver over random parameters; regime, isomorphism,
and evolution behavior are anchored on the exactly solvable toy
parameterization.
"""

import numpy as np
import pytest

from pseudospin.grassmann import AlgebraSpec, GrassmannElement
from pseudospin.pseudoherm import Metric, diagnose, eta_inner, is_rho_hermitian
from pseudospin import twospin
from pseudospin.quantize import PAULI, quantize, tensor_realization
from pseudospin.twospin import (
    CanonicalLimitReport,
    GilbertParams,
    TwoSpinParams,
    build_free,
    build_interaction,
    build_single_spin,
    build_total,
    canonical_limit_check,
    closed_spectrum,
    damping_threshold,
    evolve,
    gilbert_fields,
    hermitian_counterpart,
    paper_isomorphism,
    transition_probability,
    transition_series,
)

ATOL = 1e-12


def toy_params(amplitude, alpha, exchange=1.0):
    f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha, -alpha))
    return TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


def sorted_eigs(matrix):
    values = np.linalg.eigvals(matrix)
    return values[np.lexsort((values.imag, values.real))]


def match_multisets(left, right, atol):
    remaining = list(right)
    for value in left:
        gaps = [abs(value - other) for other in remaining]
        best = int(np.argmin(gaps))
        assert gaps[best] <= atol, (value, remaining)
        remaining.pop(best)


# ---------------------------------------------------------------------------
# builders


def test_single_spin_builder():
    h = build_single_spin(np.array([0.0, 0.0, 1.0]), hbar=1.0)
    assert np.allclose(h, np.diag([0.5, -0.5]), atol=ATOL)
    rng = np.random.default_rng(0)
    for _ in range(20):
        field = rng.normal(size=3)
        values = sorted_eigs(build_single_spin(field, hbar=0.7))
        radius = 0.35 * np.sqrt(field @ field)
        assert np.allclose(values, [-radius, radius], atol=1e-10)
    with pytest.raises(ValueError):
        build_single_spin(np.ones(4))


def test_single_spin_complex_field_regimes():
    # F.F > 0 keeps the spectrum real even for complex F; F.F = 0 collapses
    # both eigenvalues to zero on a defective matrix.
    near = build_single_spin(np.array([1.0, 0.999j, 0.0]))
    report = diagnose(near)
    assert report.spectrum_real and report.diagonalizable
    assert np.allclose(
        np.abs(report.spectrum), 0.5 * np.sqrt(1.0 - 0.999**2), atol=1e-10
    )
    degenerate = build_single_spin(np.array([1.0, 1.0j, 0.0]))
    report = diagnose(degenerate)
    assert np.allclose(report.spectrum, [0.0, 0.0], atol=1e-10)
    assert not report.diagonalizable


def test_free_builder_entry_pattern():
    assert np.allclose(build_free(np.zeros(3), np.zeros(3)), np.zeros((4, 4)))
    b1, b2, b3 = 0.7, -1.2, 0.4
    c1, c2, c3 = -0.3, 0.9, 1.1
    built = build_free(np.array([b1, b2, b3]), np.array([c1, c2, c3]))
    expect = 0.25 * np.array(
        [
            [b3 + c3, b1 - 1j * b2, c1 - 1j * c2, 0],
            [b1 + 1j * b2, -b3 + c3, 0, c1 - 1j * c2],
            [c1 + 1j * c2, 0, b3 - c3, b1 - 1j * b2],
            [0, c1 + 1j * c2, b1 + 1j * b2, -b3 - c3],
        ]
    )
    assert np.allclose(built, expect, atol=ATOL)


def test_free_builder_eigenvalues():
    rng = np.random.default_rng(1)
    for _ in range(20):
        f = rng.normal(size=3)
        g = rng.normal(size=3)
        f_sq = f @ f
        g_sq = g @ g
        closed = [
            sign * 0.25 * np.sqrt(f_sq + g_sq + branch * 2.0 * np.sqrt(f_sq * g_sq))
            for sign in (1.0, -1.0)
            for branch in (1.0, -1.0)
        ]
        match_multisets(closed, sorted_eigs(build_free(f, g)), 1e-10)


def test_free_builder_minkowski_sum():
    # With no exchange the two-spin spectrum is the sum-set of the two
    # single-spin spectra in the hbar = 1/2 convention.
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        singles_f = np.linalg.eigvals(build_single_spin(f, hbar=0.5))
        singles_g = np.linalg.eigvals(build_single_spin(g, hbar=0.5))
        sums = [a + b for a in singles_f for b in singles_g]
        match_multisets(sums, np.linalg.eigvals(build_free(f, g)), 1e-9)


def test_interaction_builder_isotropic():
    j = 0.8
    built = build_interaction(j * np.eye(3))
    expect = (j / 4.0) * np.array(
        [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(built, expect, atol=ATOL)
    match_multisets(
        [j / 4, j / 4, j / 4, -3 * j / 4], sorted_eigs(built), 1e-12
    )
    assert np.allclose(build_interaction(np.zeros((3, 3))), np.zeros((4, 4)))


def test_interaction_builder_symmetrization_and_validation():
    rng = np.random.default_rng(3)
    jmat = rng.normal(size=(3, 3))
    assert np.allclose(
        build_interaction(jmat), build_interaction(jmat.T), atol=ATOL
    )
    with pytest.raises(ValueError):
        build_interaction(np.eye(2))
    with pytest.raises(ValueError):
        build_interaction(1j * np.eye(3))


def test_build_total_bytes_match_kron_construction():
    # The precomputed Kronecker factors give the same bytes, signed zeros
    # included, as building every product per call.
    eye = np.eye(2, dtype=complex)

    def sigma_dot(field):
        return field[0] * PAULI[0] + field[1] * PAULI[1] + field[2] * PAULI[2]

    def kron_total(params):
        f_dot = sigma_dot(np.array([0.0, 0.0, params.f3], dtype=complex))
        g_dot = sigma_dot(np.array([0.0, 0.0, params.g3], dtype=complex))
        free = 0.25 * (np.kron(eye, f_dot) + np.kron(g_dot, eye))
        coupling = params.exchange * np.eye(3)
        exchange = np.zeros((4, 4), dtype=complex)
        for i in range(3):
            for j in range(3):
                if coupling[i, j] != 0.0:
                    exchange += coupling[i, j] * (
                        np.kron(PAULI[j], PAULI[i]) + np.kron(PAULI[i], PAULI[j])
                    )
        return free + exchange / 8.0

    rng = np.random.default_rng(4)
    specials = [0.0, -0.0, 1.0, -2.5, 1e-8]
    for _ in range(200):
        parts = [
            float(rng.choice(specials)) if rng.uniform() < 0.5 else float(rng.normal())
            for _ in range(5)
        ]
        params = TwoSpinParams(
            f3=complex(parts[0], parts[1]), g3=complex(parts[2], parts[3]),
            exchange=parts[4],
        )
        assert build_total(params).tobytes() == kron_total(params).tobytes()


def test_build_total_block_structure():
    params = TwoSpinParams(f3=0.3 + 0.2j, g3=-0.1 + 0.05j, exchange=0.8)
    built = build_total(params)
    f_plus, f_minus, j = params.f_plus, params.f_minus, params.exchange
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = (f_plus + j) / 4
    expect[3, 3] = (-f_plus + j) / 4
    expect[1, 1] = (-f_minus - j) / 4
    expect[2, 2] = (f_minus - j) / 4
    expect[1, 2] = expect[2, 1] = j / 2
    assert np.allclose(built, expect, atol=ATOL)
    decoupled = build_total(TwoSpinParams(f3=1.0, g3=1.0, exchange=0.0))
    assert np.allclose(decoupled, np.diag([0.5, 0.0, 0.0, -0.5]), atol=ATOL)


def test_build_total_matches_quantization():
    # The matrix builders coincide with the quantization of the classical
    # model: precession terms for both families plus the bilinear coupling,
    # realized at hbar = 1/2.
    levi = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        levi[i, j, k] = 1.0
        levi[j, i, k] = -1.0
    alg = AlgebraSpec((3, 3), momenta_attached=True)
    xi = [GrassmannElement.from_generator(alg, alg.coordinate(0, i)) for i in range(3)]
    chi = [GrassmannElement.from_generator(alg, alg.coordinate(1, i)) for i in range(3)]
    params = TwoSpinParams(f3=0.4 + 0.25j, g3=-0.3 + 0.1j, exchange=0.85)
    f_vec = (0.0, 0.0, params.f3)
    g_vec = (0.0, 0.0, params.g3)
    classical = GrassmannElement.zero(alg)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if levi[i, j, k]:
                    classical = classical + (-0.5j * levi[i, j, k]) * (
                        f_vec[k] * (xi[i] * xi[j]) + g_vec[k] * (chi[i] * chi[j])
                    )
    for i in range(3):
        classical = classical + params.exchange * (xi[i] * chi[i])
    realization = tensor_realization(AlgebraSpec((3, 3)), hbar=0.5)
    assert np.allclose(
        quantize(classical, realization), build_total(params), atol=1e-14
    )


def test_params_validation():
    with pytest.raises(ValueError):
        TwoSpinParams(f3=1.0, g3=1.0, exchange=1.0 + 0.5j)
    with pytest.raises(ValueError):
        GilbertParams(amplitude=0.0, alpha1=0.0, alpha2=0.0)
    with pytest.raises(ValueError):
        GilbertParams(amplitude=-1.0, alpha1=0.0, alpha2=0.0)


@pytest.mark.parametrize("f3, g3, exchange", [
    (1.0, 1.0, 1e200),
    (1e200j, 0.0, 1.0),
    (1e154, 1e154, 1e154),
    (complex(1e308, 1e308), 0.0, 0.0),
    (complex(float("nan"), 0.0), 1.0, 1.0),
    (1.0, 1.0, float("inf")),
])
def test_params_reject_overflowing_closed_form(f3, g3, exchange):
    with pytest.raises(ValueError, match="overflow the closed form"):
        TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


def test_params_just_below_overflow_keep_a_finite_spectrum():
    params = TwoSpinParams(f3=1e153, g3=-1e153, exchange=1e153)
    report = closed_spectrum(params)
    assert all(np.isfinite(v) for v in report.eigenvalues)
    assert np.isfinite(report.threshold_margin)


# ---------------------------------------------------------------------------
# spectrum and regime


def test_closed_spectrum_vs_eigensolver():
    rng = np.random.default_rng(4)
    for _ in range(300):
        params = TwoSpinParams(
            f3=complex(rng.normal(), rng.normal()),
            g3=complex(rng.normal(), rng.normal()),
            exchange=float(rng.normal()),
        )
        report = closed_spectrum(params)
        match_multisets(
            report.eigenvalues, np.linalg.eigvals(build_total(params)), 1e-10
        )


def test_closed_spectrum_regime_matches_diagnosis():
    rng = np.random.default_rng(5)
    for draw in range(200):
        if draw % 2 == 0:
            params = toy_params(float(rng.uniform(0.1, 5.0)), 0.5)
        else:
            params = TwoSpinParams(
                f3=complex(rng.normal(), rng.normal()),
                g3=complex(rng.normal(), rng.normal()),
                exchange=float(rng.normal()),
            )
        report = closed_spectrum(params)
        if abs(report.threshold_margin) < 1e-6:
            continue
        assert report.pseudo_hermitian == diagnose(build_total(params)).spectrum_real


def test_closed_spectrum_decoupled_limit():
    report = closed_spectrum(TwoSpinParams(f3=0.9, g3=0.9, exchange=0.0))
    assert report.e1_plus == pytest.approx(0.0, abs=ATOL)
    assert report.e1_minus == pytest.approx(0.0, abs=ATOL)
    assert report.e2_plus == pytest.approx(0.45, abs=ATOL)
    assert report.e2_minus == pytest.approx(-0.45, abs=ATOL)
    assert report.pseudo_hermitian


def test_gilbert_fields_anchors():
    f3, g3 = gilbert_fields(GilbertParams(1.5, 0.0, 0.0))
    assert f3 == pytest.approx(1.5) and g3 == pytest.approx(1.5)
    f3, g3 = gilbert_fields(GilbertParams(1.0, 1.0, -1.0))
    assert f3 == pytest.approx((1.0 + 1.0j) / 2.0, abs=ATOL)
    assert g3 == pytest.approx((1.0 - 1.0j) / 2.0, abs=ATOL)
    assert f3 + g3 == pytest.approx(1.0, abs=ATOL)
    assert f3 - g3 == pytest.approx(1.0j, abs=ATOL)
    for amplitude, alpha in ((0.8, 0.25), (2.0, 1.5)):
        f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha, -alpha))
        f_plus = 2.0 * amplitude / (1.0 + alpha * alpha)
        assert f3 + g3 == pytest.approx(f_plus, abs=ATOL)
        assert f3 - g3 == pytest.approx(1j * alpha * f_plus, abs=ATOL)


def test_damping_threshold_values():
    assert damping_threshold(1.0, 1.0) == pytest.approx(2.0)
    assert damping_threshold(1.0, 0.5) == pytest.approx(2.5)
    assert damping_threshold(1.0, -0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        damping_threshold(1.0, 0.0)
    with pytest.raises(ValueError):
        damping_threshold(-1.0, 0.5)


def test_regime_flips_at_threshold():
    b_max = damping_threshold(1.0, 0.5)
    below = closed_spectrum(toy_params(b_max * (1.0 - 1e-6), 0.5))
    above = closed_spectrum(toy_params(b_max * (1.0 + 1e-6), 0.5))
    assert below.pseudo_hermitian
    assert not above.pseudo_hermitian
    assert max(abs(v.imag) for v in below.eigenvalues) <= 1e-10
    assert max(abs(v.imag) for v in above.eigenvalues) > 0.0


@pytest.mark.xfail(
    strict=True,
    reason="the regime band has an absolute floor of 1, so small parameters "
    "are classified against an absolute tolerance",
)
def test_regime_flag_is_scale_invariant():
    flags = []
    for scale in (1.0, 1e-8):
        f3, g3 = gilbert_fields(GilbertParams(scale, 0.5, -0.4))
        params = TwoSpinParams(f3=f3, g3=g3, exchange=scale)
        flags.append(closed_spectrum(params).pseudo_hermitian)
    assert flags[0] == flags[1]


def test_imaginary_parts_grow_beyond_threshold():
    b_max = damping_threshold(1.0, 0.5)
    growth = [
        max(abs(v.imag) for v in closed_spectrum(toy_params(b, 0.5)).eigenvalues)
        for b in (b_max * 1.1, b_max * 1.5, b_max * 2.0)
    ]
    assert growth[0] > 0.0
    assert growth[0] < growth[1] < growth[2]


# ---------------------------------------------------------------------------
# counterpart and isomorphism


def test_hermitian_counterpart_toy_anchor():
    counterpart = hermitian_counterpart(toy_params(1.0, 1.0))
    assert counterpart.b3 == pytest.approx(0.5, abs=ATOL)
    assert counterpart.c3 == pytest.approx(0.5, abs=ATOL)
    root3 = np.sqrt(3.0)
    assert counterpart.j_tilde[0] == pytest.approx(root3 / 2.0, abs=ATOL)
    assert counterpart.j_tilde[1] == pytest.approx(root3 / 2.0, abs=ATOL)
    assert counterpart.j_tilde[2] == pytest.approx(1.0, abs=ATOL)
    matrix = counterpart.matrix
    assert np.max(np.abs(matrix - matrix.conj().T)) <= ATOL


def test_hermitian_counterpart_limits_and_errors():
    params = TwoSpinParams(f3=0.7, g3=0.7, exchange=0.9)
    counterpart = hermitian_counterpart(params)
    assert np.allclose(counterpart.matrix, build_total(params), atol=ATOL)
    assert counterpart.j_tilde == pytest.approx((0.9, 0.9, 0.9))
    with pytest.raises(ValueError):
        hermitian_counterpart(toy_params(5.0, 0.5))


def test_hermitian_counterpart_preserves_spectrum_dissipative():
    rng = np.random.default_rng(6)
    for _ in range(20):
        amplitude = float(rng.uniform(0.2, 2.2))
        alpha = float(rng.uniform(0.1, 1.0))
        params = toy_params(amplitude, alpha, exchange=float(rng.uniform(0.5, 2.0)))
        if not closed_spectrum(params).pseudo_hermitian:
            continue
        counterpart = hermitian_counterpart(params)
        match_multisets(
            np.linalg.eigvals(counterpart.matrix),
            np.linalg.eigvals(build_total(params)),
            1e-10,
        )
        assert np.linalg.det(counterpart.matrix) == pytest.approx(
            np.linalg.det(build_total(params)), abs=1e-12
        )


def test_paper_isomorphism_toy_anchor():
    params = toy_params(1.0, 1.0)
    u, rho = paper_isomorphism(params)
    expect_u = np.eye(4, dtype=complex)
    expect_u[1, 1] = np.sqrt(3.0) / 2.0
    expect_u[1, 2] = -0.5j
    assert np.allclose(u, expect_u, atol=ATOL)
    assert rho.matrix[1, 1] == pytest.approx(4.0 / 3.0, abs=ATOL)
    assert eta_inner(
        np.array([0, 1.0, 0, 0]), np.array([0, 1.0, 0, 0]), rho
    ) == pytest.approx(4.0 / 3.0, abs=ATOL)


def test_paper_isomorphism_postconditions():
    rng = np.random.default_rng(7)
    for _ in range(20):
        params = toy_params(
            float(rng.uniform(0.2, 1.8)),
            float(rng.uniform(0.2, 1.0)),
            exchange=float(rng.uniform(0.5, 2.0)),
        )
        if not closed_spectrum(params).pseudo_hermitian:
            continue
        u, rho = paper_isomorphism(params)
        hamiltonian = build_total(params)
        conjugated = np.linalg.solve(u, hamiltonian @ u)
        assert np.max(np.abs(conjugated - conjugated.conj().T)) <= 1e-10
        assert is_rho_hermitian(hamiltonian, rho, tol=1e-10)
        assert np.allclose(
            conjugated, hermitian_counterpart(params).matrix, atol=1e-10
        )


def test_paper_isomorphism_identity_limit():
    distances = []
    for k in range(8):
        alpha = 0.5 / 2.0**k
        u, _ = paper_isomorphism(toy_params(1.0, alpha))
        distances.append(np.max(np.abs(u - np.eye(4))))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-2


def test_paper_isomorphism_rejections():
    with pytest.raises(ValueError):
        paper_isomorphism(toy_params(5.0, 0.5))  # beyond threshold
    with pytest.raises(ValueError):
        paper_isomorphism(TwoSpinParams(f3=1.2, g3=0.4, exchange=1.0))  # real f_minus
    with pytest.raises(ValueError):
        paper_isomorphism(TwoSpinParams(f3=0.5, g3=0.5, exchange=0.0))  # no coupling
    b_max = damping_threshold(1.0, 0.5)
    with pytest.raises(ValueError):
        paper_isomorphism(toy_params(b_max, 0.5))  # exceptional point


# ---------------------------------------------------------------------------
# dynamics


def test_evolve_basics():
    params = toy_params(1.0, 1.0)
    hamiltonian = build_total(params)
    rng = np.random.default_rng(8)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    assert np.allclose(evolve(hamiltonian, 0.0, psi), psi, atol=ATOL)
    hermitian = build_total(TwoSpinParams(f3=0.8, g3=0.3, exchange=1.1))
    for t in (0.5, 2.0, 17.0):
        evolved = evolve(hermitian, t, psi)
        assert np.linalg.norm(evolved) == pytest.approx(
            np.linalg.norm(psi), abs=1e-10
        )
    for t1, t2 in ((0.3, 0.9), (-1.2, 2.5)):
        two_step = evolve(hamiltonian, t1, evolve(hamiltonian, t2, psi))
        one_step = evolve(hamiltonian, t1 + t2, psi)
        assert np.max(np.abs(two_step - one_step)) <= 1e-9
    with pytest.raises(ValueError):
        evolve(hamiltonian, 1.0, np.ones(3))


def test_evolve_defective_fallback_and_dissipation():
    b_max = damping_threshold(1.0, 0.5)
    defective = build_total(toy_params(b_max, 0.5))
    rng = np.random.default_rng(9)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    two_step = evolve(defective, 0.7, evolve(defective, 0.6, psi))
    one_step = evolve(defective, 1.3, psi)
    assert np.max(np.abs(two_step - one_step)) <= 1e-9
    beyond = build_total(toy_params(2.0 * b_max, 0.5))
    norms = [np.linalg.norm(evolve(beyond, t, psi)) for t in (0.0, 5.0, 10.0)]
    assert norms[1] > norms[0] * 10.0
    assert norms[2] > norms[1] * 10.0


def test_evolve_time_array_matches_scalar_calls():
    rng = np.random.default_rng(14)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(-3.0, 12.0, 37)
    b_max = damping_threshold(1.0, 0.5)
    for params in (toy_params(1.0, 0.5), toy_params(b_max, 0.5)):
        hamiltonian = build_total(params)
        evolved = evolve(hamiltonian, times, psi)
        assert evolved.shape == (times.size, 4)
        for k, t in enumerate(times):
            single = evolve(hamiltonian, float(t), psi)
            assert single.shape == (4,)
            assert np.array_equal(evolved[k], single)
    assert evolve(hamiltonian, np.array([]), psi).shape == (0, 4)
    with pytest.raises(ValueError):
        evolve(hamiltonian, np.ones((2, 2)), psi)


def test_transition_series_matches_pointwise_calls():
    rng = np.random.default_rng(15)
    times = np.linspace(0.0, 20.0, 41)
    undamped = TwoSpinParams(f3=0.9, g3=0.4, exchange=0.7)
    for params in (toy_params(1.0, 0.5), undamped):
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
        series = transition_series(xi, zeta, params, times)
        rho = (
            paper_isomorphism(params).rho
            if params is not undamped
            else Metric.identity(4)
        )
        hamiltonian = build_total(params)
        assert series.amplitudes.shape == times.shape
        for k, t in enumerate(times):
            result = transition_probability(xi, zeta, params, float(t))
            assert series.amplitudes[k] == result.amplitude
            assert series.probabilities[k] == result.probability
            assert series.route_gaps[k] == result.route_gap
            evolved = evolve(hamiltonian, float(t), zeta)
            assert series.rho_norms[k] == np.sqrt(eta_inner(evolved, evolved, rho).real)


def test_transition_series_checks_route_at_every_time(monkeypatch):
    params = toy_params(1.0, 0.5)
    rng = np.random.default_rng(16)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(0.0, 30.0, 61)
    series = transition_series(xi, zeta, params, times)
    scale = 1.0 + abs(params.f3) + abs(params.g3) + 2.0 * abs(params.exchange)
    ratios = series.route_gaps / (scale * (1.0 + np.abs(series.amplitudes)))
    worst, runner_up = np.sort(ratios)[-1], np.sort(ratios)[-2]
    assert worst > runner_up
    # Only the worst time breaks the tightened tolerance.
    monkeypatch.setattr(twospin, "ROUTE_TOL", 0.5 * (worst + runner_up))
    with pytest.raises(RuntimeError, match="routes disagree"):
        transition_series(xi, zeta, params, times)
    keep = np.arange(times.size) != int(np.argmax(ratios))
    transition_series(xi, zeta, params, times[keep])
    with pytest.raises(ValueError):
        transition_series(np.zeros(4), zeta, params, times)
    with pytest.raises(ValueError):
        transition_series(xi, zeta, params, np.ones((2, 2)))


def test_transition_probability_toy_model():
    params = toy_params(1.0, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(10):
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = float(rng.uniform(-5.0, 5.0))
        result = transition_probability(xi, zeta, params, t)
        assert result.route_gap <= 1e-9
        assert 0.0 <= result.probability <= 1.0 + 1e-12
    _, rho = paper_isomorphism(params)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    self_result = transition_probability(psi, psi, params, 0.0)
    norm_sq = eta_inner(psi, psi, rho).real
    assert self_result.amplitude == pytest.approx(norm_sq, abs=1e-10)
    assert self_result.probability == pytest.approx(1.0, abs=1e-12)


def test_transition_probability_hermitian_branch():
    params = TwoSpinParams(f3=0.9, g3=0.4, exchange=0.7)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
    result = transition_probability(xi, zeta, params, 3.3)
    assert result.route_gap <= 1e-12
    canonical = np.vdot(xi, evolve(build_total(params), 3.3, zeta))
    assert result.amplitude == pytest.approx(canonical, abs=1e-10)


def test_transition_probability_rejections():
    rng = np.random.default_rng(12)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    with pytest.raises(ValueError):
        transition_probability(xi, xi, toy_params(5.0, 0.5), 1.0)
    with pytest.raises(ValueError):
        transition_probability(np.zeros(4), xi, toy_params(1.0, 0.5), 1.0)


def test_rho_norm_conserved_along_evolution():
    params = toy_params(1.0, 0.5)
    _, rho = paper_isomorphism(params)
    hamiltonian = build_total(params)
    rng = np.random.default_rng(13)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = eta_inner(psi, psi, rho).real
    for t in np.linspace(0.0, 100.0, 26):
        evolved = evolve(hamiltonian, float(t), psi)
        assert eta_inner(evolved, evolved, rho).real == pytest.approx(
            base, rel=1e-9
        )


# ---------------------------------------------------------------------------
# canonical limit


def test_canonical_limit_alpha_zero_is_exact():
    params = TwoSpinParams(f3=0.8, g3=0.8, exchange=1.0)
    report = canonical_limit_check(params, steps=3)
    assert isinstance(report, CanonicalLimitReport)
    assert report.passed
    assert report.u_distances == (0.0, 0.0, 0.0)
    assert report.counterpart_gaps == (0.0, 0.0, 0.0)
    counterpart = hermitian_counterpart(params)
    assert np.array_equal(counterpart.matrix, build_total(params))


def test_canonical_limit_toy_model():
    report = canonical_limit_check(toy_params(1.0, 0.5), steps=8)
    assert report.passed
    assert report.monotone
    assert all(gap < 1e-12 for gap in report.det_gaps)
    assert report.u_distances[0] > report.u_distances[-1]
    assert report.counterpart_gaps[-1] < report.counterpart_gaps[0]


def test_canonical_limit_rejections():
    with pytest.raises(ValueError):
        canonical_limit_check(TwoSpinParams(f3=1.2, g3=0.4, exchange=1.0))
    with pytest.raises(ValueError):
        canonical_limit_check(toy_params(1.0, 0.5), steps=0)
