"""Tests for the two-spin model layer.

Matrix builders are frozen against hand-expanded entry patterns and against
the quantization of the classical model; the closed-form spectrum is checked
against the dense eigensolver over random parameters; the block propagator
against ``mpmath.expm`` at 40 digits and ``scipy.linalg.expm``; regime,
isomorphism, and evolution behavior are anchored on the exactly solvable toy
parameterization.
"""

import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from pseudospin.grassmann import AlgebraSpec, GrassmannElement
from pseudospin.pseudoherm import (
    METRIC_RESIDUAL_TOL,
    Metric,
    diagnose,
    eta_inner,
    is_rho_hermitian,
)
from pseudospin import twospin
from pseudospin.quantize import PAULI, quantize, tensor_realization
from pseudospin.twospin import (
    NoMetricError,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    damping_threshold,
    evolve,
    hermitian_counterpart,
    matched_eigenvalues,
    paper_isomorphism,
    transition_series,
)

ATOL = 1e-12


def toy_params(amplitude, alpha, exchange=1.0):
    return TwoSpinParams.from_gilbert(amplitude, alpha, -alpha, exchange)


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


def test_single_spin_complex_field_regimes():
    # F.F > 0 keeps the spectrum real even for complex F; F.F = 0 collapses
    # both eigenvalues to zero on a defective matrix.
    near = 0.5 * sum(c * sigma for c, sigma in zip([1.0, 0.999j, 0.0], PAULI))
    report = diagnose(near)
    assert report.spectrum_real and report.diagonalizable
    assert np.allclose(
        np.abs(report.spectrum), 0.5 * np.sqrt(1.0 - 0.999**2), atol=1e-10
    )
    degenerate = 0.5 * sum(c * sigma for c, sigma in zip([1.0, 1.0j, 0.0], PAULI))
    report = diagnose(degenerate)
    assert np.allclose(report.spectrum, [0.0, 0.0], atol=1e-10)
    assert not report.diagonalizable


def test_interaction_builder_isotropic():
    j = 0.8
    built = build_total(TwoSpinParams(0, 0, j))
    expect = (j / 4.0) * np.array(
        [[1, 0, 0, 0], [0, -1, 2, 0], [0, 2, -1, 0], [0, 0, 0, 1]], dtype=complex
    )
    assert np.allclose(built, expect, atol=ATOL)
    match_multisets(
        [j / 4, j / 4, j / 4, -3 * j / 4], sorted_eigs(built), 1e-12
    )
    assert np.allclose(build_total(TwoSpinParams(0, 0, 0)), np.zeros((4, 4)))


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


def test_hermitian_counterpart_bytes_match_kron_construction():
    # On the dissipative branch the counterpart matrix has the same bytes,
    # signed zeros included, as per-call Kronecker products of its real
    # z-fields and its anisotropic exchange (s/2, s/2, J).  On the hermitian
    # branch (|Im f_minus| within the band) it is build_total's matrix.  In
    # the exceptional-point band, where H is a Jordan block, it raises.
    eye = np.eye(2, dtype=complex)

    def sigma_dot(field):
        return field[0] * PAULI[0] + field[1] * PAULI[1] + field[2] * PAULI[2]

    def kron_counterpart(params):
        f_plus, f_minus, j = params.f_plus, params.f_minus, params.exchange
        margin = float((4.0 * j * j + f_minus * f_minus).real)
        root = math.copysign(float(np.sqrt(margin)), j)
        b3 = (f_plus.real + f_minus.real) / 2.0
        c3 = (f_plus.real - f_minus.real) / 2.0
        b_dot = sigma_dot(np.array([0.0, 0.0, b3], dtype=complex))
        c_dot = sigma_dot(np.array([0.0, 0.0, c3], dtype=complex))
        free = 0.25 * (np.kron(eye, b_dot) + np.kron(c_dot, eye))
        coupling = np.diag([root / 2.0, root / 2.0, j])
        exchange = np.zeros((4, 4), dtype=complex)
        for i in range(3):
            for k in range(3):
                if coupling[i, k] != 0.0:
                    exchange += coupling[i, k] * (
                        np.kron(PAULI[k], PAULI[i]) + np.kron(PAULI[i], PAULI[k])
                    )
        return free + exchange / 8.0

    rng = np.random.default_rng(5)
    specials = [0.0, -0.0, 1.0, -2.5, 1e-8]

    def draw():
        if rng.uniform() < 0.5:
            return float(rng.choice(specials))
        return float(rng.normal())

    # 500 draws: the alpha = +-0 draws land on the hermitian branch, and
    # each branch needs 100 checked points; a few draws sit at the
    # exceptional point.
    checked = {"dissipative": 0, "hermitian": 0, "exceptional": 0}
    for _ in range(500):
        if rng.uniform() < 0.5:
            f_plus, alpha = draw(), draw()
            f3 = complex(f_plus / 2.0, alpha / 2.0)
            g3 = complex(f_plus / 2.0, -alpha / 2.0)
        else:
            f3 = complex(draw(), float(rng.choice([0.0, -0.0])))
            g3 = complex(draw(), float(rng.choice([0.0, -0.0])))
        params = TwoSpinParams(f3=f3, g3=g3, exchange=draw())
        report = closed_spectrum(params)
        if not report.pseudo_hermitian:
            continue
        scale = twospin._tolerance_scale(params)
        if abs(params.f_minus.imag) <= twospin.REGIME_TOL * scale:
            branch, expected = "hermitian", build_total(params)
        elif report.threshold_margin <= twospin.REGIME_TOL * scale**2:
            with pytest.raises(NoMetricError, match="exceptional point"):
                hermitian_counterpart(params)
            checked["exceptional"] += 1
            continue
        else:
            branch, expected = "dissipative", kron_counterpart(params)
        assert hermitian_counterpart(params).matrix.tobytes() == expected.tobytes(), params
        checked[branch] += 1
    assert min(checked["dissipative"], checked["hermitian"]) >= 100, checked
    assert checked["exceptional"] > 0, checked


def test_builders_vanish_off_the_1_2_1_blocks():
    # evolve accepts only matrices that conserve total S_z; every builder
    # must give exact zeros on the entries that link different S_z.
    total_sz = np.array([1, 0, 0, -1])
    off_block = total_sz[:, None] != total_sz
    rng = np.random.default_rng(6)
    for _ in range(100):
        f_plus, alpha, exchange = rng.normal(size=3)
        for params in (
            TwoSpinParams(
                f3=complex(f_plus, alpha) / 2.0, g3=complex(f_plus, -alpha) / 2.0,
                exchange=exchange,
            ),
            TwoSpinParams(f3=rng.normal(), g3=rng.normal(), exchange=exchange),
            TwoSpinParams(
                f3=complex(*rng.normal(size=2)), g3=complex(*rng.normal(size=2)),
                exchange=exchange,
            ),
        ):
            assert not np.any(build_total(params)[off_block])
            if closed_spectrum(params).pseudo_hermitian:
                counterpart = hermitian_counterpart(params).matrix
                assert not np.any(counterpart[off_block])


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
    # The matrix builders coincide, bit for bit, with the quantization of the
    # classical model: precession terms for both families plus the bilinear
    # coupling, realized at hbar = 1/2.  Fields are complex, J takes both
    # signs, and each parameter has its own scale in [1e-8, 1e8].
    levi = np.zeros((3, 3, 3))
    for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
        levi[i, j, k] = 1.0
        levi[j, i, k] = -1.0
    alg = AlgebraSpec((3, 3), momenta_attached=True)
    xi = [GrassmannElement.from_generator(alg, alg.coordinate(0, i)) for i in range(3)]
    chi = [GrassmannElement.from_generator(alg, alg.coordinate(1, i)) for i in range(3)]
    realization = tensor_realization(AlgebraSpec((3, 3)), hbar=0.5)
    rng = np.random.default_rng(24)
    scales = 10.0 ** rng.uniform(-8.0, 8.0, size=(200, 3))
    parts = rng.normal(size=(200, 5))
    for (f_scale, g_scale, j_scale), (f_re, f_im, g_re, g_im, j_part) in zip(scales, parts):
        params = TwoSpinParams(
            f3=f_scale * complex(f_re, f_im), g3=g_scale * complex(g_re, g_im),
            exchange=j_scale * j_part,
        )
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
        assert np.array_equal(quantize(classical, realization), build_total(params)), params


def test_params_validation():
    with pytest.raises(ValueError):
        TwoSpinParams(f3=1.0, g3=1.0, exchange=1.0 + 0.5j)
    for amplitude in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="field amplitude must be positive"):
            TwoSpinParams.from_gilbert(amplitude, 0.0, 0.0, 1.0)


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


@pytest.mark.parametrize("f3, g3, exchange", [
    (1e-300, 1e-300, 1e-300),
    (1e-300, 1e-300, -1e-160),
    (1e-160j, 0.0, 0.0),
    (1e-155, -1e-155, 0.0),
])
def test_params_reject_underflowing_closed_form(f3, g3, exchange):
    with pytest.raises(ValueError, match="underflow the closed form"):
        TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


def test_params_just_above_underflow_keep_the_splitting():
    # 4 J^2 = 4e-308 is still a normal float, so E1+ = (-J + 2|J|)/4 > 0.
    report = closed_spectrum(TwoSpinParams(f3=0.0, g3=0.0, exchange=1e-154))
    assert report.threshold_margin == pytest.approx(4e-308, rel=1e-15)
    assert report.eigenvalues[0].real > 0.0
    # Nothing underflows where the splitting is exactly zero or J dominates.
    for exchange in (0.0, 1.0):
        TwoSpinParams(f3=1e-300, g3=1e-300, exchange=exchange)


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
    assert report.eigenvalues[0] == pytest.approx(0.0, abs=ATOL)
    assert report.eigenvalues[1] == pytest.approx(0.0, abs=ATOL)
    assert report.eigenvalues[2] == pytest.approx(0.45, abs=ATOL)
    assert report.eigenvalues[3] == pytest.approx(-0.45, abs=ATOL)
    assert report.pseudo_hermitian


def matcher_draws():
    """Seeded parameter sets at scales 1e-6 to 1e6: generic complex fields,
    and opposite Gilbert damping on either side of the threshold."""
    rng = np.random.default_rng(16)
    for draw in range(200):
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        if draw % 2 == 0:
            yield TwoSpinParams(
                f3=scale * complex(rng.normal(), rng.normal()),
                g3=scale * complex(rng.normal(), rng.normal()),
                exchange=scale * float(rng.normal()),
            )
        else:
            alpha = float(rng.uniform(-2.0, 2.0))
            yield TwoSpinParams.from_gilbert(
                scale * float(rng.uniform(0.01, 5.0)), alpha, -alpha,
                scale * float(rng.uniform(0.1, 2.0)),
            )


def test_matched_eigenvalues_pair_by_total_sz_sector():
    unique = 0
    for params in matcher_draws():
        closed = closed_spectrum(params).eigenvalues
        hamiltonian = build_total(params)
        matched = matched_eigenvalues(hamiltonian, closed)
        # The corners are decoupled: their eigenvalues are the diagonal
        # entries, bit for bit, and the middle pair is the other two.
        assert matched[2] == hamiltonian[0, 0] and matched[3] == hamiltonian[3, 3]
        numerical = np.linalg.eigvals(hamiltonian)
        rest = list(numerical)
        rest.remove(hamiltonian[0, 0])
        rest.remove(hamiltonian[3, 3])
        assert sorted(rest, key=lambda v: (v.real, v.imag)) == sorted(
            matched[:2], key=lambda v: (v.real, v.imag)
        )
        # Wherever the closest of all 24 orders is unique, it is this one.
        costs = sorted(
            (sum(abs(c - numerical[k]) for c, k in zip(closed, order)), order)
            for order in itertools.permutations(range(4))
        )
        if costs[0][0] < costs[1][0]:
            unique += 1
            assert np.array_equal(matched, numerical[list(costs[0][1])])
    assert unique >= 190


def test_agreement_bounds_take_the_condition_of_the_eigenvectors():
    # The middle pair's kappa from ||K||_F and the closed-form gap is the
    # eigenvector condition ||x|| ||y|| / |y^H x| of the middle block; the
    # corners have kappa = 1.  Both scale ||H||_F times 16 eps.
    rng = np.random.default_rng(37)
    for _ in range(200):
        f3, g3 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        params = TwoSpinParams(f3, g3, float(rng.standard_normal()))
        hamiltonian = build_total(params)
        closed = closed_spectrum(params).eigenvalues
        bounds = twospin._agreement_bounds(hamiltonian, closed)
        kappa = bounds / (16.0 * np.finfo(float).eps * np.linalg.norm(hamiltonian))
        right = np.linalg.eig(hamiltonian[1:3, 1:3])[1]
        left = np.linalg.inv(right).conj().T  # y_i^H x_i = 1
        condition = np.linalg.norm(right, axis=0) * np.linalg.norm(left, axis=0)
        assert kappa[:2] == pytest.approx(condition, rel=1e-6)
        assert kappa[2:] == pytest.approx([1.0, 1.0], rel=1e-12)


def test_agreement_bounds_cap_the_condition_at_the_exceptional_point():
    # A Jordan block: kappa takes its cap eps^-1/2, so the middle bounds are
    # 16 sqrt(eps) ||H||_F; a diagonal (normal) block keeps kappa = 1.
    eps = np.finfo(float).eps
    for params, kappa in (
        (TwoSpinParams.from_gilbert(2.5, 0.5, -0.5, 1.0), 1.0 / math.sqrt(eps)),
        (TwoSpinParams(1.0, 0.5, 0.0), 1.0),
        (TwoSpinParams(1.0, 1.0, 0.0), 1.0),  # K = 0: no gap and no coupling
    ):
        hamiltonian = build_total(params)
        closed = closed_spectrum(params).eigenvalues
        bounds = twospin._agreement_bounds(hamiltonian, closed)
        unit = 16.0 * eps * np.linalg.norm(hamiltonian)
        assert bounds / unit == pytest.approx([kappa, kappa, 1.0, 1.0], rel=1e-12)


@pytest.mark.parametrize("amplitude, middle, corner, column", [
    # Three eigenvalues are 0.25: the middle block's 0.25000000000000006
    # is E1p, and the -1 corner's 0.25 is E2m.
    (1e-300, 0.25000000000000006, 0.25, 0),
    # E1m = E2m = -0.75 in closed form: the middle block's
    # -0.7500000000000001 is E1m, and the -1 corner's -0.75 is E2m.
    (2.0, -0.7500000000000001, -0.75, 1),
])
def test_matched_eigenvalues_at_cross_sector_ties(amplitude, middle, corner, column):
    params = TwoSpinParams.from_gilbert(amplitude, 0.0, 0.0, 1.0)
    matched = matched_eigenvalues(build_total(params), closed_spectrum(params).eigenvalues)
    assert matched[column] == middle
    assert matched[3] == corner


# Parameter sets for the stacked matcher: the two cross-sector ties above,
# integer-valued fields and couplings (ties between sectors are common), and
# fractions of eighths at scales 1e-6 to 1e6.
_SMALL = st.integers(-3, 3)
_EIGHTHS = st.integers(-16, 16).map(lambda k: k / 8.0)
matcher_params = st.one_of(
    st.sampled_from([(1e-300, 0.0, 0.0, 1.0), (2.0, 0.0, 0.0, 1.0)]).map(
        lambda args: TwoSpinParams.from_gilbert(*args)
    ),
    st.builds(
        lambda a, b, c, d, j: TwoSpinParams(complex(a, b), complex(c, d), j),
        _SMALL, _SMALL, _SMALL, _SMALL, _SMALL,
    ),
    st.builds(
        lambda s, a, b, c, d, j: TwoSpinParams(
            s * complex(a, b), s * complex(c, d), s * j
        ),
        st.integers(-6, 6).map(lambda e: 10.0**e),
        _EIGHTHS, _EIGHTHS, _EIGHTHS, _EIGHTHS, _EIGHTHS,
    ),
)


@settings(max_examples=60)
@given(st.lists(matcher_params, min_size=1, max_size=8), st.data())
def test_stacked_matcher_matches_single_calls(draws, data):
    hamiltonians = np.array([build_total(p) for p in draws])
    closed = np.array([closed_spectrum(p).eigenvalues for p in draws])
    singles = [matched_eigenvalues(h, c) for h, c in zip(hamiltonians, closed)]
    assert all(single.shape == (4,) for single in singles)
    stacked = matched_eigenvalues(hamiltonians, closed)
    assert stacked.shape == (len(draws), 4)
    assert stacked.tobytes() == np.array(singles).tobytes()
    # One sector-linking entry anywhere in the stack is refused.
    k = data.draw(st.integers(0, len(draws) - 1))
    row, col = data.draw(st.sampled_from(
        [(r, c) for r in range(4) for c in range(4)
         if twospin._TOTAL_SZ[r] != twospin._TOTAL_SZ[c]]
    ))
    hamiltonians[k, row, col] = 1e-300
    with pytest.raises(ValueError, match="total S_z"):
        matched_eigenvalues(hamiltonians, closed)


def test_matched_eigenvalues_reject_a_matrix_linking_sectors():
    hamiltonian = build_total(toy_params(1.0, 0.5))
    hamiltonian[0, 3] = 1e-300
    with pytest.raises(ValueError, match="total S_z"):
        matched_eigenvalues(hamiltonian, closed_spectrum(toy_params(1.0, 0.5)).eigenvalues)


def test_from_gilbert_anchors():
    params = TwoSpinParams.from_gilbert(1.5, 0.0, 0.0, 1.0)
    assert params.f3 == pytest.approx(1.5) and params.g3 == pytest.approx(1.5)
    params = TwoSpinParams.from_gilbert(1.0, 1.0, -1.0, 1.0)
    assert params.f3 == pytest.approx((1.0 + 1.0j) / 2.0, abs=ATOL)
    assert params.g3 == pytest.approx((1.0 - 1.0j) / 2.0, abs=ATOL)
    assert params.f_plus == pytest.approx(1.0, abs=ATOL)
    assert params.f_minus == pytest.approx(1.0j, abs=ATOL)
    for amplitude, alpha in ((0.8, 0.25), (2.0, 1.5)):
        params = toy_params(amplitude, alpha)
        f_plus = 2.0 * amplitude / (1.0 + alpha * alpha)
        assert params.f_plus == pytest.approx(f_plus, abs=ATOL)
        assert params.f_minus == pytest.approx(1j * alpha * f_plus, abs=ATOL)


@pytest.mark.parametrize("alphas", [(1e155, 0.0), (0.0, -1e155), (1e200, 1e200)])
def test_from_gilbert_rejects_damping_whose_square_overflows(alphas):
    # Float ** raises OverflowError where * would return inf.
    with pytest.raises(ValueError, match="damping overflows its square"):
        TwoSpinParams.from_gilbert(1.0, *alphas, 1.0)


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


def test_regime_flag_uses_the_branch_gate_band():
    # Re f_minus = -5e-9 and Im f_minus = 1: Im(4 J^2 + f_minus^2) = -1e-8 is
    # inside REGIME_TOL * scale^2, but both parts of f_minus are outside
    # REGIME_TOL * scale, the band of the branch test of paper_isomorphism.
    params = TwoSpinParams.from_gilbert(1.0, 1.000000005, -0.999999995, 1.0)
    report = closed_spectrum(params)
    assert abs((report.threshold_margin - 3.0)) < 1e-12
    assert not report.pseudo_hermitian
    with pytest.raises(ValueError, match="reality conditions"):
        transition_series(np.eye(4)[1], np.eye(4)[2], params, np.array([0.0]))


def test_flagged_points_pass_the_branch_gates():
    # Field differences whose real and imaginary parts both straddle the
    # band: wherever the flag says pseudo-hermitian, with J != 0 and above
    # the exceptional-point band, transition_series finds its branch.
    rng = np.random.default_rng(21)
    xi, zeta = np.eye(4, dtype=complex)[1:3]
    checked = 0
    for _ in range(300):
        exchange = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 2.0))
        f_plus = float(rng.uniform(-2.0, 2.0))
        re, im = 10.0 ** rng.uniform(-12.0, -2.0, size=2) * rng.choice([-1, 1], size=2)
        params = TwoSpinParams(
            f3=complex(f_plus + re, im) / 2.0,
            g3=complex(f_plus - re, -im) / 2.0,
            exchange=exchange,
        )
        report = closed_spectrum(params)
        scale = twospin._tolerance_scale(params)
        if report.threshold_margin <= twospin.REGIME_TOL * scale**2:
            continue
        if report.pseudo_hermitian:
            transition_series(xi, zeta, params, np.array([0.0, 1.0]))
            checked += 1
    assert checked >= 100


def test_regime_flag_is_scale_invariant():
    flags = []
    for scale in (1.0, 1e-8):
        params = TwoSpinParams.from_gilbert(scale, 0.5, -0.4, scale)
        flags.append(closed_spectrum(params).pseudo_hermitian)
    assert flags[0] == flags[1]
    # Complex fields and J of both signs, half of them drawn on the regime
    # (f_plus real, f_minus real or imaginary).  Scaling by 2^k is exact in
    # every field, coupling, sum and square the flag reads, so no flag may
    # change.  Scaling by c = 10^U(-12, 12) rounds each of them, but every
    # band is relative, so a draw would have to sit within rounding of a
    # band's edge to flip.
    rng = np.random.default_rng(29)
    seen = set()
    for draw in range(2000):
        f3, g3 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        if draw % 2:
            f_plus, f_minus = (f3 + g3).real, f3 - g3
            f_minus = f_minus.real if draw % 4 == 1 else 1j * f_minus.imag
            f3, g3 = (f_plus + f_minus) / 2.0, (f_plus - f_minus) / 2.0
        exchange = float(rng.standard_normal())
        flag = closed_spectrum(TwoSpinParams(f3, g3, exchange)).pseudo_hermitian
        seen.add(flag)
        powers = 10.0 ** rng.uniform(-12.0, 12.0, 4)
        for c in (2.0**-40, 2.0**-20, 2.0**20, 2.0**40, *powers):
            scaled = TwoSpinParams(c * f3, c * g3, c * exchange)
            assert closed_spectrum(scaled).pseudo_hermitian == flag, (draw, c)
    assert seen == {True, False}


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
    u, rho, _ = paper_isomorphism(params)
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
        _, rho, conjugated = paper_isomorphism(params)
        hamiltonian = build_total(params)
        assert np.max(np.abs(conjugated - conjugated.conj().T)) <= 1e-10
        assert is_rho_hermitian(hamiltonian, rho, tol=1e-10)
        assert np.allclose(
            conjugated, hermitian_counterpart(params).matrix, atol=1e-10
        )


def test_paper_isomorphism_identity_limit():
    distances = []
    for k in range(8):
        alpha = 0.5 / 2.0**k
        u = paper_isomorphism(toy_params(1.0, alpha)).u
        distances.append(np.max(np.abs(u - np.eye(4))))
    assert all(b < a for a, b in zip(distances, distances[1:]))
    assert distances[-1] < 1e-2


def test_paper_isomorphism_rejections():
    with pytest.raises(ValueError):
        paper_isomorphism(toy_params(5.0, 0.5))  # beyond threshold
    b_max = damping_threshold(1.0, 0.5)
    with pytest.raises(ValueError):
        paper_isomorphism(toy_params(b_max, 0.5))  # exceptional point
    # Real f_minus, and no coupling: the hermitian branch, framed by the identity.
    # Its partner is the model itself, bit for bit.
    for params in (TwoSpinParams(1.2, 0.4, 1.0), TwoSpinParams(0.5, 0.5, 0.0)):
        u, rho, partner = paper_isomorphism(params)
        assert np.array_equal(u, np.eye(4))
        assert np.array_equal(rho.matrix, np.eye(4))
        assert np.array_equal(partner, build_total(params))


def test_all_zero_model_needs_no_special_case():
    # Its band is 0 and it sits on the threshold (margin 0.0), on the
    # hermitian branch: paper_isomorphism frames it by the identity before
    # its exceptional-point check, and transition_series takes that frame.
    zero = TwoSpinParams(0.0, 0.0, 0.0)
    report = closed_spectrum(zero)
    assert report.pseudo_hermitian
    assert report.threshold_margin == 0.0
    xi, zeta = np.array([1, 2, 3, 4], dtype=complex), np.array([1j, 1, 0, 2])
    series = transition_series(xi, zeta, zero, np.array([0.0, 1.0]))
    assert np.array_equal(series.route_gaps, [0.0, 0.0])
    assert np.array_equal(series.amplitudes, np.full(2, np.vdot(xi, zeta)))
    u, rho, partner = paper_isomorphism(zero)
    assert np.array_equal(u, np.eye(4))
    assert np.array_equal(rho.matrix, np.eye(4))
    assert np.array_equal(partner, build_total(zero))


def test_small_hermitian_model_is_far_from_the_exceptional_point():
    # Zero fields and coupling 1e-8: the margin 4 J^2 is scale^2, a
    # relative margin of 1, so an isomorphism (the identity) exists.
    tiny = TwoSpinParams(0.0, 0.0, 1e-8)
    assert closed_spectrum(tiny).pseudo_hermitian
    u, rho, partner = paper_isomorphism(tiny)
    assert np.array_equal(u, np.eye(4))
    assert np.array_equal(rho.matrix, np.eye(4))
    assert np.array_equal(partner, build_total(tiny))


def test_no_metric_error_marks_exactly_the_points_without_a_metric():
    beyond, at_ep = toy_params(5.0, 0.5), toy_params(damping_threshold(1.0, 0.5), 0.5)
    state, times = np.array([0, 1, 0, 0], dtype=complex), np.linspace(0.0, 1.0, 3)
    for params, message in ((beyond, "reality conditions"), (at_ep, "exceptional point")):
        with pytest.raises(NoMetricError, match=message):
            hermitian_counterpart(params)
        with pytest.raises(NoMetricError, match=message):
            paper_isomorphism(params)
        with pytest.raises(NoMetricError, match=message):
            transition_series(state, state, params, times)
        # Both shapes are checked before the regime.
        with pytest.raises(ValueError, match=r"^zeta must have shape") as caught:
            transition_series(state, state[:3], params, times)
        assert not isinstance(caught.value, NoMetricError)
    for params in (
        TwoSpinParams(f3=1.2, g3=0.4, exchange=1.0),  # real f_minus
        TwoSpinParams(f3=0.5, g3=0.5, exchange=0.0),  # no coupling
    ):
        u, rho, _ = paper_isomorphism(params)
        assert np.array_equal(u, np.eye(4))
        assert np.array_equal(rho.matrix, np.eye(4))


def test_one_frame_covers_the_whole_regime():
    # Seeded models on both branches, with J > 0, J < 0 and J = 0: f_minus
    # real (with an imaginary part inside the band on two thirds of them) or
    # purely imaginary, some at the exceptional point, each scaled by 2^k.
    # paper_isomorphism and hermitian_counterpart both refuse exactly the
    # unflagged points and the exceptional point; everywhere else the partner
    # u^-1 H u matches hermitian_counterpart, whose eigenvalues are the
    # closed form's.
    rng = np.random.default_rng(30)
    checked = {"hermitian": 0, "dissipative": 0, "refused": 0}
    for _ in range(300):
        f_plus, diff, j = rng.normal(size=3)
        j = (j, -abs(j), 0.0)[rng.integers(3)]
        if rng.uniform() < 0.5:
            stray = 0.25 * twospin.REGIME_TOL * abs(diff) * rng.choice([0.0, 1.0, -1.0])
            f_minus = complex(diff, stray)
        else:
            f_minus = complex(0.0, 2.0 * j if rng.uniform() < 0.2 else diff)
        for k in (-20, 0, 20):
            params = TwoSpinParams(
                f3=math.ldexp(1.0, k) * (f_plus + f_minus) / 2.0,
                g3=math.ldexp(1.0, k) * (f_plus - f_minus) / 2.0,
                exchange=math.ldexp(j, k),
            )
            report = closed_spectrum(params)
            scale = twospin._tolerance_scale(params)
            hermitian = abs(params.f_minus.imag) <= twospin.REGIME_TOL * scale
            at_ep = report.threshold_margin <= twospin.REGIME_TOL * scale**2
            if not report.pseudo_hermitian or (at_ep and not hermitian):
                with pytest.raises(NoMetricError):
                    paper_isomorphism(params)
                with pytest.raises(NoMetricError):
                    hermitian_counterpart(params)
                checked["refused"] += 1
                continue
            partner = paper_isomorphism(params).partner
            counterpart = hermitian_counterpart(params).matrix
            assert np.max(np.abs(partner - counterpart)) <= METRIC_RESIDUAL_TOL * scale
            gaps = matched_eigenvalues(counterpart, report.eigenvalues) - report.eigenvalues
            assert np.max(np.abs(gaps)) <= 1e-12 * scale, params
            checked["hermitian" if hermitian else "dissipative"] += 1
    assert min(checked.values()) >= 100, checked


def mixed_draws(seed, count):
    """Seeded draws and their kinds: on the hermitian branch (real fields,
    either sign of J or none), on the dissipative one (alpha2 = -alpha1) and
    on the dissipative one with Im f_plus inside the band
    (alpha2 = -alpha1 (1 + 1e-11))."""
    rng = np.random.default_rng(seed)
    names = ["hermitian", "dissipative", "in-band"]
    kinds = rng.choice(names, size=count).tolist()
    draws = []
    for kind in kinds:
        j = float(rng.uniform(0.3, 2.0))
        if kind == "hermitian":
            f3, g3 = rng.normal(size=2).tolist()
            draws.append(TwoSpinParams(f3, g3, j * float(rng.choice([-1.0, 0.0, 1.0]))))
            continue
        alpha = float(rng.uniform(0.1, 1.0))
        amplitude = float(rng.uniform(0.05, 0.99)) * damping_threshold(j, alpha)
        alpha2 = -alpha * (1.0 if kind == "dissipative" else 1.0 + 1e-11)
        draws.append(TwoSpinParams.from_gilbert(amplitude, alpha, alpha2, j))
    assert min(map(kinds.count, names)) >= count // 5, kinds
    return draws, kinds


def test_stacked_calls_match_single_calls_bit_for_bit():
    draws, kinds = mixed_draws(32, 120)
    totals = build_total(draws)
    stack = paper_isomorphism(draws)
    shape = (len(draws), 4, 4)
    assert totals.shape == stack.u.shape == stack.partner.shape == stack.rho.matrix.shape == shape
    identity = Metric.identity(4)
    for k, (params, kind) in enumerate(zip(draws, kinds)):
        single = paper_isomorphism(params)
        assert totals[k].tobytes() == build_total(params).tobytes()
        assert stack.u[k].tobytes() == single.u.tobytes()
        assert stack.rho.matrix[k].tobytes() == single.rho.matrix.tobytes()
        assert stack.rho.min_eigenvalue[k].hex() == single.rho.min_eigenvalue.hex()
        assert stack.partner[k].tobytes() == single.partner.tobytes()
        if kind == "hermitian":
            # The identity frame and metric, and the model itself as partner.
            assert single.u.tobytes() == identity.matrix.tobytes()
            assert single.rho.matrix.tobytes() == identity.matrix.tobytes()
            assert single.rho.min_eigenvalue == identity.min_eigenvalue
            assert single.partner.tobytes() == build_total(params).tobytes()


def test_single_calls_return_one_matrix_and_one_metric():
    for params in (toy_params(1.0, 0.5), TwoSpinParams(1.2, 0.4, 1.0)):
        assert build_total(params).shape == (4, 4)
        u, rho, partner = paper_isomorphism(params)
        assert u.shape == partner.shape == rho.matrix.shape == (4, 4)
        assert type(rho) is Metric and type(rho.min_eigenvalue) is float
    stack = paper_isomorphism([toy_params(1.0, 0.5)])
    assert stack.u.shape == (1, 4, 4) and stack.rho.min_eigenvalue.shape == (1,)
    assert build_total([]).shape == (0, 4, 4)


@pytest.mark.parametrize(
    "bad, message",
    [
        (toy_params(5.0, 0.5), "reality conditions"),
        (toy_params(damping_threshold(1.0, 0.5), 0.5), "exceptional point"),
    ],
    ids=["outside", "exceptional_point"],
)
def test_stacked_isomorphism_names_the_entry_without_a_metric(bad, message):
    good = [toy_params(1.0, 0.5), TwoSpinParams(1.2, 0.4, 1.0)]
    with pytest.raises(NoMetricError, match=message) as single:
        paper_isomorphism(bad)
    with pytest.raises(NoMetricError) as stacked:
        paper_isomorphism([*good, bad, bad])
    assert str(stacked.value) == f"{single.value} at stack entry 2"


def test_stacked_gates_name_the_first_failing_dissipative_entry(monkeypatch):
    # A negative bound fails the partner gate wherever it runs: not on the
    # hermitian branch, where H is hermitian only within the wider regime band.
    hermitian, dissipative = TwoSpinParams(1.2, 0.4, 1.0), toy_params(1.0, 0.5)
    monkeypatch.setattr(twospin, "METRIC_RESIDUAL_TOL", -1.0)
    paper_isomorphism([hermitian, hermitian])
    partner_failure = "conjugated Hamiltonian failed the hermiticity check"
    with pytest.raises(RuntimeError, match=f"^{partner_failure}$"):
        paper_isomorphism(dissipative)
    with pytest.raises(RuntimeError, match=f"^{partner_failure} at stack entry 1$"):
        paper_isomorphism([hermitian, dissipative, dissipative])
    monkeypatch.undo()
    monkeypatch.setattr(twospin, "is_rho_hermitian", lambda a, rho, tol: np.zeros(len(a), bool))
    metric_failure = "constructed metric failed to hermitize the Hamiltonian"
    with pytest.raises(RuntimeError, match=f"^{metric_failure}$"):
        paper_isomorphism(dissipative)
    with pytest.raises(RuntimeError, match=f"^{metric_failure} at stack entry 2$"):
        paper_isomorphism([hermitian, hermitian, dissipative])


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
    with pytest.raises(ValueError, match="4x4"):
        evolve(np.eye(2), 1.0, np.ones(2))
    mixing = hamiltonian.copy()
    mixing[0, 3] = 1e-300
    with pytest.raises(ValueError, match="total S_z"):
        evolve(mixing, 1.0, psi)


def test_evolve_defective_and_dissipation():
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


def mp_evolve(hamiltonian, times, psi):
    """exp(-i H t) psi by ``mpmath.expm`` at 40 digits on the same float inputs."""
    with mpmath.workdps(40):
        h = mpmath.matrix(hamiltonian.tolist())
        v = mpmath.matrix(psi.tolist())
        return np.array([
            [complex(x) for x in mpmath.expm(-1j * mpmath.mpf(t) * h) * v]
            for t in times.tolist()
        ])


def relative_error(hamiltonian, times, psi):
    """max |evolve - reference| / max |reference| over the whole grid."""
    reference = mp_evolve(hamiltonian, times, psi)
    gap = np.abs(evolve(hamiltonian, times, psi) - reference)
    return np.max(gap) / np.max(np.abs(reference))


# B = B_max (1 - eps) at J = 1, alpha = +-0.5: inside, near and at the
# exceptional point (eps = 0), and beyond it.
@pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-10, 0.0, -1e-2])
def test_evolve_matches_40_digit_reference_near_the_exceptional_point(eps):
    rng = np.random.default_rng(17)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    hamiltonian = build_total(toy_params(damping_threshold(1.0, 0.5) * (1.0 - eps), 0.5))
    assert relative_error(hamiltonian, np.linspace(0.0, 20.0, 21), psi) <= 4e-15


# The parameters and time grids of the CLI's EVOLVE_GOLDEN cases, every 10th
# time, from the CLI's default source state.
@pytest.mark.parametrize("amplitude, alpha, exchange, t_end, steps", [
    (1.5, 0.5, 1.0, 20.0, 201),
    (1.3, 0.0, 0.8, 20.0, 201),
    (4.0, 1.0, 1.0, 10.0, 101),
], ids=["dissipative", "undamped", "beyond_b_max"])
def test_evolve_matches_40_digit_reference_on_the_golden_grids(
    amplitude, alpha, exchange, t_end, steps
):
    hamiltonian = build_total(toy_params(amplitude, alpha, exchange))
    times = np.linspace(0.0, t_end, steps)[::10]
    psi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    assert relative_error(hamiltonian, times, psi) <= 4e-15


entries = st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
gaussian_integers = st.builds(complex, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def block_hamiltonians(draw):
    """Complex 4x4 matrices with the 1+2+1 pattern of total S_z."""
    if draw(st.booleans()):
        tau, a, b, c = (draw(entries) for _ in range(4))
    else:
        # delta = a^2 + b c is exactly 0 in floats: integer a and tau, and b
        # a power of two times a unit, so c = -a^2 / b is exact.
        tau, a = draw(gaussian_integers), draw(gaussian_integers)
        b = draw(st.sampled_from([1, -1, 1j, -1j])) * 2.0 ** draw(st.integers(-1, 1))
        c = -a * a / b
        assert a * a + b * c == 0.0
    hamiltonian = np.zeros((4, 4), dtype=complex)
    hamiltonian[0, 0], hamiltonian[3, 3] = draw(entries), draw(entries)
    hamiltonian[1:3, 1:3] = [[tau + a, b], [c, tau - a]]
    return hamiltonian


@settings(max_examples=50)
@given(
    block_hamiltonians(),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
def test_evolve_matches_scipy_expm_on_block_matrices(hamiltonian, times, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    reference = np.array([expm(-1j * t * hamiltonian) @ psi for t in times])
    scale = np.max(np.abs(reference))
    evolved = evolve(hamiltonian, np.array(times), psi)
    assert np.max(np.abs(evolved - reference)) <= 1e-12 * scale
    single = evolve(hamiltonian, times[0], psi)
    assert np.max(np.abs(single - reference[0])) <= 1e-12 * scale


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
        # The reference loop: one np.vdot per product and Python's abs.
        norm_xi, norm_zeta = (complex(np.vdot(v, rho.matrix @ v)).real for v in (xi, zeta))
        assert series.amplitudes.shape == times.shape
        for k, t in enumerate(times):
            single = transition_series(xi, zeta, params, times[k : k + 1])
            assert series.amplitudes[k] == single.amplitudes[0]
            assert series.probabilities[k] == single.probabilities[0]
            assert series.route_gaps[k] == single.route_gaps[0]
            evolved = evolve(hamiltonian, float(t), zeta)
            amplitude = complex(np.vdot(xi, rho.matrix @ evolved))
            assert series.amplitudes[k] == amplitude
            assert series.probabilities[k] == abs(amplitude) ** 2 / (norm_xi * norm_zeta)
            assert series.rho_norms[k] == np.sqrt(
                complex(np.vdot(evolved, rho.matrix @ evolved)).real
            )


def test_transition_series_checks_route_at_every_time(monkeypatch):
    params = toy_params(1.0, 0.5)
    rng = np.random.default_rng(16)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(0.0, 30.0, 61)
    series = transition_series(xi, zeta, params, times)
    ratios = series.route_gaps / (1.0 + np.abs(series.amplitudes))
    worst, runner_up = np.sort(ratios)[-1], np.sort(ratios)[-2]
    assert worst > runner_up
    # Only the worst time breaks the tightened tolerance.
    monkeypatch.setattr(twospin, "ROUTE_TOL", 0.5 * (worst + runner_up))
    with pytest.raises(RuntimeError, match="routes disagree"):
        transition_series(xi, zeta, params, times)
    keep = np.arange(times.size) != int(np.argmax(ratios))
    transition_series(xi, zeta, params, times[keep])
    # With several times failing, the error names the first, not the worst.
    worst_at = int(np.argmax(ratios))
    assert worst_at > 0
    top_earlier = np.max(ratios[:worst_at])
    below = np.max(ratios[ratios < top_earlier])
    monkeypatch.setattr(twospin, "ROUTE_TOL", 0.5 * (top_earlier + below))
    first = int(np.argmax(ratios > twospin.ROUTE_TOL))
    assert first < worst_at
    message = (
        f"evaluation routes disagree by {series.route_gaps[first]:.3e} "
        f"at t={times[first]:.6g}"
    )
    with pytest.raises(RuntimeError) as excinfo:
        transition_series(xi, zeta, params, times)
    assert str(excinfo.value) == message
    with pytest.raises(ValueError):
        transition_series(np.zeros(4), zeta, params, times)
    with pytest.raises(ValueError):
        transition_series(xi, zeta, params, np.ones((2, 2)))
    with pytest.raises(ValueError, match=r"^xi must have shape \(4,\), got \(2, 4\)$"):
        transition_series(np.ones((2, 4)), zeta, params, times)
    with pytest.raises(ValueError, match=r"^xi must have shape \(4,\), got \(3,\)$"):
        transition_series(xi[:3], zeta, params, times)
    with pytest.raises(ValueError, match=r"^zeta must have shape \(4,\), got \(1, 4\)$"):
        transition_series(xi, zeta[None, :], params, times)


def test_hypot_of_parts_is_python_complex_abs():
    # transition_series takes magnitudes as np.hypot of the parts, which must
    # give the bits of Python's complex abs (both C hypot); numpy's SIMD
    # dispatch could break that.  A nan result is compared as nan only: C
    # hypot keeps a nan part's sign, Python's abs returns its one nan.
    rng = np.random.default_rng(20)
    size = 120_000
    exponents = rng.uniform(-320.0, 300.0, (2, size))
    parts = rng.choice([-1.0, 1.0], (2, size)) * 10.0**exponents
    special = rng.random((2, size)) < 0.01
    parts[special] = rng.choice([np.inf, -np.inf, np.nan, -np.nan, 0.0], special.sum())
    z = np.empty(size, dtype=complex)
    z.real, z.imag = parts
    ours = np.hypot(z.real, z.imag)
    python = np.array([abs(v) for v in z.tolist()])
    nan = np.isnan(python)
    assert 0 < nan.sum() and np.array_equal(nan, np.isnan(ours))
    assert np.isinf(python).any() and (python[~nan] < 1e-300).any()
    assert np.array_equal(ours[~nan].view(np.uint64), python[~nan].view(np.uint64))


def test_transition_series_rejects_non_finite_values():
    params = toy_params(1.0, 0.5, exchange=4.0)
    psi = np.ones(4, dtype=complex)
    for entry in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            bad = np.full(4, entry, dtype=complex)
            transition_series(bad, psi, params, np.array([1.0]))
    # The amplitude between two states of 1e160 entries is about 1e320.
    with pytest.raises(ValueError, match="amplitude leaves the float range at t=1$"):
        transition_series(1e160 * psi, 1e160 * psi, params, np.array([1.0]))
    # w t overflows at t = 1e308, so cos(w t) and the amplitude are nan.
    with pytest.raises(ValueError, match="amplitude leaves the float range at t=1e"):
        transition_series(psi, psi, params, np.array([0.0, 1e308]))


def test_transition_series_scales_states_whose_squared_norms_overflow():
    params = toy_params(1.0, 0.5, exchange=4.0)
    rng = np.random.default_rng(17)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
    times = np.linspace(0.0, 5.0, 6)
    unit = transition_series(xi, zeta, params, times)
    for scale_xi, scale_zeta in (
        (1e300, 1.0), (1.0, 1e160), (1e200, 1e100),
        (1e-170, 1.0), (1.0, 1e-300), (1e-200, 1e200),
    ):
        series = transition_series(scale_xi * xi, scale_zeta * zeta, params, times)
        np.testing.assert_allclose(
            series.amplitudes, scale_xi * scale_zeta * unit.amplitudes, rtol=1e-13
        )
        np.testing.assert_allclose(series.probabilities, unit.probabilities, rtol=1e-13)
        np.testing.assert_allclose(
            series.rho_norms, scale_zeta * unit.rho_norms, rtol=1e-13
        )


def test_transition_probability_toy_model():
    params = toy_params(1.0, 1.0)
    rng = np.random.default_rng(10)
    for _ in range(10):
        xi = rng.normal(size=4) + 1j * rng.normal(size=4)
        zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
        t = float(rng.uniform(-5.0, 5.0))
        result = transition_series(xi, zeta, params, np.array([t]))
        assert result.route_gaps[0] <= 1e-9
        assert 0.0 <= result.probabilities[0] <= 1.0 + 1e-12
    rho = paper_isomorphism(params).rho
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    self_result = transition_series(psi, psi, params, np.array([0.0]))
    norm_sq = eta_inner(psi, psi, rho).real
    assert self_result.amplitudes[0] == pytest.approx(norm_sq, abs=1e-10)
    assert self_result.probabilities[0] == pytest.approx(1.0, abs=1e-12)


def test_transition_probability_hermitian_branch():
    params = TwoSpinParams(f3=0.9, g3=0.4, exchange=0.7)
    rng = np.random.default_rng(11)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
    result = transition_series(xi, zeta, params, np.array([3.3]))
    assert result.route_gaps[0] <= 1e-12
    canonical = np.vdot(xi, evolve(build_total(params), 3.3, zeta))
    assert result.amplitudes[0] == pytest.approx(canonical, abs=1e-10)


def test_routes_agree_on_in_band_dissipative_points():
    # closed_spectrum forgives Im f_plus and the Re f_minus Im f_minus cross
    # term of s inside the band; the closed-form counterpart drops them, so
    # only u^-1 H u is similar to H and keeps the routes together up to
    # t = 1e3.  The strays stay within a tenth of the band: from about a
    # fifth on, paper_isomorphism's hermiticity postcondition
    # (METRIC_RESIDUAL_TOL * scale) refuses the partner.
    rng = np.random.default_rng(31)
    times = np.linspace(0.0, 1000.0, 101)
    for _ in range(20):
        exchange = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        f_plus = float(rng.normal())
        alpha = float(rng.uniform(-1.5, 1.5)) * abs(exchange)  # margin >= 1.75 J^2
        base = TwoSpinParams(
            f3=complex(f_plus, alpha) / 2.0, g3=complex(f_plus, -alpha) / 2.0,
            exchange=exchange,
        )
        band = twospin.REGIME_TOL * twospin._tolerance_scale(base)
        stray_plus, stray_minus = rng.uniform(-0.1, 0.1, size=2) * band
        f_plus_in_band = complex(f_plus, stray_plus)
        f_minus_in_band = complex(stray_minus, alpha)
        params = TwoSpinParams(
            f3=(f_plus_in_band + f_minus_in_band) / 2.0,
            g3=(f_plus_in_band - f_minus_in_band) / 2.0,
            exchange=exchange,
        )
        assert closed_spectrum(params).pseudo_hermitian
        for _ in range(3):
            xi = rng.normal(size=4) + 1j * rng.normal(size=4)
            zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
            series = transition_series(xi, zeta, params, times)
            gate = twospin.ROUTE_TOL * (1.0 + np.abs(series.amplitudes))
            assert np.all(series.route_gaps <= gate)


def test_transition_probability_rejections():
    rng = np.random.default_rng(12)
    xi = rng.normal(size=4) + 1j * rng.normal(size=4)
    with pytest.raises(ValueError):
        transition_series(xi, xi, toy_params(5.0, 0.5), np.array([1.0]))
    with pytest.raises(ValueError):
        transition_series(np.zeros(4), xi, toy_params(1.0, 0.5), np.array([1.0]))


def test_rho_norm_conserved_along_evolution():
    params = toy_params(1.0, 0.5)
    rho = paper_isomorphism(params).rho
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
    # At zero damping the isomorphism is the identity and the counterpart is
    # the Hamiltonian itself, bit for bit, for either sign of J.
    for exchange in (1.0, -1.0, -0.7):
        undamped = TwoSpinParams(f3=0.8, g3=0.8, exchange=exchange)
        assert np.array_equal(paper_isomorphism(undamped).u, np.eye(4))
        assert np.array_equal(hermitian_counterpart(undamped).matrix, build_total(undamped))


def _assert_undamped_limit(exchange):
    # Along alpha, alpha/2, ... with f_plus held fixed, H and H_R share their
    # determinant, and U -> I and H_R -> the undamped H0 monotonically.
    f_plus = 1.6
    h0 = build_total(TwoSpinParams(f3=f_plus / 2.0, g3=f_plus / 2.0, exchange=exchange))
    u_distances, counterpart_gaps = [], []
    for k in range(8):
        alpha = 0.8 / 2.0**k
        step = TwoSpinParams(
            f3=(f_plus + 1j * alpha) / 2.0, g3=(f_plus - 1j * alpha) / 2.0, exchange=exchange
        )
        det_h = np.linalg.det(build_total(step))
        h_r = hermitian_counterpart(step).matrix
        assert abs(det_h - np.linalg.det(h_r)) <= 1e-12 * (1.0 + abs(det_h))
        u_distances.append(np.linalg.norm(paper_isomorphism(step).u - np.eye(4)))
        counterpart_gaps.append(np.linalg.norm(h_r - h0))
    for distances in (u_distances, counterpart_gaps):
        assert all(later <= earlier for earlier, later in zip(distances, distances[1:]))
        assert distances[-1] * 100.0 < distances[0]


def test_canonical_limit_toy_model():
    # toy_params(1.0, 0.5): f_plus = 1.6, alpha = 0.8, J = 1.
    _assert_undamped_limit(1.0)


@pytest.mark.parametrize("exchange", [-1.0, -0.7])
def test_undamped_limit(exchange):
    # s carries the sign of J, so the limit holds for negative coupling too.
    _assert_undamped_limit(exchange)
