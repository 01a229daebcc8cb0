"""Two coupled spins with complex effective fields.

Realizes the model layer: builders for single-spin and two-spin Hamiltonians
with complex z-fields and Heisenberg exchange, the closed-form spectrum and
its pseudo-hermiticity regime, the Gilbert-damping parameterization of the
fields, the hermitian counterpart system reached by a positive isomorphism,
and metric-unitary time evolution with transition amplitudes evaluated both
directly and through the counterpart.

Matrices are built exactly as the quantization of the classical model
produces them, carrying an overall 1/4; spectra are reported for those
matrices (callers wanting the bare field-unit eigenvalues multiply by 4).
The regime is decided from the fields and the coupling, not from the
matrices, so the prefactor never affects the pseudo-hermitian
classification.  The tolerance band is relative to the model's magnitude
but has an absolute floor of 1 (see ``_tolerance_scale``), so the
classification is scale-invariant only for parameters of order one and
larger; rescaling small parameters can flip it.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, TypeAlias

import numpy as np
from scipy.linalg import expm

from .pseudoherm import (
    COND_CAP,
    METRIC_RESIDUAL_TOL,
    Metric,
    eta_inner,
    is_rho_hermitian,
    metric_from_isomorphism,
)
from .quantize import PAULI

OperatorMatrix: TypeAlias = np.ndarray
StateVector: TypeAlias = np.ndarray

REGIME_TOL = 1e-9
ROUTE_TOL = 1e-9

_IDENTITY2 = np.eye(2, dtype=complex)
# Kronecker products of the Pauli matrices, built once: sigma_i (x) sigma_j
# for the exchange term, and I (x) sigma_i / sigma_i (x) I for the fields.
_PAULI_KRON = tuple(
    tuple(np.kron(PAULI[i], PAULI[j]) for j in range(3)) for i in range(3)
)
_I_SIGMA = tuple(np.kron(_IDENTITY2, sigma) for sigma in PAULI)
_SIGMA_I = tuple(np.kron(sigma, _IDENTITY2) for sigma in PAULI)


@dataclass(frozen=True)
class TwoSpinParams:
    """Parameters of the two-spin model with parallel complex z-fields.

    Attributes:
        f3: Complex z-field on the first spin.
        g3: Complex z-field on the second spin.
        exchange: Real isotropic Heisenberg coupling.
    """

    f3: complex
    g3: complex
    exchange: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "f3", complex(self.f3))
        object.__setattr__(self, "g3", complex(self.g3))
        if isinstance(self.exchange, complex):
            raise ValueError("exchange coupling must be real")
        object.__setattr__(self, "exchange", float(self.exchange))
        # A finite squared scale bounds |4 J^2 + f_minus^2| and rules out NaN;
        # float ** and complex abs raise OverflowError where * would give inf.
        try:
            finite = math.isfinite(_tolerance_scale(self) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"parameters overflow the closed form: {self}")

    @property
    def f_plus(self) -> complex:
        """Sum combination of the fields, real in the pseudo-hermitian regime."""
        return self.f3 + self.g3

    @property
    def f_minus(self) -> complex:
        """Difference combination of the fields, driving the level splitting."""
        return self.f3 - self.g3


@dataclass(frozen=True)
class GilbertParams:
    """Damped-precession field parameterization.

    Attributes:
        amplitude: Positive real applied-field amplitude.
        alpha1: Damping parameter of the first spin.
        alpha2: Damping parameter of the second spin.
    """

    amplitude: float
    alpha1: float
    alpha2: float

    def __post_init__(self) -> None:
        if not self.amplitude > 0.0:
            raise ValueError("field amplitude must be positive")


@dataclass(frozen=True)
class RegimeReport:
    """Closed-form spectrum and pseudo-hermiticity classification.

    Attributes:
        f_plus: Field sum.
        f_minus: Field difference.
        e1_plus: Eigenvalue (-J + s)/4 with s = sqrt(4 J^2 + f_minus^2).
        e1_minus: Eigenvalue (-J - s)/4.
        e2_plus: Eigenvalue (J + f_plus)/4.
        e2_minus: Eigenvalue (J - f_plus)/4.
        pseudo_hermitian: Whether the reality conditions hold within the
            tolerance band (f_plus real, f_minus^2 real, margin >= 0).
        threshold_margin: Real part of 4 J^2 + f_minus^2; positive inside
            the pseudo-hermitian region, zero at the exceptional point.
    """

    f_plus: complex
    f_minus: complex
    e1_plus: complex
    e1_minus: complex
    e2_plus: complex
    e2_minus: complex
    pseudo_hermitian: bool
    threshold_margin: float

    @property
    def eigenvalues(self) -> tuple[complex, complex, complex, complex]:
        return (self.e1_plus, self.e1_minus, self.e2_plus, self.e2_minus)


class Isomorphism(NamedTuple):
    """An invertible map to the hermitian counterpart and its metric."""

    u: OperatorMatrix
    rho: Metric


@dataclass(frozen=True)
class HermitianCounterpart:
    """Hermitian system with the same block structure as the deformed one.

    Attributes:
        matrix: The 4x4 hermitian Hamiltonian.
        b3: Real z-field on the first spin.
        c3: Real z-field on the second spin.
        j_tilde: Anisotropic exchange triple (s/2, s/2, J).
    """

    matrix: OperatorMatrix
    b3: float
    c3: float
    j_tilde: tuple[float, float, float]


@dataclass(frozen=True)
class TransitionResult:
    """Transition amplitude between states under metric-unitary evolution.

    Attributes:
        amplitude: Deformed inner product of the target with the evolved
            source state.
        probability: Squared amplitude over the deformed norms of both
            states.
        route_gap: Absolute difference between the direct metric evaluation
            and the hermitian-counterpart evaluation of the amplitude.
    """

    amplitude: complex
    probability: float
    route_gap: float


@dataclass(frozen=True)
class TransitionSeries:
    """Transition amplitudes over a time grid for one parameter set.

    Each array holds one entry per evaluation time, in the order the times
    were given.

    Attributes:
        amplitudes: Deformed inner product of the target with the evolved
            source state.
        probabilities: Squared amplitude over the deformed norms of both
            states.
        route_gaps: Absolute difference between the direct metric
            evaluation and the hermitian-counterpart evaluation.
        rho_norms: Deformed norm of the evolved source state.
    """

    amplitudes: np.ndarray
    probabilities: np.ndarray
    route_gaps: np.ndarray
    rho_norms: np.ndarray


@dataclass(frozen=True)
class CanonicalLimitReport:
    """Convergence record along a halving-damping sequence.

    Attributes:
        alphas: Damping values visited, largest first.
        det_gaps: Relative determinant gap between the deformed Hamiltonian
            and its counterpart at each damping value.
        u_distances: Entrywise distance of the isomorphism from the
            identity at each damping value.
        counterpart_gaps: Entrywise distance of the counterpart from the
            undamped Hamiltonian at each damping value.
        monotone: Whether both distance sequences are non-increasing.
        passed: Whether determinants agree throughout and the sequences
            shrink monotonically toward the undamped system.
    """

    alphas: tuple[float, ...]
    det_gaps: tuple[float, ...]
    u_distances: tuple[float, ...]
    counterpart_gaps: tuple[float, ...]
    monotone: bool
    passed: bool


def _field_vector(field: np.ndarray) -> np.ndarray:
    field = np.asarray(field, dtype=complex)
    if field.shape != (3,):
        raise ValueError("field must be a 3-vector")
    return field


def _sigma_dot(field: np.ndarray) -> OperatorMatrix:
    field = _field_vector(field)
    return field[0] * PAULI[0] + field[1] * PAULI[1] + field[2] * PAULI[2]


def _tolerance_scale(params: TwoSpinParams) -> float:
    """Magnitude scale of the model that the regime tolerances multiply."""
    return 1.0 + abs(params.f3) + abs(params.g3) + 2.0 * abs(params.exchange)


def build_single_spin(field: np.ndarray, hbar: float = 1.0) -> OperatorMatrix:
    """Build the 2x2 spin Hamiltonian (hbar/2) sigma . F.

    Args:
        field: Complex 3-vector F.
        hbar: Scale of the spin operators.

    Returns:
        The 2x2 matrix; its eigenvalues are +-(hbar/2) sqrt(F . F), real
        exactly when the bilinear square F . F is a positive real.
    """
    return 0.5 * hbar * _sigma_dot(field)


def build_free(f_field: np.ndarray, g_field: np.ndarray) -> OperatorMatrix:
    """Build the non-interacting two-spin Hamiltonian.

    The first spin occupies the fast tensor slot and the second the slow
    one, matching the quantization layer's family order.

    Args:
        f_field: Complex 3-vector coupled to the first spin.
        g_field: Complex 3-vector coupled to the second spin.

    Returns:
        The 4x4 matrix (1/4)[sigma.F (x) I + I (x) sigma.G].
    """
    f = _field_vector(f_field)
    g = _field_vector(g_field)
    return 0.25 * (
        (f[0] * _I_SIGMA[0] + f[1] * _I_SIGMA[1] + f[2] * _I_SIGMA[2])
        + (g[0] * _SIGMA_I[0] + g[1] * _SIGMA_I[1] + g[2] * _SIGMA_I[2])
    )


def build_interaction(exchange: np.ndarray) -> OperatorMatrix:
    """Build the symmetrized exchange Hamiltonian.

    Args:
        exchange: Real 3x3 coupling matrix J.

    Returns:
        The 4x4 matrix (1/8) J_ij (sigma_i (x) sigma_j + sigma_j (x)
        sigma_i); a scalar multiple of the identity coupling gives the
        isotropic Heisenberg term (J/4) sum_i sigma_i (x) sigma_i.

    Raises:
        ValueError: If the coupling is not a real 3x3 matrix.
    """
    exchange = np.asarray(exchange)
    if exchange.shape != (3, 3):
        raise ValueError("exchange coupling must be a 3x3 matrix")
    if np.iscomplexobj(exchange) and np.any(exchange.imag != 0.0):
        raise ValueError("exchange coupling must be real")
    exchange = exchange.real.astype(float)
    total = np.zeros((4, 4), dtype=complex)
    for i in range(3):
        for j in range(3):
            if exchange[i, j] != 0.0:
                total += exchange[i, j] * (_PAULI_KRON[j][i] + _PAULI_KRON[i][j])
    return total / 8.0


def build_total(params: TwoSpinParams) -> OperatorMatrix:
    """Build the full two-spin Hamiltonian with z-fields and exchange.

    Args:
        params: Model parameters.

    Returns:
        The 4x4 matrix (1/4)[f3 sigma_3 (x) I + g3 I (x) sigma_3 +
        J sum_i sigma_i (x) sigma_i]; diagonal corners (+-f_plus + J)/4,
        middle block [[-f_minus - J, 2J], [2J, f_minus - J]]/4.
    """
    free = 0.25 * (params.f3 * _I_SIGMA[2] + params.g3 * _SIGMA_I[2])
    return free + build_interaction(params.exchange * np.eye(3))


def closed_spectrum(params: TwoSpinParams) -> RegimeReport:
    """Evaluate the closed-form spectrum and classify the regime.

    The reality conditions are: f_plus real, f_minus^2 real, and
    4 J^2 + f_minus^2 positive.  Each is tested inside a band of relative
    width ``REGIME_TOL`` so the exact threshold point (margin zero in
    floats) still classifies as pseudo-hermitian; crossing the threshold
    flips the flag.

    Args:
        params: Model parameters.

    Returns:
        A :class:`RegimeReport` with all four eigenvalues of the built
        matrix and the classification.
    """
    f_plus = params.f_plus
    f_minus = params.f_minus
    j = params.exchange
    discriminant = 4.0 * j * j + f_minus * f_minus
    root = np.sqrt(complex(discriminant))
    scale = _tolerance_scale(params)
    margin = float(discriminant.real)
    pseudo = (
        abs(f_plus.imag) <= REGIME_TOL * scale
        and abs(discriminant.imag) <= REGIME_TOL * scale * scale
        and margin >= -REGIME_TOL * scale * scale
    )
    return RegimeReport(
        f_plus=f_plus,
        f_minus=f_minus,
        e1_plus=complex((-j + root) / 4.0),
        e1_minus=complex((-j - root) / 4.0),
        e2_plus=complex((j + f_plus) / 4.0),
        e2_minus=complex((j - f_plus) / 4.0),
        pseudo_hermitian=bool(pseudo),
        threshold_margin=margin,
    )


def gilbert_fields(params: GilbertParams) -> tuple[complex, complex]:
    """Convert a damped-precession parameterization into complex z-fields.

    Args:
        params: Field amplitude and per-spin damping parameters.

    Returns:
        The pair (f3, g3) with f3 = (1 + i alpha1) B / (1 + alpha1^2) and
        g3 = (1 + i alpha2) B / (1 + alpha2^2).
    """
    b = params.amplitude
    f3 = (1.0 + 1j * params.alpha1) * b / (1.0 + params.alpha1**2)
    g3 = (1.0 + 1j * params.alpha2) * b / (1.0 + params.alpha2**2)
    return f3, g3


def damping_threshold(exchange: float, alpha: float) -> float:
    """Largest field amplitude keeping the toy model pseudo-hermitian.

    For opposite damping parameters (alpha, -alpha) the reality conditions
    hold up to B = J (alpha^2 + 1) / |alpha|; beyond it the middle-block
    eigenvalues leave the real axis.

    Args:
        exchange: Positive exchange coupling J.
        alpha: Nonzero damping parameter.

    Returns:
        The threshold amplitude.

    Raises:
        ValueError: If ``alpha`` is zero (no threshold; every amplitude is
            pseudo-hermitian) or ``exchange`` is not positive.
    """
    if alpha == 0.0:
        raise ValueError("zero damping has no threshold")
    if not exchange > 0.0:
        raise ValueError("exchange coupling must be positive")
    return exchange * (alpha * alpha + 1.0) / abs(alpha)


def _require_regime(params: TwoSpinParams) -> RegimeReport:
    report = closed_spectrum(params)
    if not report.pseudo_hermitian:
        raise ValueError(
            "parameters violate the reality conditions "
            f"(f_plus={report.f_plus}, f_minus^2={report.f_minus**2}, "
            f"margin={report.threshold_margin})"
        )
    return report


def hermitian_counterpart(params: TwoSpinParams) -> HermitianCounterpart:
    """Build the hermitian system sharing the deformed block structure.

    The counterpart carries real z-fields b3 = (f_plus + Re f_minus)/2 and
    c3 = (f_plus - Re f_minus)/2 and the anisotropic exchange
    (s/2, s/2, J) with s = sqrt(4 J^2 + f_minus^2).  On the dissipative
    branch (f_minus purely imaginary) it is similar to the deformed
    Hamiltonian and shares its spectrum.

    Args:
        params: Model parameters satisfying the reality conditions.

    Returns:
        A :class:`HermitianCounterpart` with the matrix and its fields.

    Raises:
        ValueError: If the reality conditions fail.
    """
    report = _require_regime(params)
    root = float(np.sqrt(max(report.threshold_margin, 0.0)))
    b3 = (report.f_plus.real + report.f_minus.real) / 2.0
    c3 = (report.f_plus.real - report.f_minus.real) / 2.0
    j_tilde = (root / 2.0, root / 2.0, params.exchange)
    matrix = build_free(
        np.array([0.0, 0.0, b3]), np.array([0.0, 0.0, c3])
    ) + build_interaction(np.diag(j_tilde))
    return HermitianCounterpart(matrix=matrix, b3=b3, c3=c3, j_tilde=j_tilde)


def paper_isomorphism(params: TwoSpinParams) -> Isomorphism:
    """Construct the explicit isomorphism onto the hermitian counterpart.

    Valid on the dissipative branch (f_minus purely imaginary) away from
    the exceptional point.  The map differs from the identity only in the
    middle block [[s/(2J), -f_minus/(2J)], [0, 1]]; the metric is the
    inverse Gram matrix of the map, and both postconditions (the conjugated
    Hamiltonian is hermitian, the metric hermitizes the original) are
    verified before returning.

    Args:
        params: Model parameters on the dissipative branch.

    Returns:
        An :class:`Isomorphism` pair (u, rho).

    Raises:
        ValueError: If the reality conditions fail, the field difference
            has a real part, the coupling vanishes, or the parameters sit
            at the exceptional point.
        RuntimeError: If a verified postcondition fails numerically.
    """
    report = _require_regime(params)
    scale = _tolerance_scale(params)
    if abs(report.f_minus.real) > REGIME_TOL * scale:
        raise ValueError(
            "isomorphism construction requires a purely imaginary field "
            f"difference, got f_minus={report.f_minus}"
        )
    if params.exchange == 0.0:
        raise ValueError("isomorphism construction requires a nonzero coupling")
    if report.threshold_margin <= REGIME_TOL * scale * scale:
        raise ValueError("parameters sit at the exceptional point; no metric exists")
    j = params.exchange
    root = float(np.sqrt(report.threshold_margin))
    u = np.eye(4, dtype=complex)
    u[1, 1] = root / (2.0 * j)
    u[1, 2] = -report.f_minus / (2.0 * j)
    rho = metric_from_isomorphism(u)
    hamiltonian = build_total(params)
    conjugated = np.linalg.solve(u, hamiltonian @ u)
    if np.max(np.abs(conjugated - conjugated.conj().T)) > METRIC_RESIDUAL_TOL * scale:
        raise RuntimeError("conjugated Hamiltonian failed the hermiticity check")
    if not is_rho_hermitian(hamiltonian, rho, tol=METRIC_RESIDUAL_TOL * scale):
        raise RuntimeError("constructed metric failed to hermitize the Hamiltonian")
    return Isomorphism(u=u, rho=rho)


def evolve(
    hamiltonian: OperatorMatrix, t: float | np.ndarray, psi0: StateVector
) -> StateVector:
    """Apply exp(-i H t) to a state at one time or along a time grid.

    Uses the eigendecomposition when the eigenvector matrix is well
    conditioned (exact dissipative decay rates), falling back to
    scaling-and-squaring near defective points.  The decomposition, its
    condition number and the eigenbasis coefficients of ``psi0`` are
    computed once per call, so a whole time grid costs one ``eig``; each
    time then applies ``vectors @ (exp(-i values t) * coeffs)``, giving
    the same bits as a separate call at that time.

    Args:
        hamiltonian: Generator matrix.
        t: Evolution time, or a 1-D array of times.
        psi0: Initial state.

    Returns:
        The evolved state vector, shape ``(dim,)`` for a scalar ``t``;
        for an array of times, shape ``(len(t), dim)`` with one evolved
        state per row.

    Raises:
        ValueError: If shapes disagree or ``t`` has more than one axis.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    dim = hamiltonian.shape[0]
    if hamiltonian.shape != (dim, dim) or psi0.shape != (dim,):
        raise ValueError("state dimension must match the Hamiltonian")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    grid = times.ravel().tolist()
    evolved = np.empty((len(grid), dim), dtype=complex)
    values, vectors = np.linalg.eig(hamiltonian)
    cond = np.linalg.cond(vectors)
    if np.isfinite(cond) and cond <= COND_CAP:
        coeffs = np.linalg.solve(vectors, psi0)
        for k, tk in enumerate(grid):
            evolved[k] = vectors @ (np.exp(-1j * values * tk) * coeffs)
    else:
        for k, tk in enumerate(grid):
            evolved[k] = expm(-1j * tk * hamiltonian) @ psi0
    return evolved[0] if times.ndim == 0 else evolved


def transition_series(
    xi: StateVector, zeta: StateVector, params: TwoSpinParams, times: np.ndarray
) -> TransitionSeries:
    """Transition amplitudes under metric-unitary evolution along a time grid.

    The amplitude is the deformed product of ``xi`` with the evolved
    ``zeta``.  It is evaluated twice at every time: directly with the
    metric, and canonically in the hermitian counterpart frame after
    mapping both states through the isomorphism; the routes must agree.
    The regime check, the Hamiltonian, the verified isomorphism and the
    counterpart are built once for the whole grid, and each route's
    evolution diagonalizes once.

    Args:
        xi: Target state.
        zeta: Source state.
        params: Model parameters satisfying the reality conditions.
        times: 1-D array of evolution times.

    Returns:
        A :class:`TransitionSeries` with, per time, the amplitude, the
        normalized probability, the gap between the two evaluation routes
        and the deformed norm of the evolved source state.

    Raises:
        ValueError: If the reality conditions fail, the parameters sit at
            the exceptional point on the dissipative branch, a state is
            null, or ``times`` is not 1-D.
        RuntimeError: If the two evaluation routes disagree at any time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array")
    report = _require_regime(params)
    scale = _tolerance_scale(params)
    hamiltonian = build_total(params)
    if abs(report.f_minus.imag) <= REGIME_TOL * scale:
        u = np.eye(4, dtype=complex)
        rho = Metric.identity(4)
        partner = hamiltonian
    else:
        u, rho = paper_isomorphism(params)
        partner = hermitian_counterpart(params).matrix
    xi = np.asarray(xi, dtype=complex)
    zeta = np.asarray(zeta, dtype=complex)
    norm_xi = eta_inner(xi, xi, rho).real
    norm_zeta = eta_inner(zeta, zeta, rho).real
    if norm_xi <= 0.0 or norm_zeta <= 0.0:
        raise ValueError("states must have positive deformed norm")
    evolved = evolve(hamiltonian, times, zeta)
    u_inv = np.linalg.inv(u)
    bra = u_inv @ xi
    partner_evolved = evolve(partner, times, u_inv @ zeta)
    amplitudes = np.empty(times.size, dtype=complex)
    probabilities = np.empty(times.size)
    route_gaps = np.empty(times.size)
    rho_norms = np.empty(times.size)
    for k in range(times.size):
        amplitude = eta_inner(xi, evolved[k], rho)
        canonical = complex(np.vdot(bra, partner_evolved[k]))
        route_gap = abs(amplitude - canonical)
        if route_gap > ROUTE_TOL * scale * (1.0 + abs(amplitude)):
            raise RuntimeError(
                f"evaluation routes disagree by {route_gap:.3e} at t={times[k]:.6g}"
            )
        amplitudes[k] = amplitude
        probabilities[k] = abs(amplitude) ** 2 / (norm_xi * norm_zeta)
        route_gaps[k] = route_gap
        rho_norms[k] = np.sqrt(eta_inner(evolved[k], evolved[k], rho).real)
    return TransitionSeries(
        amplitudes=amplitudes,
        probabilities=probabilities,
        route_gaps=route_gaps,
        rho_norms=rho_norms,
    )


def transition_probability(
    xi: StateVector, zeta: StateVector, params: TwoSpinParams, t: float
) -> TransitionResult:
    """Transition amplitude and probability at one time.

    A one-time :func:`transition_series`: the same two evaluation routes
    and the same checks.

    Args:
        xi: Target state.
        zeta: Source state.
        params: Model parameters satisfying the reality conditions.
        t: Evolution time.

    Returns:
        A :class:`TransitionResult` with the amplitude, the normalized
        probability, and the gap between the two evaluation routes.

    Raises:
        ValueError: If the reality conditions fail, the parameters sit at
            the exceptional point on the dissipative branch, or a state is
            null.
        RuntimeError: If the two evaluation routes disagree.
    """
    series = transition_series(xi, zeta, params, np.array([t], dtype=float))
    return TransitionResult(
        amplitude=complex(series.amplitudes[0]),
        probability=float(series.probabilities[0]),
        route_gap=float(series.route_gaps[0]),
    )


def canonical_limit_check(
    params: TwoSpinParams, steps: int = 8
) -> CanonicalLimitReport:
    """Follow the undamped limit along a halving-damping sequence.

    Starting from the damping alpha = Im f_minus of the given parameters,
    the sequence alpha, alpha/2, alpha/4, ... is walked with f_plus held
    fixed.  At each step the deformed Hamiltonian and its hermitian
    counterpart must share their determinant, and both the isomorphism's
    distance from the identity and the counterpart's distance from the
    undamped Hamiltonian must shrink monotonically.

    Args:
        params: Model parameters with purely imaginary field difference.
        steps: Number of damping values to visit.

    Returns:
        A :class:`CanonicalLimitReport`; ``passed`` summarizes the
        determinant agreement and monotone convergence.

    Raises:
        ValueError: If the field difference has a real part (the sequence
            would leave the reality-condition class) or ``steps < 1``.
    """
    if steps < 1:
        raise ValueError("at least one step is required")
    report = _require_regime(params)
    scale = _tolerance_scale(params)
    if abs(report.f_minus.real) > REGIME_TOL * scale:
        raise ValueError(
            "canonical limit requires a purely imaginary field difference"
        )
    f_plus = report.f_plus
    alpha0 = report.f_minus.imag
    limit = build_total(
        TwoSpinParams(f3=f_plus / 2.0, g3=f_plus / 2.0, exchange=params.exchange)
    )
    alphas: list[float] = []
    det_gaps: list[float] = []
    u_distances: list[float] = []
    counterpart_gaps: list[float] = []
    for k in range(steps):
        alpha = alpha0 / (2.0**k)
        step = TwoSpinParams(
            f3=(f_plus + 1j * alpha) / 2.0,
            g3=(f_plus - 1j * alpha) / 2.0,
            exchange=params.exchange,
        )
        hamiltonian = build_total(step)
        counterpart = hermitian_counterpart(step).matrix
        det_h = complex(np.linalg.det(hamiltonian))
        det_r = complex(np.linalg.det(counterpart))
        det_gaps.append(abs(det_h - det_r) / (1.0 + abs(det_h)))
        if alpha == 0.0 or params.exchange == 0.0:
            u = np.eye(4, dtype=complex)
        else:
            u = paper_isomorphism(step).u
        alphas.append(alpha)
        u_distances.append(float(np.max(np.abs(u - np.eye(4)))))
        counterpart_gaps.append(float(np.max(np.abs(counterpart - limit))))
    monotone = all(
        u_distances[k + 1] <= u_distances[k] + REGIME_TOL
        and counterpart_gaps[k + 1] <= counterpart_gaps[k] + REGIME_TOL
        for k in range(steps - 1)
    )
    dets_ok = all(gap <= 1e-9 for gap in det_gaps)
    passed = monotone and dets_ok
    return CanonicalLimitReport(
        alphas=tuple(alphas),
        det_gaps=tuple(det_gaps),
        u_distances=tuple(u_distances),
        counterpart_gaps=tuple(counterpart_gaps),
        monotone=monotone,
        passed=passed,
    )
