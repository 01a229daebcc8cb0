"""Two coupled spins with complex effective fields.

Realizes the model layer: one builder for two-spin Hamiltonians with
z-fields and XXZ exchange, the closed-form spectrum and its
pseudo-hermiticity regime, the Gilbert-damping parameterization of the
fields, one similarity (isomorphism u, metric and the closed-form
hermitian partner K, checked by H u = u K) at every point of the regime off
the exceptional point, the identity on the hermitian branch, and
metric-unitary time evolution with transition amplitudes checked in u's
frame.  Every Hamiltonian here conserves total S_z, so time evolution
exponentiates its 1+2+1 blocks in closed form.

Matrices are the quantization Q(H_cl) at hbar = 1/2 of the pseudoclassical
model H_cl = -i f3 xi1 xi2 - i g3 chi1 chi2 + J sum_i xi_i chi_i, taken from
:mod:`pseudospin.quantize`, which alone knows the realization; they carry an
overall 1/4, and spectra are reported for those matrices (callers wanting the
bare field-unit eigenvalues multiply by 4).
The regime is decided from the fields and the coupling, not from the
matrices, so the prefactor never affects the pseudo-hermitian
classification.  Every tolerance band is relative to the model's magnitude
|f3| + |g3| + 2|J| (``_tolerance_scale``) with no absolute floor, so
rescaling all parameters by a power of two never changes the classification.
"""

import functools
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, TypeAlias

import numpy as np

from .grassmann import AlgebraSpec, GrassmannElement
from .pseudoherm import (
    METRIC_RESIDUAL_TOL,
    Metric,
    eta_inner,
    metric_from_isomorphism,
    rho_residuals,
)
from .quantize import quantize, tensor_realization

OperatorMatrix: TypeAlias = np.ndarray
StateVector: TypeAlias = np.ndarray

REGIME_TOL = 1e-9
ROUTE_TOL = 1e-9
_SPLIT_FLOOR = math.sqrt(sys.float_info.min)
# C of the eigensolver agreement bound C eps ||H||_F kappa: 4n for n = 4.
_AGREEMENT_FACTOR = 16.0

_IDENTITY2 = np.eye(2, dtype=complex)
# Total S_z of each basis state; conserving it leaves the 1+2+1 blocks.
_TOTAL_SZ = np.array([1, 0, 0, -1])


class NoMetricError(ValueError):
    """No positive metric exists: outside the regime or at the exceptional point."""


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
        f3, g3, j = self.f3, self.g3, self.exchange
        if type(f3) is not complex or type(g3) is not complex:
            f3, g3 = complex(f3), complex(g3)
            object.__setattr__(self, "f3", f3)
            object.__setattr__(self, "g3", g3)
        # numpy's complex64 and clongdouble are not subclasses of complex.
        if isinstance(j, (complex, np.complexfloating)):
            raise ValueError("exchange coupling must be real")
        if type(j) is not float:
            j = float(j)
            object.__setattr__(self, "exchange", j)
        # A finite squared scale bounds |4 J^2 + f_minus^2| and rules out NaN;
        # float ** and complex abs raise OverflowError where * would give inf.
        try:
            finite = math.isfinite(_tolerance_scale(self) ** 2)
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"parameters overflow the closed form: {self}")
        # A nonzero splitting this small squares to a subnormal or zero, and
        # 4 J^2 + f_minus^2 would read as the exceptional point.
        split = max(2.0 * abs(j), abs(f3 - g3))
        if 0.0 < split < _SPLIT_FLOOR:
            raise ValueError(f"parameters underflow the closed form: {self}")

    @classmethod
    def from_gilbert(
        cls, amplitude: float, alpha1: float, alpha2: float, exchange: float
    ) -> "TwoSpinParams":
        """The model whose z-fields come from damped precession (Gilbert).

        Args:
            amplitude: Positive real applied-field amplitude B.
            alpha1: Damping parameter of the first spin.
            alpha2: Damping parameter of the second spin.
            exchange: Real isotropic Heisenberg coupling.

        Returns:
            The parameters with f3 = (1 + i alpha1) B / (1 + alpha1^2) and
            g3 = (1 + i alpha2) B / (1 + alpha2^2).

        Raises:
            ValueError: If B is not positive, a damping parameter's square
                overflows, or the fields fail validation.
        """
        if not amplitude > 0.0:
            raise ValueError("field amplitude must be positive")
        try:
            f3 = (1.0 + 1j * alpha1) * amplitude / (1.0 + alpha1**2)
            g3 = (1.0 + 1j * alpha2) * amplitude / (1.0 + alpha2**2)
        except OverflowError:
            raise ValueError(
                f"damping overflows its square: alpha1={alpha1}, alpha2={alpha2}"
            ) from None
        return cls(f3, g3, exchange)

    @property
    def f_plus(self) -> complex:
        """Sum combination of the fields, real in the pseudo-hermitian regime."""
        return self.f3 + self.g3

    @property
    def f_minus(self) -> complex:
        """Difference combination of the fields, driving the level splitting."""
        return self.f3 - self.g3


class RegimeReport(NamedTuple):
    """Closed-form spectrum and pseudo-hermiticity classification.

    A small value read by attribute; being a tuple, it also unpacks and
    compares as ``(eigenvalues, pseudo_hermitian, threshold_margin)``.

    Attributes:
        eigenvalues: (-J + s)/4, (-J - s)/4, (J + f_plus)/4 and
            (J - f_plus)/4, in that order, with s = sqrt(4 J^2 + f_minus^2).
        pseudo_hermitian: Whether the reality conditions hold within the
            tolerance band (f_plus real, f_minus^2 real, margin >= 0).
        threshold_margin: Real part of 4 J^2 + f_minus^2; positive inside
            the pseudo-hermitian region, zero at the exceptional point.
    """

    eigenvalues: tuple[complex, complex, complex, complex]
    pseudo_hermitian: bool
    threshold_margin: float


@dataclass(frozen=True, eq=False)
class Isomorphism:
    """A map u onto the hermitian partner K, with its metric and K's fields.

    H u = u K, and rho = (u u^dagger)^-1 makes H hermitian.  Read by
    attribute; a stacked call holds ``(k, 4, 4)`` stacks, a ``Metric`` stack,
    ``(k,)`` fields and a ``(k, 3)`` exchange.

    Attributes:
        u: The map; the identity on the hermitian branch.
        rho: The metric (u u^dagger)^-1.
        partner: K, the 4x4 hermitian Hamiltonian of the fields below; on the
            hermitian branch the model's own matrix, hermitian within the
            ``REGIME_TOL`` band.
        b3: Real z-field on the first spin.
        c3: Real z-field on the second spin.
        j_tilde: Exchange triple: (J, J, J) on the hermitian branch,
            (s/2, s/2, J) on the dissipative one, s with the sign of J.
    """

    u: OperatorMatrix
    rho: Metric
    partner: OperatorMatrix
    b3: float | np.ndarray
    c3: float | np.ndarray
    j_tilde: tuple[float, float, float] | np.ndarray


@dataclass(frozen=True, eq=False)
class TransitionSeries:
    """Transition amplitudes over a time grid for one parameter set.

    Each array holds one entry per evaluation time, in the order the times
    were given.

    Attributes:
        amplitudes: Deformed inner product of the target with the evolved
            source state.
        probabilities: Squared amplitude over the deformed norms of both
            states.
        route_gaps: Absolute difference between the metric route and the
            partner route in u's frame, a rounding check.
        rho_norms: Deformed norm of the evolved source state.
    """

    amplitudes: np.ndarray
    probabilities: np.ndarray
    route_gaps: np.ndarray
    rho_norms: np.ndarray


def _tolerance_scale(params: TwoSpinParams) -> float:
    """Magnitude scale of the model that the regime tolerances multiply."""
    return abs(params.f3) + abs(params.g3) + 2.0 * abs(params.exchange)


@functools.cache
def _images() -> np.ndarray:
    """Q at hbar = 2 of -i xi1 xi2, -i chi1 chi2 and xi_i chi_i, one read-only stack.

    These are the five terms of H_cl = -i a xi1 xi2 - i b chi1 chi2 +
    sum_i c_i xi_i chi_i, xi the first spin and chi the second; at hbar = 2
    each image is a unit Pauli string.  Built on first use, so importing the
    package builds no realization.
    """
    algebra = AlgebraSpec((3, 3))
    xi, chi = ([algebra.coordinate(family, i) for i in range(3)] for family in (0, 1))
    words = [((xi[0], xi[1]), -1j), ((chi[0], chi[1]), -1j)]
    words += [((x, c), 1.0) for x, c in zip(xi, chi)]
    terms = [GrassmannElement.from_terms(algebra, [word]) for word in words]
    images = quantize(terms, tensor_realization(algebra, hbar=2.0))
    images.setflags(write=False)
    return images


def _quantized(coefficients: np.ndarray | list[tuple]) -> OperatorMatrix:
    """Q at hbar = 1/2 of the H_cl of each ``(a, b, c1, c2, c3)`` row, a ``(k, 4, 4)`` stack,
    its quarter taken after each part's sum (see :func:`build_total`)."""
    a, b, c1, c2, c3 = np.array(coefficients, dtype=complex).reshape(-1, 5).T[..., None, None]
    z1, z2, x1, x2, x3 = _images()
    return 0.25 * (a * z1 + b * z2) + (c1 * x1 + c2 * x2 + c3 * x3) / 4.0


def build_total(params: TwoSpinParams | Sequence[TwoSpinParams]) -> OperatorMatrix:
    """Build the full two-spin Hamiltonian with z-fields and exchange.

    H = Q(H_cl) at hbar = 1/2 for the pseudoclassical model
    H_cl = -i f3 xi1 xi2 - i g3 chi1 chi2 + J sum_i xi_i chi_i.  At
    hbar = 1/2 every term carries 1/4; it is applied to the hbar = 2 images
    once after the field sum and once after the exchange sum, as
    :func:`closed_spectrum` applies it, and not term by term as
    ``quantize(H_cl)`` would: at subnormal fields the per-term quarters
    round apart from the closed form.

    Args:
        params: Model parameters, or a sequence of them.

    Returns:
        The 4x4 matrix (1/4)[f3 I (x) sigma_3 + g3 sigma_3 (x) I +
        J sum_i sigma_i (x) sigma_i], the first spin on the fast tensor
        slot; diagonal corners (+-f_plus + J)/4, middle block
        [[-f_minus - J, 2J], [2J, f_minus - J]]/4.  A sequence gives a
        ``(k, 4, 4)`` stack, each entry with the bits of its own call.
    """
    single = isinstance(params, TwoSpinParams)
    draws = [params] if single else list(params)
    total = _quantized([(p.f3, p.g3, *(p.exchange,) * 3) for p in draws])
    return total[0] if single else total


def closed_spectrum(params: TwoSpinParams) -> RegimeReport:
    """Evaluate the closed-form spectrum and classify the regime.

    The reality conditions are: f_plus real, f_minus real or purely
    imaginary (f_minus^2 real), and 4 J^2 + f_minus^2 positive.  Each is
    tested inside a band of relative width ``REGIME_TOL``, the one the
    branch tests of :func:`paper_isomorphism` use, so the exact threshold
    point (margin zero in floats) still classifies as pseudo-hermitian;
    crossing the threshold flips the flag.  This runs once per
    ``regime-sweep`` grid point, so it reads each field once, forms f_plus
    and f_minus as the properties do, and builds its report positionally.

    Args:
        params: Model parameters.

    Returns:
        A :class:`RegimeReport` with all four eigenvalues of the built
        matrix and the classification.
    """
    f3, g3, j = params.f3, params.g3, params.exchange
    f_plus = f3 + g3
    f_minus = f3 - g3
    discriminant = 4.0 * j * j + f_minus * f_minus
    # Not cmath.sqrt: it differs from numpy's complex sqrt in the last bit,
    # at 1j among others, and the pinned spectra carry numpy's bits.
    root = complex(np.sqrt(discriminant))
    scale = _tolerance_scale(params)
    margin = discriminant.real
    pseudo = (
        abs(f_plus.imag) <= REGIME_TOL * scale
        and min(abs(f_minus.real), abs(f_minus.imag)) <= REGIME_TOL * scale
        and margin >= -REGIME_TOL * scale * scale
    )
    return RegimeReport(
        ((-j + root) / 4.0, (-j - root) / 4.0, (j + f_plus) / 4.0, (j - f_plus) / 4.0),
        pseudo,
        margin,
    )


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


def _frame_root(params: TwoSpinParams, at: str) -> float | None:
    """Signed s on the dissipative branch, None on the hermitian; else NoMetricError + ``at``."""
    report = closed_spectrum(params)
    if not report.pseudo_hermitian:
        raise NoMetricError(
            "parameters violate the reality conditions "
            f"(f_plus={params.f_plus}, f_minus^2={params.f_minus**2}, "
            f"margin={report.threshold_margin}){at}"
        )
    scale = _tolerance_scale(params)
    if abs(params.f_minus.imag) <= REGIME_TOL * scale:
        return None
    if report.threshold_margin <= REGIME_TOL * scale * scale:
        raise NoMetricError(f"parameters sit at the exceptional point; no metric exists{at}")
    return math.copysign(float(np.sqrt(report.threshold_margin)), params.exchange)


def _intertwining(
    draws: list[TwoSpinParams], hamiltonian: OperatorMatrix, u: OperatorMatrix,
    partner: OperatorMatrix,
) -> tuple[np.ndarray, np.ndarray]:
    """max|H u - u K| of each entry and its bound (see :func:`paper_isomorphism`)."""
    dropped = np.array([abs(p.f_plus.imag) + abs(p.f_minus.real) for p in draws])
    rounding = 8.0 * sys.float_info.epsilon * np.abs(hamiltonian).max(axis=(-2, -1))
    residual = np.abs(hamiltonian @ u - u @ partner).max(axis=(-2, -1))
    return residual, (rounding + 0.75 * dropped) * np.abs(u).max(axis=(-2, -1))


def paper_isomorphism(params: TwoSpinParams | Sequence[TwoSpinParams]) -> Isomorphism:
    """Construct the map u onto the hermitian partner K, in closed form.

    On the hermitian branch (|Im f_minus| within the ``REGIME_TOL`` band)
    the map and the metric are the identity and K is the model itself,
    :func:`build_total`'s matrix.  On the dissipative branch, away from the
    exceptional point, K has real z-fields b3 = (f_plus + Re f_minus)/2 and
    c3 = (f_plus - Re f_minus)/2 and the anisotropic exchange (s/2, s/2, J),
    with s = sqrt(4 J^2 + f_minus^2) taken with the sign of J; it is
    Q(K_cl) at hbar = 1/2 for K_cl = -i b3 xi1 xi2 - i c3 chi1 chi2 +
    sum_i J~_i xi_i chi_i, its quarter taken after each part's sum for the
    reason :func:`build_total` gives.  The map differs from the identity
    only in the middle block [[s/(2J), -f_minus/(2J)], [0, 1]], so
    s/(2J) > 0, and the metric is its inverse Gram matrix.

    Two postconditions are verified on the dissipative branch.  The metric
    must hermitize H, to ``METRIC_RESIDUAL_TOL * scale * max|rho|``.  And u
    must intertwine H with K: max|H u - u K| <= (c eps max|H| +
    (3/4)(|Im f_plus| + |Re f_minus|)) max|u| with c = 8.  In exact
    arithmetic H u - u K is +-i Im f_plus / 4 on the corners and
    (Re f_minus / 4) [[s/(2J), (Re f_minus + 3i Im f_minus)/(2J)], [0, -1]]
    on the middle block, the in-band parts that K drops on purpose; since
    |f_minus|/(2|J|) <= max|u|, no entry exceeds the second term.  The
    first bounds the rounding: over 2e4 draws on the exact branch it
    stayed below 2 eps max|H| max|u|, a quarter of c.

    A sequence gives one :class:`Isomorphism` of stacks, each entry with
    the bits of its own call; an error names the first failing entry.

    Args:
        params: Model parameters satisfying the reality conditions, or a
            sequence of them.

    Returns:
        An :class:`Isomorphism` (u, rho, partner K, b3, c3, j_tilde).

    Raises:
        NoMetricError: If the reality conditions fail or at the exceptional point.
        RuntimeError: If a verified postcondition fails numerically.
    """
    single = isinstance(params, TwoSpinParams)
    draws = [params] if single else list(params)
    at = [""] if single else [f" at stack entry {k}" for k in range(len(draws))]
    coefficients = np.zeros((len(draws), 5), dtype=complex)
    u = np.tile(np.eye(4, dtype=complex), (len(draws), 1, 1))
    dissipative = []
    for k, (p, where) in enumerate(zip(draws, at)):
        root = _frame_root(p, where)
        if root is None:
            coefficients[k] = p.f3, p.g3, *(p.exchange,) * 3
            continue
        f_plus, f_minus, two_j = p.f_plus.real, p.f_minus, 2.0 * p.exchange
        b3, c3 = (f_plus + f_minus.real) / 2.0, (f_plus - f_minus.real) / 2.0
        coefficients[k] = b3, c3, root / 2.0, root / 2.0, p.exchange
        u[k, 1, 1:3] = root / two_j, -f_minus / two_j
        dissipative.append(k)
    hamiltonian, partner = build_total(draws), _quantized(coefficients)
    rho = metric_from_isomorphism(u[0] if single else u)
    residual, bound = _intertwining(draws, hamiltonian, u, partner)
    tol = METRIC_RESIDUAL_TOL * np.array([_tolerance_scale(p) for p in draws])
    hermitized = rho_residuals(hamiltonian, rho.matrix) <= tol * np.abs(rho.matrix).max((-2, -1))
    for k in dissipative:
        # Written so that a nan residual fails too.
        if not residual[k] <= bound[k]:
            raise RuntimeError("partner failed the intertwining check H u = u K" + at[k])
        if not hermitized[k]:
            raise RuntimeError("constructed metric failed to hermitize the Hamiltonian" + at[k])
    fields = coefficients.real
    if single:
        b3, c3, *j_tilde = fields[0].tolist()
        return Isomorphism(u[0], rho, partner[0], b3, c3, tuple(j_tilde))
    return Isomorphism(u, rho, partner, fields[:, 0], fields[:, 1], fields[:, 2:])


def _require_sz_conserving(hamiltonian: OperatorMatrix) -> None:
    if np.any(hamiltonian[..., _TOTAL_SZ[:, None] != _TOTAL_SZ]):
        raise ValueError("Hamiltonian must conserve total S_z (1+2+1 blocks)")


def matched_eigenvalues(hamiltonian: OperatorMatrix, closed: tuple | np.ndarray) -> np.ndarray:
    """The eigensolver's eigenvalues in ``closed``'s order E1p, E1m, E2p, E2m.

    Each goes by its eigenvector's total-S_z sector: +1 to E2p, -1 to E2m,
    and the middle pair in whichever order lies closer to (E1p, E1m), the
    eigensolver's on a tie.  Takes ``(..., 4, 4)`` Hamiltonians with
    ``(..., 4)`` closed-form labels and returns ``(..., 4)``; each entry of
    a stack has the bits of its own single call.  A stack holding a matrix
    that links sectors raises ValueError.
    """
    _require_sz_conserving(np.asarray(hamiltonian))
    values, vectors = np.linalg.eig(hamiltonian)
    sectors = _TOTAL_SZ[np.argmax(np.abs(vectors), axis=-2)]
    # Sorted by sector (-1, 0, 0, +1), then taken as the middle pair, +1, -1.
    order = np.argsort(sectors, axis=-1, kind="stable")[..., [1, 2, 3, 0]]
    matched = np.take_along_axis(values, order, -1)
    pair, labels = matched[..., :2], np.asarray(closed)[..., :2]
    # np.hypot, not np.abs: it has the bits of abs() on a numpy complex scalar.
    d = np.array([pair - labels, pair[..., ::-1] - labels])
    kept, swapped = np.hypot(d.real, d.imag).sum(-1)
    matched[..., :2] = np.where((swapped < kept)[..., None], pair[..., ::-1], pair)
    return matched


def _agreement_bounds(hamiltonian: OperatorMatrix, closed: tuple) -> np.ndarray:
    """How far the eigensolver may stray from each of ``closed``'s eigenvalues.

    Wilkinson's first-order bound C eps ||H||_F kappa_i with C
    ``_AGREEMENT_FACTOR``, in ``closed``'s order E1p, E1m, E2p, E2m.  The
    corners E2p and E2m sit on the diagonal, so kappa = 1.  The middle pair
    shares the condition of the 2x2 block's traceless part K: with
    K = [[w, nu], [0, -w]] in Schur form, kappa = sqrt(1 + nu^2 / |E1p - E1m|^2)
    and nu^2 = ||K||_F^2 - |E1p - E1m|^2 / 2, so a normal block has kappa = 1.
    kappa is capped at eps^-1/2: at the exceptional point K is a Jordan
    block, its eigenvalues split like sqrt(eps) (Kato), and the bound is
    C sqrt(eps) ||H||_F.
    """
    eps = sys.float_info.epsilon
    tau = (hamiltonian[1, 1] + hamiltonian[2, 2]) / 2.0
    # Frobenius norms by math.hypot, which scales: squares of entries near
    # 1e-300 would underflow to a zero bound.
    k_norm = math.hypot(*np.abs(hamiltonian[1:3, 1:3] - tau * _IDENTITY2).flat)
    gap = abs(closed[0] - closed[1])
    # 1 + nu^2 / gap^2 = 1/2 + (||K||_F / gap)^2, which rounding may put below 1.
    ratio = k_norm / gap if gap else (math.inf if k_norm else 0.0)
    kappa = min(max(1.0, math.hypot(math.sqrt(0.5), ratio)), 1.0 / math.sqrt(eps))
    bound = _AGREEMENT_FACTOR * eps * math.hypot(*np.abs(hamiltonian).flat)
    return bound * np.array([kappa, kappa, 1.0, 1.0])


def evolve(
    hamiltonian: OperatorMatrix, t: float | np.ndarray, psi0: StateVector
) -> StateVector:
    """Apply exp(-i H t) to a state at one time or along a time grid.

    ``H`` must conserve total S_z, as every two-spin Hamiltonian here does,
    so it splits into 1+2+1 blocks: two diagonal corners, which evolve as
    phases, and a middle 2x2 block M = tau I + K with tau = tr M / 2.  Then
    K^2 = w^2 I (Cayley-Hamilton) and exp(-i M t) = exp(-i tau t)
    (cos(w t) I - i t sinc(w t) K), which is even in w and so analytic
    through w = 0, the exceptional point.  The work is elementwise over the
    times, so a grid gives the same bits as one call per time; an overflow
    comes back as inf or nan, silently.

    Args:
        hamiltonian: 4x4 generator that conserves total S_z.
        t: Evolution time, or a 1-D array of times.
        psi0: Initial 4-component state.

    Returns:
        The evolved state, shape ``(4,)`` for a scalar ``t``; for an array
        of times, shape ``(len(t), 4)`` with one evolved state per row.

    Raises:
        ValueError: If the shapes are not 4x4 and 4, an entry linking
            different total S_z is nonzero, or ``t`` has more than one axis.
    """
    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    psi0 = np.asarray(psi0, dtype=complex)
    if hamiltonian.shape != (4, 4) or psi0.shape != (4,):
        raise ValueError("evolve takes a 4x4 Hamiltonian and a 4-component state")
    _require_sz_conserving(hamiltonian)
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise ValueError("times must be a scalar or a 1-D array")
    grid = times.reshape(-1, 1)
    tau = (hamiltonian[1, 1] + hamiltonian[2, 2]) / 2.0
    k = hamiltonian[1:3, 1:3] - tau * _IDENTITY2
    w = np.sqrt(k[0, 0] * k[0, 0] + k[0, 1] * k[1, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        # t sinc(w t) = sin(w t) / w, which is t itself at w = 0.
        sin_over_w = np.sin(w * grid) / w if w != 0.0 else grid
        middle = np.exp(-1j * tau * grid) * (
            np.cos(w * grid) * psi0[1:3] - 1j * sin_over_w * (k @ psi0[1:3])
        )
        corners = np.exp(-1j * hamiltonian[[0, 3], [0, 3]] * grid) * psi0[[0, 3]]
    evolved = np.column_stack((corners[:, 0], middle, corners[:, 1]))
    return evolved[0] if times.ndim == 0 else evolved


def _unit_rows(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row times 2**-e, e (shape ``(..., 1)``) putting its largest part in [1/2, 1).

    Exact, so a result of the scaled rows scaled back by ``np.ldexp`` keeps
    its bits unless it leaves the float range.  The parts are scaled apart:
    a complex array over a subnormal real scale is inf + nan j.
    """
    parts = np.ascontiguousarray(states, dtype=complex).view(float)
    _, exps = np.frexp(np.max(np.abs(parts), axis=-1, keepdims=True))
    return np.ldexp(parts, -exps).view(complex), exps


def _euclidean_norms(states: np.ndarray) -> np.ndarray:
    """Norm of each row, taken of the row scaled by :func:`_unit_rows`.

    Summed as ``np.linalg.norm`` sums one state, the real parts' dot product
    plus the imaginary parts' (with ``axis=1`` it sums in another order).
    """
    unit, exps = _unit_rows(states)
    re, im = unit.real, unit.imag
    squares = (re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0]
    return np.ldexp(np.sqrt(squares), exps[:, 0])


def transition_series(
    xi: StateVector, zeta: StateVector, params: TwoSpinParams, times: np.ndarray
) -> TransitionSeries:
    """Transition amplitudes under metric-unitary evolution along a time grid.

    The amplitude is the deformed product of ``xi`` with the evolved
    ``zeta``.  It is evaluated along two routes at every time: the metric
    route, with rho = (u u^dagger)^-1, and the partner route, canonical in
    u's frame, which evolves u^-1 H u for :func:`paper_isomorphism`'s u on
    both states mapped by u^-1.  One similarity links the routes, so
    their gap is a rounding check whose size follows cond(rho).  The frame
    and the Hamiltonian are built once, and each route evolves the whole
    grid in one closed-form :func:`evolve` call.  The amplitudes of both
    routes and the deformed norms are each one stacked product over the
    grid, and one gate checks the route agreement at every time and reports
    the first time that fails.  Norms, probabilities and amplitudes are
    taken of states scaled exactly by powers of two (:func:`_unit_rows`), so
    entries from 1e-320 to 1e300 stay in range.

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
        NoMetricError: As :func:`paper_isomorphism` raises it; both shapes
            are checked first.
        ValueError: If a state's shape is not ``(4,)`` (the message names
            the state), a state's deformed norm is not positive and finite,
            ``times`` is not 1-D, or an amplitude leaves the float range
            (the message names the first such time).
        RuntimeError: If the two evaluation routes disagree, or the gap is
            nan, at any time; the message names the first such time.
    """
    for name, state in (("xi", xi), ("zeta", zeta)):
        if np.shape(state) != (4,):
            raise ValueError(f"{name} must have shape (4,), got {np.shape(state)}")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError("times must be a 1-D array")
    frame = paper_isomorphism(params)
    u, rho, hamiltonian = frame.u, frame.rho, build_total(params)
    # Not K: off the exact band K drops Im f_plus and Re f_minus, and the
    # routes would part by t times that.  u is the identity on the
    # hermitian branch, where H is its own partner.
    if np.array_equal(u, np.eye(4)):
        partner = hamiltonian
    else:
        partner = np.linalg.solve(u, hamiltonian @ u)
    (unit_xi, exp_xi), (unit_zeta, exp_zeta) = _unit_rows(xi), _unit_rows(zeta)
    # Overflow reads inf or nan and fails a check below; no warning needed.
    with np.errstate(over="ignore", invalid="ignore"):
        norm_xi, norm_zeta = (eta_inner(v, v, rho).real for v in (unit_xi, unit_zeta))
        if not (0.0 < norm_xi < math.inf and 0.0 < norm_zeta < math.inf):
            raise ValueError("states must have positive, finite deformed norms")
        evolved = evolve(hamiltonian, times, unit_zeta)
        unit_amplitudes = eta_inner(unit_xi, evolved, rho)
        amplitudes = np.ldexp(unit_amplitudes.view(float), exp_xi + exp_zeta).view(complex)
        if not np.isfinite(amplitudes).all():
            k = int(np.argmax(~np.isfinite(amplitudes)))
            raise ValueError(f"amplitude leaves the float range at t={times[k]:.6g}")
        u_inv = np.linalg.inv(u)
        bra = u_inv @ xi
        partner_evolved = evolve(partner, times, u_inv @ zeta)
        partner_amplitudes = np.matmul(bra.conj(), partner_evolved[:, :, None])[:, 0]
        # np.hypot is C hypot, as Python's complex abs is (np.abs differs in
        # last bits); m**2 is libm pow (m * m and np.square differ in last bits).
        unit_magnitudes = np.hypot(unit_amplitudes.real, unit_amplitudes.imag)
        magnitudes = np.ldexp(unit_magnitudes, exp_xi + exp_zeta)
        gaps = amplitudes - partner_amplitudes
        route_gaps = np.hypot(gaps.real, gaps.imag)
        # Written so that a nan gap fails the gate too.
        failing = ~(route_gaps <= ROUTE_TOL * (1.0 + magnitudes))
        if failing.any():
            k = int(np.argmax(failing))
            raise RuntimeError(
                f"evaluation routes disagree by {route_gaps[k]:.3e} at t={times[k]:.6g}"
            )
        squares = np.array([m**2 for m in unit_magnitudes.tolist()])
        probabilities = squares / (norm_xi * norm_zeta)
        # Metric-unitary evolution keeps each row's deformed norm at norm_zeta's
        # square root, so the rows of the scaled evolution stay scaled.
        rho_norms = np.ldexp(np.sqrt(eta_inner(evolved, evolved, rho).real), exp_zeta)
    return TransitionSeries(amplitudes, probabilities, route_gaps, rho_norms)
