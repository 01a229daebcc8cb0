"""Seeded invariant suites over every layer of the package.

Each group re-derives a family of structural facts (algebra laws, Clifford
relations, bracket correspondence, transport covariance, metric
construction, model spectra) on random draws from a caller-provided seed and
reports the worst measured violation against the documented limit.  The
groups back the command-line ``verify`` subcommand.  The acceptance tests
re-derive the same claims independently, with their own code and full
sample counts; they do not call these groups.

The ``perturb`` knob biases each group's first measured residual by a known
amount.  It exists purely to exercise the failure-reporting path (a nonzero
value must produce a located failure) and defaults to zero.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .canon import (
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
    verify_orthogonal,
)
from .grassmann import (
    AlgebraSpec,
    GrassmannElement,
    commutation_factor,
    dirac_bracket,
    graded_poisson,
    plus_involution,
    star_involution,
)
from .pseudoherm import Metric, diagnose, eta_inner, metric_from_isomorphism, rho_adjoint
from .quantize import (
    Realization,
    check_relations,
    correspondence_check,
    quantize,
    tensor_realization,
)
from .twospin import (
    GilbertParams,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    damping_threshold,
    evolve,
    gilbert_fields,
    hermitian_counterpart,
    paper_isomorphism,
)


@dataclass(frozen=True)
class CheckResult:
    """One measured invariant: a labeled violation against its limit."""

    label: str
    violation: float
    limit: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "violation", float(self.violation))
        object.__setattr__(self, "limit", float(self.limit))

    @property
    def passed(self) -> bool:
        return self.violation <= self.limit


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one invariant group."""

    name: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


def _inject(checks: list[CheckResult], perturb: float) -> tuple[CheckResult, ...]:
    if perturb and checks:
        first = checks[0]
        checks[0] = CheckResult(first.label, first.violation + abs(perturb), first.limit)
    return tuple(checks)


def _element_diff(left: GrassmannElement, right: GrassmannElement) -> float:
    keys = set(left.by_mask) | set(right.by_mask)
    if not keys:
        return 0.0
    return max(
        abs(left.by_mask.get(key, 0.0) - right.by_mask.get(key, 0.0)) for key in keys
    )


def _random_element(rng, algebra, max_terms=4, max_degree=3):
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        degree = int(rng.integers(0, max_degree + 1))
        word = [gens[int(k)] for k in rng.choice(len(gens), size=degree, replace=False)]
        coefficient = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        terms.append((tuple(word), coefficient))
    return GrassmannElement.from_terms(algebra, terms)


def _random_family_homogeneous(rng, algebra, parities):
    words = []
    for _ in range(int(rng.integers(1, 3))):
        word = []
        for family, parity in enumerate(parities):
            size = int(parity + 2 * rng.integers(0, 2))
            pool = [g for g in algebra.coordinates() if g.family == family]
            pool += [g for g in algebra.momenta() if g.family == family]
            size = min(size, len(pool))
            if size % 2 != parity:
                size -= 1
            picks = rng.choice(len(pool), size=size, replace=False)
            word.extend(pool[int(k)] for k in picks)
        coefficient = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        words.append((tuple(word), coefficient))
    return GrassmannElement.from_terms(algebra, words)


def check_grassmann(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Algebra laws: associativity, involutions, bracket structure."""
    rng = np.random.default_rng(seed)
    algebra = AlgebraSpec((3, 3), momenta_attached=True)
    checks: list[CheckResult] = []

    worst = 0.0
    for _ in range(40):
        f = _random_element(rng, algebra)
        g = _random_element(rng, algebra)
        h = _random_element(rng, algebra)
        worst = max(worst, _element_diff((f * g) * h, f * (g * h)))
        worst = max(worst, _element_diff((f + g) * h, f * h + g * h))
    checks.append(CheckResult("product associativity and bilinearity", worst, 1e-12))

    coordinate_only = AlgebraSpec((3, 3))
    worst = 0.0
    for _ in range(40):
        f = _random_element(rng, algebra)
        worst = max(worst, _element_diff(star_involution(star_involution(f)), f))
        h = _random_element(rng, coordinate_only)
        worst = max(worst, _element_diff(plus_involution(h, np.eye(6)), star_involution(h)))
    checks.append(CheckResult("star involution and plus at identity", worst, 1e-12))

    worst = 0.0
    for _ in range(30):
        parities_f = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        parities_g = (int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        f = _random_family_homogeneous(rng, algebra, parities_f)
        g = _random_family_homogeneous(rng, algebra, parities_g)
        if f.is_zero() or g.is_zero():
            continue
        eps = commutation_factor(f.family_parity, g.family_parity)
        worst = max(
            worst,
            _element_diff(graded_poisson(f, g), -eps * graded_poisson(g, f)),
        )
    checks.append(CheckResult("bracket color antisymmetry", worst, 1e-12))

    worst = 0.0
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    sample = [GrassmannElement.from_generator(algebra, g) for g in gens[:6]]
    for a in sample:
        for b in sample:
            for c in sample:
                total = GrassmannElement.zero(algebra)
                for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                    total = total + dirac_bracket(x, dirac_bracket(y, z))
                worst = max(worst, _element_diff(total, GrassmannElement.zero(algebra)))
    checks.append(CheckResult("graded Jacobi identity (Dirac)", worst, 1e-12))

    worst = 0.0
    single = AlgebraSpec((3,))
    for k in range(100):
        g = _random_element(rng, single, max_degree=3)
        f = g + star_involution(g)
        lam = random_orthogonal(3, seed=seed * 1000 + k)
        rho = lam.entries @ lam.entries.conj().T
        moved = transform_coefficients(f, lam)
        worst = max(worst, _element_diff(plus_involution(moved, rho), moved))
    checks.append(CheckResult("reality transport star to plus", worst, 1e-9))

    return GroupResult("grassmann", _inject(checks, perturb))


def check_clifford(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Anticommutation relations across structures and scales."""
    checks: list[CheckResult] = []
    for sizes in ((3,), (3, 3), (5,), (2, 4)):
        worst = 0.0
        for hbar in (0.5, 1.0, 2.0):
            report = check_relations(tensor_realization(AlgebraSpec(sizes), hbar=hbar))
            worst = max(worst, report.max_violation)
        checks.append(
            CheckResult(f"relations for families {list(sizes)}", worst, 1e-12)
        )
    return GroupResult("clifford", _inject(checks, perturb))


def check_correspondence(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Sampled bracket correspondence on low-degree monomials."""
    rng = np.random.default_rng(seed)
    algebra = AlgebraSpec((3, 3), momenta_attached=True)
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    monomials = [GrassmannElement.unit(algebra)]
    monomials += [GrassmannElement.from_generator(algebra, g) for g in gens]
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            monomials.append(
                GrassmannElement.from_terms(algebra, [((gens[a], gens[b]), 1.0)])
            )
    checks: list[CheckResult] = []
    for hbar in (0.5, 1.0, 2.0):
        realization = tensor_realization(AlgebraSpec((3, 3)), hbar=hbar)
        worst = 0.0
        for _ in range(400):
            f = monomials[int(rng.integers(0, len(monomials)))]
            g = monomials[int(rng.integers(0, len(monomials)))]
            report = correspondence_check(f, g, realization)
            worst = max(worst, report.residual)
        checks.append(
            CheckResult(f"bracket correspondence at hbar={hbar}", worst, 1e-12)
        )
    return GroupResult("correspondence", _inject(checks, perturb))


def check_quantize(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Hermiticity, linearity, and covariance of the quantization map."""
    rng = np.random.default_rng(seed)
    algebra = AlgebraSpec((3, 3))
    realization = tensor_realization(algebra, hbar=1.0)
    checks: list[CheckResult] = []

    worst = 0.0
    for _ in range(50):
        g = _random_element(rng, algebra, max_degree=6)
        f = g + star_involution(g)
        matrix = quantize(f, realization)
        worst = max(worst, float(np.max(np.abs(matrix - matrix.conj().T))))
    checks.append(CheckResult("star-real elements quantize hermitian", worst, 1e-12))

    worst = 0.0
    for _ in range(30):
        f = _random_element(rng, algebra, max_degree=4)
        g = _random_element(rng, algebra, max_degree=4)
        a = complex(int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        combined = quantize(a * f + g, realization)
        split = a * quantize(f, realization) + quantize(g, realization)
        worst = max(worst, float(np.max(np.abs(combined - split))))
    checks.append(CheckResult("linearity of the map", worst, 1e-12))

    single = AlgebraSpec((3,))
    base = tensor_realization(single, hbar=1.0)
    worst = 0.0
    for k in range(30):
        lam = random_orthogonal(3, seed=seed * 500 + k)
        moved_gens = tuple(
            sum(lam.entries[k_, i] * base.gens[i] for i in range(3)) for k_ in range(3)
        )
        transported = Realization(
            algebra=base.algebra, hbar=base.hbar, dim=base.dim, gens=moved_gens
        )
        f = _random_element(rng, single, max_degree=3)
        g = transform_coefficients(f, lam)
        worst = max(
            worst,
            float(np.max(np.abs(quantize(g, transported) - quantize(f, base)))),
        )
    checks.append(CheckResult("covariance under transported realization", worst, 1e-10))

    return GroupResult("quantize", _inject(checks, perturb))


def check_canon(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Orthogonal sampling, field transport, and coefficient transport."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    worst = 0.0
    dets = set()
    for k in range(50):
        lam = random_orthogonal(3, seed=seed * 200 + k)
        worst = max(
            worst,
            float(np.max(np.abs(lam.entries @ lam.entries.T - np.eye(3)))),
        )
        dets.add(lam.det)
    checks.append(CheckResult("sampled complex orthogonality", worst, 1e-10))
    checks.append(
        CheckResult("both determinant components sampled", float(len(dets) != 2), 0.0)
    )

    worst = 0.0
    for k in range(200):
        lam = random_orthogonal(3, seed=seed * 300 + k)
        field = rng.normal(size=3)
        moved = pushforward_field(field, lam)
        worst = max(worst, abs(complex(moved @ moved) - complex(field @ field)))
    checks.append(CheckResult("bilinear field square invariance", worst, 1e-10))

    single = AlgebraSpec((3,))
    worst = 0.0
    for k in range(30):
        lam1 = random_orthogonal(3, seed=seed * 400 + k)
        lam2 = random_orthogonal(3, seed=seed * 400 + k + 7000)
        f = _random_element(rng, single, max_degree=3)
        once = transform_coefficients(transform_coefficients(f, lam1), lam2)
        composed = transform_coefficients(
            f, verify_orthogonal(lam2.entries @ lam1.entries)
        )
        worst = max(worst, _element_diff(once, composed))
    checks.append(CheckResult("coefficient transport group action", worst, 1e-10))

    return GroupResult("canon", _inject(checks, perturb))


def check_pseudoherm(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Metric construction, adjoint involution, isometry transport."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    worst = 0.0
    missing = 0
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r *= min(1.0, 1.2 / np.linalg.norm(r, 2))
        t = expm(r)
        plant = np.diag(0.25 + 0.5 * np.arange(dim))
        a = t @ plant @ np.linalg.inv(t)
        report = diagnose(a)
        if report.metric is None:
            missing += 1
            continue
        worst = max(
            worst,
            float(
                np.max(np.abs(report.metric.matrix @ a - a.conj().T @ report.metric.matrix))
            ),
        )
    checks.append(CheckResult("planted real spectra yield metrics", float(missing), 0.0))
    checks.append(CheckResult("constructed metric residual", worst, 1e-9))

    found = 0
    for _ in range(100):
        block = np.array([[0.0, 1.0], [-1.0, 0.0]])
        dim = 2 * int(rng.integers(1, 3))
        plant = np.kron(np.eye(dim // 2), block * (0.5 + rng.uniform()))
        r = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        r *= min(1.0, 1.0 / np.linalg.norm(r, 2))
        t = expm(r)
        report = diagnose(t @ plant @ np.linalg.inv(t))
        if report.metric is not None:
            found += 1
    checks.append(CheckResult("complex plants yield no metric", float(found), 0.0))

    worst = 0.0
    for _ in range(30):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        g = 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        rho = Metric(g @ g.conj().T + np.eye(4))
        worst = max(
            worst, float(np.max(np.abs(rho_adjoint(rho_adjoint(a, rho), rho) - a)))
        )
    checks.append(CheckResult("deformed adjoint involution", worst, 1e-9))

    worst = 0.0
    for _ in range(30):
        u = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) + 3.0 * np.eye(4)
        g = 0.5 * (rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        eta = Metric(g @ g.conj().T + np.eye(4))
        rho = metric_from_isomorphism(u, eta)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        x = rng.normal(size=4) + 1j * rng.normal(size=4)
        y = rng.normal(size=4) + 1j * rng.normal(size=4)
        lhs = eta_inner(u @ x, (u @ a @ np.linalg.inv(u)) @ (u @ y), rho)
        rhs = eta_inner(x, a @ y, eta)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    checks.append(CheckResult("isometry transport of matrix elements", worst, 1e-8))

    return GroupResult("pseudoherm", _inject(checks, perturb))


def check_twospin(seed: int = 0, perturb: float = 0.0) -> GroupResult:
    """Model spectra, regime equivalence, similarity, metric dynamics."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    worst = 0.0
    for _ in range(200):
        params = TwoSpinParams(
            f3=complex(rng.normal(), rng.normal()),
            g3=complex(rng.normal(), rng.normal()),
            exchange=float(rng.normal()),
        )
        closed = sorted(
            closed_spectrum(params).eigenvalues, key=lambda v: (v.real, v.imag)
        )
        numerical = np.linalg.eigvals(build_total(params))
        numerical = list(numerical[np.lexsort((numerical.imag, numerical.real))])
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, numerical)))
    checks.append(CheckResult("closed spectrum matches eigensolver", worst, 1e-10))

    mismatches = 0
    for _ in range(150):
        params = TwoSpinParams(
            f3=complex(rng.normal(), rng.normal()),
            g3=complex(rng.normal(), rng.normal()),
            exchange=float(rng.normal()),
        )
        report = closed_spectrum(params)
        if abs(report.threshold_margin) < 1e-6:
            continue
        if report.pseudo_hermitian != diagnose(build_total(params)).spectrum_real:
            mismatches += 1
    checks.append(CheckResult("regime flag matches diagnosis", float(mismatches), 0.0))

    worst = 0.0
    for _ in range(25):
        exchange = float(rng.uniform(0.6, 1.6))
        b_max = damping_threshold(exchange, 0.6)
        f3, g3 = gilbert_fields(
            GilbertParams(float(rng.uniform(0.1, 0.9)) * b_max, 0.6, -0.6)
        )
        params = TwoSpinParams(f3=f3, g3=g3, exchange=exchange)
        counterpart = hermitian_counterpart(params)
        closed = np.sort(np.linalg.eigvals(build_total(params)).real)
        partner = np.sort(np.linalg.eigvals(counterpart.matrix).real)
        worst = max(worst, float(np.max(np.abs(closed - partner))))
        u, rho = paper_isomorphism(params)
        conjugated = np.linalg.solve(u, build_total(params) @ u)
        worst = max(worst, float(np.max(np.abs(conjugated - counterpart.matrix))))
    checks.append(CheckResult("counterpart similarity on dissipative branch", worst, 1e-10))

    f3, g3 = gilbert_fields(GilbertParams(1.0, 0.5, -0.5))
    params = TwoSpinParams(f3=f3, g3=g3, exchange=1.0)
    _, rho = paper_isomorphism(params)
    hamiltonian = build_total(params)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    base = eta_inner(psi, psi, rho).real
    worst = 0.0
    for evolved in evolve(hamiltonian, np.linspace(0.0, 100.0, 101), psi):
        worst = max(worst, abs(eta_inner(evolved, evolved, rho).real - base) / base)
    checks.append(CheckResult("deformed norm conserved over [0, 100]", worst, 1e-9))

    b_max = damping_threshold(1.0, 0.5)
    below = closed_spectrum(_toy(b_max * (1 - 1e-6), 0.5))
    above = closed_spectrum(_toy(b_max * (1 + 1e-6), 0.5))
    flips = float(not (below.pseudo_hermitian and not above.pseudo_hermitian))
    checks.append(CheckResult("threshold flip brackets B_max", flips, 0.0))

    return GroupResult("twospin", _inject(checks, perturb))


def _toy(amplitude: float, alpha: float, exchange: float = 1.0) -> TwoSpinParams:
    f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha, -alpha))
    return TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


GROUPS = {
    "grassmann": check_grassmann,
    "canon": check_canon,
    "clifford": check_clifford,
    "correspondence": check_correspondence,
    "quantize": check_quantize,
    "pseudoherm": check_pseudoherm,
    "twospin": check_twospin,
}


def run_groups(
    names: list[str] | None = None, seed: int = 0, perturb: float = 0.0
) -> list[GroupResult]:
    """Run the named invariant groups (all of them by default) in order.

    Args:
        names: Group names from :data:`GROUPS`; None runs every group.
        seed: Base seed for all random draws.
        perturb: Fault-injection bias added to each group's first check.

    Returns:
        One :class:`GroupResult` per group, in registry order.

    Raises:
        ValueError: If an unknown group name is requested.
    """
    selected = list(GROUPS) if names is None else list(names)
    unknown = [name for name in selected if name not in GROUPS]
    if unknown:
        raise ValueError(f"unknown verification groups: {unknown}")
    return [GROUPS[name](seed=seed, perturb=perturb) for name in selected]
