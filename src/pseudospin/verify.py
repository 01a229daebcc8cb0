"""Seeded invariant suites over every layer of the package.

Each group re-derives a family of structural facts (algebra laws, Clifford
relations, bracket correspondence, transport covariance, metric
construction, model spectra) on random draws, its orthogonal matrices
included, from one generator seeded by the caller, and reports the worst
measured violation against the documented limit.  The groups back the
command-line ``verify`` subcommand.  The acceptance tests re-derive the same
claims independently, with their own code and full sample counts; they do
not call these groups.  Computed once per process, three print the same
violations at every seed: the ``clifford`` relations, ``correspondence`` over
all basis pairs and ``grassmann``'s "graded Jacobi identity (Dirac)".
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .canon import (
    ComplexOrthogonal,
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
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
from .pseudoherm import (
    Metric,
    _rho_residuals,
    diagnose,
    eta_inner,
    metric_from_isomorphism,
    rho_adjoint,
)
from .quantize import (
    Realization,
    check_relations,
    quantize,
    tensor_realization,
)
from .twospin import (
    TwoSpinParams,
    _tolerance_scale,
    build_total,
    closed_spectrum,
    damping_threshold,
    evolve,
    hermitian_counterpart,
    matched_eigenvalues,
    paper_isomorphism,
)


@dataclass(frozen=True)
class CheckResult:
    """One measured invariant: a labeled violation against its limit."""

    label: str
    violation: float
    limit: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "violation", float(self.violation))
        object.__setattr__(self, "limit", float(self.limit))
        object.__setattr__(self, "passed", self.violation <= self.limit)


@dataclass(frozen=True)
class GroupResult:
    """Outcome of one invariant group."""

    name: str
    passed: bool = field(init=False)
    checks: tuple[CheckResult, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "passed", all(check.passed for check in self.checks))

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(check for check in self.checks if not check.passed)


def _worst(values) -> float:
    """The largest of ``values``, or 0.0 for none.  np.max keeps a nan,
    which a Python max fold could drop: ``max(0.0, nan)`` is 0.0."""
    return float(np.max(np.fromiter(values, float), initial=0.0))


def _element_diff(left: GrassmannElement, right: GrassmannElement) -> float:
    return _worst(map(abs, (left - right).by_mask.values()))


def _from_term_runs(algebra, terms, sizes):
    """One element from each run of ``sizes`` consecutive terms."""
    ends = np.cumsum(sizes).tolist()
    return [GrassmannElement.from_terms(algebra, terms[a:b]) for a, b in zip([0, *ends], ends)]


def _random_elements(rng, algebra, count, max_terms=4, max_degree=3):
    """``count`` elements of 1 to ``max_terms`` terms, all drawn as arrays:
    each term has 0 to ``max_degree`` distinct generators (a row-wise argsort
    of uniforms, cut to the term's degree) and a coefficient in
    [-3, 3] + i[-3, 3]."""
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    if max_degree > len(gens):
        raise ValueError(f"max_degree {max_degree} exceeds the {len(gens)} generators")
    sizes = rng.integers(1, max_terms + 1, size=count)
    total = int(sizes.sum())
    degrees = rng.integers(0, max_degree + 1, size=total).tolist()
    real, imag = rng.integers(-3, 4, size=(2, total)).tolist()
    words = np.argsort(rng.random((total, len(gens))), axis=1).tolist()
    terms = [
        (tuple(gens[k] for k in word[:degree]), complex(re, im))
        for word, degree, re, im in zip(words, degrees, real, imag)
    ]
    return _from_term_runs(algebra, terms, sizes)


def _random_family_homogeneous(rng, algebra, parities):
    """One element per row of ``parities`` (shape ``(count, families)``), all
    drawn as arrays: 1 or 2 terms, each with the row's degree parity in every
    family and a coefficient in [-3, 3] + i[-3, 3]."""
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    pools = [[g for g in gens if g.family == f] for f in range(len(algebra.family_sizes))]
    sizes = rng.integers(1, 3, size=len(parities))
    rows = np.repeat(parities, sizes, axis=0)
    degrees = rows + 2 * rng.integers(0, 2, size=rows.shape)
    degrees = np.minimum(degrees, [len(pool) for pool in pools])
    degrees -= degrees % 2 != rows
    real, imag = rng.integers(-3, 4, size=(2, len(rows))).tolist()
    picks = [np.argsort(rng.random((len(rows), len(pool))), axis=1).tolist() for pool in pools]
    terms = []
    for t, (degree, re, im) in enumerate(zip(degrees.tolist(), real, imag)):
        word = [pool[k] for pool, pick, d in zip(pools, picks, degree) for k in pick[t][:d]]
        terms.append((tuple(word), complex(re, im)))
    return _from_term_runs(algebra, terms, sizes)


def _gaussian(rng, *shape):
    """A block of standard complex normals, both parts drawn in one call."""
    real, imag = rng.normal(size=(2, *shape))
    return real + 1j * imag


@lru_cache(maxsize=None)
def _realization(sizes: tuple[int, ...], hbar: float) -> Realization:
    """One realization per process for each of this module's twelve
    (structure, hbar) pairs, shared by every seed."""
    return tensor_realization(AlgebraSpec(sizes), hbar=hbar)


@lru_cache(maxsize=None)
def _correspondence_residuals() -> tuple[float, float, float]:
    """Seed-free: the worst :func:`correspondence_check` residual at hbar 0.5,
    1 and 2 over all pairs of the unit, generators and generator pairs of
    ``(3, 3)`` with momenta, one row at a time.  By graded antisymmetry a pair
    and its reverse have one residual, so row a starts at element a."""
    algebra = AlgebraSpec((3, 3), momenta_attached=True)
    gens = [*algebra.coordinates(), *algebra.momenta()]
    words = [(g,) for g in gens] + list(combinations(gens, 2))
    basis = [GrassmannElement.unit(algebra)]
    basis += [GrassmannElement.from_terms(algebra, [(w, 1.0)]) for w in words]
    realizations = [_realization((3, 3), hbar) for hbar in (0.5, 1.0, 2.0)]
    images = np.stack([quantize(basis, r) for r in realizations], axis=1)
    parities = [m.family_parity for m in basis]
    brackets = {}  # i hbar Q({f, g}_D) at each hbar, once per distinct bracket
    worst = np.zeros(3)
    for a, (f, qf, p) in enumerate(zip(basis, images, parities)):
        row = [dirac_bracket(f, g) for g in basis[a:]]
        keys = [tuple(bracket.by_mask.items()) for bracket in row]
        fresh = {key: bracket for key, bracket in zip(keys, row) if key not in brackets}
        stacks = [1j * r.hbar * quantize(list(fresh.values()), r) for r in realizations]
        brackets |= {k: [stack[i] for stack in stacks] for i, k in enumerate(fresh)}
        signs = np.reshape([commutation_factor(p, q) for q in parities[a:]], (-1, 1, 1, 1))
        commutators = qf @ images[a:] - signs * images[a:] @ qf
        residuals = np.abs(commutators - np.array([brackets[key] for key in keys]))
        worst = np.maximum(worst, residuals.max(axis=(0, 2, 3)))
    return tuple(worst.tolist())


@lru_cache(maxsize=None)
def _dirac_jacobi(algebra: AlgebraSpec) -> float:
    """Seed-free: the Dirac bracket's Jacobi residual on six generators."""
    gens = list(algebra.coordinates()) + list(algebra.momenta())
    sample = [GrassmannElement.from_generator(algebra, g) for g in gens[:6]]
    # Each bracket once: {y, z}_D for every pair, then {x, {y, z}_D}_D.
    inner = {(y, z): dirac_bracket(sample[y], sample[z]) for y in range(6) for z in range(6)}
    outer = {(x, *yz): dirac_bracket(sample[x], inner[yz]) for x in range(6) for yz in inner}
    zero = GrassmannElement.zero(algebra)
    return _worst(
        _element_diff(zero + outer[a, b, c] + outer[b, c, a] + outer[c, a, b], zero)
        for a, b, c in outer
    )


def check_grassmann(seed: int = 0) -> GroupResult:
    """Algebra laws: associativity, involutions, bracket structure."""
    rng = np.random.default_rng(seed)
    algebra = AlgebraSpec((3, 3), momenta_attached=True)
    checks: list[CheckResult] = []

    worst = []
    elements = _random_elements(rng, algebra, 120)
    for f, g, h in zip(elements[:40], elements[40:80], elements[80:]):
        worst.append(_element_diff((f * g) * h, f * (g * h)))
        worst.append(_element_diff((f + g) * h, f * h + g * h))
    checks.append(CheckResult("product associativity and bilinearity", _worst(worst), 1e-12))

    coordinate_only = AlgebraSpec((3, 3))
    worst = []
    elements = _random_elements(rng, algebra, 40) + _random_elements(rng, coordinate_only, 40)
    plus = plus_involution(elements[40:], np.broadcast_to(np.eye(6), (40, 6, 6)))
    for f, h, h_plus in zip(elements[:40], elements[40:], plus):
        worst.append(_element_diff(star_involution(star_involution(f)), f))
        worst.append(_element_diff(h_plus, star_involution(h)))
    checks.append(CheckResult("star involution and plus at identity", _worst(worst), 1e-12))

    worst = []
    elements = _random_family_homogeneous(rng, algebra, rng.integers(0, 2, size=(60, 2)))
    for f, g in zip(elements[:30], elements[30:]):
        if f.is_zero() or g.is_zero():
            continue
        eps = commutation_factor(f.family_parity, g.family_parity)
        worst.append(_element_diff(graded_poisson(f, g), -eps * graded_poisson(g, f)))
    checks.append(CheckResult("bracket color antisymmetry", _worst(worst), 1e-12))

    checks.append(CheckResult("graded Jacobi identity (Dirac)", _dirac_jacobi(algebra), 1e-12))

    lams = random_orthogonal(3, rng, 100)
    reals = [g + star_involution(g) for g in _random_elements(rng, AlgebraSpec((3,)), 100)]
    moved = transform_coefficients(reals, lams)
    rho = lams.entries @ lams.entries.conj().mT
    worst = _worst(map(_element_diff, plus_involution(moved, rho), moved))
    checks.append(CheckResult("reality transport star to plus", worst, 1e-9))

    return GroupResult("grassmann", tuple(checks))


@lru_cache(maxsize=None)
def _relations_residual(sizes: tuple[int, ...]) -> float:
    """Seed-free: the worst :func:`check_relations` residual over three hbar."""
    return _worst(check_relations(_realization(sizes, hbar)) for hbar in (0.5, 1.0, 2.0))


def check_clifford(seed: int = 0) -> GroupResult:
    """Anticommutation relations across structures and scales."""
    checks = [
        CheckResult(f"relations for families {list(sizes)}", _relations_residual(sizes), 1e-12)
        for sizes in ((3,), (3, 3), (5,), (2, 4))
    ]
    return GroupResult("clifford", tuple(checks))


def check_correspondence(seed: int = 0) -> GroupResult:
    """Bracket correspondence on every pair of low-degree monomials."""
    checks = [
        CheckResult(f"bracket correspondence at hbar={hbar}", worst, 1e-12)
        for hbar, worst in zip((0.5, 1.0, 2.0), _correspondence_residuals())
    ]
    return GroupResult("correspondence", tuple(checks))


def check_quantize(seed: int = 0) -> GroupResult:
    """Hermiticity, linearity, and covariance of the quantization map."""
    rng = np.random.default_rng(seed)
    realization = _realization((3, 3), 1.0)
    checks: list[CheckResult] = []

    elements = _random_elements(rng, realization.algebra, 50, max_degree=6)
    matrices = quantize([g + star_involution(g) for g in elements], realization)
    worst = float(np.max(np.abs(matrices - matrices.conj().mT)))
    checks.append(CheckResult("star-real elements quantize hermitian", worst, 1e-12))

    elements = _random_elements(rng, realization.algebra, 60, max_degree=4)
    coeffs = [complex(re, im) for re, im in zip(*rng.integers(-3, 4, size=(2, 30)).tolist())]
    combined = [a * f + g for a, f, g in zip(coeffs, elements[:30], elements[30:])]
    images = quantize(combined + elements, realization)
    worst = _worst(
        np.abs(q - (a * qf + qg)).max()
        for a, q, qf, qg in zip(coeffs, images[:30], images[30:60], images[60:])
    )
    checks.append(CheckResult("linearity of the map", worst, 1e-12))

    base = _realization((3,), 1.0)
    lams = random_orthogonal(3, rng, 30)
    elements = _random_elements(rng, base.algebra, 30)
    moved = transform_coefficients(elements, lams)
    worst = []
    for lam, g, qf in zip(lams.entries, moved, quantize(elements, base)):
        moved_gens = [sum(lam[k_, i] * base.gens[i] for i in range(3)) for k_ in range(3)]
        transported = Realization(base.algebra, base.hbar, moved_gens)
        worst.append(np.abs(quantize(g, transported) - qf).max())
    checks.append(CheckResult("covariance under transported realization", _worst(worst), 1e-10))

    return GroupResult("quantize", tuple(checks))


def check_canon(seed: int = 0) -> GroupResult:
    """Orthogonal sampling, field transport, and coefficient transport."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    lams = random_orthogonal(3, rng, 50)
    worst = float(np.max(np.abs(lams.entries @ lams.entries.mT - np.eye(3))))
    checks.append(CheckResult("sampled complex orthogonality", worst, 1e-10))
    unsampled = float(len(set(lams.det.tolist())) != 2)
    checks.append(CheckResult("both determinant components sampled", unsampled, 0.0))

    lams = random_orthogonal(3, rng, 200)
    fields = rng.normal(size=(200, 3))
    moved = pushforward_field(fields, lams)
    worst = _worst(abs(complex(m @ m) - complex(b @ b)) for m, b in zip(moved, fields))
    checks.append(CheckResult("bilinear field square invariance", worst, 1e-10))

    firsts = random_orthogonal(3, rng, 30)
    seconds = random_orthogonal(3, rng, 30)
    elements = _random_elements(rng, AlgebraSpec((3,)), 30)
    once = transform_coefficients(transform_coefficients(elements, firsts), seconds)
    products = ComplexOrthogonal(np.concatenate([firsts.vectors, seconds.vectors], axis=1))
    composed = transform_coefficients(elements, products)
    worst = _worst(map(_element_diff, once, composed))
    checks.append(CheckResult("coefficient transport group action", worst, 1e-10))

    return GroupResult("canon", tuple(checks))


def _planted_reports(dims, plants, r):
    """Conjugate draw k's plant by ``t = I + r``, both cut to the leading
    ``dims[k]`` corner of their blocks (``plants`` broadcasts against ``r``),
    with ``r`` capped at 2-norm 1/2 so that cond(t) <= 3, and diagnose the
    results in one stack per dimension: ``(operators, diagnosis)`` pairs."""
    plants = np.broadcast_to(plants, r.shape)
    for dim in sorted(set(dims.tolist())):
        plant, t = plants[dims == dim, :dim, :dim], r[dims == dim, :dim, :dim]
        t *= np.minimum(1.0, 0.5 / np.linalg.norm(t, 2, axis=(-2, -1)))[:, None, None]
        t += np.eye(dim)
        a = t @ plant @ np.linalg.inv(t)
        yield a, diagnose(a)


def check_pseudoherm(seed: int = 0) -> GroupResult:
    """Metric construction, adjoint involution, isometry transport."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    dims = rng.integers(2, 6, size=100)
    plants = np.diag(0.25 + 0.5 * np.arange(5))
    worst = []
    missing = 0
    for a, d in _planted_reports(dims, plants, _gaussian(rng, 100, 5, 5)):
        found = d.spectrum_real & d.diagonalizable
        missing += int(np.count_nonzero(~found))
        worst.append(np.max(_rho_residuals(a[found], d.metric.matrix), initial=0.0))
    checks.append(CheckResult("planted real spectra yield metrics", float(missing), 0.0))
    checks.append(CheckResult("constructed metric residual", _worst(worst), 1e-9))

    dims = 2 * rng.integers(1, 3, size=100)
    blocks = np.kron(np.eye(2), [[0.0, 1.0], [-1.0, 0.0]])
    plants = (0.5 + rng.uniform(size=100))[:, None, None] * blocks
    reports = _planted_reports(dims, plants, _gaussian(rng, 100, 4, 4))
    found = sum(len(d.metric.matrix) for _, d in reports)
    checks.append(CheckResult("complex plants yield no metric", float(found), 0.0))

    a, g = _gaussian(rng, 2, 30, 4, 4)
    g = 0.5 * g
    rho = Metric(g @ g.conj().mT + np.eye(4))
    worst = float(np.max(np.abs(rho_adjoint(rho_adjoint(a, rho), rho) - a)))
    checks.append(CheckResult("deformed adjoint involution", worst, 1e-9))

    u, g, a = _gaussian(rng, 3, 30, 4, 4)
    u, g = u + 3.0 * np.eye(4), 0.5 * g
    x, y = _gaussian(rng, 2, 30, 4)[..., None]  # columns: @ keeps bits, einsum would not
    eta = Metric(g @ g.conj().mT + np.eye(4))
    rho = metric_from_isomorphism(u, eta)
    lhs = eta_inner((u @ x)[..., 0], (u @ a @ np.linalg.inv(u) @ (u @ y))[..., 0], rho)
    rhs = eta_inner(x[..., 0], (a @ y)[..., 0], eta)
    # Python's complex abs is C hypot; np.abs differs in the last bit.
    worst = _worst(abs(l - r) / (1.0 + abs(r)) for l, r in zip(lhs.tolist(), rhs.tolist()))
    checks.append(CheckResult("isometry transport of matrix elements", worst, 1e-8))

    return GroupResult("pseudoherm", tuple(checks))


def _random_params(rng, count: int) -> list[TwoSpinParams]:
    return [
        TwoSpinParams(f3=complex(f_re, f_im), g3=complex(g_re, g_im), exchange=j)
        for f_re, f_im, g_re, g_im, j in rng.normal(size=(count, 5)).tolist()
    ]


def check_twospin(seed: int = 0) -> GroupResult:
    """Model spectra, regime equivalence, similarity, metric dynamics."""
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    draws = _random_params(rng, 200)
    closed = np.array([closed_spectrum(params).eigenvalues for params in draws])
    gaps = closed - matched_eigenvalues(build_total(draws), closed)
    worst = float(np.hypot(gaps.real, gaps.imag).max())
    checks.append(CheckResult("closed spectrum matches eigensolver", worst, 1e-10))

    flags, kept = [], []
    for params in _random_params(rng, 150):
        report = closed_spectrum(params)
        if abs(report.threshold_margin) < 1e-6 * _tolerance_scale(params) ** 2:
            continue
        flags.append(report.pseudo_hermitian)
        kept.append(params)
    mismatches = np.count_nonzero(diagnose(build_total(kept)).spectrum_real != flags)
    checks.append(CheckResult("regime flag matches diagnosis", float(mismatches), 0.0))

    draws = [
        TwoSpinParams.from_gilbert(fraction * damping_threshold(j, 0.6), 0.6, -0.6, j)
        for j, fraction in rng.uniform((0.6, 0.1), (1.6, 0.9), size=(25, 2)).tolist()
    ]
    counterparts = hermitian_counterpart(draws).matrix
    closed = np.sort(np.linalg.eigvals(build_total(draws)).real)
    partner = np.sort(np.linalg.eigvals(counterparts).real)
    similar = paper_isomorphism(draws).partner
    # np.max propagates a nan gap, where a Python max fold could drop it.
    worst = float(np.max([np.abs(closed - partner).max(), np.abs(similar - counterparts).max()]))
    checks.append(CheckResult("counterpart similarity on dissipative branch", worst, 1e-10))

    params = TwoSpinParams.from_gilbert(1.0, 0.5, -0.5, 1.0)
    rho = paper_isomorphism(params).rho
    hamiltonian = build_total(params)
    psi = _gaussian(rng, 4)
    base = eta_inner(psi, psi, rho).real
    evolved = evolve(hamiltonian, np.linspace(0.0, 100.0, 101), psi)
    worst = float(np.max(np.abs(eta_inner(evolved, evolved, rho).real - base) / base))
    checks.append(CheckResult("deformed norm conserved over [0, 100]", worst, 1e-9))

    b_max = damping_threshold(1.0, 0.5)
    below = closed_spectrum(TwoSpinParams.from_gilbert(b_max * (1 - 1e-6), 0.5, -0.5, 1.0))
    above = closed_spectrum(TwoSpinParams.from_gilbert(b_max * (1 + 1e-6), 0.5, -0.5, 1.0))
    flips = float(not (below.pseudo_hermitian and not above.pseudo_hermitian))
    checks.append(CheckResult("threshold flip brackets B_max", flips, 0.0))

    return GroupResult("twospin", tuple(checks))


GROUPS = {
    "grassmann": check_grassmann,
    "canon": check_canon,
    "clifford": check_clifford,
    "correspondence": check_correspondence,
    "quantize": check_quantize,
    "pseudoherm": check_pseudoherm,
    "twospin": check_twospin,
}


def run_groups(names: list[str] | None = None, seed: int = 0) -> list[GroupResult]:
    """Run the named invariant groups (all of them by default) in order.

    Args:
        names: Group names from :data:`GROUPS`; None runs every group.
        seed: Base seed for all random draws.

    Returns:
        One :class:`GroupResult` per group, in registry order.

    Raises:
        ValueError: If an unknown group name is requested.
    """
    selected = list(GROUPS) if names is None else list(names)
    unknown = [name for name in selected if name not in GROUPS]
    if unknown:
        raise ValueError(f"unknown verification groups: {unknown}")
    return [GROUPS[name](seed=seed) for name in selected]
