"""Acceptance gate: one test and one printed pass/fail line per claim.

Each test re-derives one shipped numerical claim at its stated tolerance
and sample count, independent of the unit suites: Clifford relations, the
quantization anchor, the Dirac bracket table, the bracket correspondence,
canonical-transport invariance, the closed two-spin spectrum, the damping
threshold, the isomorphism and metric anchors, deformed-norm dynamics, the
metric-construction oracle, and CLI determinism.
"""

import itertools

import numpy as np
import pytest
from scipy.linalg import expm

from pseudospin.canon import pushforward_field, random_orthogonal
from pseudospin.cli import main
from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    dirac_bracket,
)
from pseudospin.pseudoherm import diagnose, eta_inner
from pseudospin.quantize import (
    check_relations,
    correspondence_check,
    pauli_realization,
    quantize,
    tensor_realization,
)
from pseudospin.twospin import (
    GilbertParams,
    TwoSpinParams,
    build_total,
    closed_spectrum,
    evolve,
    gilbert_fields,
    hermitian_counterpart,
    paper_isomorphism,
    transition_probability,
)

ALG = AlgebraSpec((3, 3), momenta_attached=True)
XI = [ALG.coordinate(0, i) for i in range(3)]
PI = [ALG.momentum(0, i) for i in range(3)]
CHI = [ALG.coordinate(1, i) for i in range(3)]

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_j, _i, _k] = -1.0


def report(name, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"


def field_element(b, algebra=None, family=0):
    """Classical field Hamiltonian -(i/2) eps_ijk xi_i xi_j b_k."""
    algebra = ALG if algebra is None else algebra
    terms = []
    for i, j in itertools.combinations(range(3), 2):
        coefficient = -1j * complex(LEVI_CIVITA[i, j] @ b)
        terms.append(
            ((algebra.coordinate(family, i), algebra.coordinate(family, j)),
             coefficient),
        )
    return GrassmannElement.from_terms(algebra, terms)


def toy_params(amplitude, alpha, exchange=1.0):
    f3, g3 = gilbert_fields(GilbertParams(amplitude, alpha, -alpha))
    return TwoSpinParams(f3=f3, g3=g3, exchange=exchange)


def test_criterion_01_realization_relations():
    worst = 0.0
    for realization in (pauli_realization(), tensor_realization(AlgebraSpec((3, 3)))):
        worst = max(worst, check_relations(realization).max_violation)
    report(
        "01 anticommutation relations",
        worst < 1e-12,
        f"max violation {worst:.3e} (limit 1e-12)",
    )


def test_criterion_02_field_quantization_anchor():
    rng = np.random.default_rng(2)
    single = AlgebraSpec((3,))
    worst = 0.0
    for _ in range(100):
        b = rng.normal(size=3)
        hbar = float(rng.uniform(0.3, 2.5))
        realization = tensor_realization(single, hbar=hbar)
        matrix = quantize(field_element(b, single), realization)
        expected = (hbar / 2.0) * sum(
            b[k] * np.array(realization.gens[k]) / np.sqrt(hbar / 2.0)
            for k in range(3)
        )
        worst = max(worst, float(np.max(np.abs(matrix - expected))))
    report(
        "02 field Hamiltonian quantizes to (hbar/2) sigma.B",
        worst < 1e-14,
        f"max deviation {worst:.3e} over 100 draws (limit 1e-14)",
    )


def test_criterion_03_dirac_bracket_table():
    def single(gen):
        return GrassmannElement.from_generator(ALG, gen)

    exact = True
    for i, j in itertools.product(range(3), repeat=2):
        delta = 1.0 if i == j else 0.0
        pairs = [
            (XI[i], XI[j], -1j * delta),
            (XI[i], PI[j], 0.5 * delta),
            (PI[i], XI[j], 0.5 * delta),
            (PI[i], PI[j], 0.25j * delta),
        ]
        for left, right, value in pairs:
            got = dirac_bracket(single(left), single(right)).terms
            want = {(): value} if value != 0 else {}
            exact = exact and got == want
        cross = dirac_bracket(single(XI[i]), single(CHI[j])).terms
        exact = exact and cross == {}
    report("03 Dirac bracket table", exact, "all 45 entries symbolically exact")


def test_criterion_04_bracket_correspondence():
    gens = list(ALG.coordinates()) + list(ALG.momenta())
    monomials = [GrassmannElement.unit(ALG)]
    monomials += [GrassmannElement.from_generator(ALG, g) for g in gens]
    monomials += [
        GrassmannElement.from_terms(ALG, [((a, b), 1.0)])
        for a, b in itertools.combinations(gens, 2)
    ]
    worst = 0.0
    for hbar in (0.5, 1.0, 2.0):
        realization = tensor_realization(AlgebraSpec((3, 3)), hbar=hbar)
        for f in monomials:
            for g in monomials:
                check = correspondence_check(f, g, realization)
                assert check.supported
                worst = max(worst, check.residual)
    report(
        "04 bracket correspondence",
        worst < 1e-12,
        f"max residual {worst:.3e} over {3 * len(monomials)**2} pairs (limit 1e-12)",
    )


def test_criterion_05_field_square_invariance():
    rng = np.random.default_rng(5)
    worst = 0.0
    for k in range(1000):
        lam = random_orthogonal(3, seed=50000 + k)
        b = rng.normal(size=3)
        f = pushforward_field(b, lam)
        worst = max(worst, abs(complex(f @ f) - complex(b @ b)))
    report(
        "05 field square invariance",
        worst < 1e-10,
        f"max |F.F - B.B| {worst:.3e} over 1000 transformations (limit 1e-10)",
    )


def test_criterion_06_closed_spectrum_matches_eigensolver():
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(1000):
        params = TwoSpinParams(
            f3=complex(rng.normal(), rng.normal()),
            g3=complex(rng.normal(), rng.normal()),
            exchange=float(rng.normal()),
        )
        closed = sorted(
            closed_spectrum(params).eigenvalues, key=lambda v: (v.real, v.imag)
        )
        numerical = np.linalg.eigvals(build_total(params))
        numerical = numerical[np.lexsort((numerical.imag, numerical.real))]
        worst = max(worst, max(abs(a - b) for a, b in zip(closed, numerical)))
    report(
        "06 closed-form two-spin spectrum",
        worst < 1e-10,
        f"max deviation {worst:.3e} over 1000 draws (limit 1e-10)",
    )


def test_criterion_07_damping_threshold():
    b_max = 2.5
    below = closed_spectrum(toy_params(b_max - 1e-6, 0.5))
    above = closed_spectrum(toy_params(b_max + 1e-6, 0.5))
    flip = below.pseudo_hermitian and not above.pseudo_hermitian

    im_below = float(
        np.max(np.abs(np.linalg.eigvals(build_total(toy_params(b_max - 1e-6, 0.5))).imag))
    )
    im_above = float(
        np.max(np.abs(np.linalg.eigvals(
            build_total(toy_params(b_max * (1 + 1e-3), 0.5))
        ).imag))
    )
    passed = flip and im_below <= 1e-10 and im_above > 1e-6
    report(
        "07 damping threshold at J=1, alpha=0.5",
        passed,
        f"flip brackets 2.5 within 1e-6; Im below {im_below:.3e} <= 1e-10, "
        f"Im above {im_above:.3e} > 1e-6",
    )


def test_criterion_08_isomorphism_and_metric():
    params = toy_params(1.0, 1.0)
    hamiltonian = build_total(params)
    u, rho = paper_isomorphism(params)
    conjugated = np.linalg.solve(u, hamiltonian @ u)
    counterpart = hermitian_counterpart(params).matrix

    hermitian_gap = float(np.max(np.abs(conjugated - conjugated.conj().T)))
    counterpart_gap = float(np.max(np.abs(conjugated - counterpart)))
    positive = rho.min_eigenvalue > 0.0
    intertwine = float(
        np.max(np.abs(rho.matrix @ hamiltonian - hamiltonian.conj().T @ rho.matrix))
    )
    anchor_gap = abs(rho.matrix[1, 1] - 4.0 / 3.0)
    passed = (
        hermitian_gap < 1e-10
        and counterpart_gap < 1e-10
        and positive
        and intertwine < 1e-10
        and anchor_gap < 1e-12
    )
    report(
        "08 isomorphism and metric at J=1, B=1, alpha=1",
        passed,
        f"hermitian {hermitian_gap:.3e}, counterpart {counterpart_gap:.3e}, "
        f"min eig {rho.min_eigenvalue:.3f}, intertwining {intertwine:.3e}, "
        f"anchor {anchor_gap:.3e}",
    )


def test_criterion_09_deformed_norm_dynamics():
    rng = np.random.default_rng(9)
    cases = [toy_params(1.0, 1.0), toy_params(2.0, 0.5), toy_params(1.3, 0.0, 0.7)]
    worst_drift = 0.0
    worst_route = 0.0
    for params in cases:
        scale = 1.0 + abs(params.f3) + abs(params.g3) + 2.0 * abs(params.exchange)
        if abs(params.f_minus.imag) <= 1e-9 * scale:
            rho = None
        else:
            rho = paper_isomorphism(params).rho
        hamiltonian = build_total(params)
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        if rho is None:
            base = float(np.vdot(psi, psi).real)
        else:
            base = eta_inner(psi, psi, rho).real
        for t in np.linspace(0.0, 100.0, 1001):
            evolved = evolve(hamiltonian, float(t), psi)
            if rho is None:
                value = float(np.vdot(evolved, evolved).real)
            else:
                value = eta_inner(evolved, evolved, rho).real
            worst_drift = max(worst_drift, abs(value - base) / base)
        for _ in range(25):
            xi = rng.normal(size=4) + 1j * rng.normal(size=4)
            zeta = rng.normal(size=4) + 1j * rng.normal(size=4)
            result = transition_probability(xi, zeta, params, float(rng.uniform(0, 20)))
            worst_route = max(worst_route, result.route_gap)
    passed = worst_drift < 1e-9 and worst_route < 1e-9
    report(
        "09 deformed-norm conservation and route agreement",
        passed,
        f"drift {worst_drift:.3e} over 3x1001 samples, route gap {worst_route:.3e} "
        "(limits 1e-9)",
    )


def test_criterion_10_metric_construction_oracle():
    rng = np.random.default_rng(10)

    def planted(spectrum):
        r = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        r *= min(1.0, 1.2 / np.linalg.norm(r, 2))
        t = expm(r)
        return t @ np.diag(spectrum) @ np.linalg.inv(t)

    worst = 0.0
    missing = 0
    for _ in range(1000):
        values = 0.3 + 0.5 * np.arange(4) + rng.uniform(-0.1, 0.1, size=4)
        a = planted(values.astype(complex))
        result = diagnose(a)
        if result.metric is None:
            missing += 1
            continue
        worst = max(
            worst,
            float(np.max(np.abs(
                result.metric.matrix @ a - a.conj().T @ result.metric.matrix
            ))),
        )
    spurious = 0
    for _ in range(1000):
        w, v = rng.uniform(0.4, 1.5), rng.uniform(0.4, 1.5)
        spectrum = np.array([1j * w, -1j * w, 0.5 + 1j * v, 0.5 - 1j * v])
        if diagnose(planted(spectrum)).metric is not None:
            spurious += 1
    passed = missing == 0 and worst < 1e-9 and spurious == 0
    report(
        "10 metric construction oracle",
        passed,
        f"real plants: {1000 - missing}/1000 metrics, residual {worst:.3e} "
        f"(limit 1e-9); complex plants: {spurious}/1000 spurious metrics",
    )


def test_criterion_11_sweep_determinism(tmp_path):
    args = [
        "regime-sweep", "--J", "1", "--alpha1", "0.5", "--alpha2", "-0.5",
        "--b-start", "0.5", "--b-end", "4.0", "--b-steps", "36",
    ]
    first, second = tmp_path / "first.csv", tmp_path / "second.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report(
        "11 sweep determinism",
        identical,
        f"two runs, {len(first.read_bytes())} bytes, byte-identical: {identical}",
    )
