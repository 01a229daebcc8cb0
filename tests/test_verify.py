"""Tests for the random draws behind the ``verify`` groups.

The groups draw their Grassmann elements as arrays and then build them
through ``GrassmannElement.from_terms``; these tests record the terms handed
to ``from_terms`` so the raw draws are checked before equal words merge.
The complex orthogonal draws are recorded at ``random_orthogonal``.  The
last tests check that the groups' cached realizations equal fresh builds and
cannot be written to, that the correspondence group's violation is the
largest ``correspondence_check`` over all ordered pairs of its basis, computed
once per process whatever the seed, that every result is the same whether a
group runs cold or after other seeds, that the ``pseudoherm`` group
checks its metrics one stack at a time, and that the ``twospin`` group's
stacked similarity check measures what one call per draw measures.
"""

from itertools import combinations

import numpy as np
import pytest

from pseudospin import verify
from pseudospin.grassmann import AlgebraSpec, GrassmannElement
from pseudospin.quantize import correspondence_check, tensor_realization
from pseudospin.twospin import (
    TwoSpinParams,
    build_total,
    damping_threshold,
    hermitian_counterpart,
    paper_isomorphism,
)

ALGEBRAS = {
    "(3,)": AlgebraSpec((3,)),
    "(3, 3)": AlgebraSpec((3, 3)),
    "(3, 3) with momenta": AlgebraSpec((3, 3), momenta_attached=True),
}


def generators(algebra):
    return list(algebra.coordinates()) + list(algebra.momenta())


@pytest.fixture
def recorded(monkeypatch):
    """Every term list passed to ``GrassmannElement.from_terms``."""
    calls = []
    build = GrassmannElement.from_terms

    def record(algebra, terms):
        calls.append(list(terms))
        return build(algebra, calls[-1])

    monkeypatch.setattr(GrassmannElement, "from_terms", staticmethod(record))
    return calls


@pytest.mark.parametrize(
    "name, max_degree",
    [(name, d) for name, a in ALGEBRAS.items() for d in range(len(generators(a)) + 1)],
)
@pytest.mark.parametrize("seed", [0, 1, 98765])
def test_random_elements_draw_law(recorded, name, max_degree, seed):
    algebra = ALGEBRAS[name]
    gens = generators(algebra)
    count, max_terms = 300, 4
    rng = np.random.default_rng(seed)
    elements = verify._random_elements(rng, algebra, count, max_terms, max_degree)
    assert len(elements) == count == len(recorded)
    assert all(e.algebra == algebra for e in elements)
    assert {len(terms) for terms in recorded} == set(range(1, max_terms + 1))
    degrees, drawn = set(), set()
    for terms in recorded:
        for word, coefficient in terms:
            assert len(set(word)) == len(word) <= max_degree
            assert set(word) <= set(gens)
            assert isinstance(coefficient, complex)
            for part in (coefficient.real, coefficient.imag):
                assert part == int(part) and -3 <= part <= 3
            degrees.add(len(word))
            drawn.update(word)
    assert degrees == set(range(max_degree + 1))
    if max_degree:
        assert drawn == set(gens)


@pytest.mark.parametrize("name", list(ALGEBRAS))
def test_random_elements_reject_degree_above_generator_count(name):
    algebra = ALGEBRAS[name]
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="max_degree"):
        verify._random_elements(rng, algebra, 5, max_degree=len(generators(algebra)) + 1)


@pytest.mark.parametrize("seed", [0, 1, 98765])
def test_random_family_homogeneous_draw_law(recorded, seed):
    algebra = ALGEBRAS["(3, 3) with momenta"]
    rng = np.random.default_rng(seed)
    parities = rng.integers(0, 2, size=(200, 2))
    elements = verify._random_family_homogeneous(rng, algebra, parities)
    assert len(elements) == len(parities) == len(recorded)
    assert {len(terms) for terms in recorded} == {1, 2}
    sizes = set()
    for row, terms in zip(parities.tolist(), recorded):
        for word, coefficient in terms:
            assert len(set(word)) == len(word)
            per_family = [sum(g.family == f for g in word) for f in range(2)]
            assert [n % 2 for n in per_family] == row
            sizes.update(per_family)
            for part in (coefficient.real, coefficient.imag):
                assert part == int(part) and -3 <= part <= 3
    assert sizes == {0, 1, 2, 3}


def test_orthogonal_draws_never_repeat_within_or_across_seeds(monkeypatch):
    # Each group draws its orthogonal matrices from its own generator, so no
    # matrix may recur in a seed's groups nor in a neighbouring seed's.
    draws = []
    sample = verify.random_orthogonal

    def record(*args):
        lams = sample(*args)
        draws.extend(entry.tobytes() for entry in lams.entries)
        return lams

    monkeypatch.setattr(verify, "random_orthogonal", record)
    for seed in range(4):
        results = verify.run_groups(["grassmann", "quantize", "canon"], seed=seed)
        assert all(result.passed for result in results)
    assert len(draws) == 4 * (100 + 30 + 50 + 200 + 30 + 30)
    distinct = len(set(draws))
    assert distinct == len(draws)


# Every (structure, hbar) pair a group realizes.
REALIZATION_KEYS = [
    (sizes, hbar) for sizes in ((3,), (3, 3), (5,), (2, 4)) for hbar in (0.5, 1.0, 2.0)
]


def clear_caches():
    verify._realization.cache_clear()
    verify._correspondence_residuals.cache_clear()
    verify._relations_residual.cache_clear()
    verify._dirac_jacobi.cache_clear()


def test_cached_realizations_match_fresh_builds():
    clear_caches()
    for sizes, hbar in REALIZATION_KEYS:
        cached = verify._realization(sizes, hbar)
        assert verify._realization(sizes, hbar) is cached
        fresh = tensor_realization(AlgebraSpec(sizes), hbar=hbar)
        assert (cached.algebra, cached.hbar, cached.dim) == (
            fresh.algebra, fresh.hbar, fresh.dim
        )
        assert cached.gens.tobytes() == fresh.gens.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cached.gens[0, 0, 0] = 1.0
    assert verify._realization.cache_info().currsize == len(REALIZATION_KEYS)


@pytest.fixture(scope="module")
def all_pair_residuals():
    """correspondence_check over all 79^2 ordered pairs of the unit, generators
    and generator pairs of (3, 3) with momenta, at each hbar (about 0.5 s)."""
    algebra = AlgebraSpec((3, 3), momenta_attached=True)
    gens = generators(algebra)
    words = [()] + [(g,) for g in gens] + list(combinations(gens, 2))
    basis = [GrassmannElement.from_terms(algebra, [(w, 1.0)]) for w in words]
    return {
        hbar: [[correspondence_check(f, g, realization) for g in basis] for f in basis]
        for hbar in (0.5, 1.0, 2.0)
        for realization in [tensor_realization(AlgebraSpec((3, 3)), hbar=hbar)]
    }


@pytest.mark.parametrize("seed", [0, 98765])
def test_correspondence_violation_is_the_largest_single_pair_check(seed, all_pair_residuals):
    # The group visits unordered pairs only: graded antisymmetry must give a
    # pair and its reverse the same residual, bit for bit.
    result = verify.check_correspondence(seed)
    for (hbar, table), check in zip(all_pair_residuals.items(), result.checks, strict=True):
        assert check.label == f"bracket correspondence at hbar={hbar}"
        assert [[r.hex() for r in row] for row in table] == [
            [r.hex() for r in column] for column in zip(*table)
        ]
        assert check.violation.hex() == max(map(max, table)).hex()


def fingerprint(result):
    """A group result's labels, limits and violations, bit for bit."""
    return result.name, [
        (c.label, c.violation.hex(), c.limit.hex()) for c in result.checks
    ]


def test_correspondence_group_is_computed_once_for_every_seed():
    verify._correspondence_residuals.cache_clear()
    results = [fingerprint(verify.check_correspondence(seed)) for seed in (0, 1, 98765)]
    assert results[0] == results[1] == results[2]
    info = verify._correspondence_residuals.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("seed", [0, 98765])
def test_groups_do_not_depend_on_cache_state(seed):
    cold = []
    for name in verify.GROUPS:
        clear_caches()
        cold.append(fingerprint(verify.run_groups([name], seed=seed)[0]))
    verify.run_groups(seed=seed + 1)
    warm = [fingerprint(result) for result in verify.run_groups(seed=seed)]
    assert warm == cold


def test_pseudoherm_checks_each_metric_stack_once(monkeypatch):
    # One eigvalsh per stack of metrics, not one per metric: each of the
    # four planted-real and two complex-plant dimensions is one diagnose
    # call, then the adjoint draws and the isometry's eta and pull-back.
    shapes = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    assert verify.check_pseudoherm(seed=0).passed
    assert len(shapes) <= 9, shapes


def similarity_violation_per_draw(seed):
    """The twospin group's "counterpart similarity on dissipative branch"
    check with one call per draw, after the group's first two draws."""
    rng = np.random.default_rng(seed)
    verify._random_params(rng, 200)
    verify._random_params(rng, 150)
    worst = 0.0
    for exchange, fraction in rng.uniform((0.6, 0.1), (1.6, 0.9), size=(25, 2)).tolist():
        b_max = damping_threshold(exchange, 0.6)
        params = TwoSpinParams.from_gilbert(fraction * b_max, 0.6, -0.6, exchange)
        counterpart = hermitian_counterpart(params)
        closed = np.sort(np.linalg.eigvals(build_total(params)).real)
        partner = np.sort(np.linalg.eigvals(counterpart.matrix).real)
        worst = max(worst, float(np.max(np.abs(closed - partner))))
        similar = paper_isomorphism(params).partner
        worst = max(worst, float(np.max(np.abs(similar - counterpart.matrix))))
    return worst


def test_stacked_similarity_check_matches_one_call_per_draw():
    for seed in range(60):
        checks = {check.label: check for check in verify.check_twospin(seed).checks}
        stacked = checks["counterpart similarity on dissipative branch"].violation
        assert stacked.hex() == similarity_violation_per_draw(seed).hex(), seed
