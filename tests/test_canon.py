"""Tests for complex orthogonal transformations and transport maps."""

import math

import grassmann_oracle as oracle
import numpy as np
import pytest

from pseudospin.canon import (
    ComplexOrthogonal,
    _random_orthogonals,
    pushforward_field,
    random_orthogonal,
    transform_coefficients,
)
from pseudospin.grassmann import (
    AlgebraSpec,
    GrassmannElement,
    multiply,
    plus_involution,
    star_involution,
)

ALG3 = AlgebraSpec((3,))
Z = [ALG3.coordinate(0, i) for i in range(3)]

LEVI_CIVITA = np.zeros((3, 3, 3))
for _i, _j, _k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    LEVI_CIVITA[_i, _j, _k] = 1.0
    LEVI_CIVITA[_j, _i, _k] = -1.0


def spin_hamiltonian(field):
    """Quadratic element -(i/2) eps_ijk xi_i xi_j field_k."""
    ham = GrassmannElement.zero(ALG3)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                if LEVI_CIVITA[i, j, k]:
                    term = multiply(
                        GrassmannElement.from_generator(ALG3, Z[i]),
                        GrassmannElement.from_generator(ALG3, Z[j]),
                    )
                    ham = ham + (-0.5j * LEVI_CIVITA[i, j, k] * field[k]) * term
    return ham


def random_element(rng, max_terms=3, algebra=ALG3, max_degree=3):
    coords = list(algebra.coordinates())
    terms = []
    for _ in range(rng.integers(1, max_terms + 1)):
        degree = int(rng.integers(0, max_degree + 1))
        idx = tuple(sorted(rng.permutation(len(coords))[:degree]))
        coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append((tuple(coords[i] for i in idx), coeff))
    return GrassmannElement.from_terms(algebra, terms)


def substitute(f, lam):
    """Oracle: literal substitution xi_i -> sum_k Lambda_ki zeta_k, with i and
    k merged family-major coordinate indices, multiplied out term by term."""
    coords = list(f.algebra.coordinates())
    images = [
        GrassmannElement.from_terms(
            f.algebra, [((z,), lam.entries[k, i]) for k, z in enumerate(coords)]
        )
        for i in range(len(coords))
    ]
    out = GrassmannElement.zero(f.algebra)
    for mono, coeff in f.terms.items():
        acc = GrassmannElement.from_terms(f.algebra, [((), coeff)])
        for gen in mono:
            acc = multiply(acc, images[coords.index(gen)])
        out = out + acc
    return out


def block_orthogonal(sizes, seed):
    """Block-diagonal Lambda of per-family draws, family f seeded ``seed + 100 f``;
    on one family it is ``random_orthogonal(n, seed)`` itself."""
    entries = np.zeros((sum(sizes), sum(sizes)), dtype=complex)
    start = 0
    for fam, size in enumerate(sizes):
        block = random_orthogonal(size, seed=seed + 100 * fam).entries
        entries[start : start + size, start : start + size] = block
        start += size
    return ComplexOrthogonal(entries)


def relative_gap(got, expect):
    """Max coefficient difference over the largest coefficient of ``expect``."""
    keys = set(got.by_mask) | set(expect.by_mask)
    gap = max((abs(got.by_mask.get(k, 0) - expect.by_mask.get(k, 0)) for k in keys), default=0.0)
    return gap / max((abs(c) for c in expect.by_mask.values()), default=1.0)


MULTI_FAMILY = [(2, 4), (1, 2, 3), (3, 3)]


# ---------------------------------------------------------------------------
# validation and sampling


def test_complex_orthogonal_accepts_rotation_and_reflection():
    theta = 0.3
    rot = np.array(
        [
            [np.cos(theta), -np.sin(theta), 0.0],
            [np.sin(theta), np.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    assert ComplexOrthogonal(rot).det == 1.0
    assert ComplexOrthogonal(np.diag([-1.0, 1.0, 1.0])).det == -1.0
    stack = ComplexOrthogonal(np.array([rot, np.diag([-1.0, 1.0, 1.0])]))
    assert stack.det.tolist() == [1.0, -1.0] and not stack.det.flags.writeable


def test_complex_orthogonal_rejects_bad_input():
    for shape in ((2, 3), (3,), (2, 2, 3), (1, 1, 3, 3)):
        with pytest.raises(ValueError, match="^expected a square matrix or a stack of them$"):
            ComplexOrthogonal(np.ones(shape))
    with pytest.raises(ValueError):
        ComplexOrthogonal(np.eye(3) * 1.001)
    with pytest.raises(TypeError, match="det"):
        ComplexOrthogonal(np.eye(3), det=-1.0)


def test_complex_orthogonal_copies_its_input():
    # The caller's array stays writable, and a later write does not reach the
    # validated copy, single or stacked.
    for matrix in (np.eye(3), np.array([np.eye(3), np.diag([-1.0, 1.0, 1.0])])):
        lam = ComplexOrthogonal(matrix)
        matrix[..., 0, 1] = 5.0
        assert matrix.flags.writeable and not lam.entries.flags.writeable
        assert np.all(lam.entries[..., 0, 1] == 0.0)
        with pytest.raises(ValueError, match="read-only"):
            lam.entries[..., 0, 0] = 2.0


def test_random_orthogonal_is_seeded_and_orthogonal():
    a = random_orthogonal(3, seed=7)
    b = random_orthogonal(3, seed=7)
    c = random_orthogonal(3, seed=8)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert np.max(np.abs(a.entries @ a.entries.T - np.eye(3))) < 1e-12
    # Every dimension the package uses: the generator cap tanh(3/4) keeps the
    # Cayley transform within the 2-norm e^1.5 and orthogonal to rounding.
    for n in range(1, 7):
        for seed in range(50):
            lam = random_orthogonal(n, seed=seed).entries
            assert np.array_equal(lam, random_orthogonal(n, seed=seed).entries)
            assert np.max(np.abs(lam @ lam.T - np.eye(n))) <= 1e-13
            assert np.linalg.norm(lam, 2) <= np.exp(1.5) * (1.0 + 1e-12)


def cayley_reference(real, imag, reflect):
    """One matrix of ``_random_orthogonals``, built on its own from its draws."""
    n = len(real)
    gen = 0.5 * (real - real.T) + 0.5j * (imag - imag.T)
    norm = np.linalg.norm(gen, 2)
    if norm > math.tanh(0.75):
        gen *= math.tanh(0.75) / norm
    lam = np.linalg.solve(np.eye(n) - gen, np.eye(n) + gen)
    if reflect:
        lam[0, :] *= -1.0
    return lam, norm <= math.tanh(0.75)


def test_batched_orthogonal_draws_equal_single_draws_bit_for_bit():
    # One call takes all its normals, then all its reflection draws, from the
    # caller's generator; each matrix equals its own Cayley transform.
    for n in range(1, 6):
        for seed in (0, 1, 98765):
            batch = _random_orthogonals(np.random.default_rng(seed), n, 60)
            rng = np.random.default_rng(seed)
            normals = rng.standard_normal((60, 2, n, n))
            reflections = rng.random(60) < 0.5
            under_cap = 0
            assert batch.entries.shape == (60, n, n) and not batch.entries.flags.writeable
            assert batch.det.tolist() == np.where(reflections, -1.0, 1.0).tolist()
            for lam, (real, imag), reflect in zip(batch.entries, normals, reflections):
                single, capped = cayley_reference(real, imag, reflect)
                assert lam.tobytes() == single.tobytes()
                under_cap += capped
            assert 0 < reflections.sum() < 60
            if n <= 2:
                assert under_cap > 0


def test_random_orthogonal_keeps_its_per_seed_bits():
    # random_orthogonal(n, seed) is a batch of one: the normals of shape
    # (2, n, n), then one reflection draw, from default_rng(seed).
    for n in range(1, 6):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            real, imag = rng.standard_normal((2, n, n))
            expect, _ = cayley_reference(real, imag, rng.random() < 0.5)
            assert random_orthogonal(n, seed=seed).entries.tobytes() == expect.tobytes()


def test_random_orthogonal_samples_both_determinants():
    dets = {random_orthogonal(3, seed=s).det for s in range(20)}
    assert dets == {1.0, -1.0}


# ---------------------------------------------------------------------------
# field pushforward


def boost(theta):
    """The complex boost, orthogonal for every theta with ||.||_2^2 = e^(2 theta)."""
    c, s = math.cosh(theta), math.sinh(theta)
    return np.array([[c, -1j * s, 0.0], [1j * s, c, 0.0], [0.0, 0.0, 1.0]])


def test_pushforward_complex_boost_anchor():
    lam = ComplexOrthogonal(boost(1.0))
    field = pushforward_field(np.array([1.0, 0.0, 0.0]), lam)
    expect = np.array([np.cosh(1.0), 1j * np.sinh(1.0), 0.0])
    assert np.max(np.abs(field - expect)) < 1e-14


@pytest.mark.parametrize("theta", [7.0, 8.0, 10.0])
def test_large_boosts_are_judged_by_their_own_scale(theta):
    # Rounding in Lambda Lambda^T and det grows with ||Lambda||^2 and F . F's
    # with |F|^2; absolute gates refused theta = 8 and 22 of these fields at 7.
    # The gates resolve up to s = e^(2 theta) = 1 / (3 ORTHO_TOL), theta ~ 10.98.
    reflected = boost(theta) * [[-1.0], [1.0], [1.0]]
    assert ComplexOrthogonal(np.array([boost(theta), reflected])).det.tolist() == [1.0, -1.0]
    lam = ComplexOrthogonal(np.broadcast_to(boost(theta), (100, 3, 3)))
    fields = np.random.default_rng(0).normal(size=(100, 3))
    moved = pushforward_field(fields, lam)
    gap = np.abs(moved - fields @ boost(theta).T).max()
    assert gap <= 1e-15 * np.abs(boost(theta)).max() * np.abs(fields).max()


def test_gates_still_refuse_what_is_not_orthogonal():
    with pytest.raises(ValueError, match=r"^orthogonality residual 1\.000e-06 exceeds 1\.0e-10$"):
        ComplexOrthogonal(np.eye(3) + 1e-6 * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]))
    with pytest.raises(ValueError, match="residual .* at stack entry 1"):
        ComplexOrthogonal(np.array([boost(1.0), boost(1.0) * (1.0 + 1e-6)]))
    with pytest.raises(ValueError, match=r"^orthogonality residual 3\.000e\+00 exceeds 1\.9e-01$"):
        ComplexOrthogonal(2.0 * boost(10.0))
    # Past the bound a residual within ORTHO_TOL * s could hide Lambda Lambda^T = 0 or 4 I.
    rank_one = np.zeros((3, 3), dtype=complex)
    rank_one[0, :2] = 1e5, 1e5j  # Lambda Lambda^T = 0
    for far in (boost(11.0), rank_one, 2.0 * boost(12.0)):
        with pytest.raises(ValueError, match=r"^condition bound .* exceeds 3\.3e\+09$"):
            ComplexOrthogonal(far)
    with pytest.raises(ValueError, match="^matrix norm overflows$"):
        ComplexOrthogonal(1e200 * np.eye(3))
    with pytest.raises(ValueError, match="^matrix is not finite at stack entry 1$"):
        ComplexOrthogonal(np.array([boost(10.0), np.diag([np.inf, 1.0, 1.0])]))
    # A matrix that skipped validation: F . F drifts by 2e-6 |F|^2.
    forged = object.__new__(ComplexOrthogonal)
    vars(forged).update(entries=np.diag([1.0, 1.0, 1.0 + 1e-6]), det=1.0)
    with pytest.raises(RuntimeError, match="bilinear invariant drifted"):
        pushforward_field(np.array([0.0, 0.0, 1.0]), forged)


@pytest.mark.parametrize(
    "matrix, message",
    [
        (
            np.eye(3) + 1e-6 * np.eye(3)[::-1],
            r"orthogonality residual 2\.000e-06 exceeds 1\.0e-10",
        ),
        (boost(11.0), r"condition bound .* exceeds 3\.3e\+09"),
        (1e200 * np.eye(3), "matrix norm overflows"),
        (np.diag([np.nan, 1.0, 1.0]), "matrix is not finite"),
    ],
    ids=["residual", "condition bound", "overflow", "non-finite"],
)
def test_each_refusal_is_made_single_and_stacked(matrix, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ComplexOrthogonal(matrix)
    with pytest.raises(ValueError, match=f"^{message} at stack entry 2$"):
        ComplexOrthogonal(np.array([np.eye(3), boost(1.0), matrix, 2.0 * matrix]))


def test_pushforward_preserves_bilinear_square():
    rng = np.random.default_rng(3)
    for trial in range(100):
        lam = random_orthogonal(3, seed=300 + trial)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        f = pushforward_field(b, lam)
        assert abs(f @ f - b @ b) < 1e-12 * (1.0 + abs(b @ b))


def test_pushforward_transports_null_fields_at_every_scale():
    # b . b = 0 on c (1, i, 0); the drift is bounded relative to |F|^2.
    for seed in range(50):
        lam = random_orthogonal(3, seed=seed)
        for c in (1e-12, 1e-6, 1.0, 1e3, 1e6, 1e12):
            b = c * np.array([1.0, 1j, 0.0])
            f = pushforward_field(b, lam)
            assert np.array_equal(f, lam.det * lam.entries @ b)


def test_pushforward_shape_check():
    lam = random_orthogonal(3, seed=1)
    with pytest.raises(ValueError):
        pushforward_field(np.ones(4), lam)


# ---------------------------------------------------------------------------
# coefficient transport


def test_transform_matches_substitution_oracle():
    rng = np.random.default_rng(12)
    for trial in range(50):
        lam = random_orthogonal(3, seed=500 + trial)
        f = random_element(rng)
        assert oracle.close_within(transform_coefficients(f, lam), substitute(f, lam), 1e-10)


@pytest.mark.parametrize(
    "alg",
    [
        pytest.param(AlgebraSpec((n,), momenta_attached=momenta), id=f"{n}-{momenta}")
        for n, momenta in [(1, False), (2, True), (3, False), (4, True), (6, False)]
    ]
    + [
        pytest.param(alg, id=alg_id)
        for alg, alg_id in zip(oracle.ALGEBRAS, oracle.ALGEBRA_IDS)
        if len(alg.family_sizes) > 1
    ],
)
def test_transform_matches_tuple_reference_exactly(alg):
    # Batched det calls give the bits of one det call per minor, and each
    # coefficient takes its per-family minors as factors in family order.
    n = alg.total_coordinates
    rng = np.random.default_rng(16 + n)
    coords = list(alg.coordinates())
    for trial in range(40):
        lam = block_orthogonal(alg.family_sizes, 3000 + trial)
        terms = []
        for _ in range(int(rng.integers(1, 6))):
            picks = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
            terms.append(([coords[int(k)] for k in picks], complex(*rng.normal(size=2))))
        f = GrassmannElement.from_terms(alg, terms)
        ref = oracle.from_terms(alg, terms)
        expect = oracle.transform_coefficients(alg, ref, lam.entries)
        assert oracle.exact(transform_coefficients(f, lam).terms) == oracle.exact(expect)


@pytest.mark.parametrize("sizes", MULTI_FAMILY, ids=str)
def test_multi_family_transform_matches_substitution_oracle(sizes):
    alg = AlgebraSpec(sizes)
    rng = np.random.default_rng(17)
    dets = set()
    for trial in range(40):
        lam = block_orthogonal(sizes, 4000 + trial)
        dets.add(lam.det)
        f = random_element(rng, max_terms=4, algebra=alg, max_degree=sum(sizes))
        assert relative_gap(transform_coefficients(f, lam), substitute(f, lam)) <= 1e-13
    assert dets == {1.0, -1.0}


@pytest.mark.parametrize("sizes", MULTI_FAMILY, ids=str)
def test_multi_family_reality_transport_star_to_plus(sizes):
    # Family by family, rho = Lambda Lambda^dagger is block-diagonal too.
    alg = AlgebraSpec(sizes)
    rng = np.random.default_rng(18)
    for trial in range(20):
        lam = block_orthogonal(sizes, 5000 + trial)
        rho = lam.entries @ lam.entries.conj().T
        g = random_element(rng, max_terms=4, algebra=alg, max_degree=4)
        moved = transform_coefficients(g + star_involution(g), lam)
        assert relative_gap(plus_involution(moved, rho), moved) <= 1e-12


def test_cross_family_changes_of_generators_are_refused():
    # A generator sent into another family would no longer commute with that
    # family's generators, so the substitution would break the algebra.  An
    # orthogonal Lambda cannot mix families through one entry alone, so this
    # one rotates xi3 into chi1; rho holds a single cross-family entry.
    alg = AlgebraSpec((3, 3))
    f = GrassmannElement.from_terms(alg, [((alg.coordinate(0, 2), alg.coordinate(1, 0)), 1.0)])
    theta = 0.4
    mixing = np.eye(6, dtype=complex)
    mixing[2:4, 2:4] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    with pytest.raises(ValueError, match="block-diagonal"):
        transform_coefficients(f, ComplexOrthogonal(mixing))
    rho = np.eye(6, dtype=complex)
    rho[0, 5] = 0.5
    with pytest.raises(ValueError, match="block-diagonal"):
        plus_involution(f, rho)


def test_transform_is_group_action():
    rng = np.random.default_rng(13)
    f = random_element(rng)
    first = random_orthogonal(3, seed=61)
    second = random_orthogonal(3, seed=62)
    composed = ComplexOrthogonal(second.entries @ first.entries)
    step_wise = transform_coefficients(transform_coefficients(f, first), second)
    assert oracle.close_within(step_wise, transform_coefficients(f, composed), 1e-10)


def test_spin_hamiltonian_covariance_both_determinant_signs():
    # The det(Lambda) weight in the pushforward is exactly what keeps the
    # quadratic spin element covariant, including under reflections.
    rng = np.random.default_rng(14)
    seen = set()
    for trial in range(12):
        lam = random_orthogonal(3, seed=700 + trial)
        seen.add(lam.det)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        transported = transform_coefficients(spin_hamiltonian(b), lam)
        rebuilt = spin_hamiltonian(pushforward_field(b, lam))
        assert oracle.close_within(transported, rebuilt, 1e-10)
    assert seen == {1.0, -1.0}


def test_reality_transport_star_to_plus():
    # Star-real inputs stay real for the transported involution built from
    # rho = Lambda Lambda^dagger.
    rng = np.random.default_rng(15)
    for trial in range(100):
        lam = random_orthogonal(3, seed=1000 + trial)
        rho = lam.entries @ lam.entries.conj().T
        g = random_element(rng)
        f = g + star_involution(g)
        assert oracle.close_within(star_involution(f), f, 1e-12)
        moved = transform_coefficients(f, lam)
        assert oracle.close_within(plus_involution(moved, rho), moved, 1e-9)


def test_transform_rejects_unsupported_inputs():
    # Multi-family algebras are supported, but (3, 3) has six coordinates, so
    # a 3 x 3 Lambda is refused for its dimension.
    lam = random_orthogonal(3, seed=2)
    multi = AlgebraSpec((3, 3))
    with pytest.raises(ValueError, match=r"\(6, 6\)"):
        transform_coefficients(GrassmannElement.unit(multi), lam)
    with_momenta = AlgebraSpec((3,), momenta_attached=True)
    f = GrassmannElement.from_generator(with_momenta, with_momenta.momentum(0, 0))
    with pytest.raises(ValueError):
        transform_coefficients(f, lam)
    small = random_orthogonal(2, seed=3)
    with pytest.raises(ValueError):
        transform_coefficients(GrassmannElement.unit(ALG3), small)


# ---------------------------------------------------------------------------
# two-family exchange transport


def test_exchange_transport_agrees_with_merged_family_embedding():
    # Embed (xi, chi) into one family of six: the exchange block of the
    # antisymmetric quadratic form transports to R J S^T via the same minors
    # rule that moves every coefficient table.
    alg6 = AlgebraSpec((6,))
    gens = [alg6.coordinate(0, i) for i in range(6)]
    rng = np.random.default_rng(32)
    r = random_orthogonal(3, seed=51)
    s = random_orthogonal(3, seed=52)
    exchange = rng.standard_normal((3, 3))
    element = GrassmannElement.from_terms(
        alg6,
        [
            ((gens[i], gens[j + 3]), exchange[i, j])
            for i in range(3)
            for j in range(3)
        ],
    )
    lam6 = ComplexOrthogonal(
        np.block(
            [[r.entries, np.zeros((3, 3))], [np.zeros((3, 3)), s.entries]]
        )
    )
    transported = transform_coefficients(element, lam6)
    j_prime = r.entries @ exchange @ s.entries.T
    expect = GrassmannElement.from_terms(
        alg6,
        [
            ((gens[i], gens[j + 3]), j_prime[i, j])
            for i in range(3)
            for j in range(3)
        ],
    )
    assert oracle.close_within(transported, expect, 1e-10)


# ---------------------------------------------------------------------------
# stacked transport: each entry keeps the bits of its own call

STACK_STRUCTURES = [(3,), (3, 3), (2, 4), (1, 2, 3)]


def hex_table(element):
    """Coefficients as (mask, real hex, imag hex), in ``by_mask`` order."""
    return [(m, c.real.hex(), c.imag.hex()) for m, c in element.by_mask.items()]


def stack_draws(sizes, seed, count=12):
    """Elements of mixed degree, the zero element and the unit first, each
    with a block-diagonal orthogonal matrix; entries 1 and 3 are identities."""
    alg = AlgebraSpec(sizes)
    n = alg.total_coordinates
    rng = np.random.default_rng(seed)
    elements = [GrassmannElement.zero(alg), GrassmannElement.unit(alg)]
    elements += [random_element(rng, 5, alg, n) for _ in range(count - 2)]
    entries = [block_orthogonal(sizes, seed + t).entries for t in range(count)]
    entries[1] = entries[3] = np.eye(n)
    return elements, ComplexOrthogonal(np.array(entries))


@pytest.mark.parametrize("seed", [9000, 9100, 9200])
@pytest.mark.parametrize("sizes", STACK_STRUCTURES, ids=str)
def test_stacked_transports_match_single_calls_bit_for_bit(sizes, seed):
    elements, lams = stack_draws(sizes, seed)
    rhos = lams.entries @ lams.entries.conj().mT
    stacked = transform_coefficients(elements, lams)
    singles = map(ComplexOrthogonal, lams.entries)
    single = [transform_coefficients(f, lam) for f, lam in zip(elements, singles)]
    assert list(map(hex_table, stacked)) == list(map(hex_table, single))
    stacked = plus_involution(elements, rhos)
    single = [plus_involution(f, rho) for f, rho in zip(elements, rhos)]
    assert list(map(hex_table, stacked)) == list(map(hex_table, single))
    assert stacked[0].by_mask == {} and stacked[1].by_mask == {0: 1.0}


def test_stacked_pushforward_and_validation_match_single_calls_bit_for_bit():
    lams = _random_orthogonals(np.random.default_rng(5), 3, 40)
    rng = np.random.default_rng(6)
    fields = rng.normal(size=(40, 3)) + 1j * rng.normal(size=(40, 3))
    fields[0], fields[1] = 0.0, [1.0, 1j, 0.0]  # the zero field and a null field
    singles = [ComplexOrthogonal(m) for m in lams.entries]
    stacked = pushforward_field(fields, lams)
    single = np.array([pushforward_field(b, lam) for b, lam in zip(fields, singles)])
    assert np.array_equal(stacked.view(np.uint64), single.view(np.uint64))
    assert lams.det.tolist() == [lam.det for lam in singles]


def test_empty_stacks_transport_to_empty_stacks():
    empty = ComplexOrthogonal(np.zeros((0, 3, 3)))
    assert (empty.entries.shape, empty.det.shape) == ((0, 3, 3), (0,))
    assert transform_coefficients([], empty) == []
    assert plus_involution([], np.zeros((0, 6, 6))) == []
    assert pushforward_field(np.zeros((0, 3)), empty).shape == (0, 3)
    # An empty sequence takes only an empty stack, as an empty field array does.
    five = ComplexOrthogonal(np.stack([np.eye(3)] * 5))
    with pytest.raises(ValueError, match=r"need 0 matrices, got shape \(5, 3, 3\)"):
        transform_coefficients([], five)
    with pytest.raises(ValueError):
        plus_involution([], "junk")
    with pytest.raises(ValueError, match=r"of its size; got \(0, 3\)"):
        pushforward_field(np.zeros((0, 3)), five)


def test_stacked_transports_refuse_an_entry_by_name():
    elements, lams = stack_draws((3, 3), 77, count=5)
    rhos = lams.entries
    crossed = rhos.copy()
    crossed[3, 0, 5] = 0.5
    with pytest.raises(ValueError, match="not block-diagonal over the families at stack entry 3"):
        plus_involution(elements, crossed)
    poisoned = rhos.copy()
    poisoned[2, 1, 1] = np.inf
    poisoned[3, 0, 5] = 0.5
    with pytest.raises(ValueError, match="matrix is not finite at stack entry 2"):
        plus_involution(elements, poisoned)
    with pytest.raises(ValueError, match="matrix is not finite at stack entry 2"):
        ComplexOrthogonal(poisoned)
    with pytest.raises(ValueError, match="residual .* at stack entry 5"):
        ComplexOrthogonal(np.concatenate([rhos, 1.001 * rhos[:1]]))
    with pytest.raises(ValueError, match="need 5 matrices"):
        transform_coefficients(elements, ComplexOrthogonal(rhos[:4]))
    other = GrassmannElement.unit(AlgebraSpec((2, 4)))  # six coordinates too
    with pytest.raises(ValueError, match="different algebras"):
        transform_coefficients([*elements[:4], other], lams)
    with pytest.raises(ValueError, match=r"of its size; got \(5, 3\)"):
        pushforward_field(np.ones((5, 3)), random_orthogonal(3, seed=1))
    fields = np.ones((5, 3))
    fields[4, 2] = np.nan
    with pytest.raises(ValueError, match="field is not finite at stack entry 4"):
        pushforward_field(fields, _random_orthogonals(np.random.default_rng(1), 3, 5))


def test_non_finite_inputs_are_refused_by_name():
    lam = random_orthogonal(3, seed=1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            pushforward_field(np.array([bad, 0.0, 0.0]), lam)
        with pytest.raises(ValueError, match="matrix is not finite"):
            ComplexOrthogonal(np.diag([bad, 1.0, 1.0]))
        with pytest.raises(ValueError, match="matrix is not finite at stack entry 0"):
            plus_involution(GrassmannElement.from_generator(ALG3, Z[0]), np.full((3, 3), bad))


def test_pushforward_refuses_an_overflowing_field():
    # F . F overflows: the invariant cannot be checked, so the field is refused.
    lam = random_orthogonal(3, seed=1)
    with pytest.raises(RuntimeError, match="bilinear invariant"):
        pushforward_field(np.array([1e200, 1e200, 0.0]), lam)
    assert np.all(np.isfinite(pushforward_field(np.array([1e150, 1e150j, 0.0]), lam)))
