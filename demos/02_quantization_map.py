"""From Grassmann functions to operators.

Demonstrates the quantization map: generators go to scaled Pauli strings
satisfying {Q(xi_i), Q(xi_j)} = hbar delta_ij, the classical field
Hamiltonian -(i/2) eps_ijk xi_i xi_j B_k lands exactly on (hbar/2) sigma.B,
the map intertwines Dirac brackets with color commutators, and complex
orthogonal canonical transformations act covariantly.
"""

import itertools

import numpy as np

from pseudospin import (
    AlgebraSpec,
    GrassmannElement,
    check_relations,
    correspondence_check,
    diagnose,
    pushforward_field,
    quantize,
    random_orthogonal,
    tensor_realization,
    transform_coefficients,
)

LEVI_CIVITA = np.zeros((3, 3, 3))
for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
    LEVI_CIVITA[i, j, k] = 1.0
    LEVI_CIVITA[j, i, k] = -1.0


def field_element(algebra, b):
    terms = []
    for i, j in itertools.combinations(range(3), 2):
        coefficient = -1j * complex(LEVI_CIVITA[i, j] @ b)
        terms.append(((algebra.coordinate(0, i), algebra.coordinate(0, j)), coefficient))
    return GrassmannElement.from_terms(algebra, terms)


print("== Clifford relations of the realizations ==")
for label, realization in (
    ("single family [3] (Pauli)", tensor_realization(AlgebraSpec((3,)))),
    ("two families [3, 3]", tensor_realization(AlgebraSpec((3, 3)))),
    ("uneven families [2, 4]", tensor_realization(AlgebraSpec((2, 4)))),
):
    violation = check_relations(realization)
    print(f"{label}: dim {realization.dim}, max violation {violation:.2e}")

print()
print("== the field Hamiltonian quantizes onto (hbar/2) sigma.B ==")
algebra = AlgebraSpec((3,))
rng = np.random.default_rng(2)
b = rng.normal(size=3)
hbar = 1.0
realization = tensor_realization(algebra, hbar=hbar)
h_matrix = quantize(field_element(algebra, b), realization)
pauli = [np.sqrt(2.0 / hbar) * g for g in realization.gens]
target = (hbar / 2.0) * sum(b[k] * pauli[k] for k in range(3))
print("B            =", np.round(b, 4))
print("max |Q(H_B) - (hbar/2) sigma.B| =", np.max(np.abs(h_matrix - target)))
print("eigenvalues  =", np.round(np.linalg.eigvalsh(h_matrix), 6),
      " (expected +/- |B|/2 =", round(np.linalg.norm(b) / 2, 6), ")")

print()
print("== correspondence: [Q(f), Q(g)] = i hbar Q({f, g}_D) ==")
momenta = AlgebraSpec((3, 3), momenta_attached=True)
two = tensor_realization(AlgebraSpec((3, 3)), hbar=0.5)
gens = list(momenta.coordinates()) + list(momenta.momenta())
worst = 0.0
for a, b_ in itertools.combinations(gens[:8], 2):
    f = GrassmannElement.from_generator(momenta, a)
    g = GrassmannElement.from_generator(momenta, b_)
    worst = max(worst, correspondence_check(f, g, two))
print("max residual over generator pairs at hbar=0.5:", worst)

print()
print("== covariance under a complex orthogonal transformation ==")
lam = random_orthogonal(3, seed=7)
field = rng.normal(size=3)
moved = pushforward_field(field, lam)
print("det Lambda   =", lam.det)
print("F.F - B.B    =", abs(moved @ moved - complex(field @ field)))

# Transporting the coefficient table of a star-real element through a
# genuinely complex transformation breaks hermiticity of the operator but
# not the reality of its spectrum: the result is pseudo-hermitian, and the
# metric layer recovers a positive metric for it.
f = field_element(algebra, field)
g = transform_coefficients(f, lam)
operator = quantize(g, realization)
result = diagnose(operator)
print("hermitian after transport:", bool(np.allclose(operator, operator.conj().T)))
print("spectrum after transport  :", np.round(np.real_if_close(result.spectrum), 6))
print("expected +/- |B|/2        :", round(np.linalg.norm(field) / 2, 6))
print("spectrum real:", result.spectrum_real, "- positive metric found:",
      result.metric is not None)
