"""Tour of the symbolic Grassmann layer.

Walks through the pseudoclassical phase space: anticommuting coordinates in
two families, momenta, the star involution that singles out real functions,
the graded Poisson bracket, and the Dirac bracket obtained after imposing
the second-class constraints pi_i - (i/2) xi_i = 0.  Every printed value is
computed symbolically; coefficients are exact floats.
"""

import numpy as np

from pseudospin import (
    AlgebraSpec,
    GrassmannElement,
    canonical_constraints,
    dirac_bracket,
    graded_poisson,
    left_derivative,
    right_derivative,
    star_involution,
)

algebra = AlgebraSpec((3, 3), momenta_attached=True)
xi = [GrassmannElement.from_generator(algebra, algebra.coordinate(0, i)) for i in range(3)]
chi = [GrassmannElement.from_generator(algebra, algebra.coordinate(1, i)) for i in range(3)]
pi = [GrassmannElement.from_generator(algebra, algebra.momentum(0, i)) for i in range(3)]

print("== generators and products ==")
print("xi1 * xi2      =", xi[0] * xi[1])
print("xi2 * xi1      =", xi[1] * xi[0], "   (anticommuting within a family)")
print("xi1 * chi1     =", xi[0] * chi[0])
print("chi1 * xi1     =", chi[0] * xi[0], "   (families commute)")
print("xi1 * xi1      =", xi[0] * xi[0], "      (nilpotent)")

print()
print("== star involution ==")
f = (1 + 2j) * (xi[0] * xi[1]) + 0.5 * xi[2]
print("f              =", f)
print("f*             =", star_involution(f))
real_combo = 1j * (xi[0] * xi[1])
print("i xi1 xi2 real?", star_involution(real_combo).terms == real_combo.terms)

print()
print("== graded Poisson bracket (coordinates vs momenta) ==")
print("dR(xi1 xi2)/dxi1 =", right_derivative(xi[0] * xi[1], algebra.coordinate(0, 0)))
print("dL(xi1 xi2)/dxi1 =", left_derivative(xi[0] * xi[1], algebra.coordinate(0, 0)))
print("{xi1, pi1}     =", graded_poisson(xi[0], pi[0]))
print("{xi1, pi2}     =", graded_poisson(xi[0], pi[1]))
print("{xi1 xi2, pi2 pi1} =", graded_poisson(xi[0] * xi[1], pi[1] * pi[0]))

print()
print("== second-class constraints and the Dirac bracket ==")
for constraint in canonical_constraints(algebra)[:2]:
    print("constraint     .", constraint)
print("{xi1, xi1}_D   =", dirac_bracket(xi[0], xi[0]))
print("{xi1, xi2}_D   =", dirac_bracket(xi[0], xi[1]))
print("{xi1, pi1}_D   =", dirac_bracket(xi[0], pi[0]))
print("{pi1, pi1}_D   =", dirac_bracket(pi[0], pi[0]))
print("{xi1, chi1}_D  =", dirac_bracket(xi[0], chi[0]), "  (cross-family)")

print()
print("== graded Jacobi identity on a generator triple ==")
a, b, c = xi[0], xi[1], pi[0]
cycle = (
    dirac_bracket(a, dirac_bracket(b, c))
    + dirac_bracket(b, dirac_bracket(c, a))
    + dirac_bracket(c, dirac_bracket(a, b))
)
residual = max((abs(v) for v in cycle.terms.values()), default=0.0)
print("cyclic sum residual:", residual)
assert residual == 0.0
