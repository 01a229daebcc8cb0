"""Metric construction, the hermitian counterpart, and deformed unitarity.

In the pseudo-hermitian regime the model Hamiltonian is not hermitian, yet
a positive isomorphism U maps it onto a genuinely hermitian counterpart and
rho = (U U^dagger)^(-1) defines an inner product under which the evolution
is unitary.  This script builds U and rho for the toy model, checks the
intertwining relation, watches the deformed norm stay constant over a long
time window while the canonical norm oscillates, and contrasts that with
the norm blow-up beyond the damping threshold.
"""

import numpy as np

from pseudospin import (
    TwoSpinParams,
    build_total,
    eta_inner,
    evolve,
    hermitian_counterpart,
    paper_isomorphism,
    transition_series,
)


params = TwoSpinParams.from_gilbert(1.0, 1.0, -1.0, 1.0)
hamiltonian = build_total(params)
u, rho, conjugated = paper_isomorphism(params)
counterpart = hermitian_counterpart(params)

print("== the isomorphism and its metric (J=1, B=1, alpha=1) ==")
print("U =")
print(np.round(u, 4))
print("rho = (U U^dagger)^(-1) =")
print(np.round(rho.matrix, 4))
print("rho positive?  min eigenvalue =", round(rho.min_eigenvalue, 6))
print("middle entry rho[1,1] =", rho.matrix[1, 1].real, " (= 4J^2/(4J^2+F-^2) = 4/3)")

print()
print("== conjugation lands on the hermitian counterpart ==")
print("max |U^-1 H U - H_R|     =", float(np.max(np.abs(conjugated - counterpart.matrix))))
print("max |rho H - H^dag rho|  =",
      float(np.max(np.abs(rho.matrix @ hamiltonian - hamiltonian.conj().T @ rho.matrix))))
print("counterpart fields: B3 =", counterpart.b3, " C3 =", counterpart.c3,
      " J~ =", np.round(counterpart.j_tilde, 6))

print()
print("== deformed norm is conserved, canonical norm is not ==")
rng = np.random.default_rng(4)
psi = rng.normal(size=4) + 1j * rng.normal(size=4)
psi /= np.sqrt(eta_inner(psi, psi, rho).real)
print(f"{'t':>6} {'rho-norm':>12} {'canonical':>12}")
for t in (0.0, 5.0, 20.0, 50.0, 100.0):
    evolved = evolve(hamiltonian, t, psi)
    deformed = float(np.sqrt(eta_inner(evolved, evolved, rho).real))
    canonical = float(np.linalg.norm(evolved))
    print(f"{t:>6} {deformed:>12.9f} {canonical:>12.6f}")

print()
print("== a transition amplitude, evaluated along both routes ==")
xi = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
zeta = np.array([0.0, 0.0, 1.0, 0.0], dtype=complex)
series = transition_series(xi, zeta, params, np.array([3.0]))
print("amplitude   =", complex(series.amplitudes[0]))
print("probability =", float(series.probabilities[0]))
print("route gap   =", float(series.route_gaps[0]), " (direct vs counterpart evaluation)")

print()
print("== beyond the threshold the canonical norm blows up ==")
open_params = TwoSpinParams.from_gilbert(4.0, 1.0, -1.0, 1.0)
h_open = build_total(open_params)
basis = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
for t in (0.0, 5.0, 10.0):
    print(f"t = {t:>4}: |psi| = {float(np.linalg.norm(evolve(h_open, t, basis))):.4e}")

print()
print("== canonical limit: U -> identity as the damping vanishes ==")
# alpha, alpha/2, ... with f_plus fixed: U -> I and H_R -> the undamped H0.
f_plus, exchange = params.f_plus, params.exchange
h0 = build_total(TwoSpinParams(f3=f_plus / 2.0, g3=f_plus / 2.0, exchange=exchange))
alphas = [params.f_minus.imag / 2.0**k for k in range(6)]
u_distances, det_gaps, counterpart_gaps = [], [], []
for alpha in alphas:
    step = TwoSpinParams(f3=(f_plus + 1j * alpha) / 2.0, g3=(f_plus - 1j * alpha) / 2.0,
                         exchange=exchange)
    det_h = complex(np.linalg.det(build_total(step)))
    h_r = hermitian_counterpart(step).matrix
    det_gaps.append(abs(det_h - complex(np.linalg.det(h_r))) / (1.0 + abs(det_h)))
    u_distances.append(float(np.max(np.abs(paper_isomorphism(step).u - np.eye(4)))))
    counterpart_gaps.append(float(np.max(np.abs(h_r - h0))))
monotone = all(a >= b for gaps in (u_distances, counterpart_gaps) for a, b in zip(gaps, gaps[1:]))
print("alphas      :", np.round(alphas, 5))
print("|U - I|     :", [f"{value:.2e}" for value in u_distances])
print("det gaps    :", [f"{value:.2e}" for value in det_gaps])
print("monotone:", monotone, " passed:", monotone and max(det_gaps) <= 1e-9)
