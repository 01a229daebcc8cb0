"""The two-spin model: spectrum, damping threshold, exceptional point.

Builds the coupled Hamiltonian with complex z-fields from the damped
precession parameterization, compares the closed-form eigenvalues with the
dense eigensolver, then walks the field amplitude across the damping
threshold B_max = J (alpha^2 + 1) / alpha where the pseudo-hermitian regime
ends: eigenvalues collide at the exceptional point and move into the complex
plane beyond it.
"""

import numpy as np

from pseudospin import (
    TwoSpinParams,
    build_total,
    closed_spectrum,
    damping_threshold,
    diagnose,
)


print("== the Hamiltonian at J=1, B=1, alpha=1 ==")
params = TwoSpinParams.from_gilbert(1.0, 1.0, -1.0, 1.0)
print("F3 =", params.f3, " G3 =", params.g3)
print("F+ =", params.f_plus, " F- =", params.f_minus)
matrix = build_total(params)
print(np.round(matrix, 4))

print()
print("== closed-form spectrum against the eigensolver ==")
report = closed_spectrum(params)
closed = np.sort_complex(np.array(report.eigenvalues))
numerical = np.sort_complex(np.linalg.eigvals(matrix))
print("closed   :", np.round(closed, 6))
print("numerical:", np.round(numerical, 6))
print("max gap  :", float(np.max(np.abs(closed - numerical))))
print("pseudo-hermitian:", report.pseudo_hermitian,
      " margin 4J^2 + F-^2 =", report.threshold_margin)

print()
print("== walking the field across the threshold (J=1, alpha=0.5) ==")
b_max = damping_threshold(1.0, 0.5)
print(f"B_max = {b_max}")
header = f"{'B':>6} {'regime':>7} {'margin':>10} {'max |Im E|':>12} {'metric?':>8}"
print(header)
for amplitude in (1.0, 2.0, 2.4, 2.5, 2.6, 3.5):
    p = TwoSpinParams.from_gilbert(amplitude, 0.5, -0.5, 1.0)
    r = closed_spectrum(p)
    result = diagnose(build_total(p))
    max_im = max(abs(v.imag) for v in r.eigenvalues)
    regime = "closed" if r.pseudo_hermitian else "open"
    print(f"{amplitude:>6} {regime:>7} {r.threshold_margin:>10.4f} "
          f"{max_im:>12.3e} {str(result.metric is not None):>8}")

print()
print("== the exceptional point itself ==")
p = TwoSpinParams.from_gilbert(b_max, 0.5, -0.5, 1.0)
result = diagnose(build_total(p))
print("margin:", closed_spectrum(p).threshold_margin)
print("diagonalizable:", result.diagonalizable,
      " (eigenvectors coalesce, so no metric is constructed)")
