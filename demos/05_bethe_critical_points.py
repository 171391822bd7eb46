"""Real critical points of master functions, from the Gaudin spectrum.

Run: python demos/05_bethe_critical_points.py
"""
from fractions import Fraction as F

import numpy as np

from vermasig import (
    MasterConfig,
    bound_check,
    count_real_by_spectrum,
    find_critical_points,
    gaudin_system,
    master_value,
)

cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
print(f"Instance: z = {tuple(str(v) for v in cfg.z)}, weights = "
      f"{tuple(str(w) for w in cfg.weights)}, m = {cfg.m}, dim E_m = {cfg.dim}")

print("\nCritical points from the Gaudin joint eigenvalues (one Heine-Stieltjes solve each):")
points = find_critical_points(cfg, seed=7)
for p in points:
    roots = np.round(np.roots(np.array(p.qpoly)), 5)
    print(f"  Q roots {roots}  residual {p.residual:.1e}  real: {p.is_real}")

print("\nCommuting Hamiltonians on the multiplicity space (exact matrices):")
system = gaudin_system(cfg)
print(f"  restricted to dim {system.basis.dim}; commutation and self-adjointness",
      "hold exactly (checked during construction)")

n_real, witnesses = count_real_by_spectrum(cfg, seed=7)
print(f"\nJoint eigenvalues with real tuples: {n_real} of {cfg.dim}")
for w in witnesses:
    print(f"  joint {tuple(np.round(w.joint, 4))}  real: {w.is_real}")

rep = bound_check(cfg, seed=7)
print(f"\nSignature bound: |sgn E_m| = {abs(rep.signature)} <= N = {rep.n_real}"
      f" <= dim = {rep.dim}")

print("\nAn all-negative instance saturates the bound (every point is real):")
neg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 3)
rep = bound_check(neg, seed=7)
pts = find_critical_points(neg, seed=7)
print(f"  |sgn| = {abs(rep.signature)}, N = {rep.n_real}, dim = {rep.dim}, "
      f"all {len(pts)} found points real: {all(p.is_real for p in pts)}")
value = master_value(neg, [float(r.real) for r in np.roots(np.array(pts[0].qpoly))])
print(f"  master function value at one of them: {value:.6f}")
