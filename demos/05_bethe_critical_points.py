"""Real critical points of master functions, from the Gaudin spectrum.

Run: python demos/05_bethe_critical_points.py
"""
from fractions import Fraction as F

import numpy as np

from vermasig import MasterConfig, bound_check, find_critical_points, master_value

cfg = MasterConfig((F(0), F(1), F(3)), (F(23, 10), F(17, 10), F(-2, 5)), 2)
print(f"Instance: z = {tuple(str(v) for v in cfg.z)}, weights = "
      f"{tuple(str(w) for w in cfg.weights)}, m = {cfg.m}, dim E_m = {cfg.dim}")

# one spectrum serves the count, the bound and the points; building it checks
# invariance, commutation and self-adjointness of the Hamiltonians exactly
rep = bound_check(cfg, seed=7)
print(f"\nCommuting Hamiltonians restricted to the multiplicity space (dim {len(rep.witnesses)});",
      "commutation and self-adjointness hold exactly")

print(f"\nJoint eigenvalues with real tuples: {rep.n_real} of {cfg.dim}")
for w in rep.witnesses:
    print(f"  joint {np.round(w.joint, 4).tolist()}  real: {w.is_real}")

print("\nCritical points from the joint eigenvalues (one Heine-Stieltjes solve each):")
points = find_critical_points(cfg, rep.witnesses)
for p in points:
    roots = np.round(np.roots(np.array(p.qpoly)), 5)
    print(f"  Q roots {roots}  residual {p.residual:.1e}  real: {p.is_real}")

print(f"\nSignature bound: |sgn E_m| = {abs(rep.signature)} <= N = {rep.n_real}"
      f" <= dim = {rep.dim}")

print("\nAn all-negative instance saturates the bound (every point is real):")
neg = MasterConfig((F(0), F(1), F(3)), (F(-1, 2), F(-3, 4), F(-7, 5)), 3)
rep = bound_check(neg, seed=7)
pts = find_critical_points(neg, rep.witnesses)
print(f"  |sgn| = {abs(rep.signature)}, N = {rep.n_real}, dim = {rep.dim}, "
      f"all {len(pts)} found points real: {all(p.is_real for p in pts)}")
value = master_value(neg, [float(r.real) for r in np.roots(np.array(pts[0].qpoly))])
print(f"  master function value at one of them: {value:.6f}")
