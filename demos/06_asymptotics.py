"""For large level the real critical point count approaches the dimension.

The signature lower bound plus the dimension upper bound squeeze the ratio
N / dim to 1; here we watch |sgn|/dim climb and the closed-form large-level
signature take over from exact peeling at the level that asymptotic_threshold
proves, checked here to depth 200.

Run: python demos/06_asymptotics.py
"""
import math
from fractions import Fraction as F

from vermasig import asymptotic_signature, asymptotic_threshold, peel_decompose

weights = [F(23, 10), F(17, 10), F(-2, 5)]
n = len(weights)
depth = 200
dec = peel_decompose(weights, depth)
signatures = [e.signature for e in dec.entries]
threshold = asymptotic_threshold(weights)
closed = [asymptotic_signature(weights, m) for m in range(threshold, depth + 1)]
if closed != signatures[threshold:]:
    raise SystemExit(f"closed form and peeling differ above the proved level {threshold}")
print(f"weights {tuple(str(w) for w in weights)}")
print(f"closed form agrees with exact peeling for every level >= {threshold}")
print()
print("level   |sgn|    dim     |sgn|/dim")
for m in (2, 5, 10, 20, 50, 100, 150, 200):
    dim = math.comb(m + n - 2, n - 2)
    print(f"{m:5d} {abs(signatures[m]):7d} {dim:7d}    {abs(signatures[m])/dim:.4f}")
print()
big = 10**6
lead = abs(asymptotic_signature(weights, big)) * math.factorial(n - 2) / big ** (n - 2)
print(f"leading coefficient check at m = 10^6: |sgn|*(n-2)!/m^(n-2) = {lead:.6f}")
