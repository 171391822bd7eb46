"""Multiplicity space signatures for quantum sl2 at q on the unit circle.

Run: python demos/04_quantum_signatures.py
"""
from fractions import Fraction as F

from vermasig import (
    QParam,
    closed_form_norm,
    coboundary_norm,
    crystal_multiplicity,
    multiplicity_signatures,
    peel_decompose,
    q_int_sign,
)

print("Signs of quantum integers [j] at q = exp(i pi t), exactly from j*p mod 2D:")
qp = QParam(1, 7)
print("  t = 1/7:", {j: q_int_sign(j, qp) for j in (1, 3, 6, 8, 13)})

print("\nSignatures of V_3 x V_3 multiplicity spaces drift as t grows:")
print("  m:", list(range(4)))
for t in (F(1, 100), F(1, 9), F(2, 9), F(1, 3) + F(1, 100)):
    qp = QParam(t.numerator, t.denominator)
    sgns = multiplicity_signatures([3, 3], 3, qp)
    dims = [crystal_multiplicity([3, 3], m) for m in range(4)]
    print(f"  t = {t}: sgn {sgns} (dims {dims})")

print("\nThe two-factor norm computed through the braiding agrees with its closed form:")
qp = QParam(2, 31)
for (a, b, m) in ((1, 1, 1), (4, 3, 2), (6, 6, 5)):
    direct = coboundary_norm(a, b, m, qp)
    closed = closed_form_norm(a, b, m, qp)
    print(f"  (a,b,m)=({a},{b},{m}): direct {direct.real:+.12f}  closed {closed:+.12f}")

print("\nAt q = 1 the same composition formula computes Verma-module signatures:")
weights = [F(23, 10), F(17, 10), F(-2, 5)]
dec = peel_decompose(weights, 6)
formula = multiplicity_signatures(weights, 6)
peeled = [dec.entry(m).signature for m in range(7)]
print("  formula:", formula)
print("  peeling:", peeled)
