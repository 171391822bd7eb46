"""Which multiplicity spaces are definite, read off the floor data alone.

Run: python demos/02_definite_classification.py
"""
from vermasig import ExplicitType, classify_definite, verify_type

SHOWCASE = [
    ("all weights negative", ExplicitType(-4, (-1, -1, -2))),
    ("two factors", ExplicitType(1, (2, -1))),
    ("one positive among three", ExplicitType(-2, (1, -2, -2))),
    ("middle p, nothing but level 0", ExplicitType(0, (1, 0, -1, -2))),
    ("one negative: the lone exception", ExplicitType(1, (0, 0, -1))),
    ("all positive, generic", ExplicitType(5, (2, 1, 0))),
    ("exceptional family <3d,d,d,d>, d=1", ExplicitType(3, (1, 1, 1))),
    ("exceptional family <3d+2,d,d,d>, d=1", ExplicitType(5, (1, 1, 1))),
    ("four factors: <4,1,1,1,1>", ExplicitType(4, (1, 1, 1, 1))),
    ("four factors: <3,0,0,0,0>", ExplicitType(3, (0, 0, 0, 0))),
]

print("type <floor(sum); floors>        definite levels (sign)        verified vs peeling")
for label, t in SHOWCASE:
    rep = classify_definite(t)
    cells = ", ".join(f"{lv}{'+' if s > 0 else '-'}" for lv, s in rep.entries)
    ok = verify_type(t)
    floors = ",".join(str(f) for f in t.factor_floors)
    print(f"<{t.total_floor}; {floors}>".ljust(18) + f" {label}".ljust(40) + f"{{{cells}}}".ljust(28) + str(ok))

print()
print("The verification peels the exact character product of the type's canonical")
print("representative, floors f_i plus equal fractional parts (2c + 1)/(2n) where c is")
print("the carry floor(sum) - sum(f_i), and compares definite sets.")
