"""Tour of the exact finite-field layer.

Builds a prime field and an extension field, names their elements by index,
and shows the vectorized tables that the point counters run on.
"""

import numpy as np

from weilgram.finite_field import construct_field
from weilgram.fppoly import to_string, trim
from weilgram.tables import get_table

F5 = construct_field(5, 1)
F9 = construct_field(3, 2)

print("== fields and element indices ==")
print(f"field {F5}: q = {F5.q}, modulus coefficients = {F5.modulus}")
print(f"field {F9}: q = {F9.q}, modulus coefficients = {F9.modulus}")

# index i is the element whose coefficients in 1, t are the base-p digits of i
digits = [[i // F9.p**j for j in range(F9.k)] for i in range(F9.q)]
names = [to_string(trim(d, F9.p), "t") for d in digits]
print(f"elements of {F9}: {', '.join(names)}")

T9 = get_table(F9)
print()
print("== multiplication table of F_9 (encoded 0..8) ==")
for a in range(F9.q):
    row = [int(T9.mul([a] * F9.q, list(range(F9.q)))[b]) for b in range(F9.q)]
    print(f"  {a}: {row}")

print()
print("== squares ==")
for field, T in ((F5, get_table(F5)), (F9, T9)):
    roots = np.bincount(T.mul(np.arange(field.q), np.arange(field.q)), minlength=field.q)
    sq = np.flatnonzero(roots).tolist()
    print(f"{field}: squares {sq}")
    print(f"{field}: sqrt counts of those squares {roots[sq].tolist()}")

print()
print("== vectorized polynomial evaluation ==")
# f(x) = x^3 + x over F_5, evaluated at every element at once: eval_logs
# gives log f(x) for x = g^i in order i (x = 0 last), and exp turns both
# the points and the values back into element indices
T5 = get_table(F5)
values = np.empty(F5.q, dtype=np.int32)
values[T5.exp] = T5.exp.take(T5.eval_logs((0, 1, 0, 1)), mode="clip")
print(f"x^3 + x on F_5: {[int(v) for v in values]}")
