"""From brute-force point counts to the zeta function and back.

Counts an elliptic curve over F_3 and its extensions, builds the numerator
of its zeta function from the counts, checks the functional equation and,
exactly, that the inverse roots lie on |z| = sqrt(q), then extrapolates
counts the counter never saw and confirms them against brute force.
"""

from weilgram.curves import count_points, count_series, make_hyperelliptic
from weilgram.finite_field import construct_field
from weilgram.zeta import (
    check_functional_equation,
    check_riemann_hypothesis,
    extrapolate,
    infer_genus,
    l_from_counts,
)

F3 = construct_field(3, 1)

# y^2 = x^3 + x: supersingular over F_3, so the Frobenius eigenvalues are
# +/- i sqrt(3) and every even-degree count sits on the Weil boundary.
E = make_hyperelliptic(F3, (0, 1, 0, 1))
print(f"curve: {E.label}, genus {E.genus}")

series = count_series(E, 6)
print(f"counts N_1..N_6 by enumeration: {list(series.counts)}")

L = l_from_counts(3, E.genus, series.counts[: E.genus])
print(f"zeta numerator coefficients: {list(L.coefficients)}")
print(f"functional equation holds: {check_functional_equation(L)}")

print(f"inverse roots on |z| = sqrt(q): passed={check_riemann_hypothesis(L)}")

print()
print("extrapolation from the zeta function vs. fresh enumeration:")
for j in range(1, 7):
    predicted = extrapolate(L, j)
    counted = count_points(E, j)
    tag = "ok" if predicted == counted else "MISMATCH"
    print(f"  j={j}: predicted {predicted}, counted {counted}  [{tag}]")

print()
guess = infer_genus(3, series.counts)
print(f"genus recovered from counts alone: {guess}")
