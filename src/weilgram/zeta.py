"""Exact L-polynomial reconstruction, extrapolation, and the Riemann
hypothesis check.

The L-polynomial of a genus-g curve over F_q is L(T) = prod (1 - a_i T) with
2g inverse roots a_i.  Its first g coefficients are determined by N_1..N_g
through the power sums t_j = q^j + 1 - N_j and the Newton identities; the
rest follow from the functional equation c_{2g-i} = q^{g-i} c_i.  Everything
here is exact integer (or rational) arithmetic.

The Riemann hypothesis |a_i| = sqrt(q) is Weil's positivity at order 2g:
with L satisfying the functional equation and c_0 != 0, it holds exactly
when the absolute Gram matrix M of order 2g (entries 2g q^i on the diagonal,
q^i t_j at (i, i + j), see `gram.gram_absolute`) is positive semidefinite.

* If every |a_k| = sqrt(q), then M = sum_k w_k w_k^* with w_k = (a_k^i)_i,
  since a conj(a) = q turns q^i t_j into sum_k a_k^i conj(a_k)^{i+j}.
* Conversely, scaling row and column i by q^{-i/2} turns M into the Toeplitz
  matrix (s_{k-i}) of s_n = sum_k b_k^n, with b = a / sqrt(q).  The
  functional equation makes the b closed under b -> 1/b, so s_{-n} = s_n.
  That matrix of size 2g + 1 has rank at most 2g (the number of b), so when
  it is PSD the Caratheodory-Fejer theorem gives a unique measure on the unit
  circle with at most 2g atoms whose moments are s_n for |n| <= 2g.  Two
  exponential sums with at most 4g nonzero nodes in all that agree at
  n = -2g..2g are equal (a Vandermonde system), so every b lies on the circle.

Order g is not enough: L = 1 - 4T + 4T^2 - 8T^3 + 4T^4 over F_2 has a PSD
Gram of order g = 2 and a real inverse root off the circle.  The verdict is
all-integer: one exact elimination, `gram.is_psd`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CountLengthMismatch, NonIntegerCoefficient
from .finite_field import check_prime_power
from .gram import gram_absolute, is_psd


@dataclass(frozen=True)
class LPolynomial:
    """Coefficients c_0..c_{2g}, ascending, arbitrary-precision integers."""

    q: int
    g: int
    coefficients: tuple

    def __post_init__(self):
        if len(self.coefficients) != 2 * self.g + 1:
            raise ValueError(
                f"genus {self.g} needs {2 * self.g + 1} coefficients, "
                f"got {len(self.coefficients)}"
            )
        check_prime_power(self.q)

    def __repr__(self):
        return f"LPolynomial(q={self.q}, g={self.g}, {list(self.coefficients)})"


def l_from_counts(q: int, g: int, counts) -> LPolynomial:
    """Reconstruct L from the first g point counts.

    Newton identities in exact rationals give c_1..c_g; the functional
    equation supplies c_{g+1}..c_{2g}.  Counts not realizable by any genus-g
    curve surface as a non-integer coefficient."""
    counts = tuple(counts)
    if len(counts) != g:
        raise CountLengthMismatch(f"genus {g} needs exactly {g} counts, got {len(counts)}")
    t = [q**j + 1 - counts[j - 1] for j in range(1, g + 1)]
    c = [Fraction(1)]
    for n in range(1, g + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += t[k - 1] * c[n - k]
        c.append(-acc / n)
    coeffs = [Fraction(0)] * (2 * g + 1)
    for i in range(g + 1):
        coeffs[i] = c[i]
    for i in range(g):
        coeffs[2 * g - i] = q ** (g - i) * c[i]
    out = []
    for value in coeffs:
        if value.denominator != 1:
            raise NonIntegerCoefficient(
                f"counts {counts} force coefficient {value}; no genus-{g} curve fits"
            )
        out.append(int(value))
    return LPolynomial(q=q, g=g, coefficients=tuple(out))


def power_sums(L: LPolynomial, m: int) -> list:
    """u_n = c_0^n t_n for n = 1..m, where t_n is the nth power sum of the
    inverse roots, by the integer Newton recurrence.  The u_n are the power
    sums of the c_0 a_i, the inverse roots of L(c_0 T) / c_0, whose
    coefficients c_i c_0^{i-1} are integers.  For c_0 = 1, as for every L
    built from counts, u_n = t_n."""
    c0 = L.coefficients[0]
    c = [1] + [x * c0 ** (i - 1) for i, x in enumerate(L.coefficients[1:], 1)]
    deg = 2 * L.g
    t = []
    for n in range(1, m + 1):
        acc = n * c[n] if n <= deg else 0
        for i in range(1, min(n - 1, deg) + 1):
            acc += c[i] * t[n - i - 1]
        t.append(-acc)
    return t


def extrapolate(L: LPolynomial, j: int) -> int:
    """N_j implied by L; pure integer arithmetic.  Only an L with c_0 = 1 is
    the L-polynomial of a curve, so any other c_0 raises
    NonIntegerCoefficient (the power sums are then rational in general)."""
    if j < 1:
        raise ValueError(f"extension degree must be >= 1, got {j}")
    if L.coefficients[0] != 1:
        raise NonIntegerCoefficient(f"c_0 = {L.coefficients[0]} != 1: L is not a curve's")
    return L.q**j + 1 - power_sums(L, j)[-1]


def check_functional_equation(L: LPolynomial) -> bool:
    """Exact test of c_{2g-i} = q^{g-i} c_i for 0 <= i <= g."""
    c = L.coefficients
    g = L.g
    return all(c[2 * g - i] == L.q ** (g - i) * c[i] for i in range(g + 1))


def check_riemann_hypothesis(L: LPolynomial) -> bool:
    """Exact test that every inverse root of L has modulus sqrt(q).

    True for g = 0.  False when the functional equation fails, or when
    c_0 = 0 (then P(U) has the root 0).  Otherwise RH holds exactly when the
    order-2g absolute Gram matrix of the counts L implies is PSD (see the
    module docstring), decided exactly by `gram.is_psd`.  For c_0 != 1 the
    power sums t_n are rational; the Gram is built from
    c_0^{2g} t_n = c_0^{2g-n} u_n instead, a positive multiple."""
    if L.g == 0:
        return True
    if L.coefficients[0] == 0 or not check_functional_equation(L):
        return False
    q, m, c0 = L.q, 2 * L.g, L.coefficients[0]
    u = power_sums(L, m)
    counts = [q**n + 1 - c0 ** (m - n) * u[n - 1] for n in range(1, m + 1)]
    M = gram_absolute(q, c0**m * L.g, counts, m)
    return is_psd(M)


def infer_genus(q: int, counts):
    """Smallest genus g <= floor(m/2) whose L-polynomial built from N_1..N_g
    satisfies the Riemann hypothesis and extrapolates the remaining counts
    exactly; None when no genus is consistent."""
    counts = tuple(counts)
    if not counts:
        raise CountLengthMismatch("need at least one count")
    for g in range(len(counts) // 2 + 1):
        try:
            L = l_from_counts(q, g, counts[:g])
        except NonIntegerCoefficient:
            continue
        if not check_riemann_hypothesis(L):
            continue
        if all(extrapolate(L, j) == counts[j - 1] for j in range(g + 1, len(counts) + 1)):
            return g
    return None
