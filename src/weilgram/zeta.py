"""Exact L-polynomial reconstruction, extrapolation, and the Riemann
hypothesis check.

The L-polynomial of a genus-g curve over F_q is L(T) = prod (1 - a_i T) with
2g inverse roots a_i.  Its first g coefficients are determined by N_1..N_g
through the power sums t_j = q^j + 1 - N_j and the Newton identities; the
rest follow from the functional equation c_{2g-i} = q^{g-i} c_i.  Everything
here is exact integer (or rational) arithmetic.

The Riemann hypothesis |a_i| = sqrt(q) is decided on the real Weil
polynomial h, defined by P(U) = U^{2g} L(1/U) = U^g h(U + q/U): the a_i have
modulus sqrt(q) exactly when every root of h is real and lies in
[-2 sqrt(q), 2 sqrt(q)].  A Sturm sequence counts those roots, with every
sign at the endpoints read off exactly from a value A + B sqrt(q)
(Kedlaya, "Search techniques for root-unitary polynomials", 2008).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import CountLengthMismatch, NonIntegerCoefficient
from .finite_field import check_prime_power


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
    """t_1..t_m from the coefficients by the integer Newton recurrence."""
    c = L.coefficients
    deg = 2 * L.g
    t = []
    for n in range(1, m + 1):
        acc = n * c[n] if n <= deg else 0
        for i in range(1, min(n - 1, deg) + 1):
            acc += c[i] * t[n - i - 1]
        t.append(-acc)
    return t


def extrapolate(L: LPolynomial, j: int) -> int:
    """N_j implied by L; pure integer arithmetic."""
    if j < 1:
        raise ValueError(f"extension degree must be >= 1, got {j}")
    return L.q**j + 1 - power_sums(L, j)[-1]


def check_functional_equation(L: LPolynomial) -> bool:
    """Exact test of c_{2g-i} = q^{g-i} c_i for 0 <= i <= g."""
    c = L.coefficients
    g = L.g
    return all(c[2 * g - i] == L.q ** (g - i) * c[i] for i in range(g + 1))


def _divmod(a: list, b: list) -> tuple:
    """Quotient and trimmed remainder of rational polynomials (ascending
    coefficients, b without leading zeros and not zero)."""
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for k in range(len(quot) - 1, -1, -1):
        quot[k] = factor = Fraction(rem[k + len(b) - 1], b[-1])
        for i, coef in enumerate(b):
            rem[k + i] -= factor * coef
    rem = rem[: len(b) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _derivative(f: list) -> list:
    return [i * f[i] for i in range(1, len(f))]


def _gcd(a: list, b: list) -> list:
    while b:
        a, b = b, _divmod(a, b)[1]
    return a


def _real_weil_polynomial(L: LPolynomial) -> list:
    """h = c_g + sum_{k=1..g} c_{g-k} D_k, where D_k(U + q/U) = U^k + q^k/U^k:
    D_0 = 2, D_1 = x, D_k = x D_{k-1} - q D_{k-2}."""
    q, g, c = L.q, L.g, L.coefficients
    h = [c[g]] + [0] * g
    prev, cur = [2], [0, 1]
    for k in range(1, g + 1):
        for i, d in enumerate(cur):
            h[i] += c[g - k] * d
        nxt = [0] + cur
        for i, d in enumerate(prev):
            nxt[i] -= q * d
        prev, cur = cur, nxt
    return h


def _sign_at_endpoint(f: list, q: int, side: int) -> int:
    """Sign of f(side * 2 sqrt(q)), exactly: the value is A + B sqrt(q) with
    rational A, B, and when their signs differ A^2 - q B^2 decides."""
    A = B = 0
    for k, coef in enumerate(f):
        term = coef * (2**k * q ** (k // 2))
        if k % 2:
            B += side * term
        else:
            A += term
    value = A + B if A * B >= 0 else A * (A * A - q * B * B)
    return (value > 0) - (value < 0)


def _sign_changes(chain: list, q: int, side: int) -> int:
    signs = [s for s in (_sign_at_endpoint(f, q, side) for f in chain) if s]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def check_riemann_hypothesis(L: LPolynomial) -> bool:
    """Exact test that every inverse root of L has modulus sqrt(q).

    True for g = 0.  False when the functional equation fails, or when
    c_0 = 0 (then P(U) has the root 0).  Otherwise the real Weil polynomial
    h is reduced to its squarefree part, its roots at the endpoints +-2 sqrt(q)
    are divided out (the factor x^2 - 4q, or x -+ 2 sqrt(q) when q is a
    square), and the Sturm sequence of what is left must count all of its
    roots inside the open interval (-2 sqrt(q), 2 sqrt(q))."""
    if L.g == 0:
        return True
    if L.coefficients[0] == 0 or not check_functional_equation(L):
        return False
    h = _real_weil_polynomial(L)
    h = _divmod(h, _gcd(h, _derivative(h)))[0]
    r = isqrt(L.q)
    ends = [[-2 * r, 1], [2 * r, 1]] if r * r == L.q else [[-4 * L.q, 0, 1]]
    for factor in ends:
        quot, rem = _divmod(h, factor)
        if not rem:
            h = quot
    chain = [h, _derivative(h)]
    while chain[-1]:
        chain.append([-x for x in _divmod(chain[-2], chain[-1])[1]])
    inside = _sign_changes(chain, L.q, -1) - _sign_changes(chain, L.q, 1)
    return inside == len(h) - 1


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
