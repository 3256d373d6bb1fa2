"""Exact L-polynomial reconstruction, extrapolation, and the Riemann
hypothesis check.

The L-polynomial of a genus-g curve over F_q is L(T) = prod (1 - a_i T) with
2g inverse roots a_i.  Its first g coefficients are determined by N_1..N_g
through the power sums t_j = q^j + 1 - N_j and the Newton identities, in one
integer pass (`_newton`); the rest follow from the functional equation
c_{2g-i} = q^{g-i} c_i.  Only the place counts are rational.

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
all-integer: `gram`'s Levinson recursion on (q, g, t_1..t_2g), which builds
no matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CountLengthMismatch, NonIntegerCoefficient, TooLarge
from .finite_field import check_prime_power
from .gram import _levinson_state

# the most counts `infer_genus` takes: 128 counts of a genus-64 L take 3 ms
# over F_3 and 0.17-0.20 s over F_64 (2 vCPU), nearly all in its one RH check
MAX_COUNTS = 128


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


def _newton(q: int, counts) -> list:
    """c_0 = 1, c_1, .. by n c_n = -sum_{k<=n} t_k c_{n-k} in integers, stopping
    before the first c_n that is not an integer."""
    t = [q**k + 1 - n for k, n in enumerate(counts, 1)]
    c = [1]
    for n in range(1, len(t) + 1):
        acc = -sum(t[k - 1] * c[n - k] for k in range(1, n + 1))
        if acc % n:
            break
        c.append(acc // n)
    return c


def _completed(q: int, g: int, c) -> LPolynomial:
    """L of genus g from c_0..c_g, by c_{2g-i} = q^{g-i} c_i."""
    return LPolynomial(q, g, (*c[: g + 1], *(q ** (g - i) * c[i] for i in range(g)[::-1])))


def l_from_counts(q: int, g: int, counts) -> LPolynomial:
    """L from the first g point counts (`_newton`, `_completed`); counts of no
    genus-g curve raise NonIntegerCoefficient at the first non-integer c_n."""
    counts = tuple(counts)
    if len(counts) != g:
        raise CountLengthMismatch(f"genus {g} needs exactly {g} counts, got {len(counts)}")
    c = _newton(q, counts)
    if len(c) <= g:
        raise NonIntegerCoefficient(f"c_{len(c)} is not an integer; no genus-{g} curve fits")
    return _completed(q, g, c)


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


def place_floor(exact, j: int) -> int:
    """b_j = sum_{e | j, e < j} e a_e from exact[e - 1] = e a_e, the points of
    exact degree e.  They are the points over F_{q^j} in smaller fields; the
    N_j - b_j others make the a_j places of degree j, so N_j = b_j + j a_j."""
    return sum(exact[e - 1] for e in range(1, j // 2 + 1) if j % e == 0)


def _exact_points(counts) -> list:
    """j a_j = N_j - b_j (`place_floor`) for j = 1..m, one degree at a time."""
    exact = []
    for j, n in enumerate(counts, 1):
        exact.append(n - place_floor(exact, j))
    return exact


def place_counts(counts) -> list:
    """a_1..a_m from N_1..N_m, as Fractions: a_j = (N_j - b_j)/j
    (`_exact_points`).  For a curve a_d is its number of places of degree d,
    a nonnegative integer."""
    return [Fraction(c, j) for j, c in enumerate(_exact_points(counts), 1)]


def places_are_whole(counts) -> bool:
    """True iff every a_j of `place_counts` is a nonnegative integer, decided
    in integers: j a_j >= 0 and j | j a_j."""
    return all(c >= 0 and c % j == 0 for j, c in enumerate(_exact_points(counts), 1))


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
    module docstring), decided exactly by `gram._levinson_state`.  For
    c_0 != 1 the power sums t_n are rational; the Gram is taken of
    c_0^{2g} t_n = c_0^{2g-n} u_n instead, a positive multiple."""
    if L.g == 0:
        return True
    if L.coefficients[0] == 0 or not check_functional_equation(L):
        return False
    q, m, c0 = L.q, 2 * L.g, L.coefficients[0]
    t = [c0 ** (m - n) * u for n, u in enumerate(power_sums(L, m), 1)]
    return _levinson_state(q, c0**m * L.g, t) is not None


def infer_genus(q: int, counts):
    """Smallest genus g <= floor(m/2) whose L-polynomial built from N_1..N_g
    extrapolates the remaining counts exactly and satisfies the Riemann
    hypothesis, tested in that order; None when no genus is consistent, and
    TooLarge above MAX_COUNTS counts.  One `_newton` pass serves every g: it
    is a bijection t_1..t_m <-> c_1..c_m, so L extrapolates the counts exactly
    when its coefficients, padded with zeros, are that pass's c_0..c_m."""
    counts = tuple(counts)
    if not counts:
        raise CountLengthMismatch("need at least one count")
    if len(counts) > MAX_COUNTS:
        raise TooLarge(f"{len(counts)} counts exceed the limit {MAX_COUNTS}")
    m = len(counts)
    c = tuple(_newton(q, counts))
    for g in range(min(len(c), m // 2 + 1)):
        L = _completed(q, g, c)
        if (L.coefficients + (0,) * m)[: m + 1] == c and check_riemann_hypothesis(L):
            return g
    return None
