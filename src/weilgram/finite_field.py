"""Exact arithmetic in finite fields F_{p^k} and their extensions.

Fields are built as F_p[t]/(m(t)) where m is the lexicographically smallest
monic irreducible polynomial of degree k (coefficients compared low degree
first), so construction is reproducible across runs.  Candidates are tested
by Ben-Or's criterion (Ben-Or, "Probabilistic algorithms in finite fields",
1981), which is exact: a monic f of degree k is irreducible iff
gcd(x^(p^i) - x, f) = 1 for every i <= k/2, since a reducible f has an
irreducible factor of some degree i <= k/2, and that factor divides
x^(p^i) - x.  The test takes at most k/2 p-th powers mod f, about
k log2(p) products of degree < k, and one gcd per power; most reducible
candidates have a small factor and stop after a few.  Arithmetic on
the elements of a field runs on whole index arrays, in the tables module.

Extensions F_{q^j} of F_q = F_{p^k} are built as fresh fields of degree k*j
over the prime field.  Constants from F_p embed by the constant embedding,
which is all the curve modules need since curve coefficients are restricted
to the prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import fppoly
from .errors import (
    InvalidDegree,
    NotPrime,
    NotPrimePower,
    TooLarge,
)


# the largest extension degree k: every field a table-backed count reaches has
# p^k <= 2^52 (a table holds at most 2^26 elements, and the norm path counts
# F_Q on the table of sqrt(Q)), and k <= 52 keeps them all; the modulus search
# at k = 52 takes 0.01 s over F_2 and 0.43-0.47 s over p = 9999991
MAX_DEGREE = 52

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_LIMIT = 3317044064679887385961981  # least strong pseudoprime to every base above


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the prime bases 2..41, exact for
    n < MR_LIMIT (about 3.3e24); larger n without a factor among those bases
    raise TooLarge."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= MR_LIMIT:
        raise TooLarge(f"primality is decided exactly only below {MR_LIMIT}, got {n}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    r = 1 << -(-n.bit_length() // k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def prime_power_decomposition(q: int):
    """Return (p, k) with q = p^k, or None if q is not a prime power.  Tries
    the exact integer k-th root for each k, from the largest possible down."""
    if q < 2:
        return None
    for k in range(q.bit_length(), 0, -1):
        p = _iroot(q, k)
        if p >= 2 and p**k == q and is_prime(p):
            return (p, k)
    return None


def check_prime_power(q: int) -> None:
    """Raise NotPrimePower unless a field with q elements exists."""
    if prime_power_decomposition(q) is None:
        raise NotPrimePower(f"field size {q} is not a prime power")


@dataclass(frozen=True)
class FieldSpec:
    """A concrete model of F_{p^k}: modulus coefficients ascending, monic."""

    p: int
    k: int
    modulus: tuple
    q: int

    def __repr__(self):
        return f"F_{self.q}" if self.k == 1 else f"F_{self.q} (= F_{self.p}^{self.k})"


def _prime_factors(n: int) -> list:
    """Distinct prime factors of n >= 1 by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(f: tuple, p: int) -> bool:
    """Ben-Or's test for a monic f of degree k >= 1: gcd(x^(p^i) - x, f) = 1
    for every i <= k/2.  The powers x^(p^i) come one p-th power at a time,
    and the test stops at the first common factor."""
    x = h = fppoly.mod((0, 1), f, p)
    for _ in range(fppoly.degree(f) // 2):
        h = fppoly.powmod(h, p, f, p)
        if fppoly.degree(fppoly.gcd(fppoly.sub(h, x, p), f, p)) > 0:
            return False
    return True


@lru_cache(maxsize=None)
def construct_field(p: int, k: int) -> FieldSpec:
    """Build F_{p^k} with the lexicographically smallest irreducible modulus.

    For k = 1 the modulus is t by convention and the field is F_p itself.
    A k above MAX_DEGREE raises TooLarge before the search.
    """
    if k < 1:
        raise InvalidDegree(k)
    if k > MAX_DEGREE:
        raise TooLarge(f"extension degree k={k} exceeds {MAX_DEGREE}")
    if not is_prime(p):
        raise NotPrime(p)
    if k == 1:
        return FieldSpec(p=p, k=1, modulus=(0, 1), q=p)
    # candidates c_0 + c_1 t + .. + t^k in lexicographic order, c_0 first: the
    # base-p digits of a counter, most significant first, walked lazily;
    # irreducibles need a nonzero constant term, so c_0 starts at 1
    places = [p**e for e in range(k - 1, -1, -1)]
    for n in range(places[0], p**k):
        cand = tuple(n // place % p for place in places) + (1,)
        if _is_irreducible(cand, p):
            return FieldSpec(p=p, k=k, modulus=cand, q=p**k)
    raise AssertionError(f"no irreducible of degree {k} over F_{p}")  # unreachable


def extension_of(field: FieldSpec, j: int) -> FieldSpec:
    """The degree-j extension F_{q^j}, built as a fresh field over F_p."""
    if j < 1:
        raise InvalidDegree(j)
    if j == 1:
        return field
    return construct_field(field.p, field.k * j)
