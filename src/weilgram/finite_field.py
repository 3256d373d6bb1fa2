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
candidates have a small factor and stop after a few.  Elements carry
their coefficient vector and a reference to the owning field; all
operations are pure and exact, and powers and inverses (a^(q-2)) are one
modular power of the representative.

Extensions F_{q^j} of F_q = F_{p^k} are built as fresh fields of degree k*j
over the prime field.  Constants from F_p embed by the constant embedding,
which is all the curve modules need since curve coefficients are restricted
to the prime field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from . import fppoly
from .errors import (
    DivisionByZero,
    EvenCharacteristic,
    FieldMismatch,
    InvalidDegree,
    NotPrime,
    NotPrimePower,
    TooLarge,
    ZeroInput,
)


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

    def zero(self) -> "FieldElement":
        return FieldElement((0,) * self.k, self)

    def one(self) -> "FieldElement":
        return self.scalar(1)

    def scalar(self, c: int) -> "FieldElement":
        """Embed an integer (i.e. an element of the prime field) as a constant."""
        return FieldElement((c % self.p,) + (0,) * (self.k - 1), self)

    def element(self, coeffs) -> "FieldElement":
        coeffs = tuple(c % self.p for c in coeffs)
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(coeffs, self)

    def generator(self) -> "FieldElement":
        """The residue class of t (equals the scalar 0+1*t for k >= 2)."""
        if self.k == 1:
            return self.scalar(1)
        return FieldElement((0, 1) + (0,) * (self.k - 2), self)

    def __repr__(self):
        return f"F_{self.q}" if self.k == 1 else f"F_{self.q} (= F_{self.p}^{self.k})"


class FieldElement:
    """Element of a FieldSpec, stored as k residues mod p, ascending degree."""

    __slots__ = ("coefficients", "owner")

    def __init__(self, coefficients: tuple, owner: FieldSpec):
        self.coefficients = coefficients
        self.owner = owner

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.owner != self.owner:
            raise FieldMismatch(f"{self.owner!r} vs {other.owner!r}")

    def __add__(self, other):
        self._check(other)
        p = self.owner.p
        return FieldElement(
            tuple((a + b) % p for a, b in zip(self.coefficients, other.coefficients)),
            self.owner,
        )

    def __sub__(self, other):
        self._check(other)
        p = self.owner.p
        return FieldElement(
            tuple((a - b) % p for a, b in zip(self.coefficients, other.coefficients)),
            self.owner,
        )

    def __neg__(self):
        p = self.owner.p
        return FieldElement(tuple((-a) % p for a in self.coefficients), self.owner)

    def __mul__(self, other):
        self._check(other)
        spec = self.owner
        return _from_poly(fppoly.mul(fppoly.trim(self.coefficients, spec.p),
                                     fppoly.trim(other.coefficients, spec.p), spec.p), spec)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse a^(q-2)."""
        if self.is_zero():
            raise DivisionByZero("cannot invert zero")
        return self ** (self.owner.q - 2)

    def __pow__(self, n: int) -> "FieldElement":
        """One modular power of the representative; 0**0 is defined as 1."""
        spec = self.owner
        base = self.inverse() if n < 0 else self
        return _from_poly(fppoly.powmod(fppoly.trim(base.coefficients, spec.p), abs(n),
                                        spec.modulus, spec.p), spec)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coefficients)

    def index(self) -> int:
        """Position of this element in enumeration order (little-endian base p)."""
        idx = 0
        for c in reversed(self.coefficients):
            idx = idx * self.owner.p + c
        return idx

    def __eq__(self, other):
        return (
            isinstance(other, FieldElement)
            and self.owner == other.owner
            and self.coefficients == other.coefficients
        )

    def __hash__(self):
        return hash((self.coefficients, self.owner.p, self.owner.modulus))

    def __repr__(self):
        return f"{fppoly.to_string(fppoly.trim(self.coefficients, self.owner.p), 't')} in {self.owner!r}"


def _from_poly(f: tuple, spec: FieldSpec) -> FieldElement:
    """The element of `spec` represented by the polynomial f, reduced."""
    red = fppoly.mod(f, spec.modulus, spec.p)
    return FieldElement(red + (0,) * (spec.k - len(red)), spec)


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
    """
    if k < 1:
        raise InvalidDegree(k)
    if not is_prime(p):
        raise NotPrime(p)
    if k == 1:
        return FieldSpec(p=p, k=1, modulus=(0, 1), q=p)
    # irreducibles need nonzero constant term, so c_0 starts at 1
    for c0 in range(1, p):
        for tail in product(range(p), repeat=k - 1):
            cand = (c0,) + tail + (1,)
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


def enumerate_elements(field: FieldSpec):
    """All q elements once, coefficient tuples counted little-endian, 0 first."""
    p, k = field.p, field.k
    coeffs = [0] * k
    for _ in range(field.q):
        yield FieldElement(tuple(coeffs), field)
        for i in range(k):
            coeffs[i] += 1
            if coeffs[i] < p:
                break
            coeffs[i] = 0


def element_from_index(field: FieldSpec, idx: int) -> FieldElement:
    """Inverse of FieldElement.index()."""
    p = field.p
    coeffs = []
    for _ in range(field.k):
        coeffs.append(idx % p)
        idx //= p
    return FieldElement(tuple(coeffs), field)


def is_square(a: FieldElement) -> bool:
    """Euler criterion a^((q-1)/2) = 1; odd characteristic, a != 0 only."""
    if a.owner.p == 2:
        raise EvenCharacteristic("square test needs odd characteristic")
    if a.is_zero():
        raise ZeroInput("square test is undefined at zero")
    return (a ** ((a.owner.q - 1) // 2)) == a.owner.one()


def scalar_is_square_in(c: int, field: FieldSpec) -> bool:
    """is_square for a prime-field constant embedded in `field`, via Euler in F_p.

    Since c^(p-1) = 1, the exponent (q-1)/2 reduces mod p-1.
    """
    if field.p == 2:
        raise EvenCharacteristic("square test needs odd characteristic")
    c %= field.p
    if c == 0:
        raise ZeroInput("square test is undefined at zero")
    e = ((field.q - 1) // 2) % (field.p - 1)
    return pow(c, e, field.p) == 1
