"""Vectorized bulk arithmetic over a whole finite field at once.

Elements of F_{p^K} are addressed by their enumeration index (little-endian
base-p digit vector, matching finite_field.enumerate_elements).  A FieldTable
implements elementwise field operations on whole numpy index arrays.  This is
what makes brute-force point counting over fields with a million elements take
seconds instead of hours; results are bit-identical to the scalar FieldElement
arithmetic, which the test suite checks.

Multiplication runs in log space over a primitive element g (the lookup-table
idiom of the galois package): for nonzero a and b,
a*b = exp[(log a + log b) mod (q-1)], two gathers around one add and one
wrap.  Zero needs no mask: log[0] is a sentinel whose sums land past the end
of exp and are clipped onto its last slot, which holds 0.  A power e^n is
one gather exp[(n log e) mod (q-1)], and the number of square roots of v is
1 + chi(v), with the quadratic character chi read from the parity of log v
(every element has one square root when p = 2).  Addition and prime-field
scaling work digitwise on the digit matrix.

Tables are built once per field, in O(q K^2) work.  g is the first
element, in enumeration order, with g^((q-1)/r) != 1 for every prime r
dividing q-1, found with scalar arithmetic.  Multiplication by a fixed
element is an F_p-linear map, a K x K matrix, so the digit rows of the baby
steps g^0..g^(B-1) come from doubling, and each giant step (times g^B) is
one (B x K) @ (K x K) float64 matmul mod p.  log is the inverse permutation
of exp.

Memory per element: K digits of the smallest unsigned type that holds the
digit sums 2(p-1) (one byte up to p = 128); 4 bytes each for exp (int32) and
log (uint32, so the wrap is one unsigned minimum); 1 byte of square-root
counts once sqrt_count is used.  No per-exponent power array is kept, and
operation temporaries are proportional to the operands (add and scale work
in chunks of CHUNK rows).  Tables stop at q = 2^26 (TooLarge above): there
the log sums still fit 32 bits and every float64 entry of the build, at most
K(p-1)^2, stays an exact integer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fppoly
from .errors import TooLarge
from .finite_field import FieldSpec, element_from_index

CHUNK = 1 << 16
MAX_Q = 1 << 26
_BABY_STEPS = 1 << 14


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


class FieldTable:
    """Index-space arithmetic tables for one FieldSpec."""

    def __init__(self, spec: FieldSpec):
        if spec.q > MAX_Q:
            raise TooLarge(f"field tables need q <= 2^26, got q = {spec.q}")
        self.spec = spec
        self.p = spec.p
        self.K = spec.k
        self.q = spec.q
        self.digits = np.empty((self.q, self.K), dtype=np.min_scalar_type(2 * (self.p - 1)))
        # as a (p,)*K grid the index runs over the digits from most significant
        grid = self.digits.reshape((self.p,) * self.K + (self.K,))
        for i in range(self.K):
            axis = [1] * self.K
            axis[self.K - 1 - i] = self.p
            grid[..., i] = np.arange(self.p).reshape(axis)
        # rows m-K of t^m mod modulus, for m = K .. 2K-2 (read by perfbench)
        rows = []
        power = fppoly.mod((0,) * self.K + (1,), spec.modulus, self.p)
        for _ in range(self.K - 1):
            rows.append(power + (0,) * (self.K - len(power)))
            power = fppoly.mod((0,) + power, spec.modulus, self.p)
        self.reduction = np.array(rows, dtype=np.int64).reshape(self.K - 1, self.K)
        self._pvec = np.array([self.p**i for i in range(self.K)], dtype=np.int64)
        self._sqrt_count = None
        self._pow_cache = {}  # always empty; perfbench sums its values
        self.exp = self._build_exp()
        # log[0] = 2(q-1) is a sentinel: a sum with it stays >= q-1 after the
        # wrap in mul, and the clipped gather sends it to exp[q-1] = 0
        self.log = np.empty(self.q, dtype=np.uint32)
        self.log[self.exp[:-1]] = np.arange(self.q - 1, dtype=np.uint32)
        self.log[0] = 2 * (self.q - 1)

    def _primitive_element(self):
        n = self.q - 1
        one = self.spec.one()
        cofactors = [n // r for r in _prime_factors(n)]
        # a prime-field scalar has order dividing p-1, so for K > 1 start at t
        for i in range(self.p if self.K > 1 else 1, self.q):
            g = element_from_index(self.spec, i)
            if all(g**c != one for c in cofactors):
                return g
        raise AssertionError(f"no primitive element in {self.spec!r}")  # unreachable

    def _mul_matrix(self, c) -> np.ndarray:
        """R with digits(x * c) = digits(x) @ R mod p: row i holds t^i * c."""
        t = self.spec.generator()  # t, or 1 when K = 1
        rows, term = [], c
        for _ in range(self.K):
            rows.append(term.coefficients)
            term = term * t
        return np.array(rows, dtype=np.float64)

    def _build_exp(self) -> np.ndarray:
        """exp[i] = index of g^i for i < q-1, and exp[q-1] = 0.

        Digit rows are float64 so the matmuls run in BLAS; every entry and
        dot product is an integer below K(p-1)^2 < 2^53, so all of it is exact.
        """
        n, p = self.q - 1, self.p

        def reduce(x):
            x -= np.floor(x / p) * p
            return x

        B = min(_BABY_STEPS, 1 << (n - 1).bit_length())
        rows = np.zeros((1, self.K))
        rows[0, 0] = 1
        step = self._mul_matrix(self._primitive_element())
        while len(rows) < B:  # baby steps by doubling; step ends as g^B
            rows = np.vstack([rows, reduce(rows @ step)])
            step = reduce(step @ step)
        pvec = self._pvec.astype(np.float64)
        exp = np.empty(n + 1, dtype=np.int32)
        for lo in range(0, n, B):  # giant steps
            hi = min(lo + B, n)
            exp[lo:hi] = rows[: hi - lo] @ pvec
            rows = reduce(rows @ step)
        exp[n] = 0
        return exp

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two index arrays (broadcast to equal shape)."""
        s = self.log[a] + self.log[b]
        np.minimum(s, s - (self.q - 1), out=s)  # unsigned: subtracts q-1 iff s >= q-1
        return self.exp.take(s, mode="clip")

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        out = np.empty(a.shape, dtype=np.int64)
        for lo in range(0, a.size, CHUNK):
            hi = min(lo + CHUNK, a.size)
            dig = self.digits.take(a[lo:hi], axis=0) + self.digits.take(b[lo:hi], axis=0)
            np.minimum(dig, dig - self.p, out=dig)  # unsigned: subtracts p iff dig >= p
            out[lo:hi] = dig @ self._pvec
        return out

    def scale(self, a: np.ndarray, c: int) -> np.ndarray:
        """Multiply by a prime-field constant."""
        c %= self.p
        if c == 1:
            return np.asarray(a, dtype=np.int64)
        a = np.asarray(a, dtype=np.int64)
        out = np.empty(a.shape, dtype=np.int64)
        for lo in range(0, a.size, CHUNK):
            hi = min(lo + CHUNK, a.size)
            dig = self.digits.take(a[lo:hi], axis=0).astype(np.int64)
            out[lo:hi] = (dig * c % self.p) @ self._pvec
        return out

    def add_scalar(self, a: np.ndarray, c: int) -> np.ndarray:
        """Add a prime-field constant: only the degree-0 digit moves."""
        c %= self.p
        a = np.asarray(a)
        if c == 0:
            return a
        shift = np.where(np.arange(self.p) < self.p - c, c, c - self.p).astype(a.dtype)
        return a + shift[a % self.p]

    def eval_poly(self, f, at: np.ndarray = None) -> np.ndarray:
        """Horner evaluation of a prime-field polynomial at index array `at`
        (default: every field element)."""
        x = np.arange(self.q, dtype=np.int64) if at is None else np.asarray(at, dtype=np.int64)
        if not f:
            return np.zeros(x.shape, dtype=np.int64)
        val = np.full(x.shape, f[-1] % self.p, dtype=np.int64)
        for c in reversed(f[:-1]):
            val = self.add_scalar(self.mul(val, x), c)
        return val

    def eval_zpoly(self, coeff_indices, at: np.ndarray) -> np.ndarray:
        """Horner evaluation where coefficients are arbitrary field elements
        given by index (ascending degree)."""
        at = np.asarray(at, dtype=np.int64)
        if not coeff_indices:
            return np.zeros(at.shape, dtype=np.int64)
        val = np.full(at.shape, coeff_indices[-1], dtype=np.int64)
        for c in reversed(coeff_indices[:-1]):
            val = self.add(self.mul(val, at), c)
        return val

    def powers(self, n: int) -> np.ndarray:
        """Index array of e^n over all elements e (n >= 0); e^0 = 1 for all e,
        and 0^n = 0 for n >= 1."""
        if n == 0:
            return np.full(self.q, 1, dtype=np.int64)
        out = self.exp[self.log[1:].astype(np.int64) * (n % (self.q - 1)) % (self.q - 1)]
        return np.concatenate(([0], out))

    def sqrt_count(self) -> np.ndarray:
        """Table s with s[v] = #{y in the field : y^2 = v}, built once."""
        if self._sqrt_count is None:
            counts = np.ones(self.q, dtype=np.int8)
            if self.p != 2:  # g^i is a square exactly when i is even
                counts[self.exp[0:-1:2]] = 2
                counts[self.exp[1:-1:2]] = 0
            self._sqrt_count = counts
        return self._sqrt_count


@lru_cache(maxsize=32)
def get_table(spec: FieldSpec) -> FieldTable:
    return FieldTable(spec)
