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
wrap.  Zero needs no mask: log[0] = 3(q-1) is a sentinel whose sums land past
the end of exp, even after two wraps, and are clipped onto its last slot,
which holds 0.  A power e^n is one gather exp[(n log e) mod (q-1)], and the
number of square roots of v is 1 + chi(v), with the quadratic character chi
read from the parity of log v (every element has one square root when p = 2).

Addition runs in log space too, through the Zech logarithm
Z[t] = log(1 + g^t): a + b = a (1 + b/a), so log(a + b) = log a + Z[log b -
log a].  Z[q-1] = 0 = log(1 + 0), so a gather clipped at q-1 adds 1 to zero,
and Z[t] is the sentinel where 1 + g^t = 0.  Horner's rule for a polynomial
with prime-field coefficients keeps the running value v as log(v / c), c the
last coefficient added, and the next nonzero coefficient c' at a gap of m
degrees adds v x^m + c' = c' (1 + (v / c) x^m (c / c')): two adds (of
log x^m and of the constant log(c / c')), two unsigned wraps and one Z
gather.  x runs over g^i in CHUNK slices, so log x^m = m i mod (q-1) is a
CHUNK-long table plus a constant per slice, which joins the constant add.
Zero values and zero coefficients need no mask, and f(0) is the constant
term.

Tables are built once per field, in O(q K^2) work.  g is the first
element, in enumeration order, with g^((q-1)/r) != 1 for every prime r
dividing q-1, found with scalar arithmetic.  Multiplication by a fixed
element is an F_p-linear map, a K x K matrix, so the digit rows of the baby
steps g^0..g^(B-1) come from doubling, and each giant step (times g^B) is
one (B x K) @ (K x K) float64 matmul mod p.  log is the inverse permutation
of exp.

Memory per element: K digits of the smallest unsigned type that holds p-1
(one byte up to p = 256); 4 bytes each for exp (int32) and
log (uint32, so the wrap is one unsigned minimum); 4 bytes of Zech
logarithms (uint32) once zech is used, and 1 byte of square-root counts once
sqrt_count is used.  No per-exponent power array is kept (powers returns a
new int32 array, computed in CHUNK slices), and operation temporaries are
proportional to the operands (eval_logs holds its q-entry result and
O(CHUNK) more).  Tables stop at q = 2^26 (TooLarge above): there the log
sums, at most 6(q-1), still fit 32 bits and every float64 entry of the build,
at most K(p-1)^2, stays an exact integer.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import fppoly
from .errors import TooLarge
from .finite_field import FieldSpec, _prime_factors, element_from_index

MAX_Q = 1 << 26
CHUNK = 1 << 16  # elements per slice of a bounded-memory pass
_BABY_STEPS = 1 << 14


class FieldTable:
    """Index-space arithmetic tables for one FieldSpec."""

    def __init__(self, spec: FieldSpec):
        if spec.q > MAX_Q:
            raise TooLarge(f"field tables need q <= 2^26, got q = {spec.q}")
        self.spec = spec
        self.p = spec.p
        self.K = spec.k
        self.q = spec.q
        self.digits = np.empty((self.q, self.K), dtype=np.min_scalar_type(self.p - 1))
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
        self._zech = None
        self._pow_cache = {}  # always empty; perfbench sums its values
        self.exp = self._build_exp()
        # log[0] = 3(q-1) is a sentinel: a sum with it stays >= q-1 after two
        # wraps, and the clipped gather sends it to exp[q-1] = 0
        self.log = np.empty(self.q, dtype=np.uint32)
        self.log[self.exp[:-1]] = np.arange(self.q - 1, dtype=np.uint32)
        self.log[0] = 3 * (self.q - 1)

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

    def _wrap(self, s: np.ndarray) -> np.ndarray:
        """s - (q-1) where s >= q-1, in place: unsigned, so one minimum."""
        return np.minimum(s, s - (self.q - 1), out=s)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise product of two index arrays (broadcast to equal shape)."""
        s = self.log.take(a) + self.log.take(b)  # take: no slow path for int32 indices
        return self.exp.take(self._wrap(s), mode="clip")

    def div(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise a / b of two index arrays; b must be nonzero."""
        s = self.log.take(a) + (self.q - 1 - self.log.take(b))
        return self.exp.take(self._wrap(s), mode="clip")

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise sum of two index arrays: log(a + b) = lo + Z[hi - lo]
        with lo, hi the smaller and larger of log a, log b.  A zero operand
        has the larger log, so hi - lo >= q-1 and the clipped gather reads
        Z[q-1] = 0; two zeros stay at the sentinel."""
        la, lb = self.log.take(a), self.log.take(b)
        lo = np.minimum(la, lb)
        s = lo + self.zech().take(np.maximum(la, lb) - lo, mode="clip")
        return self.exp.take(self._wrap(s), mode="clip")

    def add_scalar(self, a: np.ndarray, c: int) -> np.ndarray:
        """Add a prime-field constant: only the degree-0 digit moves."""
        c %= self.p
        a = np.asarray(a)
        if c == 0:
            return a
        shift = np.where(np.arange(self.p) < self.p - c, c, c - self.p).astype(a.dtype)
        return a + shift.take(a % self.p)

    def eval_logs(self, f) -> np.ndarray:
        """log f(x) for a prime-field polynomial f at every x, in exp order
        (entry i is x = exp[i], so the last entry is x = 0); an entry >= q-1
        means f(x) = 0.  Horner's rule in log space over CHUNK slices of the
        nonzero x = g^i; see the module docstring."""
        n, log = self.q - 1, self.log
        terms = [(k, int(log[c % self.p])) for k, c in enumerate(f) if c % self.p]
        if not terms:
            return np.full(self.q, log[0], dtype=np.uint32)
        out = np.empty(self.q, dtype=np.uint32)
        out[n] = terms[0][1] if terms[0][0] == 0 else log[0]  # f(0)
        # (m, d): times x^m and g^d, then (but for the last) add 1 by Zech;
        # the running value is log(v / c) for the last coefficient c added
        k, lc = terms.pop()
        steps = []
        for k_next, lc_next in reversed(terms):
            steps.append((k - k_next, lc - lc_next))
            k, lc = k_next, lc_next
        steps.append((k, lc))

        def progression(m):  # m i mod (q-1) for i < CHUNK, by doubling
            table = np.zeros(min(CHUNK, n), dtype=np.uint32)
            width = 1
            while width < len(table):
                s = table[width:2 * width]
                self._wrap(np.add(table[:len(s)], m * width % n, out=s))
                width *= 2
            return table

        zech, x_logs = self.zech(), {m: progression(m) for m, _ in steps}
        for lo in range(0, n, CHUNK):
            s = np.zeros(min(CHUNK, n - lo), dtype=np.uint32)
            for i, (m, d) in enumerate(steps):
                s = s + x_logs[m][:len(s)]
                s += (m * lo + d) % n
                self._wrap(self._wrap(s))
                if i < len(steps) - 1:
                    s = zech.take(s, mode="clip")
            out[lo:lo + len(s)] = s
        return out

    def eval_poly(self, f) -> np.ndarray:
        """Horner evaluation of a prime-field polynomial at every field
        element: an int32 index array in index order, scattered in CHUNK
        slices (a scatter converts its int32 indices to int64)."""
        logs, out = self.eval_logs(f), np.empty(self.q, dtype=np.int32)
        for lo in range(0, self.q, CHUNK):
            out[self.exp[lo:lo + CHUNK]] = self.exp.take(logs[lo:lo + CHUNK], mode="clip")
        return out

    def powers(self, n: int) -> np.ndarray:
        """Index array (int32) of e^n over all elements e (n >= 0); e^0 = 1
        for all e, and 0^n = 0 for n >= 1.  Computed in CHUNK slices, so no
        int64 array of q entries is allocated."""
        if n == 0:
            return np.ones(self.q, dtype=np.int32)
        out = np.zeros(self.q, dtype=np.int32)
        e = n % (self.q - 1)
        for lo in range(1, self.q, CHUNK):
            logs = self.log[lo:lo + CHUNK].astype(np.int64)
            out[lo:lo + CHUNK] = self.exp.take(logs * e % (self.q - 1))
        return out

    def sqrt_count(self) -> np.ndarray:
        """Table s with s[v] = #{y in the field : y^2 = v}, built once."""
        if self._sqrt_count is None:
            counts = np.ones(self.q, dtype=np.int8)
            if self.p != 2:  # g^i is a square exactly when i is even
                counts[self.exp[0:-1:2]] = 2
                counts[self.exp[1:-1:2]] = 0
            self._sqrt_count = counts
        return self._sqrt_count

    def zech(self) -> np.ndarray:
        """Table Z with Z[t] = log(1 + g^t) for t < q-1 and Z[q-1] = 0, built
        once in CHUNK slices."""
        if self._zech is None:
            n = self.q - 1
            zech = np.empty(self.q, dtype=np.uint32)
            for lo in range(0, n, CHUNK):
                hi = min(lo + CHUNK, n)
                zech[lo:hi] = self.log.take(self.add_scalar(self.exp[lo:hi], 1))
            zech[n] = 0
            self._zech = zech
        return self._zech


@lru_cache(maxsize=32)
def get_table(spec: FieldSpec) -> FieldTable:
    return FieldTable(spec)
