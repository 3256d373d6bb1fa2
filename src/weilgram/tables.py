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
CHUNK-long table plus a constant per slice, which joins the constant add;
each such progression is built once per table and gap m, and kept.  Zero
values and zero coefficients need no mask, and f(0) is the constant term.

horner_logs is Horner's rule in log space where coefficients and points
vary per entry and any of them may be zero (the counts through the norm,
see the curves module): a step v x + c adds log v and log x and reduces
the sum by one gather of a residue table, t mod (q-1) for t < 3(q-1) with
every larger t sent to the sentinel, then adds c by Zech between the
smaller and the larger log; a zero operand makes their difference exceed
q-1, so the clipped gather reads Z[q-1] = 0.  reduce_logs is that gather
alone, the log of a product of up to three factors.  frobenius_orbits
lists one non-square per orbit of c -> c^p, the least log of its orbit
among the odd logs, with the orbit's size.

Tables are built once per field from one linear recurring sequence, in
O(qK) work (Lidl & Niederreiter, Finite Fields, ch. 6 and 8).  g is the
first element, in enumeration order, with g^((q-1)/r) != 1 for every prime
r dividing q-1, found with scalar arithmetic (through the norm to F_p for
r | p-1); one K x K solve mod p gives
g^K = sum c_j g^j, its minimal polynomial.  Let s_m be the first coordinate
of g^m in the basis 1, g, ..., g^(K-1); then s_(m+K) = sum c_j s_(m+j).
Row k of R holds the coordinates of g^k, so s_(m+k) = R[k] . (s_m, ...,
s_(m+K-1)), and s comes in blocks of B terms, each one (B+K) x K float64
product with the last window, reduced mod p; B is about CHUNK / K, at most
q, and R comes from doubling.  Every entry stays an integer below K(p-1)^2
< 2^53, so the floats are exact.

The window (s_i, ..., s_(i+K-1)) is an F_p-linear bijective image of g^i,
its window coordinates, and E[i] = sum_j s_(i+j) p^j indexes it.  The
element 1 has window e_0, so adding 1 moves only digit 0, and with L the
inverse permutation of E (L[0] = 3(q-1), the sentinel) the Zech table is
Z = L[E + 1].  A prime-field constant c has window c e_0, index c, so its
log is L[c] (prime_logs).  eval_logs and horner_logs read only Z and these
p logs, so a hyperelliptic or biquadratic count builds nothing else.

exp and log are built on first use, for the index-space callers: mul,
div, add, eval_poly and sqrt_count.  Each digit of g^m in the polynomial
basis is a linear recurring sequence with the same recurrence, so exp runs
the same blocks, started from the digits of g^0..g^(K-1), and log is its
inverse permutation.  The library reads neither digits nor powers.

Memory per element: a table that only counts holds 4 bytes, its Zech
logarithms (uint32), plus R, kept so that exp needs no second doubling:
(B+K) x K entries of the smallest unsigned type that holds p-1, about
CHUNK bytes in all up to p = 256.  The build peaks at 8 bytes, E and L
(both uint32; s, one byte up to p = 256, is freed before L exists), plus
O(CHUNK) slices, as both inverse permutations are scattered in CHUNK
slices.  On first use, exp (int32) and log (uint32) add 4 bytes each,
digits K bytes of the smallest unsigned type that holds p-1, and
sqrt_count 1 byte.  eval_logs keeps one progression per gap m it has
met, min(CHUNK, q-1) uint32 (256 KB from q > CHUNK on).  The tables that
counts through the norm run on also keep the residue table (12 bytes per
element) and the orbit leaders and sizes (12 bytes per leader, about
q / 2K leaders); as those tables have sqrt(Q) elements for a count over
F_Q, this is O(sqrt(Q)).  No per-exponent power array is kept (powers
returns a new int32 array, computed in CHUNK slices), and operation
temporaries are proportional to the operands (eval_logs holds its q-entry
result and O(CHUNK) more).  Tables stop at q = 2^26 (TooLarge above):
there the log sums, at most 6(q-1), still fit 32 bits.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import fppoly
from .errors import TooLarge
from .finite_field import FieldSpec, _prime_factors, element_from_index

MAX_Q = 1 << 26
CHUNK = 1 << 16  # elements per slice of a bounded-memory pass


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """x mod p in place, for float64 integers below 2^53."""
    y = x / p
    np.floor(y, out=y)
    y *= p
    x -= y
    return x


def _solve_mod(A: list, b: list, p: int) -> list:
    """x with A x = b mod p, for A square and invertible mod p, given as a
    list of rows of ints (Gauss-Jordan elimination)."""
    K = len(A)
    M = [list(row) + [v] for row, v in zip(A, b)]
    for col in range(K):
        pivot = next(r for r in range(col, K) if M[r][col] % p)
        M[col], M[pivot] = M[pivot], M[col]
        inv = pow(M[col][col], -1, p)
        M[col] = [v * inv % p for v in M[col]]
        for r in range(K):
            if r != col and M[r][col]:
                f = M[r][col]
                M[r] = [(v - f * w) % p for v, w in zip(M[r], M[col])]
    return [row[K] for row in M]


def _inverse_permutation(perm: np.ndarray, q: int) -> np.ndarray:
    """L with L[perm[i]] = i for i < q-1 and L[0] = 3(q-1), the sentinel,
    scattered in CHUNK slices (a scatter converts its indices to int64)."""
    n = q - 1
    inverse = np.empty(q, dtype=np.uint32)
    for lo in range(0, n, CHUNK):
        hi = min(lo + CHUNK, n)
        inverse[perm[lo:hi]] = np.arange(lo, hi, dtype=np.uint32)
    inverse[0] = 3 * n
    return inverse


class FieldTable:
    """Index-space arithmetic tables for one FieldSpec."""

    def __init__(self, spec: FieldSpec):
        if spec.q > MAX_Q:
            raise TooLarge(f"field tables need q <= 2^26, got q = {spec.q}")
        self.spec = spec
        self.p = spec.p
        self.K = spec.k
        self.q = spec.q
        # rows m-K of t^m mod modulus, for m = K .. 2K-2 (read by perfbench)
        rows = []
        power = fppoly.mod((0,) * self.K + (1,), spec.modulus, self.p)
        for _ in range(self.K - 1):
            rows.append(power + (0,) * (self.K - len(power)))
            power = fppoly.mod((0,) + power, spec.modulus, self.p)
        self.reduction = np.array(rows, dtype=np.int64).reshape(self.K - 1, self.K)
        # p^i for i < K (read by perfbench)
        self._pvec = np.array([self.p**i for i in range(self.K)], dtype=np.int64)
        self._sqrt_count = None
        self._pow_cache = {}  # always empty; perfbench sums its values
        self._progressions = {}  # m -> m i mod (q-1) for i < CHUNK, for eval_logs
        g, power, g_powers = self._primitive_element(), spec.one(), []
        for _ in range(self.K + 1):
            g_powers.append(power.coefficients)
            power = power * g
        # g^K = sum c_j g^j: one K x K solve, the digits of g^j as columns
        self._rows = self._baby_steps(
            _solve_mod(list(zip(*g_powers[:self.K])), g_powers[self.K], self.p))
        self._g_digits = np.array(g_powers[:self.K], dtype=np.float64)
        # zech[t] = log(1 + g^t) for t < q-1 (the sentinel where 1 + g^t = 0)
        # and zech[q-1] = 0
        self.zech, self.prime_logs = self._zech_logs()

    def _primitive_element(self):
        """The first element, in enumeration order, with g^((q-1)/r) != 1
        for every prime r | q-1.  For r | p-1 that power is N(g)^((p-1)/r),
        N(g) = g^((q-1)/(p-1)) = Res(modulus, g) the norm to F_p, so only
        the primes r not dividing p-1 need a power in the field."""
        n, p, one = self.q - 1, self.p, self.spec.one()
        primes = _prime_factors(n)
        in_base = [(p - 1) // r for r in primes if (p - 1) % r == 0]
        in_field = [n // r for r in primes if (p - 1) % r]
        # a prime-field scalar has order dividing p-1, so for K > 1 start at t
        for i in range(p if self.K > 1 else 1, self.q):
            g = element_from_index(self.spec, i)
            norm = fppoly.resultant(self.spec.modulus, fppoly.trim(g.coefficients, p), p)
            if all(pow(norm, e, p) != 1 for e in in_base) and \
                    all(g**e != one for e in in_field):
                return g
        raise AssertionError(f"no primitive element in {self.spec!r}")  # unreachable

    def _baby_steps(self, c: list) -> np.ndarray:
        """R, whose row k holds the coordinates of g^k in the basis 1, g, ..,
        g^(K-1), for k < B+K, given g^K = sum c_j g^j; by doubling, since
        g^(k+n) = sum_j R[k, j] g^(j+n) makes R[k+n] = R[k] @ R[n:n+K].  B is
        about CHUNK / K, at most q, and R is kept in the smallest unsigned
        type that holds p-1."""
        K, p = self.K, self.p
        B = min(self.q, CHUNK // K)
        R = np.empty((B + K, K))
        R[:K], R[K] = np.eye(K), c
        n = 1
        while n < B:
            m = min(n, B - n)
            R[n + K:n + K + m] = _reduce(R[K:m + K] @ R[n:n + K], p)
            n += m
        return R.astype(np.min_scalar_type(p - 1))

    def _blocks(self, state: np.ndarray):
        """Terms lo .. lo+B+K-1 of every linear recurring sequence u with
        u_(m+K) = sum c_j u_(m+j), for lo = 0, B, 2B, .. < q-1, given terms
        0..K-1 as the rows of `state` (one column per sequence).  Such a u
        is a linear function of g^m, so u_(m+k) = R[k] . (u_m .. u_(m+K-1)),
        and a block is one (B+K) x K product mod p.  Float64 so it runs in
        BLAS; every entry is below p and every dot product below K(p-1)^2 <
        2^53, so all of it is exact."""
        R = self._rows.astype(np.float64)
        B = len(R) - self.K
        for lo in range(0, self.q - 1, B):
            block = _reduce(R @ state, self.p)
            yield lo, block
            state = block[B:]

    def _zech_logs(self) -> tuple:
        """(Z, logs of 0..p-1) in window coordinates: with s_m the first
        coordinate of g^m, E[i] = sum_j s_(i+j) p^j indexes g^i, L inverts
        E, and Z = L[E + 1], where + 1 moves digit 0 only.  E is turned into
        Z in place, in CHUNK slices."""
        n, p, K = self.q - 1, self.p, self.K
        s = np.empty(n + K - 1, dtype=np.min_scalar_type(p - 1))
        for lo, block in self._blocks(np.eye(K)[0]):  # s_0..s_(K-1) = 1, 0, .., 0
            out = s[lo:lo + len(block)]
            out[:] = block[:len(out)]
        E = np.zeros(self.q, dtype=np.uint32)
        for j in range(K - 1, -1, -1):  # Horner over the window's digits
            E[:n] *= p
            E[:n] += s[j:j + n]
        del s
        L = _inverse_permutation(E, self.q)
        for lo in range(0, n, CHUNK):
            hi = min(lo + CHUNK, n)
            E[lo:hi] = L.take(self.add_scalar(E[lo:hi], 1))
        E[n] = 0
        return E, L[:p].copy()

    @cached_property
    def exp(self) -> np.ndarray:
        """exp[i] = index of g^i for i < q-1, and exp[q-1] = 0, built on
        first use.  Each digit of g^m is a linear recurring sequence with
        the same recurrence as s, so the blocks start from the digits of
        g^0..g^(K-1)."""
        n, pvec = self.q - 1, float(self.p) ** np.arange(self.K)
        exp = np.empty(self.q, dtype=np.int32)
        for lo, block in self._blocks(self._g_digits):
            out = exp[lo:min(lo + len(block) - self.K, n)]
            out[:] = block[:len(out)] @ pvec
        exp[n] = 0
        return exp

    @cached_property
    def log(self) -> np.ndarray:
        """The inverse permutation of exp, built on first use.  log[0] =
        3(q-1) is a sentinel: a sum with it stays >= q-1 after two wraps,
        and the clipped gather sends it to exp[q-1] = 0."""
        return _inverse_permutation(self.exp, self.q)

    @cached_property
    def digits(self) -> np.ndarray:
        """digits[x] = the K base-p digits of index x, built on first use;
        kept for perfbench, as nothing in the library reads it."""
        digits = np.empty((self.q, self.K), dtype=np.min_scalar_type(self.p - 1))
        # as a (p,)*K grid the index runs over the digits from most significant
        grid = digits.reshape((self.p,) * self.K + (self.K,))
        for i in range(self.K):
            axis = [1] * self.K
            axis[self.K - 1 - i] = self.p
            grid[..., i] = np.arange(self.p).reshape(axis)
        return digits

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
        s = lo + self.zech.take(np.maximum(la, lb) - lo, mode="clip")
        return self.exp.take(self._wrap(s), mode="clip")

    def add_scalar(self, a: np.ndarray, c: int) -> np.ndarray:
        """Add a prime-field constant: only the degree-0 digit moves."""
        c %= self.p
        a = np.asarray(a)
        if c == 0:
            return a
        shift = np.where(np.arange(self.p) < self.p - c, c, c - self.p).astype(a.dtype)
        return a + shift.take(a % self.p)

    def _progression(self, m: int) -> np.ndarray:
        """m i mod (q-1) for i < min(CHUNK, q-1), built by doubling on first
        use and kept."""
        table = self._progressions.get(m)
        if table is None:
            n = self.q - 1
            table = np.zeros(min(CHUNK, n), dtype=np.uint32)
            width = 1
            while width < len(table):
                s = table[width:2 * width]
                self._wrap(np.add(table[:len(s)], m * width % n, out=s))
                width *= 2
            self._progressions[m] = table
        return table

    def eval_logs(self, f) -> np.ndarray:
        """log f(x) for a prime-field polynomial f at every x, in exp order
        (entry i is x = exp[i], so the last entry is x = 0); an entry >= q-1
        means f(x) = 0.  Horner's rule in log space over CHUNK slices of the
        nonzero x = g^i; see the module docstring."""
        n, log = self.q - 1, self.prime_logs
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

        zech, x_logs = self.zech, {m: self._progression(m) for m, _ in steps}
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

    @cached_property
    def _residues(self) -> np.ndarray:
        """t mod (q-1) for t < 3(q-1), and the sentinel 3(q-1) at the end,
        where a clipped gather sends every larger t."""
        n = self.q - 1
        residues = np.arange(3 * n + 1, dtype=np.uint32) % np.uint32(n)
        residues[3 * n] = 3 * n
        return residues

    def reduce_logs(self, t) -> np.ndarray:
        """log of a product from t, the sum of the logs of at most three
        factors, each below q-1 or the sentinel 3(q-1): t mod (q-1), or the
        sentinel when a factor is zero."""
        return self._residues.take(t, mode="clip")

    def horner_logs(self, coeffs, x) -> np.ndarray:
        """log sum coeffs[i] x^i by Horner's rule in log space, for uint32 log
        arrays that broadcast together: each coeffs[i] and x is a log below
        q-1 or the sentinel 3(q-1) for zero.  The result has the same form.

        A step v x + c is one add and one gather of the residue table, which
        reduces a sum of two logs and sends a sum with a sentinel to the
        sentinel, then log(u + c) = lo + Z[hi - lo] with lo, hi the smaller
        and larger of log u and log c: when one of them is zero, hi - lo >
        q-1 and the clipped gather reads Z[q-1] = 0, so the sum is the other;
        when both are, lo and the sum stay at or above the sentinel."""
        zech = self.zech
        v = coeffs[-1]
        for c in coeffs[-2::-1]:
            t = self.reduce_logs(v + x)
            v = np.minimum(t, c)
            t = np.maximum(t, c)
            t -= v
            v += zech.take(t, mode="clip")
        return self.reduce_logs(v)

    @cached_property
    def frobenius_orbits(self) -> tuple:
        """(leaders, sizes) of the orbits of c -> c^p on the non-squares
        (p odd): in logs the non-squares are the odd i < q-1 and the map is
        i -> p i mod (q-1); each leader is the least log of its orbit."""
        n = self.q - 1
        odd = np.arange(1, n, 2, dtype=np.int64)
        least, i = odd.copy(), odd
        for _ in range(self.K - 1):
            i = i * self.p % n
            np.minimum(least, i, out=least)
        sizes = np.bincount(least)
        leaders = np.flatnonzero(sizes)
        return leaders.astype(np.uint32), sizes[leaders]

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
        int64 array of q entries is allocated.  Kept for the tests and
        perfbench, as nothing in the library calls it."""
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


@lru_cache(maxsize=32)
def get_table(spec: FieldSpec) -> FieldTable:
    return FieldTable(spec)
