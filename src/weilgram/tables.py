"""Vectorized bulk arithmetic over a whole finite field at once.

Elements of F_{p^K} are addressed by their index: the coefficients of the
element in the basis 1, t, .., t^(K-1), read as little-endian base-p digits.
A FieldTable computes elementwise on whole numpy arrays in log space over a
primitive element g (the lookup-table idiom of the galois package): g^i is
held as i < q-1, and zero as the sentinel 3(q-1).  This is what makes
brute-force point counting over fields with a million elements take seconds
instead of hours.

A product adds logs, a quotient by a nonzero b adds (q-1) - log b, and
reduce_logs reduces a sum of at most three logs by one gather of a residue
table, t mod (q-1) for t < 3(q-1), every larger t clipped onto the
sentinel, so zero needs no mask.  A sum runs through the Zech logarithm
Z[t] = log(1 + g^t): log(a + b) = log a + Z[log b - log a].  Z[q-1] = 0 =
log(1 + 0), and Z[t] is the sentinel where 1 + g^t = 0.  add_logs takes one
such step from the smaller log, then reduce_logs: a zero operand makes the
difference exceed q-1, so the clipped gather reads Z[q-1] = 0.  The number
of square roots of v is 1 + chi(v), chi read from the parity of log v
(every element has one square root when p = 2).

Horner's rule for a polynomial with prime-field coefficients (eval_logs)
keeps the running value v as log(v / c), c the last coefficient added, and
the next nonzero coefficient c' at a gap of m degrees adds
v x^m + c' = c' (1 + (v / c) x^m (c / c')): two adds (of log x^m and of the
constant log(c / c')), two unsigned wraps and one Z gather.  x = g^i runs
over the given logs i (the orbit leaders below), or over every i < q-1, in
CHUNK slices, and log x^m = m i mod (q-1) is taken per slice by doubling
and adding along the bits of m, one unsigned wrap a step.  horner_logs is
Horner's rule where coefficients and points vary per entry (the counts
through the norm, see the curves module): a step is reduce_logs of
log v + log x, then the Zech step of add_logs, its reduction left to the
next step.

frobenius_orbits lists every orbit of c -> c^p on F_q^*, i -> p i mod
(q-1) in logs, by its least log and its size, which divides K (MacWilliams
& Sloane, ch. 7, cyclotomic cosets).  As q - 1 = p^K - 1, times p rotates
the K base-p digits of i, so i leads its orbit when none of its K - 1
rotations is smaller: every log is tested, in CHUNK slices, and dropped at
its first smaller rotation, all in uint32 (a rotation
x p^d - (q-1) floor(x / p^(K-d)) is exact modulo 2^32).  With p odd an
orbit keeps the parity of i, so the odd leaders stand for the non-squares.

Tables are built once per field from one linear recurring sequence, in
O(qK) work (Lidl & Niederreiter, Finite Fields, ch. 6 and 8).  g is the
first element, in index order, with g^((q-1)/r) != 1 for every prime r
dividing q-1, found with fppoly powers modulo the field's modulus (through
the norm to F_p for r | p-1); one K x K solve mod p gives
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

exp and log map logs to indices and back, built on first use: in the
library only the plane witness search reads them.  mul, powers and
sqrt_count, on index arrays, are kept for the demos, tests and perfbench.
Each digit of g^m is a linear recurring sequence with the same recurrence,
so exp runs the same blocks, started from the digits of g^0..g^(K-1), and
log is its inverse permutation.

Memory per element: a table that only counts holds 4 bytes, its Zech
logarithms (uint32), plus R, kept so that exp needs no second doubling:
(B+K) x K entries of the smallest unsigned type that holds p-1, about
CHUNK bytes in all up to p = 256.  The build peaks at 8 bytes, E and L
(both uint32; s, one byte up to p = 256, is freed before L exists), plus
O(CHUNK) slices, as both inverse permutations are scattered in CHUNK
slices.  On first use, exp (int32) and log (uint32) add 4 bytes each,
digits K bytes of the smallest unsigned type that holds p-1, and
sqrt_count 1 byte.  frobenius_orbits keeps 5 bytes per leader (uint32 and
uint8), and there are about q / K leaders, so about 5/K bytes per element;
plane counts and the counts over odd K read it.
The tables that counts through the norm run on also keep the residue
table (12 bytes per element); as those tables have sqrt(Q) elements for a
count over F_Q, this is O(sqrt(Q)).  No per-exponent power array is kept
(powers returns a new int32 array, computed in CHUNK slices), and
operation temporaries are proportional to the operands (eval_logs holds
its result, one entry per point, and O(CHUNK) more).  Tables stop at
q = 2^26 (TooLarge above): there the log sums, at most 6(q-1), still fit
32 bits.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

import numpy as np

from . import fppoly
from .errors import TooLarge
from .finite_field import FieldSpec, _prime_factors

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
    """Log-space arithmetic tables for one FieldSpec."""

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
        i = self._primitive_element()
        g = fppoly.trim([i // self.p**j for j in range(self.K)], self.p)
        power, g_powers = (1,), []
        for _ in range(self.K + 1):
            g_powers.append(power + (0,) * (self.K - len(power)))
            power = fppoly.mod(fppoly.mul(power, g, self.p), spec.modulus, self.p)
        # g^K = sum c_j g^j: one K x K solve, the digits of g^j as columns
        self._rows = self._baby_steps(
            _solve_mod(list(zip(*g_powers[:self.K])), g_powers[self.K], self.p))
        self._g_digits = np.array(g_powers[:self.K], dtype=np.float64)
        # zech[t] = log(1 + g^t) for t < q-1 (the sentinel where 1 + g^t = 0)
        # and zech[q-1] = 0
        self.zech, self.prime_logs = self._zech_logs()

    def _primitive_element(self) -> int:
        """The index of the first element g, in index order, with
        g^((q-1)/r) != 1 for every prime r | q-1.  For r | p-1 that power is
        N(g)^((p-1)/r), N(g) = g^((q-1)/(p-1)) = Res(modulus, g) the norm to
        F_p, so only the primes r not dividing p-1 need a power in the
        field, one fppoly.powmod."""
        n, p, modulus = self.q - 1, self.p, self.spec.modulus
        primes = _prime_factors(n)
        in_base = [(p - 1) // r for r in primes if (p - 1) % r == 0]
        in_field = [n // r for r in primes if (p - 1) % r]
        # a prime-field scalar has order dividing p-1, so for K > 1 start at t
        start = p if self.K > 1 else 1
        for i in range(start, self.q):  # the digits of i, walked lazily
            g = fppoly.trim([i // p**j for j in range(self.K)], p)
            norm = fppoly.resultant(modulus, g, p)
            if all(pow(norm, e, p) != 1 for e in in_base) and \
                    all(fppoly.powmod(g, e, modulus, p) != (1,) for e in in_field):
                return i
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
            e = E[lo:hi]  # + 1 moves digit 0 only, p - 1 wrapping to 0
            E[lo:hi] = L.take(np.where(e % p == p - 1, e - (p - 1), e + 1))
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
        """Elementwise product of two index arrays (broadcast to equal shape).
        Kept for the demos, the tests and perfbench, as nothing in the
        library calls it."""
        s = self.log.take(a) + self.log.take(b)  # take: no slow path for int32 indices
        return self.exp.take(self._wrap(s), mode="clip")

    def _times(self, i: np.ndarray, m: int) -> np.ndarray:
        """m i mod (q-1) for uint32 logs i < q-1, by doubling and adding
        along the bits of m mod (q-1): every sum is below 2(q-1), so one
        unsigned wrap reduces it."""
        bits = bin(m % (self.q - 1))[2:]
        s = i.copy() if bits[0] == "1" else np.zeros_like(i)
        for bit in bits[1:]:
            s += s
            self._wrap(s)
            if bit == "1":
                s += i
                self._wrap(s)
        return s

    def eval_logs(self, f, at=None) -> np.ndarray:
        """log f(x) for a prime-field polynomial f: at every x, in exp order
        (entry i is x = exp[i], so the last entry is x = 0), or, given the
        logs `at` of nonzero x, at those x in their order; an entry >= q-1
        means f(x) = 0.  Horner's rule in log space over CHUNK slices of the
        logs i of nonzero x = g^i, every i < q-1 when `at` is None; see the
        module docstring."""
        n, log = self.q - 1, self.prime_logs
        size = self.q if at is None else len(at)
        terms = [(k, int(log[c % self.p])) for k, c in enumerate(f) if c % self.p]
        if not terms:
            return np.full(size, log[0], dtype=np.uint32)
        out = np.empty(size, dtype=np.uint32)
        if at is None:
            out[n] = terms[0][1] if terms[0][0] == 0 else log[0]  # f(0)
        # (m, d): times x^m and g^d, then (but for the last) add 1 by Zech;
        # the running value is log(v / c) for the last coefficient c added
        k, lc = terms.pop()
        steps = []
        for k_next, lc_next in reversed(terms):
            steps.append((k - k_next, (lc - lc_next) % n))
            k, lc = k_next, lc_next
        steps.append((k, lc))

        zech, end = self.zech, n if at is None else size
        for lo in range(0, end, CHUNK):
            hi = min(lo + CHUNK, end)
            i = np.arange(lo, hi, dtype=np.uint32) if at is None else \
                at[lo:hi].astype(np.uint32, copy=False)
            x_logs = {m: self._times(i, m) for m, _ in steps}
            s = np.zeros(hi - lo, dtype=np.uint32)
            for step, (m, d) in enumerate(steps):
                s = s + x_logs[m]
                s += d
                self._wrap(self._wrap(s))
                if step < len(steps) - 1:
                    s = zech.take(s, mode="clip")
            out[lo:hi] = s
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

    def add_logs(self, a, b) -> np.ndarray:
        """log(u + v) from uint32 logs a = log u and b = log v that broadcast
        together, each below q-1 or the sentinel: one Zech step from the
        smaller log, then reduce_logs (module docstring)."""
        lo = np.minimum(a, b)
        return self.reduce_logs(lo + self.zech.take(np.maximum(a, b) - lo, mode="clip"))

    def horner_logs(self, coeffs, x) -> np.ndarray:
        """log sum coeffs[i] x^i by Horner's rule in log space, for uint32 log
        arrays that broadcast together: each coeffs[i] and x is a log below
        q-1 or the sentinel 3(q-1) for zero.  The result has the same form.
        A step v x + c is reduce_logs(log v + log x), then the Zech step of
        add_logs with log c, whose reduction waits for the next step's."""
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
        """(leaders, sizes) of every orbit of i -> p i mod (q-1), the map
        c -> c^p on the logs of F_q^*: the least log of each orbit, in
        increasing order (uint32), and the orbit's size (uint8, a divisor of
        K).  As q - 1 = p^K - 1, times p rotates the K base-p digits of i,
        so each log i < q-1 is kept when no rotation of it is smaller
        (module docstring)."""
        n, p, K, u = self.q - 1, self.p, self.K, np.uint32

        def rotate(x, d):  # x p^d mod (q-1), exact through uint32 wrap-around
            return x * u(p**d) - x // u(p**(K - d)) * u(n)

        leaders = []
        for lo in range(0, n, CHUNK):
            i = np.arange(lo, min(lo + CHUNK, n), dtype=np.uint32)
            for k in range(1, K):
                i = i[rotate(i, k) >= i]
            leaders.append(i)
        leaders = np.concatenate(leaders)
        sizes = np.full(len(leaders), K, dtype=np.uint8)
        for d in range(K - 1, 0, -1):  # the least d | K with rotate(i, d) = i
            if K % d == 0:
                sizes[rotate(leaders, d) == leaders] = d
        return leaders, sizes

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
