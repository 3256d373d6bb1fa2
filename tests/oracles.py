"""Slow, independent re-implementations used to cross-check the library.

Everything here deliberately avoids the library's fast paths: field elements
are a scalar class whose products, reductions and powers are schoolbook
loops of its own instead of vectorized tables or `fppoly`, counting walks
those elements in pure Python loops, determinants run rational Gaussian
elimination or cofactor expansion instead of fraction-free integer
elimination, the feasibility search tries every count of each Weil interval
instead of the exact PSD intervals, power sums come from numpy root finding
instead of integer recurrences, primality comes from trial division instead
of Miller-Rabin, irreducibility from trial division by every monic
polynomial instead of Ben-Or's test, singular points come from a scan of
every point or line instead of elimination or a rank, plane smoothness also
from the Macaulay rank of F and its partials in degree 3d - 4 in plain
integers instead of the partials' system on numpy arrays, and the Riemann
hypothesis in genus <= 2 comes from a closed form in integers instead of the
positivity of a Gram matrix, L-polynomials come from Newton's identities
in rationals, run again for each genus tried, instead of one integer pass,
and PSD verdicts and corner intervals of symmetric matrices of any order
come from a general fraction-free elimination in O(n^3) instead of the
Levinson recursion over (q, c, t), and Frobenius orbits come from products
i p^r mod (q - 1) in int64 instead of rotations of base-p digits in uint32.
From the library this file takes only the field models: `FieldSpec`,
`construct_field` and `extension_of`.
Agreement between the two routes is the point.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from typing import Optional

import numpy as np

from weilgram.finite_field import FieldSpec, construct_field, extension_of


class FieldElement:
    """Element of a FieldSpec, stored as k residues mod p, ascending degree.
    A product is a convolution reduced by long division by the monic
    modulus, and a power is square-and-multiply over such products."""

    __slots__ = ("coefficients", "owner")

    def __init__(self, coefficients: tuple, owner: FieldSpec):
        self.coefficients = coefficients
        self.owner = owner

    def _check(self, other):
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.owner != self.owner:
            raise ValueError(f"operands in different fields: {self.owner!r} vs {other.owner!r}")

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
        field = self.owner
        p, k = field.p, field.k
        prod = [0] * (2 * k - 1)
        for i, a in enumerate(self.coefficients):
            if a:
                for j, b in enumerate(other.coefficients):
                    prod[i + j] += a * b
        # t^k = -(the lower terms of the monic modulus), from the top down
        lower = [(i, m) for i, m in enumerate(field.modulus[:k]) if m]
        for top in range(2 * k - 2, k - 1, -1):
            c = prod[top] % p
            if c:
                for i, m in lower:
                    prod[top - k + i] -= c * m
        return FieldElement(tuple(c % p for c in prod[:k]), field)

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse a^(q-2)."""
        if self.is_zero():
            raise ZeroDivisionError("cannot invert zero")
        return self ** (self.owner.q - 2)

    def __pow__(self, n: int) -> "FieldElement":
        """Square-and-multiply; 0**0 is defined as 1."""
        base = self.inverse() if n < 0 else self
        result, n = one(self.owner), abs(n)
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
        return f"{self.coefficients} in {self.owner!r}"


def scalar(field: FieldSpec, c: int) -> FieldElement:
    """Embed an integer (an element of the prime field) as a constant."""
    return FieldElement((c % field.p,) + (0,) * (field.k - 1), field)


def zero(field: FieldSpec) -> FieldElement:
    return scalar(field, 0)


def one(field: FieldSpec) -> FieldElement:
    return scalar(field, 1)


def generator(field: FieldSpec) -> FieldElement:
    """The residue class of t (the scalar 1 when k = 1)."""
    if field.k == 1:
        return one(field)
    return FieldElement((0, 1) + (0,) * (field.k - 2), field)


def element_from_index(field: FieldSpec, idx: int) -> FieldElement:
    """Inverse of FieldElement.index()."""
    coeffs = []
    for _ in range(field.k):
        idx, c = divmod(idx, field.p)
        coeffs.append(c)
    return FieldElement(tuple(coeffs), field)


def enumerate_elements(field: FieldSpec):
    """All q elements once, in index order, 0 first."""
    return (element_from_index(field, i) for i in range(field.q))


def is_square(a: FieldElement) -> bool:
    """Euler's criterion a^((q-1)/2) = 1, for a != 0 in odd characteristic."""
    return a ** ((a.owner.q - 1) // 2) == one(a.owner)


def poly_value(coeffs, x):
    """Horner evaluation of a prime-field-coefficient polynomial at a field
    element, using only scalar element arithmetic."""
    field = x.owner
    acc = zero(field)
    for c in reversed(coeffs):
        acc = acc * x + scalar(field, c)
    return acc


def square_counts(field: FieldSpec) -> Counter:
    """#{y : y^2 = v} for every v, from one scan of every y: O(q)."""
    return Counter(y * y for y in enumerate_elements(field))


def leading_is_square(coeffs, field: FieldSpec) -> bool:
    target = scalar(field, coeffs[-1])
    return any(y * y == target for y in enumerate_elements(field))


def count_hyperelliptic_slow(curve, j: int) -> int:
    """Every x against the squares of every y; the infinity rule for the
    smooth model."""
    ext = extension_of(curve.base, j)
    squares = square_counts(ext)
    affine = sum(squares[poly_value(curve.f, x)] for x in enumerate_elements(ext))
    deg = len(curve.f) - 1
    if deg % 2 == 1:
        return affine + 1
    return affine + (2 if leading_is_square(curve.f, ext) else 0)


def count_biquadratic_slow(curve, j: int) -> int:
    ext = extension_of(curve.base, j)
    squares = square_counts(ext)
    affine = sum(squares[poly_value(curve.f, x)] * squares[poly_value(curve.g, x)]
                 for x in enumerate_elements(ext))
    return affine + (2 if leading_is_square(curve.g, ext) else 0)


def monomials_value(monomials, x, y, z):
    field = x.owner
    acc = zero(field)
    for a, b, c, co in monomials:
        acc = acc + scalar(field, co) * x**a * y**b * z**c
    return acc


def count_plane_slow(curve, j: int) -> int:
    """All projective representatives (1:y:z), (0:1:z), (0:0:1) by scalar
    arithmetic."""
    ext = extension_of(curve.base, j)
    e0, e1 = zero(ext), one(ext)
    total = 0
    for y in enumerate_elements(ext):
        for z in enumerate_elements(ext):
            if monomials_value(curve.monomials, e1, y, z).is_zero():
                total += 1
    for z in enumerate_elements(ext):
        if monomials_value(curve.monomials, e0, e1, z).is_zero():
            total += 1
    if monomials_value(curve.monomials, e0, e0, e1).is_zero():
        total += 1
    return total


def eval_at(f, x: int, p: int) -> int:
    """f(x) for f in F_p[x] and x in F_p (plain ints), by Horner's rule."""
    v = 0
    for c in reversed(f):
        v = (v * x + c) % p
    return v


def legendre(v: int, p: int) -> int:
    """Legendre symbol (v/p) for an odd prime p, by Euler's criterion."""
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def count_hyperelliptic_prime_field(f, p: int) -> int:
    """N_1 of y^2 = f(x) over F_p, p odd, from Legendre symbols in plain
    integer arithmetic: 1 + (f(x)/p) affine points over each x."""
    affine = 0
    for x in range(p):
        affine += 1 + legendre(eval_at(f, x, p), p)
    if (len(f) - 1) % 2 == 1:
        return affine + 1
    return affine + 1 + legendre(f[-1], p)


def count_plane_prime_field(monomials, p: int) -> int:
    """N_1 of a plane curve over F_p, scanning (1:y:z), (0:1:z), (0:0:1)
    in plain integer arithmetic."""
    def value(x, y, z):
        return sum(co * x**a * y**b * z**c for a, b, c, co in monomials) % p
    total = sum(1 for y in range(p) for z in range(p) if value(1, y, z) == 0)
    total += sum(1 for z in range(p) if value(0, 1, z) == 0)
    return total + (value(0, 0, 1) == 0)


def _with_gradient(monomials) -> list:
    """[F, F_x, F_y, F_z] as monomial lists (a, b, c, coeff), coefficients
    not reduced."""
    def partial(i):
        out = []
        for mono in monomials:
            if mono[i]:
                exps = list(mono[:3])
                exps[i] -= 1
                out.append((*exps, mono[3] * mono[i]))
        return out

    return [list(monomials)] + [partial(i) for i in range(3)]


def first_singular_point_prime_field(monomials, p: int):
    """First common zero of F and its three partials in P^2(F_p), scanning
    (1:y:z) in y-major order, then (0:1:z), then (0:0:1); None if there is
    none.  Plain integer arithmetic."""
    polys = _with_gradient(monomials)
    points = ([(1, y, z) for y in range(p) for z in range(p)]
              + [(0, 1, z) for z in range(p)] + [(0, 0, 1)])
    return next((pt for pt in points
                 if all(sum(co * pt[0]**a * pt[1]**b * pt[2]**c for a, b, c, co in f) % p == 0
                        for f in polys)), None)


def macaulay_smooth(monomials, p: int, d: int) -> bool:
    """Whether F, F_x, F_y and F_z have no common zero over the algebraic
    closure of F_p: whether their Macaulay matrix in degree D = 3d - 4 (rows
    m G for each nonzero form G and each monomial m of degree D - deg G,
    columns the monomials of degree D) has full column rank.  Gaussian
    elimination mod p on lists of plain integers."""
    D = 3 * d - 4
    columns = {(a, b): i for i, (a, b) in
               enumerate((a, b) for a in range(D + 1) for b in range(D + 1 - a))}
    rows = []
    for form in _with_gradient(monomials):
        if not any(co % p for *_, co in form):
            continue
        n = D - sum(form[0][:3])
        for s, t in ((s, t) for s in range(n + 1) for t in range(n + 1 - s)):
            row = [0] * len(columns)
            for a, b, _, co in form:
                row[columns[(a + s, b + t)]] = (row[columns[(a + s, b + t)]] + co) % p
            rows.append(row)
    for c in range(len(columns)):
        pivot = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = pow(rows[c][c], -1, p)
        for r in range(c + 1, len(rows)):
            factor = rows[r][c] * inverse % p
            if factor:
                rows[r] = [(u - factor * v) % p for u, v in zip(rows[r], rows[c])]
    return True


def _pseudo_gcd(a: list, b: list) -> list:
    """A gcd, up to a unit, of polynomials given as lists of field elements,
    ascending and trimmed, a nonzero: Euclid on pseudo-remainders, which
    scale by leading coefficients instead of dividing by them."""
    while b:
        while len(a) >= len(b):
            shift, la, lb = len(a) - len(b), a[-1], b[-1]
            a = [u * lb for u in a]
            for i, v in enumerate(b):
                a[shift + i] = a[shift + i] - v * la
            while a and a[-1].is_zero():
                a.pop()
        a, b = b, a
    return a


def _common_zero_on_line(forms, y, field: FieldSpec, x: int = 1) -> bool:
    """Whether the forms have a common zero (x : y : z), z in the algebraic
    closure, for x = 0 or 1 and y an element of `field`: all of them vanish
    on the line, or the nonzero ones restricted to it share a factor in z."""
    restricted = []
    for form in forms:
        coeffs = [zero(field)] * (max(c for _, _, c, _ in form) + 1 if form else 0)
        for a, b, c, co in form:
            if x or not a:
                coeffs[c] = coeffs[c] + scalar(field, co) * y**b
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        if coeffs:
            restricted.append(coeffs)
    if not restricted:
        return True
    g = restricted[0]
    for f in restricted[1:]:
        g = _pseudo_gcd(g, f)
    return len(g) > 1


def singular_point_exists(monomials, p: int, d: int) -> bool:
    """Whether F and its three partials have a common zero in P^2 over the
    algebraic closure of F_p, by a scan with scalar field elements: no
    table, elimination or rank.  Such a zero lies in P^2(F_{p^j}) for some
    j <= d(d-1)/2 (the bound make_smooth_plane proves, with F_p as the
    base), so it is (0 : 0 : 1), on the line x = 0, or on a line x = 1,
    y = c with c in some F_{p^j}; each line is one gcd in z."""
    forms = _with_gradient(monomials)
    if all(sum(co for a, b, _, co in f if a == b == 0) % p == 0 for f in forms):
        return True  # (0 : 0 : 1)
    base = construct_field(p, 1)
    if _common_zero_on_line(forms, one(base), base, x=0):
        return True
    for j in range(1, d * (d - 1) // 2 + 1):
        field = construct_field(p, j)
        if any(_common_zero_on_line(forms, y, field) for y in enumerate_elements(field)):
            return True
    return False


def is_prime_trial(n: int) -> bool:
    """Primality by trial division up to isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def prime_power_trial(q: int):
    """(p, k) with q = p^k, dividing out the least factor of q; None if q is
    not a prime power."""
    if q < 2:
        return None
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    k = 0
    while q % p == 0:
        q //= p
        k += 1
    return (p, k) if q == 1 else None


def is_irreducible_trial(f, p: int) -> bool:
    """A monic f (ascending coefficients, degree k >= 1) is irreducible over
    F_p iff no monic polynomial of degree 1..k//2 divides it.  Long division
    in plain integers."""
    k = len(f) - 1
    for d in range(1, k // 2 + 1):
        for tail in product(range(p), repeat=d):
            rem = list(f)
            for s in range(k - d, -1, -1):  # subtract rem[s + d] * t^s * (tail + t^d)
                c = rem[s + d] % p
                for i, g in enumerate(tail + (1,)):
                    rem[s + i] -= c * g
            if all(v % p == 0 for v in rem[:d]):
                return False
    return True


def frobenius_orbits_by_cosets(p: int, k: int):
    """(leaders, sizes) of the cyclotomic cosets of p modulo n = p^k - 1,
    in numpy int64: each leader the minimum over r < k of i p^r mod n, kept
    where it is i itself, and each size the least d | k with
    leader p^d = leader mod n.  Modular products, not digit rotations; every
    product is below n^2, exact in int64 for q < 2^31."""
    n = p**k - 1
    logs = np.arange(n, dtype=np.int64)
    least, x = logs.copy(), logs.copy()
    for _ in range(1, k):
        x = x * p % n
        np.minimum(least, x, out=least)
    leaders = logs[least == logs]
    sizes = np.full(len(leaders), k, dtype=np.int64)
    for d in sorted((d for d in range(1, k) if k % d == 0), reverse=True):
        sizes[leaders * pow(p, d, n) % n == leaders] = d
    return leaders, sizes


def count_line_slow(curve, j: int) -> int:
    ext = extension_of(curve.base, j)
    return ext.q + 1


def count_slow(model, j: int) -> int:
    kind = model.kind
    if kind == "projective_line":
        return count_line_slow(model, j)
    if kind == "hyperelliptic":
        return count_hyperelliptic_slow(model, j)
    if kind == "smooth_plane":
        return count_plane_slow(model, j)
    if kind == "biquadratic_total_space":
        return count_biquadratic_slow(model, j)
    raise ValueError(kind)


def gauss_det(rows) -> Fraction:
    """Determinant by rational Gaussian elimination with partial pivoting."""
    n = len(rows)
    M = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] * inv
            if factor:
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return det


def laplace_det(rows) -> int:
    """Integer determinant by cofactor expansion along the first row (cheaper
    than `gauss_det` on the order <= 4 minors of the feasibility search)."""
    if not rows:
        return 1
    return sum((-1) ** c * rows[0][c] * laplace_det([row[:c] + row[c + 1:] for row in rows[1:]])
               for c in range(len(rows)) if rows[0][c])


def psd_by_minors(rows) -> bool:
    """Exact PSD test: every principal minor, by cofactor expansion, >= 0."""
    n = len(rows)
    return all(laplace_det([[rows[r][c] for c in subset] for r in subset]) >= 0
               for size in range(1, n + 1) for subset in combinations(range(n), size))


def max_n1_exhaustive(q: int, g: int, m: int, toggles: bool = True):
    """(max N_1, witness) by the plain scan: N_1 descending, every N_j of its
    Weil interval ascending, pruned on prefixes whose Gram is not PSD."""
    def weil(j):
        r = math.isqrt(4 * g * g * q**j)
        return range(q**j + 1 - r, q**j + 2 + r)

    def feasible(counts):
        k = len(counts)
        if toggles:
            for j in range(2, k + 1):
                if counts[j - 1] < counts[0] or (counts[j - 1] - counts[0]) % j:
                    return False
            if any(counts[j - 1] not in weil(j) for j in range(1, k + 1)):
                return False
        t = [q**j + 1 - counts[j - 1] for j in range(1, k + 1)]
        gram = [[2 * g * q**i if i == j else q**min(i, j) * t[abs(i - j) - 1]
                 for j in range(k + 1)] for i in range(k + 1)]
        return psd_by_minors(gram)

    def completions(prefix):
        if not feasible(prefix):
            return None
        if len(prefix) == m:
            return prefix
        for nj in weil(len(prefix) + 1):
            found = completions(prefix + (nj,))
            if found is not None:
                return found
        return None

    for n1 in reversed(weil(1)):
        witness = completions((n1,))
        if witness is not None:
            return n1, witness
    raise AssertionError("no feasible count vector")


def psd_by_eigenvalues(entries, tol: float = 1e-9) -> bool:
    w = np.linalg.eigvalsh(np.array(entries, dtype=float))
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -tol * scale)


def power_sums_by_roots(L, m: int):
    """t_j = sum of j-th powers of the inverse roots, via numpy.roots."""
    coeffs_desc = list(reversed(L.coefficients))
    if len(coeffs_desc) == 1:
        return [0.0] * m
    roots = np.roots(coeffs_desc)
    inverse_roots = 1.0 / roots
    return [float(np.real(np.sum(inverse_roots**j))) for j in range(1, m + 1)]


def rh_small_genus(q: int, coeffs) -> bool:
    """The Riemann hypothesis for an L-polynomial (1, c_1, ..) of genus
    g <= 2 that satisfies the functional equation, in integers only.  The
    real Weil polynomial is x + c_1 (g = 1) or x^2 + c_1 x + (c_2 - 2q)
    (g = 2), and RH says its roots are real and inside [-2 sqrt(q), 2 sqrt(q)].
    For g = 2 that is: a real discriminant, the vertex -c_1/2 inside, and
    h(+-2 sqrt(q)) = (2q + c_2) +- 2 c_1 sqrt(q) >= 0."""
    g = len(coeffs) // 2
    if g == 0:
        return True
    c1 = coeffs[1]
    if g == 1:
        return c1 * c1 <= 4 * q
    if g != 2:
        raise ValueError(f"closed form only for genus <= 2, got {g}")
    c2 = coeffs[2]
    return (c1 * c1 - 4 * (c2 - 2 * q) >= 0
            and c1 * c1 <= 16 * q
            and 2 * q + c2 >= 0
            and (2 * q + c2) ** 2 >= 4 * q * c1 * c1)


def l_from_counts_rational(q: int, g: int, counts):
    """c_0..c_{2g} of L from N_1..N_g: Newton's identities in exact
    rationals for c_1..c_g, the functional equation c_{2g-i} = q^{g-i} c_i
    for the rest; None when any coefficient is not an integer."""
    t = [q**j + 1 - counts[j - 1] for j in range(1, g + 1)]
    c = [Fraction(1)]
    for n in range(1, g + 1):
        c.append(-sum(t[k - 1] * c[n - k] for k in range(1, n + 1)) / n)
    coeffs = c + [q ** (g - i) * c[i] for i in range(g - 1, -1, -1)]
    if any(v.denominator != 1 for v in coeffs):
        return None
    return tuple(int(v) for v in coeffs)


def counts_from_l(q: int, coeffs, m: int) -> list:
    """N_1..N_m of an L with c_0 = 1: the power sums t_n of its inverse
    roots from n c_n + sum_{i=1..n-1} c_i t_{n-i} + t_n = 0 (c_n = 0 beyond
    deg L), in exact rationals, and N_n = q^n + 1 - t_n."""
    c = list(coeffs) + [0] * m
    t = []
    for n in range(1, m + 1):
        t.append(-n * c[n] - sum(c[i] * t[n - i - 1] for i in range(1, n)))
    return [q**n + 1 - Fraction(tn) for n, tn in enumerate(t, 1)]


def infer_genus_by_trials(q: int, counts, rh):
    """The smallest g <= m/2 whose L from N_1..N_g (`l_from_counts_rational`)
    gives back all m counts and passes `rh(q, g, coeffs)`, trying one genus
    at a time from scratch; None when no genus does."""
    m = len(counts)
    for g in range(m // 2 + 1):
        coeffs = l_from_counts_rational(q, g, counts[:g])
        if coeffs is not None and counts_from_l(q, coeffs, m) == list(counts) \
                and rh(q, g, coeffs):
            return g
    return None


# --- the general symmetric elimination ------------------------------------
# `gram` decided every PSD question by this elimination before its Levinson
# recursion over (q, c, t); it is kept here unchanged as the reference for
# Grams past the minors' reach and for symmetric matrices of no Toeplitz
# shape.

def _eliminate(B, n: int) -> Optional[list]:
    """Eliminate the symmetric integer matrix B in place, fraction-free,
    pivoting only on positive diagonal entries among indices 0..n-1; the
    rows and columns from n on are updated but never pivoted on.  A row from
    n on is updated only in the columns from n on: by symmetry its other
    entries are those of its column, which is kept current, and the update
    reads the pivot row B[k], never the pivot column.

    After the pivots K taken so far, each entry (i, j) left equals
    det(B[K]) times the Schur complement entry, with det(B[K]) > 0 the last
    pivot: the same signs, and B is PSD iff that complement is.  Once no
    positive pivot is left, every remaining diagonal entry below n is <= 0,
    so the leading n x n block is PSD exactly when what is left of it is all
    zero.  Returns the indices below n left without a pivot, or None when
    the leading block is not PSD."""
    rest = list(range(n))
    tail = list(range(n, len(B)))
    prev = 1
    while True:
        for k in rest:  # the first positive pivot, without a generator: this is hot
            if B[k][k] > 0:
                break
        else:
            return None if rest and any(B[i][j] for i in rest for j in rest) else rest
        rest.remove(k)
        row_k = B[k]
        p = row_k[k]
        cols = rest + tail
        for i in rest:
            row_i, bik = B[i], row_k[i]
            for j in cols:
                row_i[j] = (p * row_i[j] - bik * row_k[j]) // prev
        for i in tail:
            row_i, bik = B[i], row_k[i]
            for j in tail:
                row_i[j] = (p * row_i[j] - bik * row_k[j]) // prev
        prev = p


def _corner_interval(entries) -> range:
    """`corner_interval_by_elimination` of the integer rows `entries`, a symmetric
    matrix of order n + 1 >= 2, taken as given.

    Column n is split as v + x*u, with u = e_0, and the leading n x n block
    A is bordered by v and u:

        [[A, v, u], [v^T, M[n][n], 0], [u^T, 0, 0]]

    `_eliminate` pivots on A alone.  Each remaining column entry is then the
    affine function u*x + v, and the corner the quadratic a*x^2 + b*x + c
    with (c, b/2, a) the bottom 2 x 2 block.  Once no positive pivot is left,
    the rest of A must be zero (else A is not PSD and the range is empty),
    and so must each column entry left beside it: u != 0 pins x to -v/u,
    u == 0 needs v == 0.  Last, the corner must be >= 0, a concave quadratic
    whose integer roots come exactly from isqrt.
    """
    n = len(entries) - 1
    B = [[*row, 0] for row in entries] + [[0] * (n + 2)]
    B[0][n] = B[n][0] = 0
    B[0][n + 1] = B[n + 1][0] = 1
    rest = _eliminate(B, n)
    empty = range(0)
    if rest is None:
        return empty
    c, b, a = B[n][n], 2 * B[n][n + 1], B[n + 1][n + 1]
    pin = None
    for i in rest:
        v, u = B[i][n:]
        if (u, v) == (0, 0):
            continue
        if u == 0 or v % u or pin not in (None, -v // u):
            return empty
        pin = -v // u
    if pin is not None:
        return range(pin, pin + 1) if (a * pin + b) * pin + c >= 0 else empty
    # x is unpinned only if some pivot had u != 0, and then a < 0
    disc = b * b - 4 * a * c
    if disc < 0:
        return empty
    # the roots are (b -+ sqrt(disc)) / den; for integers b and den > 0,
    # floor((b + sqrt(d)) / den) == floor((b + isqrt(d)) / den), and the
    # same holds for the ceiling of (b - sqrt(d)) / den
    root, den = math.isqrt(disc), -2 * a
    return range(-((root - b) // den), (b + root) // den + 1)


def psd_by_elimination(rows) -> bool:
    """Exact PSD test of a symmetric integer matrix of any order, by one
    fraction-free elimination on positive diagonal pivots (`_eliminate`)."""
    B = [list(row) for row in rows]
    return _eliminate(B, len(B)) is not None


def corner_interval_by_elimination(rows) -> range:
    """Integers x such that the symmetric integer matrix `rows`, of order
    n + 1 >= 2, is PSD with x at (0, n) and (n, 0); the given (0, n) entry
    is ignored (`_corner_interval`)."""
    return _corner_interval(tuple(tuple(row) for row in rows))
