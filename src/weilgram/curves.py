"""Explicit curve families with validated hypotheses and exact point counts.

Four families are supported, each with a finite counting rule on the smooth
projective model:

* projective line P^1: N_j = q^j + 1;
* hyperelliptic y^2 = f(x), odd characteristic, f squarefree: affine points
  by counting square roots of f(x), plus 1 point at infinity for odd deg f,
  else 2 or 0 according to whether lc(f) is a square in F_{q^j};
* smooth plane curve F(x,y,z) = 0 of degree d: projective solutions via the
  representatives (1:y:z), (0:1:z), (0:0:1); smoothness is validated at
  construction by one rank over F_p (see make_smooth_plane);
* biquadratic total space X: the fiber product of y1^2 = f and y2^2 = g over
  P^1 (deg f odd, deg g even, f, g squarefree and coprime), counted fiberwise
  with 2 or 0 points over x = infinity according to whether lc(g) is a square.

Curve coefficients live in the prime field, so extending scalars is the
constant embedding.  All counts are exact; the heavy lifting is done by the
vectorized tables module.

Hyperelliptic and biquadratic models are counted by a parity rule on
K = kj, Q = p^K.  Where K is odd, f is evaluated at every x of the table of
F_Q.  Where K is even, Q = q'^2 with q' = p^(K/2), and the count runs on
the table of F_q' alone, through the norm to F_q' (Lidl & Niederreiter,
Finite Fields, ch. 2 and 6); F_Q is neither constructed nor tabled.  Write
x = a + b theta with a, b in F_q' and theta^2 = d a non-square of F_q'.
With f(a + t) = sum_k F_k(a) t^k (the F_k in F_p[a] are the Hasse
derivatives of f) and c = d b^2, f(a + b theta) = A + b theta B where
A = sum_s F_2s(a) c^s and B = sum_s F_2s+1(a) c^s, so its norm to F_q' is
f(a + b theta) f(a - b theta) = A^2 - c B^2.  A nonzero v in F_Q is a
square exactly when its norm is a square in F_q', so
#{y : y^2 = f(x)} = 1 + chi_q'(A^2 - c B^2), with chi(0) = 0.  b = 0 gives
c = 0, and as b runs over F_q'^* the c = d b^2 are the non-squares, each
twice.  As the F_k have coefficients in F_p, the sum over a is the same at
c and c^p, so only one non-square per orbit of c -> c^p is summed,
weighted by twice the orbit's size: about Q / K pairs (c, a) instead of Q
points, each two Horner sums in c.  A biquadratic model multiplies the
rows of f and g.  At infinity every F_p scalar is a square in F_Q, so an
even-degree model adds 2.

Plane curves are counted by lines, never point by point.  On the line
y = c of the chart (1:y:z) the points are the roots in F_Q (Q = q^j) of
F1(c, z) = F(1, c, z), so there are deg gcd(F1(c, z), z^Q - z) of them, or
Q when F1(c, .) vanishes identically.  The coefficients of F1(c, .) come
from one log-space Horner pass per power of z over all Q lines; z^Q mod
F1(c, .) takes about log2 Q squarings vectorized over blocks of at most
CHUNK lines of one degree in z (the degree drops where the leading
coefficient vanishes at c), and a Euclid masked per line gives the gcd.
The chart (0:1:z) is the same gcd for F(0, 1, z), in F_p[z], and (0:0:1)
is one coefficient.  So a count is O(Q) work and memory, and it is charged
Q like every other family.

A plane is smooth exactly when the Macaulay matrix of F and its three
partials in degree 3d - 4 has full column rank over F_p (`_is_smooth`), so
a smooth curve builds no table, and a matrix above MACAULAY_MAX_ENTRIES is
refused with TooLarge.  Only a curve the rank proves singular is searched
for its witness, over F_{q^j} for j = 1, 2, ..., with the line algebra of a
count.  z is eliminated once per curve: a singular chart point (1:y0:z0)
forces y0 to be a root of Res_z(F1, dF1) * lc * lc, computed exactly in
F_p[y] by fraction-free elimination, so chart (1:y:z) is searched only on
the y-lines through those roots (on every y-line when elimination says
nothing: both partials of F1 vanish, or the resultant does identically,
which only very non-generic curves allow).  Horner's rule in y gives each
line's polynomials in z, Horner's rule in z finds the zeros of F on blocks
of about CHUNK points, and the partials are evaluated only there.  The
chart (0:1:z) is a gcd in F_p[z] and (0:0:1) three coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fppoly
from .errors import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    DegreeParity,
    EvenCharacteristic,
    GenusOrder,
    InconsistentCounts,
    InvalidDegree,
    NotCoprime,
    NotHomogeneous,
    NotSquarefree,
    SingularCurve,
    TooLarge,
    WrongKind,
    ZeroPolynomial,
)
from .finite_field import FieldSpec, construct_field, extension_of, scalar_is_square_in
from .tables import CHUNK, FieldTable, get_table

# the Macaulay matrix of `_is_smooth`, 8 MB of int64: the plane degree limit,
# d <= 13 when all three partials are nonzero
MACAULAY_MAX_ENTRIES = 1 << 20

PROJECTIVE_LINE = "projective_line"
HYPERELLIPTIC = "hyperelliptic"
SMOOTH_PLANE = "smooth_plane"
BIQUADRATIC = "biquadratic_total_space"


@dataclass(frozen=True)
class CurveModel:
    """One curve from a supported family; immutable once constructed."""

    kind: str
    base: FieldSpec
    genus: int
    label: str
    f: Optional[tuple] = None          # hyperelliptic / biquadratic
    g: Optional[tuple] = None          # biquadratic second polynomial
    monomials: Optional[tuple] = None  # smooth plane: ((a, b, c, coeff), ...)
    degree: Optional[int] = None       # smooth plane degree d

    @property
    def q(self) -> int:
        return self.base.q


@dataclass(frozen=True)
class CoverData:
    """A finite morphism source -> target from a built-in construction."""

    source: CurveModel
    target: CurveModel
    degree: int
    tag: str

    def __post_init__(self):
        if self.source.genus < self.target.genus:
            raise GenusOrder(
                f"cover source genus {self.source.genus} < target genus {self.target.genus}"
            )


DIAGRAM_ROLES = ("X", "Y1", "Y2", "Z")
DIAGRAM_EDGES = (("X", "Y1"), ("X", "Y2"), ("Y1", "Z"), ("Y2", "Z"))


@dataclass(frozen=True)
class DiagramData:
    """Commutative square of double covers X -> Y1, Y2 -> Z with Z = P^1.

    y3 is the third intermediate quotient y^2 = f*g; it is not one of the
    square's corners but supplies the trace identity used to validate the
    counting rules.
    """

    X: CurveModel
    Y1: CurveModel
    Y2: CurveModel
    Z: CurveModel
    edges: tuple  # CoverData for each of DIAGRAM_EDGES, in that order
    absolutely_irreducible: bool
    smooth: bool
    y3: Optional[CurveModel] = None

    @property
    def label(self) -> str:
        return self.X.label


@dataclass(frozen=True)
class PointCountSeries:
    """N_1..N_m for one curve; q kept alongside for self-contained checks."""

    q: int
    counts: tuple

    def validate(self, genus: int) -> None:
        """Divisibility monotonicity and the exact Weil inequality."""
        n = self.counts
        for j in range(1, len(n) + 1):
            for d in range(1, j):
                if j % d == 0 and n[j - 1] < n[d - 1]:
                    raise InconsistentCounts(
                        f"N_{j}={n[j-1]} < N_{d}={n[d-1]} with {d} | {j}")
            if (n[j - 1] - self.q**j - 1) ** 2 > 4 * genus**2 * self.q**j:
                raise InconsistentCounts(f"N_{j}={n[j-1]} violates the Weil inequality")

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, item):
        return self.counts[item]


def _field_name(field: FieldSpec) -> str:
    return f"F_{field.q}"


def make_projective_line(field: FieldSpec) -> CurveModel:
    """The projective line over `field`; genus 0, N_j = q^j + 1."""
    return CurveModel(kind=PROJECTIVE_LINE, base=field, genus=0,
                      label=f"P1/{_field_name(field)}")


def hyperelliptic_genus(deg_f: int) -> int:
    return (deg_f - 1) // 2 if deg_f % 2 == 1 else deg_f // 2 - 1


def make_hyperelliptic(field: FieldSpec, f) -> CurveModel:
    """The smooth projective model of y^2 = f(x), f over the prime field."""
    if field.p == 2:
        raise EvenCharacteristic("hyperelliptic models need odd characteristic")
    fc = fppoly.trim(f, field.p)
    if fppoly.degree(fc) < 1:
        raise ZeroPolynomial("f must have degree >= 1")
    if not fppoly.is_squarefree(fc, field.p):
        raise NotSquarefree(fppoly.to_string(fc))
    return CurveModel(
        kind=HYPERELLIPTIC, base=field, f=fc,
        genus=hyperelliptic_genus(fppoly.degree(fc)),
        label=f"y^2={fppoly.to_string(fc)}/{_field_name(field)}",
    )


# --- smooth plane curves ---------------------------------------------------

def _canonical_monomials(monomials, p: int, d: int) -> tuple:
    merged = {}
    for a, b, c, co in monomials:
        if a < 0 or b < 0 or c < 0:
            raise NotHomogeneous(f"negative exponent in ({a},{b},{c})")
        key = (int(a), int(b), int(c))
        merged[key] = (merged.get(key, 0) + int(co)) % p
    out = tuple((a, b, c, co) for (a, b, c), co in sorted(merged.items()) if co)
    for a, b, c, _ in out:
        if a + b + c != d:
            raise NotHomogeneous(f"monomial x^{a} y^{b} z^{c} has degree {a+b+c}, not {d}")
    if not out:
        raise ZeroPolynomial("no nonzero monomials")
    return out


def _partial(monomials: tuple, axis: int, p: int) -> tuple:
    out = []
    for mono in monomials:
        e = mono[axis]
        co = (mono[3] * e) % p
        if e >= 1 and co:
            exps = list(mono[:3])
            exps[axis] = e - 1
            out.append((*exps, co))
    return tuple(out)


def _chart_a_zpolys(monomials: tuple, p: int) -> list:
    """F(1, y, z) arranged by powers of z: entry c is the y-polynomial P_c."""
    by_z = {}
    for _, b, c, co in monomials:
        cur = by_z.setdefault(c, {})
        cur[b] = (cur.get(b, 0) + co) % p
    top = max(by_z) if by_z else 0
    out = []
    for c in range(top + 1):
        coeffs = by_z.get(c, {})
        size = max(coeffs) + 1 if coeffs else 0
        out.append(fppoly.trim([coeffs.get(i, 0) for i in range(size)], p))
    while out and not out[-1]:
        out.pop()
    return out


def _poly_det(M: list, p: int) -> tuple:
    """Exact determinant of a matrix of F_p[y] polynomials by fraction-free
    (Bareiss) elimination; divisions are exact in the polynomial ring."""
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    denom = (1,)
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if M[r][k]), None)
        if piv is None:
            return ()
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = fppoly.sub(
                    fppoly.mul(M[i][j], M[k][k], p),
                    fppoly.mul(M[i][k], M[k][j], p), p,
                )
                quo, rem = fppoly.divmod_poly(num, denom, p)
                assert not rem, "Bareiss division must be exact"
                M[i][j] = quo
            M[i][k] = ()
        denom = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else fppoly.scale(det, -1, p)


def _resultant_z(A: list, B: list, p: int) -> tuple:
    """Res_z of two polynomials in z with F_p[y] coefficients (Sylvester
    determinant).  A and B must have nonzero leading entries, and deg A >= 1;
    deg B = 0 makes the matrix diagonal, with determinant B_0^deg A."""
    da, db = len(A) - 1, len(B) - 1
    n = da + db
    rows = []
    for i in range(db):
        row = [()] * n
        for t, P in enumerate(reversed(A)):
            row[i + t] = P
        rows.append(row)
    for i in range(da):
        row = [()] * n
        for t, P in enumerate(reversed(B)):
            row[i + t] = P
        rows.append(row)
    return _poly_det(rows, p)


def _share_a_factor_in_z(A: list, B: list, p: int) -> bool:
    """Whether A and B, polynomials in z with F_p[y] coefficients and nonzero
    leading entries, have a common factor of positive degree in z, which is
    when Res_z(A, B) vanishes identically.  Euclid in F_p(y)[z] on
    pseudo-remainders, each divided by its content (the gcd of its
    coefficients) so that their degrees in y stay small."""
    if len(A) < len(B):
        A, B = B, A
    while len(B) > 1:
        R = A
        while len(R) >= len(B):  # R = lc(B) R - lead(R) z^shift B, its top cancelled
            lead, shift = R[-1], len(R) - len(B)
            R = [fppoly.sub(fppoly.mul(r, B[-1], p),
                            fppoly.mul(lead, B[i - shift], p) if i >= shift else (), p)
                 for i, r in enumerate(R[:-1])]
            while R and not R[-1]:
                R.pop()
        if not R:
            return True
        content = ()
        for r in R:
            content = fppoly.gcd(content, r, p)
        A, B = B, [fppoly.divmod_poly(r, content, p)[0] for r in R]
    return False


def _chart_a_elimination(monomials: tuple, p: int):
    """cand for F1 = F(1, y, z), computed once per curve.

    Every singular chart point has its y-coordinate among the roots of cand:
    F1 itself when it has no z, else Res_z(F1, D) * lc(F1) * lc(D) for D the
    z-partial of F1, or its y-partial when that is zero.  cand is None when
    elimination says nothing, and then every y is a candidate: when both
    partials are zero, or when F1 and D share a factor of positive degree in
    z (a square G^2 dividing F1 does), so that the resultant vanishes
    identically.  Euclid in z decides that before any determinant."""
    zpolys = _chart_a_zpolys(monomials, p)
    if len(zpolys) == 1:
        return zpolys[0]
    D = _chart_a_zpolys(_partial(monomials, 2, p), p) or \
        _chart_a_zpolys(_partial(monomials, 1, p), p)
    if not D or _share_a_factor_in_z(zpolys, D, p):
        return None
    res = _resultant_z(zpolys, D, p)
    return fppoly.mul(res, fppoly.mul(zpolys[-1], D[-1], p), p)


def _monomials_of_degree(n: int) -> list:
    """(a, b) for each x^a y^b z^(n-a-b) of degree n, a-major; none for n < 0."""
    return [(a, b) for a in range(n + 1) for b in range(n + 1 - a)]


def _is_smooth(monomials: tuple, p: int, d: int) -> bool:
    """Whether F and its three partials have no common zero in P^2 over the
    algebraic closure of F_p: whether their Macaulay matrix in degree
    D = 3d - 4 has full column rank over F_p.

    Each row holds m G for G one of the four forms and m a monomial of degree
    D - deg G; each column is a monomial of degree D.  Full rank puts every
    monomial of degree D in the ideal I = (F, F_x, F_y, F_z), so no point is
    a common zero.  Conversely, with no common zero I holds every form of
    degree sum (d_i - 1) + 1 over the three largest degrees d, d-1, d-1
    (Lazard, EUROCAL 1983), which is D.  F's own rows matter when p | d:
    Euler's identity x F_x + y F_y + z F_z = d F then no longer puts F in
    the ideal of the partials.  d = 1 gives D = -1 and an empty matrix: a
    line is smooth.

    Gaussian elimination mod p, column by column, updating only the rows
    with a nonzero entry in the pivot column.  Entries are reduced lazily:
    k updates after a reduction |entry| <= p - 1 + k (p-1)^2, and the rows
    left are reduced before that bound could pass 2^63 - 1.  So int64 is
    exact while p(p-1) < 2^63, and the same code runs on Python ints beyond.
    Raises TooLarge above MACAULAY_MAX_ENTRIES entries, counted before
    allocating: (n + 1)(n + 2)/2 shifts of degree n, none for n = -1, -2."""
    D = 3 * d - 4
    forms = [f for f in (monomials, *(_partial(monomials, axis, p) for axis in range(3))) if f]
    ns = [D - sum(f[0][:3]) for f in forms]
    rows, cols = sum((n + 1) * (n + 2) // 2 for n in ns), (D + 2) * (D + 1) // 2
    if rows * cols > MACAULAY_MAX_ENTRIES:
        raise TooLarge(f"Macaulay matrix of {rows} x {cols} entries for degree {d}; "
                       f"the limit is {MACAULAY_MAX_ENTRIES}")
    shifts = [np.array(_monomials_of_degree(n), dtype=np.int64).reshape(-1, 2) for n in ns]
    M = np.zeros((rows, cols), dtype=np.int64 if p * (p - 1) < 2**63 else object)
    top = 0
    for f, m in zip(forms, shifts):
        r = np.arange(top, top + len(m))
        for a, b, _, co in f:  # x^a y^b z^c sits in column a(2D + 3 - a)/2 + b
            A, B = m[:, 0] + a, m[:, 1] + b
            M[r, A * (2 * D + 3 - A) // 2 + B] = co
        top += len(m)
    bound, step = p - 1, (p - 1) ** 2
    for c in range(cols):
        col = M[c:, c] % p
        nonzero = np.flatnonzero(col)
        if not len(nonzero):
            return False
        k = nonzero[0]
        if k:
            M[[c, c + k]] = M[[c + k, c]]
            col[[0, k]] = col[[k, 0]]
        pivot = M[c, c + 1:] % p * pow(int(col[0]), -1, p) % p
        below = np.flatnonzero(col[1:]) + 1
        if bound + step > 2**63 - 1:
            M[c + 1:, c + 1:] %= p
            bound = p - 1
        M[c + below, c + 1:] -= np.multiply.outer(col[below], pivot)
        bound += step
    return True


def _horner(T: FieldTable, coeffs, x) -> np.ndarray:
    """sum coeffs[i] x^i by Horner's rule in index space; each coeffs[i]
    broadcasts against x, and the result has their common shape."""
    acc = coeffs[-1]
    for c in coeffs[-2::-1]:
        acc = T.add(T.mul(acc, x), c)
    return np.broadcast_to(acc, np.broadcast_shapes(np.shape(coeffs[0]), np.shape(x)))


def _at_x0(monomials: tuple, p: int) -> tuple:
    """F(0, 1, z) in F_p[z]: the x-free monomials, by their power of z."""
    out = [0] * (max((c for _, _, c, _ in monomials), default=-1) + 1)
    for a, _, c, co in monomials:
        if a == 0:
            out[c] += co
    return fppoly.trim(out, p)


def _plane_singular_witness(field: FieldSpec, monomials: tuple, j: int, cand):
    """First common zero of F and its gradient in P^2(F_{q^j}), in table-index
    order: (1:y:z) on the y-lines at the roots of `cand`, the curve's
    `_chart_a_elimination` (every y-line when it is None), the least z first;
    then (0:1:z); then (0:0:1).  None if there is none.

    The y-lines come in blocks of about CHUNK pairs, or one line in
    CHUNK-long z pieces.  One Horner in y gives the z-coefficients of F, F_y
    and F_z on every line of a block, a Horner in z finds F's zeros, and F_y
    and F_z are evaluated only there; Euler's identity
    x F_x + y F_y + z F_z = d F makes F_x vanish with them at x = 1.  On
    (0:1:z) the four forms restricted to x = 0 have their common zeros at
    the roots of their gcd in F_p[z]."""
    p = field.p
    T = get_table(extension_of(field, j))
    ys = np.arange(T.q) if cand is None else np.flatnonzero(T.eval_poly(cand) == 0)
    partials = [_partial(monomials, axis, p) for axis in range(3)]
    # rows: the y-polynomials of the z-coefficients of F, then F_y, then F_z
    rows = [_chart_a_zpolys(f, p) or [()] for f in (monomials, *partials[1:])]
    ends = np.cumsum([len(r) for r in rows])
    rows = [P for r in rows for P in r]
    width = max(len(P) for P in rows)
    by_y = np.array([P + (0,) * (width - len(P)) for P in rows]).T[:, :, None]
    lines = max(1, CHUNK // T.q)
    for lo in range(0, len(ys), lines):
        Y = ys[lo:lo + lines]
        F, Fy, Fz = np.split(_horner(T, by_y, Y), ends[:2])
        for Z in (np.arange(s, min(s + CHUNK, T.q)) for s in range(0, T.q, CHUNK)):
            y, z = np.nonzero(_horner(T, F[:, :, None], Z) == 0)
            singular = (_horner(T, Fy[:, y], Z[z]) == 0) & (_horner(T, Fz[:, y], Z[z]) == 0)
            if singular.any():
                k = np.argmax(singular)
                return (1, int(Y[y[k]]), int(Z[z[k]]))
    g = ()
    for f in (monomials, *partials):
        g = fppoly.gcd(g, _at_x0(f, p), p)
    roots = np.flatnonzero(T.eval_poly(g) == 0)
    if len(roots):
        return (0, 1, int(roots[0]))
    d = sum(monomials[0][:3])  # F, F_x, F_y vanish at (0:0:1), and with them F_z
    if not {m[:3] for m in monomials} & {(0, 0, d), (1, 0, d - 1), (0, 1, d - 1)}:
        return (0, 0, 1)
    return None


def make_smooth_plane(field: FieldSpec, monomials, d: int) -> CurveModel:
    """Plane curve F = 0 with F homogeneous of degree d, validated smooth.

    `monomials` is a sequence of (a, b, c, coeff) with x^a y^b z^c; duplicate
    exponent triples are merged mod p.  Smoothness is decided by one rank over
    F_p (`_is_smooth`), which builds no table and raises TooLarge above
    MACAULAY_MAX_ENTRIES.  A curve that rank proves singular raises
    SingularCurve with its first singular point: construction eliminates z
    once, then searches every extension j = 1, 2, .. (see
    `_chart_a_elimination` and `_plane_singular_witness`): it builds the
    table of F_{q^j} (TooLarge above 2^26 elements) and evaluates F only on
    the candidate y-lines of chart (1:y:z) there, CHUNK points at a time,
    so time and memory grow with q^j, not q^{2j}.

    The search finds a witness by j = d(d-1)/2, in every characteristic.  If F
    is squarefree, its singular set is finite with at most
    sum (d_i-1)(d_i-2)/2 + sum_{i<j} d_i d_j <= d(d-1)/2 points over the
    algebraic closure (d_i the degrees of the components; Fulton, Algebraic
    Curves, 5.4).  Frobenius permutes that set, and an orbit of size s lies
    in P^2(F_{q^s}).  If G^2 | F with deg G = e >= 1, all of V(G) is
    singular; G is defined over F_{q^s} with s the size of its Frobenius
    orbit and 2se <= d, and G(0, y, z) is either zero, so (0:0:1) is
    singular, or has a root of degree <= e over F_{q^s}, so a singular point
    appears by j = d/2.
    """
    if d < 1:
        raise InvalidDegree(d)
    monos = _canonical_monomials(monomials, field.p, d)
    if not _is_smooth(monos, field.p, d):
        cand = _chart_a_elimination(monos, field.p)
        for j in range(1, d * (d - 1) // 2 + 1):
            witness = _plane_singular_witness(field, monos, j, cand)
            if witness is not None:
                raise SingularCurve(witness, j)
        raise AssertionError(f"no singular point of a singular curve by j = {d * (d - 1) // 2}")
    terms = " + ".join(
        ("" if co == 1 and (a, b, c) != (0, 0, 0) else str(co))
        + "".join(v if e == 1 else (f"{v}^{e}" if e else "")
                  for v, e in (("x", a), ("y", b), ("z", c)))
        for a, b, c, co in reversed(monos)
    )
    return CurveModel(
        kind=SMOOTH_PLANE, base=field, monomials=monos, degree=d,
        genus=(d - 1) * (d - 2) // 2,
        label=f"plane({terms})/{_field_name(field)}",
    )


def make_biquadratic(field: FieldSpec, f, g) -> DiagramData:
    """Fiber product X of y1^2 = f and y2^2 = g over Z = P^1.

    Validation order matters for error reporting: squarefreeness of each
    factor first, then the degree parities (deg f odd, deg g even >= 2), then
    coprimality.  The parity constraints make the two double covers ramify
    over disjoint sets of places (roots of f plus infinity vs. roots of g),
    so the fiber product is smooth and absolutely irreducible by
    construction.
    """
    if field.p == 2:
        raise EvenCharacteristic("biquadratic models need odd characteristic")
    p = field.p
    fc = fppoly.trim(f, p)
    gc = fppoly.trim(g, p)
    if fppoly.degree(fc) < 1 or fppoly.degree(gc) < 1:
        raise ZeroPolynomial("f and g must have degree >= 1")
    for poly in (fc, gc):
        if not fppoly.is_squarefree(poly, p):
            raise NotSquarefree(fppoly.to_string(poly))
    if fppoly.degree(fc) % 2 == 0:
        raise DegreeParity(f"deg f = {fppoly.degree(fc)} must be odd")
    if fppoly.degree(gc) % 2 == 1 or fppoly.degree(gc) < 2:
        raise DegreeParity(f"deg g = {fppoly.degree(gc)} must be even and >= 2")
    if fppoly.degree(fppoly.gcd(fc, gc, p)) >= 1:
        raise NotCoprime(f"gcd = {fppoly.to_string(fppoly.gcd(fc, gc, p))}")

    Z = make_projective_line(field)
    Y1 = make_hyperelliptic(field, fc)
    Y2 = make_hyperelliptic(field, gc)
    Y3 = make_hyperelliptic(field, fppoly.mul(fc, gc, p))
    X = CurveModel(
        kind=BIQUADRATIC, base=field, f=fc, g=gc,
        genus=Y1.genus + Y2.genus + Y3.genus,
        label=(f"biquad(y1^2={fppoly.to_string(fc)}; "
               f"y2^2={fppoly.to_string(gc)})/{_field_name(field)}"),
    )
    edges = (
        CoverData(X, Y1, 2, "fiber_product_projection"),
        CoverData(X, Y2, 2, "fiber_product_projection"),
        CoverData(Y1, Z, 2, "hyperelliptic_over_line"),
        CoverData(Y2, Z, 2, "hyperelliptic_over_line"),
    )
    return DiagramData(X=X, Y1=Y1, Y2=Y2, Z=Z, edges=edges,
                       absolutely_irreducible=True, smooth=True, y3=Y3)


# --- point counting --------------------------------------------------------

def _square_roots(T: FieldTable, f) -> np.ndarray:
    """#{y : y^2 = f(x)} at every x, in exp order (p odd, so q - 1 is even):
    1 where f(x) = 0, else 2 or 0 as log f(x) is even or odd."""
    logs = T.eval_logs(f)
    roots = np.bitwise_and(logs, 1, out=np.empty(T.q, dtype=np.int8), casting="unsafe")
    roots *= -2
    roots += 2
    roots[logs >= T.q - 1] = 1
    return roots


def _fold(coeffs: np.ndarray, q: int) -> np.ndarray:
    """The coefficients of a polynomial reduced mod x^q - x, which leaves its
    value at every x in F_q unchanged: x^i for i >= q becomes
    x^(1 + (i-1) % (q-1))."""
    if len(coeffs) <= q:
        return coeffs
    tail = coeffs[1:]
    tail = np.concatenate([tail, np.zeros(-len(tail) % (q - 1), dtype=tail.dtype)])
    return np.concatenate([coeffs[:1], tail.reshape(-1, q - 1).sum(axis=0)])


def _hasse_rows(f: tuple, p: int, q: int) -> np.ndarray:
    """M, rows 2s and 2s + 1 the coefficients in a of F_2s and F_2s+1, for f
    in F_p[x] and f(a + t) = sum_k F_k(a) t^k, so that f(a + b theta) =
    sum_s F_2s(a) c^s + b theta sum_s F_2s+1(a) c^s with c = d b^2, reduced
    for a, c in F_q and x in F_q^2: each F_k mod a^q - a, F_k for s >= q
    added to row s' = 1 + (s-1) % (q-1) (c^s = c^s' on F_q), and f first mod
    x^(q^2) - x.  F_k = sum_i C(k+i, k) f_(k+i) a^i, the Hasse derivative,
    and each row of binomials mod p is a cumulative sum of the one before."""
    f = _fold(np.array(f, dtype=np.int64), q * q) % p
    n = len(f) - 1
    rows = min(n // 2 + 1, q)
    M = np.zeros((rows, 2, min(n + 1, q)), dtype=np.int64)  # below 2 p^2 (n/q + 1)^2
    binom = np.ones(n + 1, dtype=np.int64)  # C(k+i, k) mod p for i <= n - k
    for k in range(n + 1):
        if k:
            binom = np.cumsum(binom[:n + 1 - k]) % p
        s = k // 2 if k < 2 * q else 1 + (k // 2 - 1) % (q - 1)
        row = _fold(binom * f[k:], q)
        M[s, k % 2, :len(row)] += row
    return M.reshape(2 * rows, -1) % p


def _hasse_logs(T: FieldTable, f) -> np.ndarray:
    """Row r the log of sum_i M[r, i] a^i at every a in F_q', q' = T.q, in
    exp order, for M = _hasse_rows(f): a sum over the nonzero M[r, i] only,
    one power of a at a time.  Most M[r, i] are zero (the binomials mod p,
    and the zero coefficients of f), so this is cheaper than Horner in a."""
    n = T.q - 1
    M = _hasse_rows(f, T.p, T.q)
    a_logs = np.append(np.arange(n, dtype=np.uint32), np.uint32(3 * n))  # every a
    logs = np.full((len(M), T.q), 3 * n, dtype=np.uint32)
    x = np.zeros(T.q, dtype=np.uint32)  # log a^i, from i = 0
    for i in range(M.shape[1]):
        rows = np.flatnonzero(M[:, i])
        if len(rows):
            logs[rows] = T.horner_logs([logs[rows], T.prime_logs.take(M[rows, i])[:, None]], x)
        x = T.reduce_logs(x + a_logs)
    return logs


def _norm_count(T: FieldTable, polys) -> int:
    """Sum over x in F_Q of the product over f in polys of #{y : y^2 =
    f(x)}, for Q = q'^2, q' = T.q, on the table of F_q' alone (module
    docstring): the row c = 0 once, and each non-square orbit leader's row
    twice per element of its orbit, each row summed over every a in F_q'.
    With A + b theta B = f(a + b theta), the norm is A^2 - c B^2, and A and
    B are Horner sums in c of the F_k(a).  Rows come in blocks of about
    CHUNK (c, a) pairs."""
    n = T.q - 1
    hasse = [_hasse_logs(T, f) for f in polys]
    leaders, sizes = T.frobenius_orbits
    c_logs = np.append(leaders, np.uint32(3 * n))[:, None]
    minus_c = np.append((leaders + n // 2) % n, np.uint32(3 * n))[:, None]  # log -c
    weights = np.append(2 * sizes, 1)
    roots = np.zeros(n + 1, dtype=np.int8)  # by log: 2 at a square, 0 at a non-square
    roots[0:n:2], roots[n] = 2, 1  # and 1 at the sentinel, zero
    total, rows = 0, max(1, CHUNK // T.q)
    for lo in range(0, len(c_logs), rows):
        c, block = c_logs[lo:lo + rows], 1
        for F in hasse:
            A2 = T.reduce_logs(2 * T.horner_logs(list(F[0::2]), c))
            B2 = T.reduce_logs(2 * T.horner_logs(list(F[1::2]), c))
            norm = T.horner_logs([A2, B2], minus_c[lo:lo + rows])  # A^2 - c B^2
            block = block * roots.take(norm, mode="clip")
        total += int(block.sum(axis=1) @ weights[lo:lo + rows])
    return total


def _roots_in_field(T: FieldTable, h: list) -> int:
    """Sum over lines of deg gcd(h, z^Q - z), the number of distinct roots in
    F_Q (Q = T.q) of h = sum h_i z^i; h is a list of index arrays, one entry
    per line, of exact degree D = len(h) - 1 >= 2 on every line.

    z^Q mod h comes from about log2 Q squarings (and times z for the one bits
    of Q), each reduced with z^D = sum nh_i z^i; then a Euclid masked per
    line, since the remainders drop degree at different steps."""
    D, minus_one = len(h) - 1, T.p - 1
    neg_inv_lead = T.div(minus_one, h[D])
    nh = [T.mul(c, neg_inv_lead) for c in h[:D]]

    def reduce(u):
        for k in range(len(u) - 1, D - 1, -1):
            for i in range(D):
                u[k - D + i] = T.add(u[k - D + i], T.mul(u[k], nh[i]))
        return u[:D]

    zero = np.zeros_like(h[0])
    r = [zero, zero + 1] + [zero] * (D - 2)  # z mod h
    for bit in bin(T.q)[3:]:
        u = [zero] * (2 * D - 1)
        for i in range(D):
            u[2 * i] = T.mul(r[i], r[i])
        if T.p != 2:  # cross terms 2 r_i r_j vanish in characteristic 2
            twice = [T.mul(c, 2) for c in r]
            for i in range(D):
                for j in range(i + 1, D):
                    u[i + j] = T.add(u[i + j], T.mul(r[i], twice[j]))
        r = reduce(u)
        if bit == "1":
            r = reduce([zero] + r)
    r[1] = T.add_scalar(r[1], -1)  # z^Q - z mod h
    return int(_gcd_degrees(T, np.array(h), np.array(r + [zero])).sum())


def _gcd_degrees(T: FieldTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """deg gcd(A, B) per line for two polynomials in z stored as (rows, lines)
    index arrays, row i the coefficient of z^i; A must be nonzero on every
    line.  Each step cancels the leading term of the higher-degree one."""
    rows, cols = np.arange(len(A))[:, None], np.arange(A.shape[1])

    def degrees(M):
        nonzero = M != 0
        return np.where(nonzero.any(axis=0), len(M) - 1 - np.argmax(nonzero[::-1], axis=0), -1)

    dA, dB = degrees(A), degrees(B)
    while True:
        swap = dA < dB
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        dA, dB = np.where(swap, dB, dA), np.where(swap, dA, dB)
        live = dB >= 0
        if not live.any():
            return dA
        factor = T.mul(T.div(A[dA, cols], B[np.maximum(dB, 0), cols]), T.p - 1)
        src = rows - (dA - dB)  # the row of B that lands on each row of A
        shifted = np.where(src >= 0, B[np.maximum(src, 0), cols], 0)
        A = T.add(A, T.mul(shifted, np.where(live, factor, 0)))
        dA = degrees(A)


def _count_plane(T: FieldTable, monomials: tuple, p: int) -> int:
    """Points of F = 0 in P^2(F_Q), Q = T.q, by lines (module docstring):
    lines of degree 0 and 1 in z are read off, the others go to
    _roots_in_field in blocks of CHUNK lines, grouped by degree."""
    Q = T.q
    coeffs = [T.eval_poly(P) for P in _chart_a_zpolys(monomials, p)]  # z^c on each line
    total = 0
    for lo in range(0, Q, CHUNK):
        block = [a[lo:lo + CHUNK] for a in coeffs]
        deg = np.full(len(block[0]), -1)
        for c, a in enumerate(block):
            deg[a != 0] = c
        total += Q * int(np.count_nonzero(deg < 0)) + int(np.count_nonzero(deg == 1))
        for D in range(2, len(block)):
            lines = np.nonzero(deg == D)[0]
            if len(lines):
                total += _roots_in_field(T, [a.take(lines) for a in block[:D + 1]])
    f = _at_x0(monomials, p)  # its z^d coefficient is F(0, 0, 1)
    if not f:
        return total + Q + 1
    roots = fppoly.gcd(f, fppoly.sub(fppoly.powmod((0, 1), Q, f, p), (0, 1), p), p)
    return total + fppoly.degree(roots) + (fppoly.degree(f) < sum(monomials[0][:3]))


def count_points(curve: CurveModel, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of points of the smooth projective model over F_{q^j}.

    The budget bounds the field elements enumerated, q^j for every enumerated
    family: the x-values of a hyperelliptic or biquadratic model, the y-lines
    of a plane curve's chart (1:y:z); exceeding it raises instead of
    grinding.  The projective line is a closed form, enumerates nothing and
    is not charged; like every family it is refused from j >=
    budget.bit_length() on, where q^j > budget is known without computing
    it.

    Memory: a hyperelliptic or biquadratic count with kj even holds the
    table of F_{q'}, q' = sqrt(q^j), the values of the F_k there (at most
    min(n + 1, 2q') rows of q' uint32 per polynomial of degree n) and one
    block of about CHUNK (c, a) pairs: over F_{3^12}, from tables not yet
    built, it peaks at about 2.5 bytes per element of F_{3^12} under
    tracemalloc.  With kj odd it walks
    the table of F_{q^j}: over F_{3^13} it peaks at about 10.5 bytes per
    element (8 of them the table build's two uint32 permutations), and the
    cached table keeps 4, its Zech logarithms, plus about 64 KB (see the
    tables module)."""
    if j < 1:
        raise InvalidDegree(j)
    if j >= budget.bit_length():  # q^j >= 2^j > budget: too large to compute
        raise BudgetExceeded(f"{curve.q}^{j}", budget)
    if curve.kind == PROJECTIVE_LINE:
        return curve.q**j + 1
    if curve.q**j > budget:
        raise BudgetExceeded(curve.q**j, budget)
    p, K = curve.base.p, curve.base.k * j
    if curve.kind in (HYPERELLIPTIC, BIQUADRATIC) and K % 2 == 0:
        # every F_p scalar is a square in F_{p^K}: infinity adds 2 for even deg
        polys = (curve.f,) if curve.kind == HYPERELLIPTIC else (curve.f, curve.g)
        affine = _norm_count(get_table(construct_field(p, K // 2)), polys)
        return affine + (1 if fppoly.degree(polys[-1]) % 2 else 2)
    ext = extension_of(curve.base, j)
    T = get_table(ext)
    if curve.kind == HYPERELLIPTIC:
        affine = int(_square_roots(T, curve.f).sum())
        if fppoly.degree(curve.f) % 2 == 1:
            return affine + 1
        return affine + (2 if scalar_is_square_in(curve.f[-1], ext) else 0)
    if curve.kind == BIQUADRATIC:
        affine = int((_square_roots(T, curve.f) * _square_roots(T, curve.g)).sum())
        return affine + (2 if scalar_is_square_in(curve.g[-1], ext) else 0)
    if curve.kind == SMOOTH_PLANE:
        return _count_plane(T, curve.monomials, curve.base.p)
    raise WrongKind(curve.kind)


def count_series(curve: CurveModel, m: int, budget: int = DEFAULT_BUDGET) -> PointCountSeries:
    """N_1..N_m, validated against the series invariants before returning."""
    series = PointCountSeries(
        q=curve.q, counts=tuple(count_points(curve, j, budget) for j in range(1, m + 1))
    )
    series.validate(curve.genus)
    return series


def hyperelliptic_cover(curve: CurveModel) -> CoverData:
    """The degree-2 map (x, y) -> x onto the projective line."""
    if curve.kind != HYPERELLIPTIC:
        raise WrongKind(f"expected hyperelliptic, got {curve.kind}")
    return CoverData(curve, make_projective_line(curve.base), 2,
                     "hyperelliptic_over_line")


# --- manifest round trip ---------------------------------------------------

_KIND_NAMES = {
    PROJECTIVE_LINE: "line",
    HYPERELLIPTIC: "hyperelliptic",
    SMOOTH_PLANE: "plane",
    BIQUADRATIC: "biquadratic",
}


def serialize_manifest(model) -> dict:
    """JSON-ready dict describing a CurveModel or DiagramData."""
    if isinstance(model, DiagramData):
        base = model.X.base
        return {"kind": "biquadratic", "p": base.p, "k": base.k,
                "f": list(model.X.f), "g": list(model.X.g)}
    base = model.base
    out = {"kind": _KIND_NAMES[model.kind], "p": base.p, "k": base.k}
    if model.kind == HYPERELLIPTIC:
        out["f"] = list(model.f)
    elif model.kind == SMOOTH_PLANE:
        out["d"] = model.degree
        flat = []
        for a, b, c, co in model.monomials:
            flat.extend((a, b, c, co))
        out["F"] = flat
    return out


def parse_manifest(doc: dict):
    """Build the model a manifest describes; raises ValueError on malformed
    structure, while construction errors propagate as-is."""
    if not isinstance(doc, dict):
        raise ValueError("manifest must be a JSON object")
    try:
        kind = doc["kind"]
        p = int(doc["p"])
        k = int(doc["k"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest missing or malformed field: {exc}") from exc
    field = construct_field(p, k)
    if kind == "line":
        return make_projective_line(field)
    if kind == "hyperelliptic":
        return make_hyperelliptic(field, _int_list(doc, "f"))
    if kind == "biquadratic":
        return make_biquadratic(field, _int_list(doc, "f"), _int_list(doc, "g"))
    if kind == "plane":
        flat = _int_list(doc, "F")
        if len(flat) % 4:
            raise ValueError("plane monomial list length must be a multiple of 4")
        monos = [tuple(flat[i : i + 4]) for i in range(0, len(flat), 4)]
        try:
            d = int(doc["d"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError("plane manifest needs an integer degree d") from exc
        return make_smooth_plane(field, monos, d)
    raise ValueError(f"unknown manifest kind {kind!r}")


def _int_list(doc: dict, key: str) -> list:
    try:
        return [int(v) for v in doc[key]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"manifest field {key!r} must be a list of integers") from exc
