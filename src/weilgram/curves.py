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
refused with TooLarge.  Only a curve the rank proves singular is walked, to
find its witness: the search goes through the three affine charts listed by
`_charts`, (1:y:z), (0:1:z), then (0:0:1), over F_{q^j} for j = 1, 2, ...
One evaluator sums the terms co * y^b z^c digitwise over blocks of whole
z-lines of about CHUNK pairs (pieces of a line when it is longer), so a walk
holds O(CHUNK) values plus one power table per exponent in use.  The search
keeps the pairs where F and its three partials vanish and stops at the first
one; it eliminates z once per curve: a singular chart point (1:y0:z0) forces
y0 to be a root of Res_z(F1, dF1) * lc * lc, computed exactly in F_p[y] by
fraction-free elimination, so in each extension chart (1:y:z) is walked only
on the y-lines through those roots.  When elimination says nothing (both
partials of F1 vanish, or the resultant does identically, which only very
non-generic curves allow) every y-line is walked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import fppoly
from .errors import (
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

DEFAULT_BUDGET = 10**6
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


def _chart_a_elimination(monomials: tuple, p: int):
    """cand for F1 = F(1, y, z), computed once per curve.

    Every singular chart point has its y-coordinate among the roots of cand:
    F1 itself when it has no z, else Res_z(F1, D) * lc(F1) * lc(D) for D the
    z-partial of F1, or its y-partial when that is zero.  cand is None when
    elimination says nothing (both partials zero, or the resultant
    identically zero); then every y is a candidate."""
    zpolys = _chart_a_zpolys(monomials, p)
    if len(zpolys) == 1:
        return zpolys[0]
    D = _chart_a_zpolys(_partial(monomials, 2, p), p) or \
        _chart_a_zpolys(_partial(monomials, 1, p), p)
    res = _resultant_z(zpolys, D, p) if D else ()
    return fppoly.mul(res, fppoly.mul(zpolys[-1], D[-1], p), p) if res else None


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


def _charts(ys, Q: int) -> tuple:
    """The affine charts of P^2(F_Q) in witness order, as (x, ys, zs): F(1, y, z)
    on ys x F_Q, F(0, 1, z) on {1} x F_Q and F(0, 0, 1) at (y, z) = (0, 1).
    Field elements are table indices, so 0 and 1 index themselves."""
    zs = np.arange(Q, dtype=np.int64)
    return ((1, ys, zs), (0, np.array([1]), zs), (0, np.array([0]), np.array([1])))


def _on_chart(monomials: tuple, x: int) -> tuple:
    """The monomials that survive x = 0 or x = 1; the chart drops x^a."""
    return monomials if x else tuple(m for m in monomials if m[0] == 0)


def _blocks(ys, zs):
    """(Y, Z) blocks of ys x zs in (y, z) order: whole z-lines of about CHUNK
    pairs, or CHUNK-long pieces of one line when a line is longer."""
    lines = max(1, CHUNK // len(zs))
    for lo in range(0, len(ys), lines):
        Y = ys[lo:lo + lines]
        for zlo in range(0, len(zs), CHUNK):
            Z = zs[zlo:zlo + CHUNK]
            yield np.repeat(Y, len(Z)), np.tile(Z, len(Y))


def _power_tables(T: FieldTable, *polys) -> dict:
    """T.powers(e) for every exponent e >= 1 of y or z in `polys`."""
    exponents = {e for f in polys for _, b, c, _ in f for e in (b, c) if e}
    return {e: T.powers(e) for e in exponents}


def _zero_mask(T: FieldTable, pw: dict, monomials, Y, Z) -> np.ndarray:
    """Where sum co * y^b z^c vanishes on the pairs (Y, Z), with pw from
    `_power_tables`; the terms are summed digitwise, reduced once."""
    # bounds every sum, and holds p even when there is no term
    acc_type = np.min_scalar_type(max(len(monomials), 1) * (T.p - 1) ** 2)
    acc = np.zeros((len(Y), T.K), dtype=acc_type)
    for _, b, c, co in monomials:
        if b and c:
            term = T.mul(pw[b][Y], pw[c][Z])
        elif b:
            term = pw[b][Y]
        elif c:
            term = pw[c][Z]
        else:
            term = np.ones(len(Y), dtype=np.int64)
        acc += co * T.digits.take(term, axis=0).astype(acc_type)
    acc -= acc // T.p * T.p  # acc % p, but numpy divides small ints faster
    return acc @ T._pvec == 0


def _plane_singular_witness(field: FieldSpec, monomials: tuple, j: int, cand):
    """First common zero of F and its gradient in P^2(F_{q^j}), in the order
    of `_charts`, with chart (1:y:z) walked on the roots of `cand`, the
    curve's `_chart_a_elimination`; None if there is none.  On (1:y:z),
    Euler's identity x F_x + y F_y + z F_z = d F makes the F_x filter a
    no-op; it stays so that every chart is filtered alike."""
    T = get_table(extension_of(field, j))
    if cand is None:
        ys = np.arange(T.q, dtype=np.int64)
    else:  # eval_poly peaks at several q-arrays; nothing else of size q is held yet
        ys = np.nonzero(T.eval_poly(cand) == 0)[0]
    polys = (monomials,) + tuple(_partial(monomials, axis, field.p) for axis in range(3))
    pw = _power_tables(T, *polys)
    for x, chart_ys, zs in _charts(ys, T.q):
        on_chart = [_on_chart(f, x) for f in polys]
        for Y, Z in _blocks(chart_ys, zs):
            for f in on_chart:
                keep = _zero_mask(T, pw, f, Y, Z)
                Y, Z = Y[keep], Z[keep]
            if len(Y):
                return (x, int(Y[0]), int(Z[0]))
    return None


def make_smooth_plane(field: FieldSpec, monomials, d: int) -> CurveModel:
    """Plane curve F = 0 with F homogeneous of degree d, validated smooth.

    `monomials` is a sequence of (a, b, c, coeff) with x^a y^b z^c; duplicate
    exponent triples are merged mod p.  Smoothness is decided by one rank over
    F_p (`_is_smooth`), which builds no table and raises TooLarge above
    MACAULAY_MAX_ENTRIES.  A curve that rank proves singular raises
    SingularCurve with its first singular point: construction eliminates z
    once, then walks every extension j = 1, 2, .. (see `_chart_a_elimination`
    and `_plane_singular_witness`): it builds the table of F_{q^j} (TooLarge
    above 2^26 elements) and walks only the candidate y-lines of chart
    (1:y:z) there, so time and memory grow with q^j, not q^{2j}.

    The walk finds a witness by j = d(d-1)/2, in every characteristic.  If F
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
    d = sum(monomials[0][:3])
    at_x0 = [0] * (d + 1)
    for a, _, c, co in monomials:
        if a == 0:
            at_x0[c] += co
    f = fppoly.trim(at_x0, p)  # F(0, 1, z); its z^d coefficient is F(0, 0, 1)
    if not f:
        return total + Q + 1
    roots = fppoly.gcd(f, fppoly.sub(fppoly.powmod((0, 1), Q, f, p), (0, 1), p), p)
    return total + fppoly.degree(roots) + (fppoly.degree(f) < d)


def count_points(curve: CurveModel, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of points of the smooth projective model over F_{q^j}.

    The budget bounds the field elements enumerated, q^j for every enumerated
    family: the x-values of a hyperelliptic or biquadratic model, the y-lines
    of a plane curve's chart (1:y:z); exceeding it raises instead of
    grinding.  The projective line is a closed form, enumerates nothing and
    is not charged.

    Memory: a hyperelliptic count over F_{3^12} with a table not yet built
    peaks at 11.6 bytes per element under tracemalloc (8 of them the table
    build's two uint32 permutations), and the cached table keeps 4, its
    Zech logarithms, plus about 64 KB (see the tables module)."""
    if j < 1:
        raise InvalidDegree(j)
    if curve.kind == PROJECTIVE_LINE:
        return curve.q**j + 1
    if j >= budget.bit_length():  # q^j >= 2^j > budget: too large to compute
        raise BudgetExceeded(f"{curve.q}^{j}", budget)
    if curve.q**j > budget:
        raise BudgetExceeded(curve.q**j, budget)
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
