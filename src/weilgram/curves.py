"""Explicit curve families with validated hypotheses and exact point counts.

Four families are supported, each with a finite counting rule on the smooth
projective model:

* projective line P^1: N_j = q^j + 1;
* hyperelliptic y^2 = f(x), odd characteristic, f squarefree;
* smooth plane curve F(x,y,z) = 0 of degree d: projective solutions via the
  representatives (1:y:z), (0:1:z), (0:0:1); smoothness is validated at
  construction by one rank over F_p (see make_smooth_plane);
* biquadratic total space X: the fiber product of y1^2 = f and y2^2 = g over
  P^1 (deg f odd, deg g even, f, g squarefree and coprime).

Curve coefficients live in the prime field, so extending scalars is the
constant embedding.  All counts are exact; the heavy lifting is done by the
vectorized tables module.

Hyperelliptic and biquadratic models, polys = (f,) or (f, g), are counted
by one rule: over each x in F_Q (Q = q^j = p^K, K = kj) the product over h
in polys of #{y : y^2 = h(x)}, plus at infinity 1 for odd deg polys[-1],
else 2 or 0 as its leading coefficient is a square in F_Q or not.  Where K
is odd, the count runs on the table of F_Q, once per Frobenius orbit of x:
f has coefficients in F_p, so f(x^p) = f(x)^p, which is a square exactly
when f(x) is, and #{y : y^2 = f(x)} is the same on the orbit of x under
x -> x^p.  f is evaluated at the least log of each orbit
(FieldTable.frobenius_orbits, about Q / K of them), each term is weighted
by its orbit's size, and x = 0 is added.  Where K is even,
Q = q'^2 with q' = p^(K/2), and the count runs on the table of F_q' alone,
through the norm to F_q' (Lidl & Niederreiter, Finite Fields, ch. 2 and 6);
F_Q is neither constructed nor tabled.  Write x = a + b theta with a, b
in F_q' and theta^2 = d a non-square of F_q'.
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
rows of f and g, and the leading coefficient, in F_p, is a square in F_Q.

Plane curves are counted by lines, never point by point.  On the line
y = c of the chart (1:y:z) the points are the roots in F_Q (Q = q^j) of
F1(c, z) = F(1, c, z), so there are deg gcd(F1(c, z), z^Q - z) of them, or
Q when F1(c, .) vanishes identically.  F1 has coefficients in F_p, so
z -> z^p maps the roots of F1(c, .) onto those of F1(c^p, .): one line per
Frobenius orbit of c (the leaders of FieldTable.frobenius_orbits, about
Q / K of them, K = kj) is weighted by its orbit's size, and the line
c = 0 is added once.  The logs of the coefficients of F1(c, .) come from
one eval_logs pass per power of z at the leaders, and all that follows
runs on logs too; z^Q mod F1(c, .) takes about log2 Q squarings vectorized
over blocks of at most CHUNK lines of one degree in z (the degree drops
where the leading coefficient vanishes at c), and a Euclid masked per line
gives the gcd.  The chart (0:1:z) is the same gcd for F(0, 1, z), in
F_p[z], and (0:0:1) is one coefficient.  So a count builds no exp or log,
walks about Q / K lines, and is charged Q like every other family.

A plane is smooth exactly when the Macaulay matrix of its partials in
degree 3d - 5 (of F and its partials in degree 3d - 4 when p | d) has full
column rank over F_p (`_is_smooth`), so a smooth curve builds no table, and
a plane whose four-form matrix is above MACAULAY_MAX_ENTRIES is refused
with TooLarge.  Only a curve the rank proves singular is searched
for its witness, over F_{q^j} for j = 1, 2, ..., with the line algebra of a
count.  z is eliminated once per curve: a singular chart point (1:y0:z0)
forces y0 to be a root of Res_z(F1, dF1) * lc * lc, computed exactly in
F_p[y] by the subresultant remainder sequence in z, so chart (1:y:z) is
searched only on the y-lines through those roots (on every y-line when
elimination says nothing: both partials of F1 vanish, or a remainder of the
sequence does, a common factor in z, which only very non-generic curves
allow).  Horner's rule in y gives each line's polynomials in z, Horner's
rule in z finds the zeros of F on blocks of about CHUNK points, and the
partials are evaluated only there, all by horner_logs on the logs of table
indices, as witnesses go in index order.
The chart (0:1:z) is a gcd in F_p[z] and (0:0:1) three coefficients.
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

# charged on F and its partials in degree 3d - 4, the most `_is_smooth` builds,
# 8 MB of int64: the plane degree limit, d <= 13 when all partials are nonzero
MACAULAY_MAX_ENTRIES = 1 << 20
# the degree limit of f in y^2 = f, and of f g in a biquadratic (its y3), checked
# before fppoly.is_squarefree, a Euclid in O(n^2): 0.07-0.1 s at n = 1024 over
# F_3, 0.4-0.6 s over F_{2^61 - 1}
MAX_F_DEGREE = 1 << 10

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
        """Every place count a_j a nonnegative integer (zeta.place_counts),
        which implies N_j >= N_d for d | j, and the exact Weil inequality."""
        from .zeta import place_counts  # here, so that counting loads no zeta or gram
        for j, (n, a) in enumerate(zip(self.counts, place_counts(self.counts)), 1):
            if a < 0 or a.denominator != 1:
                raise InconsistentCounts(f"N_1..N_{j} give a_{j}={a} places of degree {j}")
            if (n - self.q**j - 1) ** 2 > 4 * genus**2 * self.q**j:
                raise InconsistentCounts(f"N_{j}={n} violates the Weil inequality")

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
    if fppoly.degree(fc) > MAX_F_DEGREE:
        raise TooLarge(f"deg f = {fppoly.degree(fc)} exceeds {MAX_F_DEGREE}")
    if not fppoly.is_squarefree(fc, field.p):
        raise NotSquarefree(fppoly.to_string(fc))
    return _hyperelliptic(field, fc)


def _hyperelliptic(field: FieldSpec, fc: tuple) -> CurveModel:
    """y^2 = fc, for fc already checked as `make_hyperelliptic` checks it."""
    return CurveModel(kind=HYPERELLIPTIC, base=field, f=fc,
                      genus=hyperelliptic_genus(fppoly.degree(fc)),
                      label=f"y^2={fppoly.to_string(fc)}/{_field_name(field)}")


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


def _resultant_z(A: list, B: list, p: int):
    """Res_z(A, B) for polynomials in z with F_p[y] coefficients and nonzero
    leading entries, with the sign of the Sylvester determinant that has A's
    rows first; None when A and B share a factor of positive degree in z,
    which is exactly when that determinant vanishes identically.

    The subresultant remainder sequence (Collins; Cohen, A Course in
    Computational Algebraic Number Theory, alg. 3.3.7): Euclid on the
    pseudo-remainders lc(B)^(delta+1) A mod B, delta = deg A - deg B, each
    divided exactly by g h^delta, with g the previous lc(B) and
    h = h^(1-delta) g^delta, so that their y-degrees stay those of the
    subresultants.  A zero remainder is a common factor; otherwise the
    sequence ends at a B constant in z, and Res = +-h^(1-n) lc(B)^n for
    n = deg A."""
    def power(f, e):
        out = (1,)
        for _ in range(e):
            out = fppoly.mul(out, f, p)
        return out

    def step(h, lead, e):  # h^(1 - e) lead^e, an exact quotient for e >= 0
        return fppoly.divmod_poly(fppoly.mul(h, power(lead, e), p), power(h, e), p)[0]

    sign, g, h = 1, (1,), (1,)
    if len(A) < len(B):  # Res(A, B) = (-1)^(deg A deg B) Res(B, A)
        A, B = B, A
        sign = (-1) ** ((len(A) - 1) * (len(B) - 1))
    while len(B) > 1:
        delta = len(A) - len(B)
        sign *= (-1) ** ((len(A) - 1) * (len(B) - 1))
        R = list(A)
        for shift in range(delta, -1, -1):  # R = lc(B) R - lead(R) z^shift B
            lead = R.pop()
            R = [fppoly.sub(fppoly.mul(r, B[-1], p),
                            fppoly.mul(lead, B[i - shift], p) if i >= shift else (), p)
                 for i, r in enumerate(R)]
        while R and not R[-1]:
            R.pop()
        if not R:
            return None
        divisor = fppoly.mul(g, power(h, delta), p)
        A, B, g = B, [fppoly.divmod_poly(r, divisor, p)[0] for r in R], B[-1]
        h = step(h, g, delta)
    return fppoly.scale(step(h, B[0], len(A) - 1), sign, p)


def _chart_a_elimination(monomials: tuple, p: int):
    """cand for F1 = F(1, y, z), computed once per curve.

    Every singular chart point has its y-coordinate among the roots of cand:
    F1 itself when it has no z, else Res_z(F1, D) * lc(F1) * lc(D) for D the
    z-partial of F1, or its y-partial when that is zero.  cand is None when
    elimination says nothing, and then every y is a candidate: when both
    partials are zero, or when F1 and D share a factor of positive degree in
    z (a square G^2 dividing F1 does), so that the resultant vanishes
    identically.  One subresultant sequence in z (`_resultant_z`) decides
    that and gives the resultant."""
    zpolys = _chart_a_zpolys(monomials, p)
    if len(zpolys) == 1:
        return zpolys[0]
    D = _chart_a_zpolys(_partial(monomials, 2, p), p) or \
        _chart_a_zpolys(_partial(monomials, 1, p), p)
    res = _resultant_z(zpolys, D, p) if D else None
    return None if res is None else fppoly.mul(res, fppoly.mul(zpolys[-1], D[-1], p), p)


def _is_smooth(monomials: tuple, p: int, d: int) -> bool:
    """Whether F and its three partials have no common zero in P^2 over the
    algebraic closure of F_p: whether the Macaulay matrix of the forms below
    in degree D has full column rank over F_p.  Each row holds m G, G a form
    and m a monomial of degree D - deg G; each column is a monomial of degree D.

    Full rank puts every monomial of degree D in the ideal of the forms, so
    they have no common zero.  When p does not divide d, Euler's identity
    x F_x + y F_y + z F_z = d F puts F in the ideal of the partials, and a
    common zero of the partials is a zero of d F, so of F: the forms are the
    nonzero partials, and three forms of degree d - 1 with no common zero
    generate every form of degree D = 3d - 5 (Lazard, EUROCAL 1983; fewer
    than three always have one).  When p | d the forms are F and its nonzero
    partials, and D = 3d - 4 = sum (d_i - 1) + 1 over the degrees d, d-1,
    d-1.  A line gives an empty matrix: it is smooth.

    Gaussian elimination mod p, column by column, updating only the rows
    below the pivot with a nonzero entry in its column.  Entries are reduced
    lazily: k updates after a reduction |entry| <= p - 1 + k (p-1)^2, and
    the rows left are reduced before that bound could pass 2^63 - 1.  So
    int64 is exact while p(p-1) < 2^63, and the same code runs on Python
    ints beyond.  Raises TooLarge before allocating when F and its partials
    in degree 3d - 4 have more than MACAULAY_MAX_ENTRIES entries."""
    D = 3 * d - 4
    forms = [f for f in (monomials, *(_partial(monomials, axis, p) for axis in range(3))) if f]
    ns = [D - sum(f[0][:3]) for f in forms]
    rows, cols = sum((n + 1) * (n + 2) // 2 for n in ns), (D + 2) * (D + 1) // 2
    if rows * cols > MACAULAY_MAX_ENTRIES:
        raise TooLarge(f"Macaulay matrix of {rows} x {cols} entries for degree {d}; "
                       f"the limit is {MACAULAY_MAX_ENTRIES}")
    if d % p:
        forms, ns, D = forms[1:], [n - 1 for n in ns[1:]], D - 1
    shifts = [np.array([(a, b) for a in range(n + 1) for b in range(n + 1 - a)],
                       dtype=np.int64).reshape(-1, 1, 2) for n in ns]
    cols, dtype = (D + 2) * (D + 1) // 2, np.int64 if p * (p - 1) < 2**63 else object
    tops = np.cumsum([0, *map(len, shifts)])
    M = np.zeros((tops[-1], cols), dtype=dtype)
    for f, m, top in zip(forms, shifts, tops):  # x^a y^b z^c: column a(2D + 3 - a)/2 + b
        A, B = (m + np.array([t[:2] for t in f], dtype=np.int64)).transpose(2, 0, 1)
        M[np.arange(top, top + len(m))[:, None], A * (2 * D + 3 - A) // 2 + B] = \
            np.array([t[3] for t in f], dtype=dtype)
    bound, step = p - 1, (p - 1) ** 2
    for c in range(cols):
        R = M[c:, c:]  # the rows and columns left, a view
        col = R[:, 0] % p
        nz = col.nonzero()[0]
        if not len(nz):
            return False
        k, below = nz[0], nz[1:]
        if k:  # the row swapped down holds a zero in column c
            R[[0, k]] = R[[k, 0]]
        if len(below):
            if bound + step > 2**63 - 1:
                R[1:, 1:] %= p
                bound = p - 1
            R[below, 1:] -= col[below, None] * (R[0, 1:] % p * pow(int(col[k]), -1, p) % p)
            bound += step
    return True


def _at_x0(monomials: tuple, p: int) -> tuple:
    """F(0, 1, z) in F_p[z]: the x-free monomials, by their power of z."""
    out = [0] * (max((c for _, _, c, _ in monomials), default=-1) + 1)
    for a, _, c, co in monomials:
        if a == 0:
            out[c] += co
    return fppoly.trim(out, p)


def _roots(T: FieldTable, f) -> np.ndarray:
    """The roots in F_q (q = T.q) of f in F_p[x], as table indices in
    ascending order."""
    return np.sort(T.exp.take(np.flatnonzero(T.eval_logs(f) >= T.q - 1)))


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
    ys = np.arange(T.q) if cand is None else _roots(T, cand)
    partials = [_partial(monomials, axis, p) for axis in range(3)]
    # rows: the y-polynomials of the z-coefficients of F, then F_y, then F_z
    rows = [_chart_a_zpolys(f, p) or [()] for f in (monomials, *partials[1:])]
    ends = np.cumsum([len(r) for r in rows])
    rows = [P for r in rows for P in r]
    width = max(len(P) for P in rows)
    by_y = T.prime_logs.take([P + (0,) * (width - len(P)) for P in rows]).T[:, :, None]
    lines = max(1, CHUNK // T.q)
    for lo in range(0, len(ys), lines):
        Y = ys[lo:lo + lines]
        on_lines = np.broadcast_to(T.horner_logs(by_y, T.log.take(Y)), (len(rows), len(Y)))
        F, Fy, Fz = np.split(on_lines, ends[:2])
        for s in range(0, T.q, CHUNK):
            Z = T.log[s:s + CHUNK]
            on_F = np.broadcast_to(T.horner_logs(F[:, :, None], Z), (len(Y), len(Z)))
            y, z = np.nonzero(on_F >= T.q - 1)
            singular = np.all([T.horner_logs(G[:, y], Z[z]) >= T.q - 1 for G in (Fy, Fz)], axis=0)
            if singular.any():
                k = np.argmax(singular)
                return (1, int(Y[y[k]]), s + int(z[k]))
    g = ()
    for f in (monomials, *partials):
        g = fppoly.gcd(g, _at_x0(f, p), p)
    roots = _roots(T, g)
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
    F_p (`_is_smooth`): of the partials when p does not divide d, as Euler's
    identity d F = x F_x + y F_y + z F_z makes their common zeros singular
    points, else of F and its partials.  It builds no table and raises
    TooLarge above MACAULAY_MAX_ENTRIES.  A curve that rank proves singular
    raises SingularCurve with its first singular point: construction
    eliminates z once, by one subresultant sequence over F_p[y], then
    searches every extension j = 1, 2, .. (see `_chart_a_elimination` and
    `_plane_singular_witness`): it builds the table of F_{q^j} (TooLarge
    above 2^26 elements) and evaluates F only on the candidate y-lines of
    chart (1:y:z) there, CHUNK points at a time, so time and memory grow
    with q^j, not q^{2j}.

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

    Validation order matters for error reporting: deg f + deg g, the degree
    of y3's f, against MAX_F_DEGREE first, then squarefreeness of each
    factor, then the degree parities (deg f odd, deg g even >= 2), then
    coprimality, so f g is squarefree too.  The parity constraints make the
    covers ramify over disjoint sets of places (roots of f plus infinity vs.
    roots of g), so the fiber product is smooth and absolutely irreducible.
    """
    if field.p == 2:
        raise EvenCharacteristic("biquadratic models need odd characteristic")
    p = field.p
    fc = fppoly.trim(f, p)
    gc = fppoly.trim(g, p)
    if fppoly.degree(fc) < 1 or fppoly.degree(gc) < 1:
        raise ZeroPolynomial("f and g must have degree >= 1")
    if fppoly.degree(fc) + fppoly.degree(gc) > MAX_F_DEGREE:
        raise TooLarge(f"deg f + deg g = {fppoly.degree(fc) + fppoly.degree(gc)} "
                       f"exceeds {MAX_F_DEGREE}")
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
    Y1, Y2, Y3 = (_hyperelliptic(field, h) for h in (fc, gc, fppoly.mul(fc, gc, p)))
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

def _sqrt_counts(logs: np.ndarray, n: int) -> np.ndarray:
    """#{y : y^2 = v} from log v, n = q - 1 even (p odd): 1 where v = 0 (a
    log >= n), else 2 or 0 as log v is even or odd."""
    counts = np.bitwise_and(logs, 1, out=np.empty(logs.shape, dtype=np.int8),
                            casting="unsafe")
    counts *= -2
    counts += 2
    counts[logs >= n] = 1
    return counts


def _orbit_count(T: FieldTable, polys) -> int:
    """Sum over x in F_Q of the product over f in polys of #{y : y^2 =
    f(x)}, for Q = T.q = p^K, K odd, on the table of F_Q (module docstring):
    f(x^p) = f(x)^p, so the term is the same on each Frobenius orbit of x,
    and each orbit leader's term is weighted by its orbit's size; x = 0 is
    an orbit of its own."""
    n = T.q - 1
    leaders, sizes = T.frobenius_orbits
    at_zero = _sqrt_counts(T.prime_logs.take([f[0] % T.p for f in polys]), n)  # at f(0)
    terms = 1
    for f in polys:
        terms = terms * _sqrt_counts(T.eval_logs(f, leaders), n)
    return int((terms * sizes).sum(dtype=np.int64)) + int(at_zero.prod())


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
    odd = leaders % 2 == 1  # p is odd, so an orbit keeps the parity of its logs
    leaders, sizes = leaders[odd], sizes[odd]
    c_logs = np.append(leaders, np.uint32(3 * n))[:, None]
    minus_c = np.append((leaders + n // 2) % n, np.uint32(3 * n))[:, None]  # log -c
    weights = np.append(2 * sizes.astype(np.int64), 1)
    total, rows = 0, max(1, CHUNK // T.q)
    for lo in range(0, len(c_logs), rows):
        c, block = c_logs[lo:lo + rows], 1
        for F in hasse:
            A2 = T.reduce_logs(2 * T.horner_logs(list(F[0::2]), c))
            B2 = T.reduce_logs(2 * T.horner_logs(list(F[1::2]), c))
            norm = T.horner_logs([A2, B2], minus_c[lo:lo + rows])  # A^2 - c B^2
            block = block * _sqrt_counts(norm, n)
        total += int(block.sum(axis=1) @ weights[lo:lo + rows])
    return total


def _roots_in_field(T: FieldTable, h: list) -> np.ndarray:
    """deg gcd(h, z^Q - z) per line, the number of distinct roots in F_Q
    (Q = T.q) of h = sum h_i z^i; h is a list of uint32 log arrays, one
    entry per line, of exact degree D = len(h) - 1 >= 2 on every line.

    z^Q mod h comes from about log2 Q squarings (and times z for the one bits
    of Q), each reduced with z^D = sum nh_i z^i; then a Euclid masked per
    line, since the remainders drop degree at different steps."""
    D, n = len(h) - 1, T.q - 1
    minus_one, two = T.prime_logs[T.p - 1], T.prime_logs[2 % T.p]
    neg_inv_lead = minus_one + n - h[D]  # -1 / h_D, reduced with each product
    nh = [T.reduce_logs(c + neg_inv_lead) for c in h[:D]]

    def reduce(u):
        for k in range(len(u) - 1, D - 1, -1):
            for i in range(D):
                u[k - D + i] = T.add_logs(u[k - D + i], T.reduce_logs(u[k] + nh[i]))
        return u[:D]

    zero, one = np.full_like(h[0], 3 * n), np.zeros_like(h[0])
    r = [zero, one] + [zero] * (D - 2)  # z mod h
    for bit in bin(T.q)[3:]:
        u = [zero] * (2 * D - 1)
        for i in range(D):
            u[2 * i] = T.reduce_logs(2 * r[i])
        if T.p != 2:  # cross terms 2 r_i r_j vanish in characteristic 2
            for i in range(D):
                for j in range(i + 1, D):
                    u[i + j] = T.add_logs(u[i + j], T.reduce_logs(r[i] + r[j] + two))
        r = reduce(u)
        if bit == "1":
            r = reduce([zero] + r)
    r[1] = T.add_logs(r[1], minus_one)  # z^Q - z mod h
    return _gcd_degrees(T, np.array(h), np.array(r + [zero]))


def _degrees(M: np.ndarray, n: int) -> np.ndarray:
    """The degree in z per line of a (rows, lines) log array, row i the
    coefficient of z^i (zero at a log >= n), and -1 where every row is zero."""
    nonzero = M < n
    return np.where(nonzero.any(axis=0), len(M) - 1 - np.argmax(nonzero[::-1], axis=0), -1)


def _gcd_degrees(T: FieldTable, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """deg gcd(A, B) per line for two polynomials in z stored as (rows, lines)
    log arrays, row i the coefficient of z^i; A must be nonzero on every
    line.  Each step cancels the leading term of the higher-degree one."""
    n = T.q - 1
    rows, cols = np.arange(len(A))[:, None], np.arange(A.shape[1])
    minus_one = T.prime_logs[T.p - 1]
    dA, dB = _degrees(A, n), _degrees(B, n)
    while True:
        swap = dA < dB
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        dA, dB = np.where(swap, dB, dA), np.where(swap, dA, dB)
        if not (dB >= 0).any():
            return dA
        # -lead A / lead B; where B = 0 the log is garbage, but every shifted
        # entry there is the sentinel, so the product is zero all the same
        factor = T.reduce_logs(A[dA, cols] + minus_one + n - B[np.maximum(dB, 0), cols])
        src = rows - (dA - dB)  # the row of B that lands on each row of A
        shifted = np.where(src >= 0, B[np.maximum(src, 0), cols], 3 * n)
        A = T.add_logs(A, T.reduce_logs(shifted + factor))
        dA = _degrees(A, n)


def _count_plane(T: FieldTable, monomials: tuple, p: int) -> int:
    """Points of F = 0 in P^2(F_Q), Q = T.q, by lines (module docstring):
    one line y = c per Frobenius orbit, c = 0 last, weighted by the orbit's
    size; lines of degree 0 and 1 in z are read off, the others go to
    _roots_in_field in blocks of CHUNK lines, grouped by degree."""
    Q, n = T.q, T.q - 1
    leaders, sizes = T.frobenius_orbits
    zpolys = _chart_a_zpolys(monomials, p)
    # row i: the log of the z^i coefficient of F1(c, .) on each line, 0 -> sentinel
    coeffs = np.empty((len(zpolys), len(leaders) + 1), dtype=np.uint32)
    for row, P in zip(coeffs, zpolys):
        row[:-1] = T.eval_logs(P, leaders)
        row[-1] = T.prime_logs[P[0] if P else 0]  # at c = 0
        np.putmask(row, row >= n, 3 * n)
    total = 0
    for lo in range(0, coeffs.shape[1], CHUNK):
        block = coeffs[:, lo:lo + CHUNK]
        deg = _degrees(block, n)
        points = np.where(deg < 0, Q, deg == 1)  # F1(c, .) = 0: all Q points
        for D in range(2, len(block)):
            lines = np.flatnonzero(deg == D)
            if len(lines):
                points[lines] = _roots_in_field(T, list(block[:D + 1, lines]))
        weights = sizes[lo:lo + CHUNK]  # and 1 for the line c = 0, the last
        total += int(points[:len(weights)] @ weights) + int(points[len(weights):].sum())
    f = _at_x0(monomials, p)  # its z^d coefficient is F(0, 0, 1)
    if not f:
        return total + Q + 1
    roots = fppoly.gcd(f, fppoly.sub(fppoly.powmod((0, 1), Q, f, p), (0, 1), p), p)
    return total + fppoly.degree(roots) + (fppoly.degree(f) < sum(monomials[0][:3]))


def _refuse_over_budget(curve: CurveModel, j: int, budget: int) -> None:
    """BudgetExceeded when counting over F_{q^j} is refused: from j >=
    budget.bit_length() on for every family, and for q^j > budget for every
    family but the projective line."""
    if j >= budget.bit_length():  # q^j >= 2^j > budget: too large to compute
        raise BudgetExceeded(f"{curve.q}^{j}", budget)
    if curve.kind != PROJECTIVE_LINE and curve.q**j > budget:
        raise BudgetExceeded(curve.q**j, budget)


def count_points(curve: CurveModel, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of points of the smooth projective model over F_{q^j}.

    The budget bounds the field elements enumerated, q^j for every enumerated
    family: the x-values of a hyperelliptic or biquadratic model, the y-lines
    of a plane curve's chart (1:y:z); exceeding it raises instead of
    grinding.  The projective line is a closed form, enumerates nothing and
    is not charged; like every family it is refused from j >=
    budget.bit_length() on, where q^j > budget is known without computing
    it.  Hyperelliptic and biquadratic models share one count and one rule
    at infinity (module docstring).

    Memory: a hyperelliptic or biquadratic count with kj even holds the
    table of F_{q'}, q' = sqrt(q^j), the values of the F_k there (at most
    min(n + 1, 2q') rows of q' uint32 per polynomial of degree n) and one
    block of about CHUNK (c, a) pairs: over F_{3^12}, from tables not yet
    built, it peaks at about 2.5 bytes per element of F_{3^12} under
    tracemalloc.  With kj odd it builds the table of F_{q^j} and evaluates
    f at the orbit leaders alone: over F_{3^13} it peaks at about 9.7 bytes
    per element (8 of them the table build's two uint32 permutations), and
    the cached table keeps 4, its Zech logarithms, plus about 5/kj for the
    orbit leaders and sizes and about 64 KB (see the tables module).  A plane count
    holds 4(d + 1) bytes per orbit leader of z-coefficient logs, and the
    gcds of one block of CHUNK lines: the Fermat quartic over F_5 at j = 8,
    from tables not yet built, peaks at about 65 bytes per element (24 MiB)
    under tracemalloc, most of it one block's gcd."""
    if j < 1:
        raise InvalidDegree(j)
    _refuse_over_budget(curve, j, budget)
    if curve.kind == PROJECTIVE_LINE:
        return curve.q**j + 1
    p, K = curve.base.p, curve.base.k * j
    if curve.kind in (HYPERELLIPTIC, BIQUADRATIC):
        polys = (curve.f,) if curve.kind == HYPERELLIPTIC else (curve.f, curve.g)
        if K % 2 == 0:  # every F_p scalar is a square in F_{p^K}
            affine, square = _norm_count(get_table(construct_field(p, K // 2)), polys), True
        else:
            ext = extension_of(curve.base, j)
            affine = _orbit_count(get_table(ext), polys)
            square = scalar_is_square_in(polys[-1][-1], ext)
        return affine + (1 if fppoly.degree(polys[-1]) % 2 else 2 * square)
    if curve.kind == SMOOTH_PLANE:
        return _count_plane(get_table(extension_of(curve.base, j)), curve.monomials, p)
    raise WrongKind(curve.kind)


def count_series(curve: CurveModel, m: int, budget: int = DEFAULT_BUDGET) -> PointCountSeries:
    """N_1..N_m, validated against the series invariants before returning.
    Every j = 1..m is checked against the budget before the first count."""
    for j in range(1, m + 1):
        _refuse_over_budget(curve, j, budget)
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
