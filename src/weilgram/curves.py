"""Explicit curve families with validated hypotheses and exact point counts.

Four families are supported, each with a finite counting rule on the smooth
projective model:

* projective line P^1: N_j = q^j + 1;
* hyperelliptic y^2 = f(x), odd characteristic, f squarefree: affine points
  by counting square roots of f(x), plus 1 point at infinity for odd deg f,
  else 2 or 0 according to whether lc(f) is a square in F_{q^j};
* smooth plane curve F(x,y,z) = 0 of degree d: projective solutions via the
  representatives (1:y:z), (0:1:z), (0:0:1); smoothness is validated at
  construction by searching for common zeros of F and its gradient over all
  extensions j <= (d-1)^2 (the Bezout bound on singular-point degrees);
* biquadratic total space X: the fiber product of y1^2 = f and y2^2 = g over
  P^1 (deg f odd, deg g even, f, g squarefree and coprime), counted fiberwise
  with 2 or 0 points over x = infinity according to whether lc(g) is a square.

Curve coefficients live in the prime field, so extending scalars is the
constant embedding.  All counts are exact; the heavy lifting is done by the
vectorized tables module.

The singularity search eliminates z once per curve: a singular chart point
(1:y0:z0) forces y0 to be a root of Res_z(F1, dF1) * lc * lc, computed
exactly in F_p[y] by fraction-free elimination, so in each extension only
the y-lines through those roots are z-scanned, in ascending y.  When
elimination says nothing (both partials of F1 vanish, or the resultant does
identically, which only very non-generic curves allow) every y-line is
scanned.  Either way the scan holds O(q^j) values at a time, and counting
walks the q^{2j} chart pairs by flat index in chunks.
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
    InvalidDegree,
    NotCoprime,
    NotHomogeneous,
    NotSquarefree,
    SingularCurve,
    WrongKind,
    ZeroPolynomial,
)
from .finite_field import FieldSpec, construct_field, extension_of, scalar_is_square_in
from .tables import CHUNK, FieldTable, get_table

DEFAULT_BUDGET = 10**6

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
                    raise ValueError(f"N_{j}={n[j-1]} < N_{d}={n[d-1]} with {d} | {j}")
            if (n[j - 1] - self.q**j - 1) ** 2 > 4 * genus**2 * self.q**j:
                raise ValueError(f"N_{j}={n[j-1]} violates the Weil inequality")

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


def _zpoly_derivative_z(zpolys: list, p: int) -> list:
    out = [fppoly.scale(zpolys[c], c, p) for c in range(1, len(zpolys))]
    while out and not out[-1]:
        out.pop()
    return out


def _zpoly_derivative_y(zpolys: list, p: int) -> list:
    out = [fppoly.derivative(P, p) for P in zpolys]
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
    determinant).  A and B must have nonzero leading entries."""
    da, db = len(A) - 1, len(B) - 1
    if da == 0 and db == 0:
        return (1,)
    if da == 0:
        out = (1,)
        for _ in range(db):
            out = fppoly.mul(out, A[0], p)
        return out
    if db == 0:
        out = (1,)
        for _ in range(da):
            out = fppoly.mul(out, B[0], p)
        return out
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


def _chart_a_elimination(monomials: tuple, p: int) -> tuple:
    """(zpolys, dy, dz, cand) for F1 = F(1, y, z), computed once per curve.

    zpolys is F1 by powers of z, dy and dz its partials.  Every singular
    chart point has its y-coordinate among the roots of cand: F1 itself when
    it has no z, else Res_z(F1, D) * lc(F1) * lc(D) for a nonzero partial D.
    cand is None when elimination says nothing (both partials zero, or the
    resultant identically zero); then every y is a candidate."""
    zpolys = _chart_a_zpolys(monomials, p)
    dy = _zpoly_derivative_y(zpolys, p)
    dz = _zpoly_derivative_z(zpolys, p)
    if len(zpolys) == 1:
        return zpolys, dy, dz, zpolys[0]
    D = dz or dy
    res = _resultant_z(zpolys, D, p) if D else ()
    cand = fppoly.mul(res, fppoly.mul(zpolys[-1], D[-1], p), p) if res else None
    return zpolys, dy, dz, cand


def _chart_a_witness(T: FieldTable, zpolys: list, dy: list, dz: list, cand):
    """First singular (1:y:z) over T's field in (y, z) order: z-scans the
    candidate y-lines of `_chart_a_elimination`, in ascending y."""
    if cand is None:
        ys = np.arange(T.q, dtype=np.int64)
    else:
        ys = np.nonzero(T.eval_poly(cand) == 0)[0]
    z_all = np.arange(T.q, dtype=np.int64)  # after eval_poly, which peaks at several q-arrays
    lines = [[T.eval_poly(P, ys) for P in polys] for polys in (zpolys, dy, dz)]
    for i, y0 in enumerate(ys):
        f, fy, fz = ([int(v[i]) for v in vals] for vals in lines)
        z_roots = z_all[T.eval_zpoly(f, z_all) == 0]
        if not len(z_roots):
            continue
        ok = (T.eval_zpoly(fy, z_roots) == 0) & (T.eval_zpoly(fz, z_roots) == 0)
        hits = np.nonzero(ok)[0]
        if len(hits):
            return (1, int(y0), int(z_roots[hits[0]]))
    return None


def _count_chart_a(T: FieldTable, monomials) -> int:
    """Number of pairs (y, z) with sum co * y^b z^c = 0 (the chart x = 1).
    Walks the flat index y*q + z in chunks, accumulating in digit space."""
    q = T.q
    pw = {e: T.powers(e) for _, b, c, _ in monomials for e in (b, c) if e}
    acc_type = np.min_scalar_type(len(monomials) * (T.p - 1) ** 2)  # bounds every sum
    zeros = 0
    for lo in range(0, q * q, CHUNK):
        flat = np.arange(lo, min(lo + CHUNK, q * q), dtype=np.int64)
        Y = flat // q
        Z = flat - Y * q
        acc = np.zeros((len(Y), T.K), dtype=acc_type)
        for _, b, c, co in monomials:
            if b and c:
                term = T.mul(pw[b][Y], pw[c][Z])
            elif b:
                term = pw[b][Y]
            elif c:
                term = pw[c][Z]
            else:
                term = np.full(len(Y), 1, dtype=np.int64)
            acc += co * T.digits.take(term, axis=0).astype(acc_type)
        acc -= acc // T.p * T.p  # acc % p, but numpy divides small ints faster
        zeros += int(np.count_nonzero(acc @ T._pvec == 0))
    return zeros


def _eval_monomials_scalar(monomials, x: int, y: int, z: int, p: int) -> int:
    total = 0
    for a, b, c, co in monomials:
        total += co * pow(x, a, p) * pow(y, b, p) * pow(z, c, p)
    return total % p


def _substitute_chart_b(monomials, p: int) -> tuple:
    """F(0, 1, z) as a univariate coefficient tuple in z."""
    out = {}
    for a, _, c, co in monomials:
        if a == 0:
            out[c] = (out.get(c, 0) + co) % p
    if not out:
        return ()
    coeffs = [0] * (max(out) + 1)
    for c, co in out.items():
        coeffs[c] = co
    return fppoly.trim(coeffs, p)


def _plane_singular_witness(field: FieldSpec, monomials: tuple, j: int, elim: tuple):
    """First common zero of F and its gradient in P^2(F_{q^j}), scanning the
    chart (1:y:z) in (y, z) order, then (0:1:z), then (0:0:1); None if none.
    `elim` is the curve's `_chart_a_elimination`."""
    p = field.p
    ext = extension_of(field, j)
    T = get_table(ext)
    q = ext.q

    witness = _chart_a_witness(T, *elim)
    if witness is not None:
        return witness

    partials = [_partial(monomials, axis, p) for axis in range(3)]
    z_all = np.arange(q, dtype=np.int64)
    fvals = T.eval_poly(_substitute_chart_b(monomials, p), z_all)
    hits = z_all[fvals == 0]
    if len(hits):
        ok = np.ones(len(hits), dtype=bool)
        for pm in partials:
            ok &= T.eval_poly(_substitute_chart_b(pm, p), hits) == 0
        where = np.nonzero(ok)[0]
        if len(where):
            return (0, 1, int(hits[where[0]]))

    if _eval_monomials_scalar(monomials, 0, 0, 1, p) == 0 and all(
        _eval_monomials_scalar(pm, 0, 0, 1, p) == 0 for pm in partials
    ):
        return (0, 0, 1)
    return None


def make_smooth_plane(field: FieldSpec, monomials, d: int) -> CurveModel:
    """Plane curve F = 0 with F homogeneous of degree d, validated smooth.

    `monomials` is a sequence of (a, b, c, coeff) with x^a y^b z^c; duplicate
    exponent triples are merged mod p.  Construction eliminates z once, then
    searches every extension j <= (d-1)^2 for singular points: it builds the
    table of F_{q^j} (TooLarge above 2^26 elements) and z-scans only the
    candidate y-lines there, so time and memory grow with q^j, not q^{2j}.
    """
    if d < 1:
        raise InvalidDegree(d)
    monos = _canonical_monomials(monomials, field.p, d)
    elim = _chart_a_elimination(monos, field.p)
    for j in range(1, (d - 1) ** 2 + 1):
        witness = _plane_singular_witness(field, monos, j, elim)
        if witness is not None:
            raise SingularCurve(witness, j)
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

def _charge(curve: CurveModel, j: int) -> int:
    q = curve.q
    if curve.kind == SMOOTH_PLANE:
        return q ** (2 * j) + q**j + 1
    return q**j


def count_points(curve: CurveModel, j: int, budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of points of the smooth projective model over F_{q^j}.

    The budget bounds the number of enumerated items (field elements for
    hyperelliptic and biquadratic models, projective chart representatives
    for plane curves); exceeding it raises instead of grinding.  The
    projective line is a closed form, enumerates nothing and is not charged."""
    if j < 1:
        raise InvalidDegree(j)
    if curve.kind == PROJECTIVE_LINE:
        return curve.q**j + 1
    needed = _charge(curve, j)
    if needed > budget:
        raise BudgetExceeded(needed, budget)
    ext = extension_of(curve.base, j)
    T = get_table(ext)
    if curve.kind == HYPERELLIPTIC:
        sqc = T.sqrt_count()
        affine = int(sqc[T.eval_poly(curve.f)].sum())
        if fppoly.degree(curve.f) % 2 == 1:
            return affine + 1
        return affine + (2 if scalar_is_square_in(curve.f[-1], ext) else 0)
    if curve.kind == BIQUADRATIC:
        sqc = T.sqrt_count()
        affine = int((sqc[T.eval_poly(curve.f)] * sqc[T.eval_poly(curve.g)]).sum())
        return affine + (2 if scalar_is_square_in(curve.g[-1], ext) else 0)
    if curve.kind == SMOOTH_PLANE:
        p = curve.base.p
        total = _count_chart_a(T, curve.monomials)
        chart_b = _substitute_chart_b(curve.monomials, p)
        total += int((T.eval_poly(chart_b, np.arange(ext.q, dtype=np.int64)) == 0).sum())
        if _eval_monomials_scalar(curve.monomials, 0, 0, 1, p) == 0:
            total += 1
        return total
    raise WrongKind(curve.kind)


def count_series(curve: CurveModel, m: int, budget: int = DEFAULT_BUDGET) -> PointCountSeries:
    """N_1..N_m, validated against the series invariants before returning."""
    series = PointCountSeries(
        q=curve.q, counts=tuple(count_points(curve, j, budget) for j in range(1, m + 1))
    )
    series.validate(curve.genus)
    return series


def composite_cover(diagram: DiagramData) -> CoverData:
    """The composed degree-4 cover X -> Z."""
    return CoverData(diagram.X, diagram.Z, 4, "diagram_composite")


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
