"""Curve constructors, validation, and brute-force point counting."""

import hashlib
import random
import time
import tracemalloc

import numpy as np
import pytest

from weilgram import curves, fppoly
from weilgram.curves import (
    CHUNK,
    MAX_F_DEGREE,
    SMOOTH_PLANE,
    CoverData,
    CurveModel,
    PointCountSeries,
    count_points,
    count_series,
    hyperelliptic_cover,
    hyperelliptic_genus,
    make_biquadratic,
    make_hyperelliptic,
    make_projective_line,
    make_smooth_plane,
    parse_manifest,
    serialize_manifest,
)
from weilgram.errors import (
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
from weilgram.finite_field import construct_field
from weilgram.tables import FieldTable
from weilgram.zeta import extrapolate, infer_genus, l_from_counts

from oracles import (
    count_hyperelliptic_prime_field,
    count_plane_prime_field,
    count_slow,
    element_from_index,
    eval_at,
    first_singular_point_prime_field,
    generator,
    macaulay_smooth,
    one,
    scalar,
    singular_point_exists,
    zero,
)

F3 = construct_field(3, 1)
F4 = construct_field(2, 2)
F5 = construct_field(5, 1)
F9 = construct_field(3, 2)

FERMAT_CUBIC = [(3, 0, 0, 1), (0, 3, 0, 1), (0, 0, 3, 1)]
FERMAT_QUARTIC = [(4, 0, 0, 1), (0, 4, 0, 1), (0, 0, 4, 1)]
QUINTIC = [(5, 0, 0, 1), (0, 5, 0, 1), (0, 0, 5, 1), (1, 4, 0, 1), (0, 1, 4, 1), (4, 0, 1, 1)]


# --- constructors and genus formulas ---------------------------------------

def test_projective_line():
    line = make_projective_line(F3)
    assert line.genus == 0
    assert count_points(line, 1) == 4
    assert count_points(make_projective_line(F9), 1) == 10


@pytest.mark.parametrize("deg,genus", [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2),
                                       (6, 2), (7, 3), (8, 3), (9, 4)])
def test_hyperelliptic_genus_formula(deg, genus):
    assert hyperelliptic_genus(deg) == genus


def test_make_hyperelliptic_examples():
    assert make_hyperelliptic(F3, (0, 1, 0, 1)).genus == 1   # y^2 = x^3 + x
    assert make_hyperelliptic(F3, (2, 1, 1)).genus == 0      # y^2 = x^2 + x + 2
    with pytest.raises(NotSquarefree):
        make_hyperelliptic(F3, (0, 0, 1, 1))                 # x^2 (x + 1)
    with pytest.raises(EvenCharacteristic):
        make_hyperelliptic(construct_field(2, 1), (0, 1, 0, 1))
    with pytest.raises(ZeroPolynomial):
        make_hyperelliptic(F3, (2,))


def test_make_smooth_plane_fermat_cubic_over_f4():
    X = make_smooth_plane(F4, FERMAT_CUBIC, 3)
    assert X.genus == 1
    assert count_points(X, 1) == 9


def test_fermat_cubic_singular_in_characteristic_three():
    # all three partials 3x^2, 3y^2, 3z^2 vanish identically mod 3, so every
    # curve point is singular; the first one scanned in the chart (1:y:z) is
    # (1, 0, 2) over the base field itself
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(F3, FERMAT_CUBIC, 3)
    assert info.value.witness == (1, 0, 2)
    assert info.value.extension_degree == 1


def test_fermat_quartic_over_f5_genus_three():
    """Genus 3: N_1..N_3 fix L, and the counts by lines up to F_{5^6}
    (15,625 lines) are the ones L extrapolates."""
    X = make_smooth_plane(F5, FERMAT_QUARTIC, 4)
    assert X.genus == 3
    counts = [count_points(X, j) for j in range(1, 7)]
    L = l_from_counts(5, 3, counts[:3])
    assert counts == [extrapolate(L, j) for j in range(1, 7)]


def _merged(terms, p):
    """Monomials (a, b, c, coeff) with equal exponents summed mod p."""
    out = {}
    for a, b, c, co in terms:
        out[(a, b, c)] = (out.get((a, b, c), 0) + co) % p
    return tuple((*k, co) for k, co in sorted(out.items()) if co)


def _product(F, G, p):
    return _merged([(a + e, b + f, c + g, u * v) for a, b, c, u in F for e, f, g, v in G], p)


def _random_form(rng, p, d, z_free=False, density=0.6):
    while True:
        F = _merged([(a, b, d - a - b, rng.randrange(1, p))
                     for a in range(d + 1) for b in range(d + 1 - a)
                     if (a + b == d or not z_free) and rng.random() < density], p)
        if F:
            return F


def _seeded_planes():
    """Cubics and quartics over prime fields: random ones, z-free ones (F(1, y, z)
    has no z), squares times a form (the resultant vanishes identically) and
    Fermat curves with p | d (both partials of F(1, y, z) vanish)."""
    rng = random.Random(5)
    for p in (2, 3, 5, 7, 11, 13):
        for d in (3, 4):
            for _ in range(6):
                yield p, d, _random_form(rng, p, d)
            yield p, d, _random_form(rng, p, d, z_free=True)
            L = _random_form(rng, p, 1)
            yield p, d, _product(_product(L, L, p), _random_form(rng, p, d - 2), p)
    for p, d in ((2, 4), (3, 3)):
        yield p, d, ((0, 0, d, 1), (0, d, 0, 1), (d, 0, 0, 1))


def test_singular_witness_matches_point_scan_oracle():
    """The first singular point over F_p, found through elimination, is the
    first one in the oracle's scan of every point of P^2(F_p)."""
    outcomes, charts = set(), set()
    for p, d, monos in _seeded_planes():
        field = construct_field(p, 1)
        cand = curves._chart_a_elimination(monos, p)
        no_z = len(curves._chart_a_zpolys(monos, p)) == 1
        outcomes.add("none" if cand is None else "no_z" if no_z else "resultant")
        expected = first_singular_point_prime_field(monos, p)
        charts.add(None if expected is None else
                   "(1:y:z)" if expected[0] else "(0:1:z)" if expected[1] else "(0:0:1)")
        assert curves._plane_singular_witness(field, monos, 1, cand) == expected, (p, monos)
        if expected is not None:
            with pytest.raises(SingularCurve) as info:
                make_smooth_plane(field, monos, d)
            assert (info.value.witness, info.value.extension_degree) == (expected, 1)
    assert outcomes == {"none", "no_z", "resultant"}
    assert charts == {"(1:y:z)", "(0:1:z)", "(0:0:1)", None}


def test_every_chart_counts_like_the_point_scan_oracle():
    """count_points walks (1:y:z), (0:1:z) and (0:0:1); on every seeded plane,
    singular ones included, N_1 equals the oracle's scan of P^2(F_p)."""
    for p, d, monos in _seeded_planes():
        X = CurveModel(kind=SMOOTH_PLANE, base=construct_field(p, 1), monomials=monos,
                       degree=d, genus=(d - 1) * (d - 2) // 2, label="raw")
        assert count_points(X, 1) == count_plane_prime_field(monos, p), (p, monos)


def test_witness_in_the_second_piece_of_a_line_longer_than_chunk():
    """Over F_65537 a z-line has more than CHUNK points, so it is walked in
    pieces.  y(x + z) is singular at (1 : 0 : -1), whose z lies in the second
    piece; xy is singular only at (0 : 0 : 1), where its z-partial is empty."""
    field = construct_field(65537, 1)
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(field, [(1, 1, 0, 1), (0, 1, 1, 1)], 2)
    assert (info.value.witness, info.value.extension_degree) == ((1, 0, 65536), 1)
    assert CHUNK <= info.value.witness[2] < 2 * CHUNK
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(field, [(1, 1, 0, 1)], 2)
    assert (info.value.witness, info.value.extension_degree) == ((0, 0, 1), 1)


def test_witness_on_a_later_candidate_line():
    """Over F_65537 each block holds one line.  The nodal cubic
    y^2 z = x^3 + x^2 z under x -> y - 40000 x, y -> z - 123 x, z -> x has
    its node at (1 : 40000 : 123); cand has two roots in F_p, and the first,
    39999, is a line tangent to the curve with no singular point on it."""
    p = 65537
    X, Y, Z = ((0, 1, 0, 1), (1, 0, 0, -40000)), ((0, 0, 1, 1), (1, 0, 0, -123)), ((1, 0, 0, 1),)
    X2 = _product(X, X, p)
    F = _merged(_product(_product(Y, Y, p), Z, p) + tuple(
        (a, b, c, -co) for a, b, c, co in _product(X2, X, p) + _product(X2, Z, p)), p)
    cand = curves._chart_a_elimination(F, p)
    assert [y for y in range(p) if eval_at(cand, y, p) == 0] == [39999, 40000]
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(construct_field(p, 1), F, 3)
    assert (info.value.witness, info.value.extension_degree) == ((1, 40000, 123), 1)


def _sweep_planes():
    """About 800 seeded planes of degree d = 1..4 over F_2, F_3, F_4, F_5, F_7,
    F_9, F_11 and F_13 (quartics only for q <= 5): dense and sparse random
    forms, L^2 G, L G, the Fermat curve and, for d = 4, x^3 y + y^3 z + z^3 x."""
    rng = random.Random(8)
    for p, k in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)):
        for d in (1, 2, 3, 4) if p**k <= 5 else (1, 2, 3):
            forms = [_random_form(rng, p, d, density=density)
                     for density in (0.9, 0.3) for _ in range(9)]
            if d >= 2:
                for e in (2, 1):  # L^2 G, then L G
                    for _ in range(6):
                        L = _random_form(rng, p, 1)
                        G = _random_form(rng, p, d - e) if d > e else ((0, 0, 0, 1),)
                        forms.append(_product(L if e == 1 else _product(L, L, p), G, p))
            forms.append(((0, 0, d, 1), (0, d, 0, 1), (d, 0, 0, 1)))
            if d == 4:
                forms.append(((0, 3, 1, 1), (1, 0, 3, 1), (3, 1, 0, 1)))
            for F in forms:
                yield construct_field(p, k), d, F


def test_plane_sweep_outcomes_are_frozen():
    """Label, genus and N_1..N_m of each smooth plane (m = 3 for q <= 5, else
    2), or the SingularCurve witness and least j, hashed.  The digest was
    recorded before the chart walks were merged into one evaluator; any
    change to a verdict, a witness or a count moves it."""
    lines = []
    for field, d, F in _sweep_planes():
        try:
            X = make_smooth_plane(field, F, d)
        except SingularCurve as exc:
            lines.append(f"singular {exc.witness} {exc.extension_degree}")
        else:
            m = 3 if field.q <= 5 else 2
            lines.append(f"{X.label} {X.genus} {count_series(X, m).counts}")
    assert len(lines) == 776
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "51da0b3a169f47c4e1e085927e8972e92994a3c7fb15ad3cfbc39eff607ee883"


def test_elimination_outputs_are_frozen():
    """cand itself, not only the witnesses found from it, on every plane of
    the sweep and of _seeded_planes: None, F1 with no z, or
    Res_z(F1, D) lc(F1) lc(D).  The digest was recorded with the resultant
    as a Sylvester determinant over F_p[y]."""
    planes = [(field.p, d, F) for field, d, F in _sweep_planes()] + list(_seeded_planes())
    lines = [repr(curves._chart_a_elimination(curves._canonical_monomials(F, p, d), p))
             for p, d, F in planes]
    assert len(lines) == 874
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "5a01f242e7050f69bd751c5982726d70ef51d6e0f136348c71d5a3e7c7aeb8b8"


def _zpoly_product(A, B, p):
    """The product of two polynomials in z with F_p[y] coefficients."""
    out = [()] * (len(A) + len(B) - 1)
    for i, P in enumerate(A):
        for j, Q in enumerate(B):
            out[i + j] = fppoly.add(out[i + j], fppoly.mul(P, Q, p), p)
    return out


def test_resultant_z_specializes_to_the_resultant_at_every_y():
    """At each y0 in F_p where neither leading coefficient vanishes,
    Res_z(A, B) at y0 is the resultant of A(y0, z) and B(y0, z) in F_p[z],
    for random A and B of z-degree 1..5 and y-degree 0..4, with deg A < deg B
    (the swap) and with B of z-degree 0 among them.  A common factor C in z
    gives None."""
    rng = random.Random(25)

    def draw(p, dz):
        while True:
            P = [fppoly.trim([rng.randrange(p) for _ in range(rng.randint(1, 5))], p)
                 for _ in range(dz + 1)]
            if P[-1]:
                return P

    seen = set()
    for trial in range(300):
        p = (3, 5, 7, 13)[trial % 4]
        A, B = draw(p, rng.randint(1, 5)), draw(p, rng.randint(0, 5) if trial % 3 else 0)
        if trial % 5 == 0:
            C = draw(p, rng.randint(1, 2))
            A, B = _zpoly_product(C, A, p), _zpoly_product(C, B, p)
            assert curves._resultant_z(A, B, p) is None
            seen.add("common factor")
            continue
        res = curves._resultant_z(A, B, p)
        seen.add("swap" if len(A) < len(B) else "deg B = 0" if len(B) == 1 else "plain")
        for y0 in range(p):
            a, b = ([eval_at(P, y0, p) for P in X] for X in (A, B))
            if a[-1] and b[-1]:
                expected = fppoly.resultant(a, b, p)
                got = 0 if res is None else eval_at(res, y0, p)
                assert got == expected, (p, A, B, y0)
    assert seen == {"swap", "deg B = 0", "plain", "common factor"}


def _through_point(rng, p, d, a, b):
    """A random form of degree d that vanishes at (1 : a : b)."""
    while True:
        H = _random_form(rng, p, d)
        value = sum(co * a**e * b**f for _, e, f, co in H) % p
        H = _merged(list(H) + [(d, 0, 0, -value)], p)
        if H:
            return H


def _smoothness_sweep():
    """Planes of degree 2..5 over F_2, F_3, F_4, F_5 and F_7.  Where the
    oracle's scan of every line up to F_{p^(d(d-1)/2)} is affordable (at
    most 343 lines in the largest field), dense and sparse random forms,
    the Fermat and Klein-type curves (the Fermat curve is singular
    everywhere when p | d) and a product of two random forms.  Elsewhere
    only curves singular by construction, whose scan stops early: the
    Fermat curve when p | d, and the smooth Klein-type quintic over F_2.
    Everywhere G^2 H with G a line, and G H with G a line through a
    rational point of H."""
    rng = random.Random(13)
    for (p, k), degrees in (((2, 1), (2, 3, 4, 5)), ((3, 1), (2, 3, 4, 5)),
                            ((2, 2), (2, 3, 4, 5)), ((5, 1), (2, 3, 4, 5)),
                            ((7, 1), (2, 3, 4, 5))):
        for d in degrees:
            fermat = ((0, 0, d, 1), (0, d, 0, 1), (d, 0, 0, 1))
            klein = ((d - 1, 1, 0, 1), (0, d - 1, 1, 1), (1, 0, d - 1, 1))
            forms = [klein] if (p, k, d) == (2, 1, 5) else []  # smooth, a 1.5 s scan
            if p ** (d * (d - 1) // 2) <= 343:
                forms += [_random_form(rng, p, d, density=density)
                          for density in (0.9, 0.3) for _ in range(3 if d < 4 else 1)]
                forms += [fermat, klein]
                e = rng.randrange(1, d)
                forms.append(_product(_random_form(rng, p, e), _random_form(rng, p, d - e), p))
            elif d % p == 0:
                forms.append(fermat)
            L = _random_form(rng, p, 1)
            forms.append(_product(_product(L, L, p), _random_form(rng, p, d - 2), p)
                         if d > 2 else _product(L, L, p))
            a, b = rng.randrange(p), rng.randrange(p)
            forms.append(_product(_through_point(rng, p, 1, a, b),
                                  _through_point(rng, p, d - 1, a, b), p))
            for F in forms:
                yield construct_field(p, k), d, F


def test_smoothness_rank_agrees_with_a_scan_for_singular_points():
    """make_smooth_plane accepts a plane exactly when the oracle's scan
    finds no common zero of F and its gradient over the algebraic closure,
    and every singular one keeps a witness.  Both verdicts occur when p | d,
    where the rank needs F's own rows, and when p does not divide d, where
    the partials alone decide it."""
    outcomes = set()
    for field, d, F in _smoothness_sweep():
        try:
            make_smooth_plane(field, F, d)
            smooth = True
        except SingularCurve:
            smooth = False
        assert smooth != singular_point_exists(F, field.p, d), (field, d, F)
        outcomes.add((d % field.p == 0, smooth))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def test_squared_cubic_scans_every_line_in_bounded_memory():
    """F = G^2 makes the resultant vanish identically, so every y-line is
    z-scanned.  The q^{2j} pair grid used here before peaked at 115 MB."""
    G = ((3, 0, 0, 1), (2, 1, 0, 9), (2, 0, 1, 6), (1, 1, 1, 8), (1, 0, 2, 1),
         (0, 3, 0, 12), (0, 2, 1, 4), (0, 1, 2, 12), (0, 0, 3, 10))
    tracemalloc.start()
    try:
        with pytest.raises(SingularCurve) as info:
            make_smooth_plane(construct_field(13, 1), _product(G, G, 13), 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (info.value.witness, info.value.extension_degree) == ((1, 0, 698), 3)
    assert peak < 16 * 2**20


def _norm_cubic(p):
    """N(x + t y + t^2 z) for t generating F_{p^3}: the product of its three
    conjugate lines, which do not meet in one point (the Vandermonde of the
    conjugates of t is nonzero).  The coefficients are Frobenius-invariant,
    so they lie in F_p."""
    K = construct_field(p, 3)
    form = {(0, 0, 0): one(K)}
    for i in range(3):
        t = generator(K) ** (p**i)
        line = {(1, 0, 0): one(K), (0, 1, 0): t, (0, 0, 1): t * t}
        prod = {}
        for (a, b, c), u in form.items():
            for (e, f, g), v in line.items():
                key = (a + e, b + f, c + g)
                prod[key] = prod.get(key, zero(K)) + u * v
        form = prod
    assert all(u.coefficients[1:] == (0, 0) for u in form.values())
    return tuple((*key, u.coefficients[0]) for key, u in sorted(form.items())
                 if u.coefficients[0])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_three_conjugate_lines_are_singular_first_at_j_3(p):
    """The three singular points of N(x + t y + t^2 z) form one Frobenius
    orbit of size 3 = d(d-1)/2, so the scan bound is tight at d = 3."""
    monos = _norm_cubic(p)
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(construct_field(p, 1), monos, 3)
    x, y, z = info.value.witness
    assert (x, info.value.extension_degree) == (1, 3)
    ext = construct_field(p, 3)
    Y, Z = element_from_index(ext, y), element_from_index(ext, z)
    partials = [[(*(e - (v == i) for v, e in enumerate(m[:3])), m[3] * m[i])
                 for m in monos if m[i]] for i in range(3)]
    for f in [monos] + partials:  # F and its gradient vanish at (1 : y : z)
        value = sum((scalar(ext, co) * Y**b * Z**c for _, b, c, co in f), zero(ext))
        assert value.is_zero(), (p, f)


def _tables_up_to(monkeypatch, limit):
    """Make curves.get_table refuse fields above `limit` elements; returns
    the list of field sizes it was asked for."""
    asked, inner = [], curves.get_table

    def guarded(spec):
        asked.append(spec.q)
        assert spec.q <= limit, f"table of {spec.q} elements requested"
        return inner(spec)

    monkeypatch.setattr(curves, "get_table", guarded)
    return asked


def test_smooth_quintic_over_f3_builds_no_table(monkeypatch):
    """Smoothness is one rank over F_3, so no table is requested; a scan
    over j <= d(d-1)/2 = 10 would build every table up to F_{3^10}."""
    asked = _tables_up_to(monkeypatch, 0)
    X = make_smooth_plane(F3, QUINTIC, 5)
    assert X.genus == 6 and asked == []


def test_fermat_quartic_over_f7_constructs(monkeypatch):
    """No table is requested; a scan to j = 6 would build F_{7^6}."""
    asked = _tables_up_to(monkeypatch, 0)
    X = make_smooth_plane(construct_field(7, 1), FERMAT_QUARTIC, 4)
    assert X.genus == 3 and asked == []


@pytest.mark.parametrize("p,k,monos,d,genus", [
    (5, 1, [(4, 1, 0, 1), (0, 4, 1, 1), (1, 0, 4, 1)], 5, 6),   # a scan needs F_{5^10}
    (7, 1, QUINTIC, 5, 6),                                      # F_{7^10}: above 2^26
    (2, 2, [(5, 1, 0, 1), (0, 5, 1, 1), (1, 0, 5, 1)], 6, 10),  # F_{4^15}: above 2^26
    (2**61 - 1, 1, FERMAT_CUBIC, 3, 1),  # int64 would overflow; no table of F_p exists
])
def test_smooth_plane_beyond_the_old_scan_builds_no_table(monkeypatch, p, k, monos, d, genus):
    asked = _tables_up_to(monkeypatch, 0)
    X = make_smooth_plane(construct_field(p, k), monos, d)
    assert X.genus == genus and asked == []


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1])
def test_smoothness_rank_is_exact_for_large_primes(p):
    """Near 2^31 int64 elimination must reduce before each update; at
    2^61 - 1 products pass 2^63 and Python ints take over.  Large
    coefficients fill the matrix with large entries: y^2 z = x^3 + x^2 z
    with x -> x + u z, y -> y + v z keeps its node, now at (-u : -v : 1),
    and a x^3 + b y^3 + c z^3 + t xyz stays smooth."""
    u, v, w = 3**40 % p, 5**30 % p, 7**25 % p
    X, Y, Z = ((1, 0, 0, 1), (0, 0, 1, u)), ((0, 1, 0, 1), (0, 0, 1, v)), ((0, 0, 1, 1),)
    X2 = _product(X, X, p)
    node = _merged(_product(_product(Y, Y, p), Z, p) + tuple(
        (a, b, c, -co) for a, b, c, co in _product(X2, X, p) + _product(X2, Z, p)), p)
    assert not curves._is_smooth(node, p, 3)
    smooth = [(3, 0, 0, u), (0, 3, 0, v), (0, 0, 3, w), (1, 1, 1, u * v * w)]
    assert ((u * v * w) ** 3 + 27 * u * v * w) % p
    assert curves._is_smooth(curves._canonical_monomials(smooth, p, 3), p, 3)


def test_sextic_singular_over_f3_keeps_its_witness():
    """x^5 y + y^5 z + z^5 x is smooth over F_4 (above) and singular at
    (1 : 1 : 1) over F_3, where the walk still finds that witness at j = 1."""
    with pytest.raises(SingularCurve) as info:
        make_smooth_plane(F3, [(5, 1, 0, 1), (0, 5, 1, 1), (1, 0, 5, 1)], 6)
    assert (info.value.witness, info.value.extension_degree) == ((1, 1, 1), 1)


def test_macaulay_matrix_cap(monkeypatch):
    """_is_smooth raises TooLarge above MACAULAY_MAX_ENTRIES, and so does
    make_smooth_plane, singular curve or smooth, before any table is
    requested: the rank is the only verdict.  A cubic's matrix is 36 x 21;
    at d = 14 it is 1378 x 780."""
    cubic = curves._canonical_monomials(FERMAT_CUBIC, 5, 3)
    monkeypatch.setattr(curves, "MACAULAY_MAX_ENTRIES", 36 * 21)
    assert curves._is_smooth(cubic, 5, 3)
    monkeypatch.setattr(curves, "MACAULAY_MAX_ENTRIES", 36 * 21 - 1)
    with pytest.raises(TooLarge):
        curves._is_smooth(cubic, 5, 3)
    monkeypatch.undo()
    asked = _tables_up_to(monkeypatch, 0)
    singular = [(0, 14, 0, 1), (0, 0, 14, 1), (12, 1, 1, 1)]  # at (1 : 0 : 0)
    fermat = [(14, 0, 0, 1), (0, 14, 0, 1), (0, 0, 14, 1)]
    for field, curve in [(F5, singular), (F3, fermat)]:
        with pytest.raises(TooLarge):
            make_smooth_plane(field, curve, 14)
    assert asked == []


def test_macaulay_matrix_cap_is_checked_before_allocating():
    """x^1000 + y^1000 + z^1000 over F_5 has zero partials, so its matrix
    is F's 1997 * 1998 / 2 shifts by 2998 * 2997 / 2 monomials; it is
    refused from those counts, without building the shifts."""
    fermat = curves._canonical_monomials(
        [(1000, 0, 0, 1), (0, 1000, 0, 1), (0, 0, 1000, 1)], 5, 1000)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            curves._is_smooth(fermat, 5, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _rank_sweep():
    """Seeded planes of degree 1..6 over prime fields small and large: dense
    and sparse random forms, which are mostly smooth, and G H with G and H
    through one rational point, which is singular there."""
    rng = random.Random(30)
    for p in (2, 3, 5, 7, 13, 2**31 - 1, 2**61 - 1):
        for d in range(1, 7):
            forms = [_random_form(rng, p, d, density=density)
                     for density in (0.9, 0.3) for _ in range(3 if d < 5 else 1)]
            if d > 1:
                a, b = rng.randrange(p), rng.randrange(p)
                forms.append(_product(_through_point(rng, p, 1, a, b),
                                      _through_point(rng, p, d - 1, a, b), p))
            for F in forms:
                yield p, d, F


def test_smoothness_rank_agrees_with_the_four_form_rank():
    """_is_smooth eliminates the partials alone in degree 3d - 5 when p does
    not divide d; the oracle keeps F's rows in degree 3d - 4 for every p.
    Both verdicts occur on both sides of p | d."""
    outcomes = set()
    for p, d, F in _rank_sweep():
        smooth = curves._is_smooth(F, p, d)
        assert smooth == macaulay_smooth(F, p, d), (p, d, F)
        outcomes.add((d % p == 0, smooth))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


@pytest.mark.parametrize("p,monos", [
    (3, [(3, 0, 0, 1), (0, 3, 0, 1), (0, 0, 3, 1), (1, 1, 1, 1)]),
    (2, [(2, 0, 0, 1), (0, 1, 1, 1)]),
])
def test_smooth_plane_with_p_dividing_d_keeps_its_own_rows(p, monos):
    """x^3 + y^3 + z^3 + xyz over F_3 has partials yz, xz, xy, which meet at
    (1:0:0), off the curve; x^2 + yz over F_2 has partials 0, z, y, which
    meet at (1:0:0), off the curve too.  Both are smooth, and the partials'
    system alone would call them singular."""
    d = sum(monos[0][:3])
    F = curves._canonical_monomials(monos, p, d)
    assert curves._is_smooth(F, p, d) and macaulay_smooth(F, p, d)
    assert make_smooth_plane(construct_field(p, 1), monos, d).genus == (d - 1) * (d - 2) // 2


class _ZerosRecorder:
    """Stands in for numpy inside `curves`, recording the shape of every
    np.zeros."""

    def __init__(self):
        self.shapes = []

    def __getattr__(self, name):
        return getattr(np, name)

    def zeros(self, shape, dtype):
        self.shapes.append(shape)
        return np.zeros(shape, dtype)


@pytest.mark.parametrize("p,d,monos,shape", [
    (13, 3, FERMAT_CUBIC + [(1, 1, 1, 1)], (18, 15)),
    (3, 4, FERMAT_QUARTIC, (45, 36)),
    (3, 3, [(3, 0, 0, 1), (1, 0, 2, 2), (0, 2, 1, -1), (0, 0, 3, 1)], (36, 21)),
    (3, 2, [(2, 0, 0, 1), (0, 1, 1, 1)], (3, 3)),
])
def test_smoothness_matrix_shape_is_pinned(monkeypatch, p, d, monos, shape):
    """The matrix _is_smooth eliminates: three partials in degree 3d - 5
    when p does not divide d (cubic over F_13, quartic over F_3, conic over
    F_3); F and its three nonzero partials in degree 3d - 4 when p | d
    (x^3 + 2xz^2 - y^2 z + z^3 over F_3)."""
    recorder = _ZerosRecorder()
    monkeypatch.setattr(curves, "np", recorder)
    assert curves._is_smooth(curves._canonical_monomials(monos, p, d), p, d)
    assert recorder.shapes == [shape]


def test_make_smooth_plane_errors():
    with pytest.raises(NotHomogeneous):
        make_smooth_plane(F3, [(2, 0, 0, 1), (0, 1, 0, 1)], 2)
    with pytest.raises(NotHomogeneous):
        make_smooth_plane(F3, [(-1, 3, 0, 1)], 2)
    with pytest.raises(InvalidDegree):
        make_smooth_plane(F3, [(0, 0, 0, 1)], 0)
    with pytest.raises(ZeroPolynomial):
        make_smooth_plane(F3, [(2, 0, 0, 3)], 2)  # coefficient 0 mod 3


def test_make_biquadratic_example_genera():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    assert D.X.genus == 3
    assert D.Y1.genus == 1
    assert D.Y2.genus == 0
    assert D.Z.genus == 0
    assert D.y3.genus == 2
    assert D.absolutely_irreducible and D.smooth
    assert [e.degree for e in D.edges] == [2, 2, 2, 2]


def test_make_biquadratic_validation_errors():
    f = (0, 1, 0, 1)  # x^3 + x
    with pytest.raises(DegreeParity):
        make_biquadratic(F3, f, f)  # deg g odd
    with pytest.raises(DegreeParity):
        make_biquadratic(F3, (2, 1, 1), (1, 0, 1))  # deg f even
    with pytest.raises(NotSquarefree):
        make_biquadratic(F3, f, (0, 0, 1, 1))  # g = x^2 (x + 1)
    with pytest.raises(NotCoprime):
        make_biquadratic(F3, f, (0, 1, 1))  # g = x(x+1) shares the root x = 0
    with pytest.raises(EvenCharacteristic):
        make_biquadratic(F4, f, (2, 1, 1))


def test_biquadratic_squarefree_checked_before_coprimality():
    # f = x^3 is not squarefree; that error wins over NotCoprime with g = x(x+1)
    with pytest.raises(NotSquarefree):
        make_biquadratic(F3, (0, 0, 0, 1), (0, 1, 1))


def test_make_biquadratic_tests_each_polynomial_squarefree_once(monkeypatch):
    """Two squarefree tests, f and then g; Y1, Y2 and Y3 are built from
    them, and f g, squarefree as a product of coprime squarefree factors, is
    not tested.  The quotients equal the ones make_hyperelliptic builds."""
    calls = []
    real = fppoly.is_squarefree
    monkeypatch.setattr(fppoly, "is_squarefree", lambda f, p: calls.append(f) or real(f, p))
    f, g = (0, 1, 0, 1), (2, 1, 1)
    D = make_biquadratic(F3, f, g)
    assert calls == [f, g]
    monkeypatch.undo()
    assert (D.Y1, D.Y2, D.y3) == tuple(make_hyperelliptic(F3, h)
                                       for h in (f, g, fppoly.mul(f, g, 3)))


def _squarefree_f(rng, n, p=3, coprime_to=None):
    """A monic squarefree f of degree n over F_p, coprime to `coprime_to`."""
    while True:
        f = tuple(rng.randrange(p) for _ in range(n)) + (1,)
        if fppoly.is_squarefree(f, p) and (
                coprime_to is None or fppoly.degree(fppoly.gcd(f, coprime_to, p)) == 0):
            return f


def _no_squarefree_test(f, p):
    raise AssertionError("is_squarefree ran above the cap")


def test_deg_f_is_capped_before_the_squarefree_test(monkeypatch):
    """deg f = MAX_F_DEGREE passes to the O(n^2) Euclid of is_squarefree
    (0.07-0.1 s over F_3); one degree more raises TooLarge before it runs."""
    f = _squarefree_f(random.Random(24), MAX_F_DEGREE)
    start = time.perf_counter()
    assert make_hyperelliptic(F3, f).genus == MAX_F_DEGREE // 2 - 1
    assert time.perf_counter() - start < 10
    monkeypatch.setattr(fppoly, "is_squarefree", _no_squarefree_test)
    start = time.perf_counter()
    for n in (MAX_F_DEGREE + 1, 10**5):
        with pytest.raises(TooLarge, match=f"deg f = {n} exceeds {MAX_F_DEGREE}"):
            make_hyperelliptic(F3, (1,) * n + (1,))
    assert time.perf_counter() - start < 0.5


def test_deg_f_plus_deg_g_is_capped_before_the_squarefree_tests(monkeypatch):
    """A biquadratic's y3 is y^2 = f g, so deg f + deg g is capped: 1023,
    the largest sum of an odd and an even degree under the cap, passes, and
    MAX_F_DEGREE + 1 raises TooLarge before any squarefree test or parity
    check."""
    g = (1, 0, 1)  # x^2 + 1, irreducible over F_3
    f = _squarefree_f(random.Random(24), MAX_F_DEGREE - 3, coprime_to=g)
    start = time.perf_counter()
    assert make_biquadratic(F3, f, g).y3.genus == (MAX_F_DEGREE - 2) // 2
    assert time.perf_counter() - start < 10
    monkeypatch.setattr(fppoly, "is_squarefree", _no_squarefree_test)
    start = time.perf_counter()
    for n, m in ((MAX_F_DEGREE - 1, 2), (2, MAX_F_DEGREE - 1), (10**5, 10**5)):
        with pytest.raises(TooLarge, match=f"deg f \\+ deg g = {n + m} exceeds"):
            make_biquadratic(F3, (1,) * n + (1,), (1,) * m + (1,))
    assert time.perf_counter() - start < 0.5


# --- point counting --------------------------------------------------------

def test_count_points_examples():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    assert count_points(E, 1) == 4
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    assert count_points(D.X, 1) == 2
    # cross-check from the spec example: affine points are empty, both points
    # at infinity exist because lc(g) = 1 is a square


def test_count_series_examples():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    assert count_series(E, 2).counts == (4, 16)
    line = make_projective_line(F3)
    assert count_series(line, 3).counts == (4, 10, 28)
    conic = make_hyperelliptic(F3, (2, 1, 1))
    assert count_series(conic, 2).counts == (4, 10)


@pytest.mark.parametrize("field,f", [
    (F3, (0, 1, 0, 1)),
    (F3, (1, 2, 0, 1)),
    (F3, (1, 0, 1, 0, 0, 1)),
    (F5, (0, 1, 0, 1)),
    (F5, (1, 1, 0, 1)),
    (F9, (0, 1, 0, 1)),
    (F3, (2, 1, 1)),        # even degree, lc square
    (F5, (1, 0, 3)),        # even degree, lc 3 not a square mod 5
])
def test_hyperelliptic_counts_match_pair_scan(field, f):
    X = make_hyperelliptic(field, f)
    for j in (1, 2):
        assert count_points(X, j) == count_slow(X, j)


def test_biquadratic_counts_match_pair_scan():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    for j in (1, 2):
        assert count_points(D.X, j) == count_slow(D.X, j)
    D5 = make_biquadratic(F5, (0, 1, 0, 1), (2, 0, 1))
    assert count_points(D5.X, 1) == count_slow(D5.X, 1)


F7 = construct_field(7, 1)
F27 = construct_field(3, 3)


@pytest.mark.parametrize("field,f,js", [
    (F3, (0, 1, 0, 1), (3, 5, 7)),                # f(0) = 0: x = 0 has one root
    (F3, (1, 2, 0, 1), (3, 5)),                   # f(0) = 1 a square: two roots
    (F3, (1, 0, 1, 0, 2), (3, 5)),                # even degree, lc 2 a non-square
    (F5, (1, 1, 0, 1), (3, 5)),
    (F5, (1, 0, 3), (3,)),                        # even degree, lc 3 a non-square
    (F7, (0, 1, 0, 0, 0, 0, 0, 1), (3,)),
    (F27, (1, 2, 0, 1), (1,)),                    # K = 3 at j = 1
    (F27, (0, 1, 0, 0, 0, 0, 1), (1,)),          # even degree, f(0) = 0
])
def test_odd_extension_counts_by_frobenius_orbits_match_the_scan(field, f, js):
    """Where kj is odd the count evaluates f at one x per Frobenius orbit,
    weighted by the orbit's size, and adds x = 0; the scan walks every x.
    Orbits of sizes 1 and K, and a root of f at x = 0 (or a square f(0)),
    make a count that weighs every orbit 1 or drops x = 0 differ."""
    X = make_hyperelliptic(field, f)
    for j in js:
        assert (field.k * j) % 2 == 1
        assert count_points(X, j) == count_slow(X, j), j


@pytest.mark.parametrize("field,f,g,js", [
    (F3, (0, 1, 0, 1), (2, 1, 1), (3, 5)),
    (F3, (1, 2, 0, 1), (1, 0, 1, 0, 2), (3,)),
    (F5, (0, 1, 0, 1), (2, 0, 1), (3,)),
    (F27, (1, 2, 0, 1), (2, 1, 1), (1,)),
])
def test_odd_extension_biquadratic_counts_by_frobenius_orbits_match_the_scan(field, f, g, js):
    D = make_biquadratic(field, f, g)
    for j in js:
        assert (field.k * j) % 2 == 1
        assert count_points(D.X, j) == count_slow(D.X, j), j


# y^2 = x^7+x^6+2x^4+x+1 over F_9, genus 3: counted to F_{9^8} = F_{3^16}
F9_RECORD = (1, 1, 0, 0, 2, 0, 1, 1)


@pytest.mark.parametrize("field,f,js", [
    (F3, (1, 2, 0, 1), (2, 4)),                   # odd degree
    (F3, (1, 0, 1, 0, 2), (2, 4)),                # even degree, lc 2 a non-square of F_3
    (F5, (1, 1, 0, 1), (2, 4)),
    (F5, (1, 0, 3), (2,)),                        # even degree, lc 3 a non-square of F_5
    (F7, (1, 1, 0, 0, 0, 0, 0, 1), (2,)),
    (F9, F9_RECORD, (1, 2, 3)),                   # k = 2: F_{3^3} does not contain F_9
    (F9, (1, 0, 1, 0, 2), (1, 2, 3)),
    (F3, (1, 2, 1, 1, 2, 1, 2, 0, 1, 2, 2, 1, 2, 1), (2, 4)),  # degree 13 > q' - 1
])
def test_even_extension_counts_through_the_norm_match_the_scan(field, f, js):
    """Where kj is even the count runs on F_{p^(kj/2)}, one row per Frobenius
    orbit of non-squares c plus the row c = 0; the scan walks all of
    F_{p^(kj)}.  Over F_3^4, F_9^2 and F_9^3 the orbits have sizes above 1,
    and a degree above q' - 1 makes the norm's powers of a and c fold."""
    X = make_hyperelliptic(field, f)
    for j in js:
        assert (field.k * j) % 2 == 0
        assert count_points(X, j) == count_slow(X, j), j


@pytest.mark.parametrize("field,f,g,js", [
    (F3, (1, 2, 0, 1), (1, 0, 1, 0, 2), (2, 4)),
    (F9, (1, 2, 0, 1), (2, 1, 1), (1, 2, 3)),
])
def test_even_extension_biquadratic_counts_match_the_scan(field, f, g, js):
    D = make_biquadratic(field, f, g)
    for j in js:
        assert count_points(D.X, j) == count_slow(D.X, j), j


def test_f9_record_counts_follow_its_l_polynomial():
    """N_1..N_8 of a genus-3 curve over F_9, every one through the norm
    (k = 2), are the counts its L-polynomial from N_1..N_3 extrapolates."""
    X = make_hyperelliptic(F9, F9_RECORD)
    counts = [count_points(X, j, budget=10**8) for j in range(1, 9)]
    L = l_from_counts(9, 3, counts[:3])
    assert counts == [extrapolate(L, j) for j in range(1, 9)]
    assert counts[-1] == 43027586


def test_even_extension_counts_above_the_table_limit():
    """q^j above 2^26, the largest table, is counted where kj is even, as only
    F_{q^(j/2)} is tabled: E over F_97 at j = 4 (97^4 = 88529281) matches
    its L-polynomial.  Where kj is odd the count needs the table of F_{q^j},
    and raises TooLarge."""
    E = make_hyperelliptic(construct_field(97, 1), (1, 1, 0, 1))
    L = l_from_counts(97, 1, [count_points(E, 1)])
    assert count_points(E, 4, budget=10**8) == extrapolate(L, 4)
    with pytest.raises(TooLarge):
        count_points(make_hyperelliptic(F3, (1, 1, 0, 1)), 17, budget=2 * 10**8)


def test_even_extension_count_of_high_degree_is_no_slower_than_the_scan():
    """f of degree 1000 over F_3 counted over F_9.  The count through the
    norm reduces f mod x^9 - x first, which keeps its values on F_9, so it
    takes no longer than evaluating f at every element of F_9, as the
    full-table count does (best of three, with the tables built)."""
    rng = random.Random(1000)
    while True:
        f = tuple(rng.randrange(3) for _ in range(1000)) + (1,)
        if fppoly.is_squarefree(f, 3):
            break
    X = make_hyperelliptic(F3, f)

    def best_of_three(count):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            n = count()
            times.append(time.perf_counter() - start)
        return n, min(times)

    T = curves.get_table(curves.extension_of(F3, 2))

    def scan_count():
        """f at every x of F_9, then 1 root where f(x) = 0, else 2 or 0 as
        log f(x) is even or odd; two points at infinity, as the degree is
        even and lc = 1 a square."""
        logs = T.eval_logs(f).astype(np.int64)
        return int(np.where(logs < T.q - 1, 2 - 2 * (logs % 2), 1).sum()) + 2

    norm, norm_s = best_of_three(lambda: count_points(X, 2))
    scan, scan_s = best_of_three(scan_count)
    assert norm == scan
    assert norm_s <= scan_s


def test_even_extension_builds_only_the_half_field(monkeypatch):
    """An even-kj count constructs F_{p^(kj/2)} and builds its table, Zech
    logarithms only: no F_{p^(kj)}, no exp and no log."""
    built, tables = [], []

    def spy_table(spec):
        tables.append(FieldTable(spec))
        return tables[-1]

    def spy_field(p, k):
        built.append((p, k))
        return construct_field(p, k)

    def no_extension(field, j):
        raise AssertionError(f"F_{field.q}^{j} constructed")

    monkeypatch.setattr(curves, "get_table", spy_table)
    monkeypatch.setattr(curves, "construct_field", spy_field)
    monkeypatch.setattr(curves, "extension_of", no_extension)
    assert count_points(make_hyperelliptic(F3, (1, 2, 0, 1)), 6) == \
        count_points(make_hyperelliptic(F9, (1, 2, 0, 1)), 3)
    count_points(make_biquadratic(F3, (1, 2, 0, 1), (1, 0, 1, 0, 2)).X, 4)
    assert built == [(3, 3), (3, 3), (3, 2)]
    assert [(T.p, T.K) for T in tables] == built
    for T in tables:
        assert "exp" not in vars(T) and "log" not in vars(T)


def test_plane_counts_match_slow_scan():
    X = make_smooth_plane(F4, FERMAT_CUBIC, 3)
    for j in (1, 2):
        assert count_points(X, j) == count_slow(X, j)
    conic = make_smooth_plane(F3, [(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)], 2)
    assert count_points(conic, 1) == count_slow(conic, 1) == 4


def _raw_plane(field, monomials, d):
    """A plane curve model without the smoothness check: count_points counts
    any form."""
    return CurveModel(kind=SMOOTH_PLANE, base=field, monomials=_merged(monomials, field.p),
                      degree=d, genus=(d - 1) * (d - 2) // 2, label="raw")


def _extension_test_planes():
    """Forms over F_2, F_3 and F_5 whose lines y = c of (1:y:z) reach every
    case of the count by lines: F1(c, .) = 0, a nonzero constant, and degree
    drops where the leading coefficient in z vanishes at c."""
    rng = random.Random(10)
    for p in (2, 3, 5):
        m = p - 1
        yield p, 1, ((0, 1, 0, 1),)                         # y: the line y = 0 is all of F1 = 0
        yield p, 1, ((1, 0, 0, 1), (0, 1, 0, m))            # x - y
        yield p, 1, ((0, 1, 0, 1), (0, 0, 1, 1))            # y + z
        yield p, 2, ((0, 1, 1, 1), (2, 0, 0, 1))            # yz + x^2: lc y vanishes at y = 0
        yield p, 3, ((0, 1, 2, 1), (3, 0, 0, m), (2, 0, 1, m))  # yz^2 - x^3 - x^2 z
        yield p, 4, ((0, 2, 2, 1), (2, 0, 2, m), (4, 0, 0, 1), (0, 3, 1, 1))  # lc y^2 - 1
        yield p, 4, ((1, 0, 3, 1), (0, 4, 0, 1), (4, 0, 0, 1))  # F(0, 1, z) = 1, no z^4
        yield p, 3, ((1, 2, 0, 1), (1, 0, 2, 1), (2, 1, 0, 1))  # x G: F(0, 1, z) = 0
        for d in (2, 3, 4):
            yield p, d, _random_form(rng, p, d)
        L = _random_form(rng, p, 1)
        yield p, 3, _product(_product(L, L, p), _random_form(rng, p, 1), p)  # L^2 G


def test_plane_counts_by_lines_match_slow_scan_over_extensions():
    """Counts by lines over F_4, F_8, F_16, F_9, F_27 and F_25 equal the
    scalar scan of every point of P^2, in characteristic 2 and odd
    characteristic, from prime bases and from the bases F_4, F_8, F_9,
    F_25 and F_27: with kj >= 2 the lines y = c come one per Frobenius
    orbit, weighted by its size, and the line c = 0 once."""
    bases = {2: [(1, (2, 3)), (2, (1, 2)), (3, (1,))], 3: [(1, (2,)), (2, (1,)), (3, (1,))],
             5: [(1, (2,)), (2, (1,))]}  # p: (k, js)
    for p, d, monomials in _extension_test_planes():
        for k, js in bases[p]:
            X = _raw_plane(construct_field(p, k), monomials, d)
            for j in js:
                assert count_points(X, j) == count_slow(X, j), (p, k, monomials, j)


def test_counts_exact_for_large_primes():
    """p > 32767 overflowed 16-bit digits: y^2 = x^3+x+1 over F_40009 gave 40229."""
    E = make_hyperelliptic(construct_field(40009, 1), (1, 1, 0, 1))
    assert count_points(E, 1) == count_hyperelliptic_prime_field((1, 1, 0, 1), 40009) == 40020
    Q = make_hyperelliptic(construct_field(32771, 1), (3, 0, 5, 0, 2))
    assert count_points(Q, 1) == count_hyperelliptic_prime_field((3, 0, 5, 0, 2), 32771)


def test_plane_counts_exact_when_digit_products_exceed_16_bits():
    """Over F_191 a coefficient times a digit exceeds 2^15 (the count was once
    212).  Over F_263 the chart (1:y:z) has q^2 = 69169 > CHUNK points."""
    for p in (191, 263):
        monomials = ((0, 0, 3, 1), (0, 3, 0, 1), (1, 1, 1, p - 1), (3, 0, 0, 1))
        X = CurveModel(kind=SMOOTH_PLANE, base=construct_field(p, 1),
                       monomials=monomials, degree=3, genus=1, label=f"hesse/F_{p}")
        assert count_points(X, 1) == count_plane_prime_field(monomials, p)
    assert count_plane_prime_field(((0, 0, 3, 1), (0, 3, 0, 1), (1, 1, 1, 190), (3, 0, 0, 1)),
                                   191) == 210


def test_plane_counts_over_more_lines_than_chunk():
    """Over F_65537 the 65537 lines of (1:y:z) take two blocks, the second of
    one line: a smooth conic has p + 1 points, the line pair xy = 0 has 2p + 1."""
    p = 65537
    field = construct_field(p, 1)
    assert CHUNK < p
    conic = make_smooth_plane(field, [(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)], 2)
    assert count_points(conic, 1) == p + 1
    assert count_points(_raw_plane(field, ((1, 1, 0, 1),), 2), 1) == 2 * p + 1


def test_line_counts_match_slow_scan():
    line = make_projective_line(F5)
    for j in (1, 2):
        assert count_points(line, j) == count_slow(line, j) == 5**j + 1


@pytest.mark.parametrize("field,f,g", [
    (F3, (0, 1, 0, 1), (2, 1, 1)),
    (F5, (0, 1, 0, 1), (2, 0, 1)),
])
def test_trace_identity_through_degree_four(field, f, g):
    D = make_biquadratic(field, f, g)
    q = field.q
    for j in range(1, 5):
        lhs = count_points(D.X, j)
        rhs = (count_points(D.Y1, j) + count_points(D.Y2, j)
               + count_points(D.y3, j) - 2 * (q**j + 1))
        assert lhs == rhs


def test_infer_genus_recovers_constructor_genus():
    for field, f in [(F3, (0, 1, 0, 1)), (F3, (1, 2, 0, 1)), (F5, (2, 1, 1))]:
        X = make_hyperelliptic(field, f)
        series = count_series(X, 2 * X.genus + 2)
        assert infer_genus(X.q, series.counts) == X.genus


def test_count_points_budget():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    with pytest.raises(BudgetExceeded) as info:
        count_points(E, 2, budget=8)
    assert info.value.needed == 9
    assert info.value.budget == 8
    with pytest.raises(InvalidDegree):
        count_points(E, 0)
    # the projective line is a closed form: nothing enumerated, nothing
    # charged, but refused from j >= budget.bit_length() on, as q^j > budget
    for j in (1, 2, 3):
        assert count_points(make_projective_line(F3), j, budget=8) == 3**j + 1
    with pytest.raises(BudgetExceeded):
        count_points(make_projective_line(F3), 1, budget=0)
    # a plane is charged its q^j y-lines of chart (1:y:z), like any family
    X = make_smooth_plane(F4, FERMAT_CUBIC, 3)
    with pytest.raises(BudgetExceeded) as info:
        count_points(X, 2, budget=15)
    assert info.value.needed == 16
    assert count_points(X, 2, budget=16) == 9


def test_count_points_budget_before_computing_q_to_the_j():
    """From j >= budget.bit_length() on, q^j > budget without computing it:
    3^(10^8) alone would take minutes, and 3^10000 has too many digits to
    print."""
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    start = time.perf_counter()
    for j in (10**4, 10**8):
        with pytest.raises(BudgetExceeded) as info:
            count_points(E, j)
        assert str(info.value) == f"enumeration of 3^{j} points exceeds budget {10**6}"
    assert time.perf_counter() - start < 1


def test_count_series_refuses_before_its_first_count(monkeypatch):
    """`count_series` checks every j = 1..m against the budget before it
    counts N_1, and refuses at the first failing j with the same error as
    counting N_1, N_2, .. in turn: q^j for a family, "q^j" from j >=
    budget.bit_length() on, the projective line included."""
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    cases = [(E, 3, 8), (E, 40, 10**6), (E, 10**4, 10**6),
             (make_smooth_plane(F4, FERMAT_CUBIC, 3), 3, 15),
             (make_projective_line(F3), 6, 8)]
    refusals = []
    for curve, m, budget in cases:
        with pytest.raises(BudgetExceeded) as info:
            for j in range(1, m + 1):
                count_points(curve, j, budget)
        refusals.append((info.value.args, info.value.needed))

    def no_count(*args):
        raise AssertionError("counted before the budget was checked")

    monkeypatch.setattr(curves, "count_points", no_count)
    for (curve, m, budget), refusal in zip(cases, refusals):
        with pytest.raises(BudgetExceeded) as info:
            count_series(curve, m, budget)
        assert (info.value.args, info.value.needed) == refusal
    assert [needed for _, needed in refusals] == [9, 3**13, 3**13, 16, "3^4"]


# --- series invariants -----------------------------------------------------

def test_point_count_series_validation():
    PointCountSeries(q=3, counts=(4, 16)).validate(1)
    with pytest.raises(ValueError):
        PointCountSeries(q=3, counts=(4, 3)).validate(1)   # N_2 < N_1, 1 | 2
    with pytest.raises(ValueError):
        PointCountSeries(q=3, counts=(8,)).validate(1)     # outside Weil range
    series = PointCountSeries(q=3, counts=(4, 10, 28))
    assert len(series) == 3
    assert series[1] == 10


def test_inconsistent_counts_raise_a_typed_error():
    # (4, 5) gives a_2 = 1/2 places of degree 2, (4, 10, 29) a_3 = 25/3
    for counts in ((4, 3), (8,), (4, 5), (4, 10, 29)):
        with pytest.raises(InconsistentCounts):
            PointCountSeries(q=3, counts=counts).validate(1)


# --- covers ----------------------------------------------------------------

def test_hyperelliptic_cover():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    cov = hyperelliptic_cover(E)
    assert cov.degree == 2
    assert cov.target.genus == 0
    with pytest.raises(WrongKind):
        hyperelliptic_cover(make_projective_line(F3))


def test_cover_genus_order_enforced():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    with pytest.raises(GenusOrder):
        CoverData(source=make_projective_line(F3), target=E, degree=2, tag="bad")


# --- manifests -------------------------------------------------------------

MANIFESTS = [
    {"kind": "line", "p": 3, "k": 2},
    {"kind": "hyperelliptic", "p": 3, "k": 1, "f": [0, 1, 0, 1]},
    {"kind": "biquadratic", "p": 3, "k": 1, "f": [0, 1, 0, 1], "g": [2, 1, 1]},
    {"kind": "plane", "p": 2, "k": 2, "d": 3,
     "F": [3, 0, 0, 1, 0, 3, 0, 1, 0, 0, 3, 1]},
]


@pytest.mark.parametrize("doc", MANIFESTS)
def test_manifest_round_trip_is_exact(doc):
    model = parse_manifest(doc)
    again = parse_manifest(serialize_manifest(model))
    assert again == model
    assert serialize_manifest(again) == serialize_manifest(model)


@pytest.mark.parametrize("doc", [
    "not a dict",
    {},
    {"kind": "line", "p": 3},
    {"kind": "hyperelliptic", "p": 3, "k": 1},
    {"kind": "hyperelliptic", "p": 3, "k": 1, "f": "x^3+x"},
    {"kind": "plane", "p": 3, "k": 1, "d": 2, "F": [2, 0, 0]},
    {"kind": "plane", "p": 3, "k": 1, "F": [2, 0, 0, 1]},
    {"kind": "elliptic", "p": 3, "k": 1},
])
def test_malformed_manifests_raise_value_error(doc):
    with pytest.raises(ValueError):
        parse_manifest(doc)


def test_construction_errors_pass_through_manifest_parsing():
    with pytest.raises(NotSquarefree):
        parse_manifest({"kind": "hyperelliptic", "p": 3, "k": 1, "f": [0, 0, 1, 1]})
