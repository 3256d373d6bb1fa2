"""Curve constructors, validation, and brute-force point counting."""

import random
import tracemalloc

import pytest

from weilgram import curves
from weilgram.curves import (
    SMOOTH_PLANE,
    CoverData,
    CurveModel,
    PointCountSeries,
    composite_cover,
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
    InvalidDegree,
    NotCoprime,
    NotHomogeneous,
    NotSquarefree,
    SingularCurve,
    WrongKind,
    ZeroPolynomial,
)
from weilgram.finite_field import construct_field
from weilgram.zeta import infer_genus

from oracles import (
    count_hyperelliptic_prime_field,
    count_plane_prime_field,
    count_slow,
    first_singular_point_prime_field,
)

F3 = construct_field(3, 1)
F4 = construct_field(2, 2)
F5 = construct_field(5, 1)
F9 = construct_field(3, 2)

FERMAT_CUBIC = [(3, 0, 0, 1), (0, 3, 0, 1), (0, 0, 3, 1)]
FERMAT_QUARTIC = [(4, 0, 0, 1), (0, 4, 0, 1), (0, 0, 4, 1)]


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
    X = make_smooth_plane(F5, FERMAT_QUARTIC, 4)
    assert X.genus == 3


def _merged(terms, p):
    """Monomials (a, b, c, coeff) with equal exponents summed mod p."""
    out = {}
    for a, b, c, co in terms:
        out[(a, b, c)] = (out.get((a, b, c), 0) + co) % p
    return tuple((*k, co) for k, co in sorted(out.items()) if co)


def _product(F, G, p):
    return _merged([(a + e, b + f, c + g, u * v) for a, b, c, u in F for e, f, g, v in G], p)


def _random_form(rng, p, d, z_free=False):
    while True:
        F = _merged([(a, b, d - a - b, rng.randrange(1, p))
                     for a in range(d + 1) for b in range(d + 1 - a)
                     if (a + b == d or not z_free) and rng.random() < 0.6], p)
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
    outcomes = set()
    for p, d, monos in _seeded_planes():
        field = construct_field(p, 1)
        elim = curves._chart_a_elimination(monos, p)
        zpolys, cand = elim[0], elim[3]
        outcomes.add("none" if cand is None else "no_z" if len(zpolys) == 1 else "resultant")
        expected = first_singular_point_prime_field(monos, p)
        assert curves._plane_singular_witness(field, monos, 1, elim) == expected, (p, monos)
        if expected is not None:
            with pytest.raises(SingularCurve) as info:
                make_smooth_plane(field, monos, d)
            assert (info.value.witness, info.value.extension_degree) == (expected, 1)
    assert outcomes == {"none", "no_z", "resultant"}


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
    assert composite_cover(D).degree == 4


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


def test_plane_counts_match_slow_scan():
    X = make_smooth_plane(F4, FERMAT_CUBIC, 3)
    for j in (1, 2):
        assert count_points(X, j) == count_slow(X, j)
    conic = make_smooth_plane(F3, [(2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)], 2)
    assert count_points(conic, 1) == count_slow(conic, 1) == 4


def test_counts_exact_for_large_primes():
    """p > 32767 overflowed 16-bit digits: y^2 = x^3+x+1 over F_40009 gave 40229."""
    E = make_hyperelliptic(construct_field(40009, 1), (1, 1, 0, 1))
    assert count_points(E, 1) == count_hyperelliptic_prime_field((1, 1, 0, 1), 40009) == 40020
    Q = make_hyperelliptic(construct_field(32771, 1), (3, 0, 5, 0, 2))
    assert count_points(Q, 1) == count_hyperelliptic_prime_field((3, 0, 5, 0, 2), 32771)


def test_plane_counts_exact_when_digit_products_exceed_16_bits():
    """Over F_191 a coefficient times a digit exceeds 2^15 (the count was 212).
    Over F_263, q^2 = 69169 > CHUNK, so the last chunk of the chart scan is
    partial."""
    for p in (191, 263):
        monomials = ((0, 0, 3, 1), (0, 3, 0, 1), (1, 1, 1, p - 1), (3, 0, 0, 1))
        X = CurveModel(kind=SMOOTH_PLANE, base=construct_field(p, 1),
                       monomials=monomials, degree=3, genus=1, label=f"hesse/F_{p}")
        assert count_points(X, 1) == count_plane_prime_field(monomials, p)
    assert count_plane_prime_field(((0, 0, 3, 1), (0, 3, 0, 1), (1, 1, 1, 190), (3, 0, 0, 1)),
                                   191) == 210


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
    # the projective line is a closed form: nothing enumerated, nothing charged
    for j in (1, 2, 5):
        assert count_points(make_projective_line(F3), j, budget=0) == 3**j + 1
    # plane charge counts both affine chart scans: q^{2j} + q^j + 1
    X = make_smooth_plane(F4, FERMAT_CUBIC, 3)
    with pytest.raises(BudgetExceeded) as info:
        count_points(X, 1, budget=20)
    assert info.value.needed == 21


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
