"""L-polynomial reconstruction, extrapolation, and the RH check."""

from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weilgram.curves import count_points, count_series, make_hyperelliptic
from weilgram.errors import CountLengthMismatch, NonIntegerCoefficient, NotPrimePower
from weilgram.finite_field import construct_field
from weilgram.gram import gram_absolute, psd_check
from weilgram.zeta import (
    LPolynomial,
    check_functional_equation,
    check_riemann_hypothesis,
    extrapolate,
    infer_genus,
    l_from_counts,
    power_sums,
)

from oracles import power_sums_by_roots, rh_small_genus

F3 = construct_field(3, 1)


def test_l_from_counts_examples():
    assert l_from_counts(3, 1, (4,)).coefficients == (1, 0, 3)
    assert l_from_counts(3, 0, ()).coefficients == (1,)
    # construction succeeds even for counts no curve attains; RH rejects later
    assert l_from_counts(3, 1, (9,)).coefficients == (1, 5, 3)


def test_l_from_counts_errors():
    with pytest.raises(CountLengthMismatch):
        l_from_counts(3, 1, ())
    with pytest.raises(CountLengthMismatch):
        l_from_counts(3, 1, (4, 16))
    with pytest.raises(NonIntegerCoefficient):
        l_from_counts(3, 2, (4, 15))


def test_lpolynomial_length_validation():
    with pytest.raises(ValueError):
        LPolynomial(q=3, g=1, coefficients=(1, 0))


@pytest.mark.parametrize("q", [6, 1, 0, -3])
def test_q_must_be_prime_power(q):
    with pytest.raises(NotPrimePower):
        LPolynomial(q=q, g=0, coefficients=(1,))
    with pytest.raises(NotPrimePower):
        l_from_counts(q, 1, (7,))
    with pytest.raises(NotPrimePower):
        infer_genus(q, (7, 37))


def test_extrapolate_examples():
    L = LPolynomial(q=3, g=1, coefficients=(1, 0, 3))
    assert extrapolate(L, 1) == 4
    assert extrapolate(L, 2) == 16
    one = LPolynomial(q=5, g=0, coefficients=(1,))
    assert extrapolate(one, 3) == 126
    with pytest.raises(ValueError):
        extrapolate(L, 0)
    # c_0 = 2: the power sums are not integers (N_1 would be 4.5)
    with pytest.raises(NonIntegerCoefficient):
        extrapolate(LPolynomial(3, 1, (2, 1, 6)), 1)


def test_functional_equation_examples():
    assert check_functional_equation(LPolynomial(3, 1, (1, 0, 3)))
    assert check_functional_equation(LPolynomial(3, 0, (1,)))
    assert not check_functional_equation(LPolynomial(3, 1, (1, 1, 2)))


def test_riemann_hypothesis_examples():
    assert check_riemann_hypothesis(LPolynomial(3, 1, (1, 0, 3))) is True
    assert check_riemann_hypothesis(LPolynomial(3, 1, (1, 5, 3))) is False
    assert check_riemann_hypothesis(LPolynomial(3, 0, (1,))) is True
    # 1 - 3T^2 has inverse roots +-sqrt(3) but breaks the functional equation
    assert check_riemann_hypothesis(LPolynomial(3, 1, (1, 0, -3))) is False
    assert check_riemann_hypothesis(LPolynomial(3, 1, (0, 0, 0))) is False
    # h = x^2 - 4q: both roots at the endpoints +-2 sqrt(q), q not a square
    for q in (2, 3, 5, 7):
        assert check_riemann_hypothesis(LPolynomial(q, 2, (1, 0, -2 * q, 0, q * q)))
    # ... and h = (x - 2 sqrt(q))^2 over a square q, a repeated endpoint root
    assert check_riemann_hypothesis(LPolynomial(9, 2, (1, -12, 54, -108, 81)))


def test_riemann_hypothesis_needs_the_gram_of_order_2g():
    # inverse roots 2 +- sqrt(2) and +-i sqrt(2): two are off the circle, yet
    # the Gram of order g = 2 is PSD; only order 2g = 4 sees it
    L = LPolynomial(2, 2, (1, -4, 4, -8, 4))
    counts = [extrapolate(L, j) for j in range(1, 5)]
    assert psd_check(gram_absolute(2, 2, counts, 2)).psd
    assert not psd_check(gram_absolute(2, 2, counts, 4)).psd
    assert check_riemann_hypothesis(L) is False


@pytest.mark.parametrize("coeffs,want", [
    ((2, 1, 6), True),      # 2U^2 + U + 6: complex roots of modulus sqrt(3)
    ((-1, 0, -3), True),    # -(U^2 + 3): roots +-i sqrt(3)
    ((2, 7, 6), False),     # 2U^2 + 7U + 6: real roots -2 and -3/2
])
def test_riemann_hypothesis_with_leading_coefficient_not_one(coeffs, want):
    assert check_riemann_hypothesis(LPolynomial(3, 1, coeffs)) is want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 16])
def test_riemann_hypothesis_matches_closed_form_in_a_box(q):
    # every L with c_0 = 1 and the functional equation whose c_1, c_2 lie in a
    # box: it holds each passing one (|c_1| <= 4 sqrt(q), -2q <= c_2 <= 6q)
    # and a margin of failing ones around them
    c1_range = range(-isqrt(16 * q) - 2, isqrt(16 * q) + 3)
    vectors = [(1, c1, q) for c1 in c1_range]
    vectors += [(1, c1, c2, q * c1, q * q) for c1 in c1_range
                for c2 in range(-2 * q - 2, 6 * q + 3)]
    for coeffs in vectors:
        L = LPolynomial(q, len(coeffs) // 2, coeffs)
        assert check_riemann_hypothesis(L) is rh_small_genus(q, coeffs), coeffs


def _l_from_real_weil(q, h):
    """Coefficients of L(T) = T^{2g} P(1/T), where P(U) = U^g h(U + q/U) =
    sum_k h_k U^{g-k} (U^2 + q)^k and h has degree g, ascending."""
    g = len(h) - 1
    P = [0] * (2 * g + 1)
    power = [1]   # (U^2 + q)^k, ascending in U
    for k, hk in enumerate(h):
        for i, coef in enumerate(power):
            P[g - k + i] += hk * coef
        power = [q * a + b for a, b in zip(power + [0, 0], [0, 0] + power)]
    return LPolynomial(q, g, tuple(reversed(P)))


def _times(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


@settings(max_examples=150, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 7, 9, 16, 25]), data=st.data())
def test_riemann_hypothesis_on_constructed_real_weil_polynomials(q, data):
    """h is a product of linear factors x - a, with a inside, on or outside
    [-2 sqrt(q), 2 sqrt(q)], of x^2 - 4q, and of quadratics with no real root;
    RH holds exactly when no root is outside or non-real.  L is scaled by a
    leading coefficient c_0, which moves no inverse root."""
    r = isqrt(q)
    edge = isqrt(4 * q) + 1   # least integer a > 0 with a^2 > 4q
    linear = data.draw(st.lists(st.integers(-edge - 2, edge + 2), max_size=4))
    quadratics = data.draw(st.lists(
        st.tuples(st.integers(-6, 6), st.integers(1, 20)).filter(
            lambda bc: bc[0] ** 2 < 4 * bc[1]), max_size=2))
    endpoints = data.draw(st.integers(0, 1 if r * r != q else 0))
    c0 = data.draw(st.sampled_from([1, -1, 2, 3]))
    h = [1]
    for a in linear:
        h = _times(h, [-a, 1])
    for b, c in quadratics:
        h = _times(h, [c, b, 1])
    for _ in range(endpoints):
        h = _times(h, [-4 * q, 0, 1])
    assume(len(h) > 1)
    want = not quadratics and all(a * a <= 4 * q for a in linear)
    L = _l_from_real_weil(q, h)
    L = LPolynomial(q, L.g, tuple(c0 * c for c in L.coefficients))
    assert check_functional_equation(L)
    assert check_riemann_hypothesis(L) is want


def test_power_sums_match_root_oracle():
    cases = [
        LPolynomial(3, 1, (1, 0, 3)),
        LPolynomial(3, 1, (1, -3, 3)),       # maximal elliptic, N_1 = 7
        LPolynomial(5, 1, (1, -2, 5)),
        LPolynomial(3, 2, (1, -3, 5, -9, 9)),
        # c_0 != 1: power_sums gives c_0^n t_n
        LPolynomial(3, 1, (2, 1, 6)),
        LPolynomial(3, 2, (-3, 9, -15, 27, -27)),
    ]
    for L in cases:
        c0 = L.coefficients[0]
        exact = power_sums(L, 6)
        numeric = power_sums_by_roots(L, 6)
        for n, (a, b) in enumerate(zip(exact, numeric), 1):
            assert abs(a - c0**n * b) <= 1e-6 * max(1.0, abs(a))


def test_supersingular_counts_to_degree_four():
    # dual route for the frozen series: brute force must give (4, 16, 28, 64)
    # and the genus-1 L-polynomial must extrapolate the same values
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    series = count_series(E, 4)
    assert series.counts == (4, 16, 28, 64)
    L = l_from_counts(3, 1, series.counts[:1])
    assert [extrapolate(L, j) for j in (1, 2, 3, 4)] == [4, 16, 28, 64]


def test_infer_genus_examples():
    assert infer_genus(3, (4, 16, 28, 64)) == 1
    assert infer_genus(3, (4, 10, 28)) == 0
    assert infer_genus(3, (9, 10)) is None


def test_infer_genus_prefers_smallest_consistent():
    # P^1 counts with only one entry: genus 0 already explains them
    assert infer_genus(5, (6,)) == 0
    # genus-2 counts from y^2 = x^5 + 2x + 1 over F_3
    X = make_hyperelliptic(F3, (1, 2, 0, 0, 0, 1))
    series = count_series(X, 2 * X.genus + 2)
    assert infer_genus(3, series.counts) == 2


def test_round_trip_through_counts():
    for field_args, f in [((3, 1), (0, 1, 0, 1)), ((5, 1), (1, 1, 0, 1)),
                          ((3, 2), (0, 1, 0, 1))]:
        field = construct_field(*field_args)
        X = make_hyperelliptic(field, f)
        series = count_series(X, 2 * X.genus + 2, budget=10**7)
        L = l_from_counts(X.q, X.genus, series.counts[: X.genus])
        assert check_functional_equation(L)
        assert check_riemann_hypothesis(L)
        for j in range(1, 2 * X.genus + 3):
            assert extrapolate(L, j) == count_points(X, j, budget=10**7)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 4, 5, 7, 9]), g=st.integers(0, 3),
       data=st.data())
def test_functional_equation_holds_whenever_construction_succeeds(q, g, data):
    counts = []
    for j in range(1, g + 1):
        lo = q**j + 1 - 2 * g * int(q ** (j / 2) + 1)
        hi = q**j + 1 + 2 * g * int(q ** (j / 2) + 1)
        counts.append(data.draw(st.integers(max(0, lo), hi)))
    try:
        L = l_from_counts(q, g, counts)
    except NonIntegerCoefficient:
        assume(False)
    assert check_functional_equation(L)
    assert L.coefficients[0] == 1
    assert L.coefficients[-1] == q**g
    # extrapolation inverts the construction on the first g counts
    for j in range(1, g + 1):
        assert extrapolate(L, j) == counts[j - 1]
