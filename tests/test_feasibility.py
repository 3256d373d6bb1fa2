"""Count-vector feasibility scans and the closed-form order-2 bound."""

import math
from fractions import Fraction

import pytest

from weilgram.bounds import weil_interval
from weilgram.curves import count_points
from weilgram.errors import (
    BudgetExceeded,
    NegativeGenus,
    NotPrimePower,
    TooLarge,
    WeilgramError,
    ZeroGenus,
)
from weilgram.feasibility import (
    FeasibilityProblem,
    feasible_counts,
    ihara_closed_form,
    max_n1,
)

from oracles import max_n1_exhaustive

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_feasible_counts_examples():
    assert feasible_counts(3, 1, (7, 7))
    assert not feasible_counts(3, 1, (8, 8))
    for q in (3, 5, 9):
        assert feasible_counts(q, 0, (q + 1, q**2 + 1))


def test_feasible_counts_toggles():
    # (4, 15) breaks the degree-2 place parity but its Gram is still PSD
    assert not feasible_counts(3, 1, (4, 15))
    assert feasible_counts(3, 1, (4, 15), toggles=False)
    # N_2 < N_1 is also only caught by the toggled constraints
    assert not feasible_counts(3, 2, (8, 6))
    # the Weil intervals are implied by the 2x2 minors even with toggles off
    assert not feasible_counts(3, 1, (9,), toggles=False)


def test_feasible_counts_length_limit():
    with pytest.raises(TooLarge):
        feasible_counts(3, 1, (4, 16, 28, 64))


def test_problem_validation():
    with pytest.raises(TooLarge):
        FeasibilityProblem(q=3, g=1, m=4)
    with pytest.raises(TooLarge):
        FeasibilityProblem(q=3, g=1, m=0)
    with pytest.raises(ValueError):
        FeasibilityProblem(q=3, g=-1, m=2)


@pytest.mark.parametrize("q", [0, 1, 6, -3])
def test_field_size_must_be_a_prime_power(q):
    with pytest.raises(NotPrimePower):
        FeasibilityProblem(q=q, g=1, m=2)
    with pytest.raises(NotPrimePower):
        ihara_closed_form(q, 1)


def test_negative_genus_is_a_typed_error():
    with pytest.raises(NegativeGenus):
        FeasibilityProblem(q=3, g=-1, m=2)
    with pytest.raises(NegativeGenus):
        ihara_closed_form(3, -1)
    for cls in (NegativeGenus, NotPrimePower):
        assert issubclass(cls, WeilgramError) and issubclass(cls, ValueError)


def test_max_n1_examples():
    res = max_n1(FeasibilityProblem(q=3, g=0, m=2))
    assert res.max_n1 == 4
    assert res.witness == (4, 10)
    res = max_n1(FeasibilityProblem(q=3, g=1, m=2))
    assert res.max_n1 == 7
    assert res.witness == (7, 7)
    res = max_n1(FeasibilityProblem(q=3, g=1, m=1))
    assert res.max_n1 == 7
    res = max_n1(FeasibilityProblem(q=4, g=1, m=2))
    assert res.max_n1 == 9
    assert res.witness == (9, 9)


def test_max_n1_result_invariants():
    for q, g, m in [(3, 1, 2), (5, 2, 2), (4, 1, 3), (9, 1, 2)]:
        problem = FeasibilityProblem(q=q, g=g, m=m)
        res = max_n1(problem)
        assert res.witness[0] == res.max_n1
        assert feasible_counts(q, g, res.witness)
        assert res.max_n1 <= weil_interval(q, g, 1)[1]
        assert res.scanned > 0


def test_max_n1_scan_budget():
    with pytest.raises(BudgetExceeded):
        max_n1(FeasibilityProblem(q=67, g=1, m=2))
    with pytest.raises(BudgetExceeded):
        max_n1(FeasibilityProblem(q=65, g=1, m=1))


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_max_n1_matches_exhaustive_oracle(q):
    for g in range(7):
        for m in (1, 2, 3):
            for toggles in (True, False):
                res = max_n1(FeasibilityProblem(q=q, g=g, m=m, toggles=toggles))
                expected = max_n1_exhaustive(q, g, m, toggles)
                assert (res.max_n1, res.witness) == expected, (g, m, toggles)


def test_max_n1_order_one_is_weil_upper_end():
    for q in (3, 4, 5, 7, 9):
        for g in range(5):
            res = max_n1(FeasibilityProblem(q=q, g=g, m=1))
            assert res.max_n1 == weil_interval(q, g, 1)[1]


def test_max_n1_monotone_in_order():
    for q in (3, 4, 5):
        for g in (1, 2):
            values = [max_n1(FeasibilityProblem(q=q, g=g, m=m)).max_n1
                      for m in (1, 2, 3)]
            assert values[0] >= values[1] >= values[2]


def test_max_n1_deterministic():
    problem = FeasibilityProblem(q=5, g=2, m=2)
    assert max_n1(problem) == max_n1(problem)


def test_real_curves_are_feasible(corpus_curves):
    seen = set()
    for curve in corpus_curves:
        key = (curve.q, curve.genus)
        if key in seen:
            continue
        seen.add(key)
        bound = max_n1(FeasibilityProblem(q=curve.q, g=curve.genus, m=2)).max_n1
        assert count_points(curve, 1) <= bound, curve.label


def test_ihara_closed_form_examples():
    cf = ihara_closed_form(3, 1)
    assert cf.radicand == 49
    assert cf.linear == Fraction(7, 2)
    assert cf.floor == 7
    assert float(cf) == pytest.approx(7.0)
    cf = ihara_closed_form(4, 1)
    assert cf.radicand == 81
    assert cf.floor == 9
    assert cf.floor >= max_n1(FeasibilityProblem(q=4, g=1, m=2)).max_n1
    with pytest.raises(ZeroGenus):
        ihara_closed_form(3, 0)
    with pytest.raises(ValueError):
        ihara_closed_form(3, -1)


def test_ihara_floor_matches_float_form():
    for q in PRIME_POWERS_16:
        for g in range(1, 5):
            cf = ihara_closed_form(q, g)
            root = math.isqrt(cf.radicand)
            # floor bracketing in exact integers: 2*floor <= 2*value < 2*floor+2
            assert 2 * cf.floor <= 2 * q + 2 - g + root < 2 * cf.floor + 2
            approx = q + 1 + (math.sqrt(cf.radicand) - g) / 2.0
            assert float(cf) == pytest.approx(approx, rel=1e-12)
