"""Count-vector feasibility scans and the closed-form order-2 bound."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from weilgram import feasibility, gram
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
    _ihara,
    feasible_counts,
    ihara_closed_form,
    max_n1,
)

from oracles import corner_interval_by_elimination, max_n1_exhaustive

PRIME_POWERS_16 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def _is_prime_power(q):
    p = next(d for d in range(2, q + 1) if q % d == 0)
    while q % p == 0:
        q //= p
    return q == 1


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


@pytest.mark.parametrize("q,g,counts", [(2, 8, (-1,)), (2, 8, (-5, -5)), (3, 4, (-3,))])
def test_negative_point_counts_are_infeasible(q, g, counts):
    """N_1 is the number of degree-1 places, so it is never negative; the
    Gram and the Weil interval alone allow these vectors."""
    assert feasible_counts(q, g, counts, toggles=False)
    assert not feasible_counts(q, g, counts)


def _old_feasible_counts(q, g, counts, toggles):
    """`feasible_counts` as it was when it kept its own copy of the place
    rule, for the degrees 1, 2 and 3 only."""
    if toggles:
        if counts[0] < 0:
            return False
        for j in range(2, len(counts) + 1):
            if counts[j - 1] < counts[0] or (counts[j - 1] - counts[0]) % j != 0:
                return False
    return gram.is_psd(gram.gram_absolute(q, g, counts, len(counts)))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_feasible_counts_keeps_the_order_three_rule_on_weil_boxes(q):
    """The place rule read from `zeta` gives the old verdict on every vector
    whose N_j all lie in their Weil intervals, toggles on and off, for every
    g <= 3 and m <= 3 whose box holds at most 15,000 vectors: every box at
    m <= 2, and at m = 3 every g at q = 2, g <= 2 at q = 3, g <= 1 at q = 4
    and 5, and g = 0 above (69,886 vectors in all; the m = 3 box of q = 9,
    g = 3 alone holds 1.3 million)."""
    checked = 0
    for g in range(4):
        for m in (1, 2, 3):
            box = [range(lo, hi + 1) for lo, hi in (weil_interval(q, g, j) for j in range(1, m + 1))]
            if math.prod(map(len, box)) > 15_000:
                continue
            for counts in itertools.product(*box):
                for toggles in (True, False):
                    assert (feasible_counts(q, g, counts, toggles)
                            == _old_feasible_counts(q, g, counts, toggles)), (g, counts, toggles)
                checked += 1
    assert checked > 1000


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
    for toggles in (True, False):
        with pytest.raises(NegativeGenus):
            feasible_counts(3, -1, (4,), toggles)
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


def _count_scan_work(monkeypatch):
    """Counts of the next-count intervals `max_n1` reads from the Levinson
    state (`gram._levinson_interval`) and of its witness checks
    (`feasible_counts`), as `max_n1` calls them."""
    calls = {"interval": 0, "witness": 0}

    def counted(key, function):
        def wrapper(*args):
            calls[key] += 1
            return function(*args)
        return wrapper

    monkeypatch.setattr(feasibility, "_levinson_interval",
                        counted("interval", feasibility._levinson_interval))
    monkeypatch.setattr(feasibility, "feasible_counts",
                        counted("witness", feasibility.feasible_counts))
    return calls


def test_max_n1_eliminates_each_prefix_gram_once(monkeypatch):
    """Each visited prefix takes one Levinson step from its parent's state
    and reads its next count's interval from it once.  N_1 = 22..31 lie
    above the Ihara floor 21, so they are counted in `scanned` without a
    visit.  Every complete vector the scan reaches is feasible, so the
    witness is the only one visited, and `feasible_counts` checks it once.
    So scanned = 27 is 10 skipped N_1, 16 prefixes and the witness, and
    N_1's range and the 16 prefixes make 17 intervals."""
    calls = _count_scan_work(monkeypatch)
    res = max_n1(FeasibilityProblem(q=3, g=8, m=3))
    assert (ihara_closed_form(3, 8).floor, weil_interval(3, 8, 1)[1]) == (21, 31)
    assert res.scanned == 27
    assert calls == {"interval": 17, "witness": 1}


def test_feasibility_grid_work_is_pinned(monkeypatch):
    """The scan's work over the 216 problems of the benchmark's
    `feasibility_grid` (q <= 64, g = 1..8, m = 3), counted without timing:
    760 intervals, one per visited prefix and one per N_1 range, as many as
    the bordered eliminations that gave them before the Levinson state did,
    and 216 witness checks.  `scanned`, which counts the skipped N_1 too,
    sums to 1,083."""
    calls = _count_scan_work(monkeypatch)
    scanned = sum(max_n1(FeasibilityProblem(q=q, g=g, m=3)).scanned
                  for q in range(2, 65) if _is_prime_power(q) for g in range(1, 9))
    assert calls == {"interval": 760, "witness": 216}
    assert scanned == 1083


@pytest.mark.parametrize("q", [q for q in range(2, 65) if _is_prime_power(q)])
def test_n1_above_the_ihara_floor_has_no_order_two_completion(q):
    """The skip of `max_n1` is exact: for g <= 100, every N_1 in (floor,
    hi_1] has an order-2 corner interval whose top N_2 is below N_1, so no
    N_2 >= b_2 = N_1 keeps the Gram PSD.  The floor is `_ihara`'s, which is
    `ihara_closed_form`'s for g >= 1 and q + 1 at g = 0."""
    assert _ihara(q, 0) == (0, q + 1)
    for g in range(101):
        radicand, floor = _ihara(q, g)
        if g:
            cf = ihara_closed_form(q, g)
            assert (cf.radicand, cf.floor) == (radicand, floor)
        for n1 in range(floor + 1, weil_interval(q, g, 1)[1] + 1):
            t2 = corner_interval_by_elimination(gram.gram_absolute(q, g, (n1, 0), 2).entries)
            assert not t2 or q**2 + 1 - t2.start < n1, (g, n1)


def test_max_n1_scan_budget():
    with pytest.raises(BudgetExceeded):
        max_n1(FeasibilityProblem(q=67, g=1, m=2))
    with pytest.raises(BudgetExceeded):
        max_n1(FeasibilityProblem(q=65, g=1, m=1))


@pytest.mark.parametrize("budget", [0, 5, 9, 10, 11, 26])
def test_a_budget_inside_the_skipped_n1_is_refused_as_by_visits(monkeypatch, budget):
    """(3, 8, 3) counts its 10 values N_1 = 22..31 in `scanned` at once.  A
    budget below 27 is refused with the error of the visit past it,
    BudgetExceeded(budget + 1, budget), wherever the skip leaves `scanned`."""
    monkeypatch.setattr(feasibility, "MAX_SCANNED", budget)
    with pytest.raises(BudgetExceeded) as info:
        max_n1(FeasibilityProblem(q=3, g=8, m=3))
    assert (info.value.needed, info.value.budget) == (budget + 1, budget)


@pytest.mark.parametrize("q", PRIME_POWERS_16)
def test_max_n1_matches_exhaustive_oracle(q):
    for g in range(7):
        for m in (1, 2, 3):
            for toggles in (True, False):
                res = max_n1(FeasibilityProblem(q=q, g=g, m=m, toggles=toggles))
                expected = max_n1_exhaustive(q, g, m, toggles)
                assert (res.max_n1, res.witness) == expected, (g, m, toggles)


@pytest.mark.parametrize("problems,digest", [
    ([(q, g, 3) for q in range(2, 65) if _is_prime_power(q) for g in range(1, 9)],
     "e0f288639c51cbbbeae8b01c00ac796b5a992d4b95d219297736dd052c14f5ea"),
    ([(q, g, m) for q in (2, 3, 4, 5, 7, 8, 9, 16, 27, 64) for g in range(1, 9) for m in (1, 2, 3)],
     "b914a0d80907431b6e8b5694d27a8fa84c29cdda7e9bd64036a0ab08605ab882"),
], ids=["feasibility_grid_216", "order_three_240"])
def test_max_n1_keeps_its_answers_under_the_shared_place_rule(problems, digest):
    """max_n1, witness and `scanned` of the benchmark's 216 problems and of
    a 240-problem set (q in {2, .., 64}, g = 1..8, m = 1..3), hashed as they
    were when `max_n1` stepped by its own j = 2, 3 rule."""
    rows = []
    for q, g, m in problems:
        res = max_n1(FeasibilityProblem(q=q, g=g, m=m))
        rows.append([q, g, m, res.max_n1, list(res.witness), res.scanned])
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


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


def test_max_n1_grid_is_frozen():
    """`max_n1` over all 1458 problems with q <= 64, g = 0..8, m = 1..3 and
    toggles on and off, hashed.  It pins `scanned` too, which the CLI prints.
    The digest was computed when the N_1 scan range still came from
    `weil_interval` and every N_j range was cut to its Weil interval."""
    rows = []
    for q in [q for q in range(2, 65) if _is_prime_power(q)]:
        for g in range(9):
            for m in (1, 2, 3):
                for toggles in (True, False):
                    res = max_n1(FeasibilityProblem(q=q, g=g, m=m, toggles=toggles))
                    rows.append([q, g, m, toggles, res.max_n1, list(res.witness),
                                 res.scanned])
    assert len(rows) == 1458
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "3a88b2178a003e31cb75b0691749c2562e23c0650a082ec6b42ef38df1d9fe42"

