"""Maximize N_1 over integer count vectors under exact PSD and place constraints.

A count vector (N_1, .., N_m) is *feasible* when the absolute Gram matrix it
induces is positive semidefinite and, optionally, when the place counts a_d
it implies (N_j = sum_{d | j} d a_d) are nonnegative integers.  That rule is
`zeta`'s (`places_are_whole`, `place_floor`); this module has no copy of it.

Each N_j also lies in its Weil interval, because the 2x2 principal minor
indexed {0, j} is exactly the Weil inequality; no separate test is needed.

The search is an exact integer interval scan.  In the Gram matrix of a prefix
(N_1, .., N_j), the count N_j enters only through t_j = q^j + 1 - N_j, so
given a PSD prefix of length j - 1 the values of N_j that keep it PSD form an
interval.  `gram`'s Levinson recursion gives it exactly, by one isqrt, from
the state it carries for the prefix (`_levinson_interval`), and the scan
carries that state down its recursion, one step per visited prefix.  Every
scan range is that interval, stepped when toggled by the place-count rule
(see `max_n1`).  For N_1 the Gram matrix is the 2x2 one of order 1, so its
interval is exactly N_1's Weil interval; for j >= 2 the interval already
lies inside N_j's.  So every vector the scan reaches is feasible,
the first complete one is the witness, and only the witness passes through
`feasible_counts`, as a check.  When toggled at order m >= 2, the N_1 above
the Ihara floor (`ihara_closed_form`) have no completion and are counted in
`scanned` without being visited.  No floating-point value enters the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, NegativeGenus, TooLarge, ZeroGenus
from .finite_field import check_prime_power
from .gram import _levinson_interval, _levinson_state, _levinson_step
from .zeta import place_floor, places_are_whole

MAX_ORDER = 3
MAX_Q = 64
# the budget on `scanned`, the vectors visited plus the N_1 skipped above the
# Ihara floor, at about 5 us a visit (2 vCPU): (64, 1000, 3) skips 4,999 and
# is refused in 0.23-0.25 s; no problem of q <= 64, g <= 8 and m <= 3 scans
# more than 27
MAX_SCANNED = 50_000


@dataclass(frozen=True)
class FeasibilityProblem:
    q: int
    g: int
    m: int
    toggles: bool = True

    def __post_init__(self):
        if not 1 <= self.m <= MAX_ORDER:
            raise TooLarge(f"order m={self.m} outside 1..{MAX_ORDER}")
        _check_genus(self.g)
        if self.q > MAX_Q:
            raise BudgetExceeded(self.q, MAX_Q)
        check_prime_power(self.q)


def _check_genus(g: int) -> None:
    if g < 0:
        raise NegativeGenus(f"genus must be nonnegative, got {g}")


@dataclass(frozen=True)
class FeasibilityResult:
    max_n1: int
    witness: tuple
    scanned: int


def feasible_counts(q: int, g: int, counts, toggles: bool = True) -> bool:
    """True iff the induced absolute Gram is PSD (`gram._levinson_state` on
    t_j = q^j + 1 - N_j, with no matrix built) and, when toggled, every place
    count the counts imply is a nonnegative integer (`zeta.places_are_whole`,
    in integers).  The Weil intervals need no test of their own: the {0, j}
    principal minor is exactly the Weil inequality."""
    _check_genus(g)
    counts = tuple(counts)
    m = len(counts)
    if m > MAX_ORDER:
        raise TooLarge(f"count vector length {m} exceeds {MAX_ORDER}")
    if toggles and not places_are_whole(counts):
        return False
    t = tuple(q**j + 1 - n for j, n in enumerate(counts, 1))
    return _levinson_state(q, g, t) is not None


def max_n1(problem: FeasibilityProblem) -> FeasibilityResult:
    """Largest N_1 admitting a feasible completion.

    Scans N_1 descending from the Weil upper end (or the Ihara floor, see
    below); completions ascend lexicographically, pruned on infeasible
    prefixes (sound because the order-(m-1) Gram is a leading principal
    submatrix of the order-m one).  Each N_j ranges over the exact interval
    that keeps the Gram matrix PSD (`gram._levinson_interval`), read from
    the Levinson state that each visited prefix computes once from its
    parent's (`gram._levinson_step`).  When toggled, that range is stepped
    by j from b_j (`zeta.place_floor` of the e a_e the prefix carries), so
    a_j = (N_j - b_j)/j is a nonnegative integer.  So skipped values are
    exactly those that `feasible_counts` would reject, and a prefix whose
    range for the next count is empty has no completion.  The first
    complete vector reached is the witness.

    When toggled at order m >= 2, N_2 >= b_2 = N_1, and every PSD order-2
    Gram with N_2 >= N_1 satisfies the Schwarz inequality that
    `ihara_closed_form` solves, so no N_1 above its floor has a completion:
    each would be one visit whose stepped N_2 range is empty.  The descent
    starts at the floor instead, and `scanned`, the vectors visited
    (prefixes and the witness) plus those skipped N_1, is the count the full
    descent would reach.  Past MAX_SCANNED it raises BudgetExceeded.  A
    result exists: (q+1, q^2+1, q^3+1) is always feasible.
    """
    q, g, m, toggles = problem.q, problem.g, problem.m, problem.toggles
    scanned = 0

    def charge(vectors):
        nonlocal scanned
        scanned += vectors
        if scanned > MAX_SCANNED:
            raise BudgetExceeded(MAX_SCANNED + 1, MAX_SCANNED)

    def scan_range(t, state):
        """[lo, hi] of N_j, j = len(t) + 1, from the state of the prefix t."""
        x = _levinson_interval(q, state, t)
        qj = q ** (len(t) + 1)
        # N_j = q^j + 1 - t_j; an empty x leaves lo > hi
        return qj + 2 - x.stop, qj + 1 - x.start

    def completions(t, state, exact):
        """The first feasible completion of t, as counts, or None.  `state`
        is that of t[:-1]; t[-1] lies in its interval, so the step to the
        state of t never fails."""
        charge(1)
        j = len(t) + 1
        if j > m:
            return tuple(q**i + 1 - x for i, x in enumerate(t, 1))
        state = _levinson_step(q, state, t)
        lo, hi = scan_range(t, state)
        b, step = lo, 1  # untoggled, `exact` is carried but never read
        if toggles:
            b, step = place_floor(exact, j), j  # exact[e - 1] = e a_e
            lo = b + j * max(0, (lo - b + j - 1) // j)
        for nj in range(lo, hi + 1, step):
            found = completions(t + (q**j + 1 - nj,), state, exact + (nj - b,))
            if found is not None:
                return found
        return None

    start = _levinson_state(q, g, ())
    lo1, hi1 = scan_range((), start)
    top = min(hi1, _ihara(q, g)[1]) if toggles and m >= 2 else hi1
    charge(hi1 - top)
    for n1 in range(top, lo1 - 1, -1):
        witness = completions((q + 1 - n1,), start, (n1,))
        if witness is not None:
            if not feasible_counts(q, g, witness, toggles):
                raise AssertionError(f"scan reached the infeasible vector {witness}")
            return FeasibilityResult(max_n1=n1, witness=witness, scanned=scanned)
    raise AssertionError("scan exhausted; (q^j+1) vector should be feasible")


@dataclass(frozen=True)
class IharaClosedForm:
    """q + 1 + (sqrt(radicand) - g)/2 stored exactly: the bound equals
    linear + sqrt(radicand)/2 with linear = q + 1 - g/2."""
    radicand: int
    linear: Fraction
    floor: int

    def __float__(self) -> float:
        return float(self.linear) + math.sqrt(self.radicand) / 2.0


def _ihara(q: int, g: int) -> tuple:
    """(radicand, floor) of the order-2 bound q + 1 + (sqrt(radicand) - g)/2,
    for any g >= 0, in integers alone; at g = 0 the floor is q + 1."""
    radicand = g * g * (8 * q + 1) + 4 * g * q * (q - 1)
    return radicand, (2 * q + 2 - g + math.isqrt(radicand)) // 2


def ihara_closed_form(q: int, g: int) -> IharaClosedForm:
    """Closed-form solution of the order-2 relaxation (Schwarz for the
    combined vector q*frob^0 + frob^2 against frob^1, with N_2 >= N_1)."""
    if g == 0:
        raise ZeroGenus("closed form needs g >= 1")
    _check_genus(g)
    check_prime_power(q)
    radicand, floor = _ihara(q, g)
    return IharaClosedForm(radicand=radicand, linear=Fraction(2 * q + 2 - g, 2), floor=floor)
