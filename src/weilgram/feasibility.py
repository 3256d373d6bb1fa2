"""Maximize N_1 over integer count vectors under exact PSD and place constraints.

A count vector (N_1, .., N_m) is *feasible* when the absolute Gram matrix it
induces is positive semidefinite and, optionally, when the degree-2 and
degree-3 place counts it implies are nonnegative integers:

    N_2 >= N_1 and N_2 == N_1 (mod 2)   (degree-2 places)
    N_3 >= N_1 and N_3 == N_1 (mod 3)   (degree-3 places)

together with each N_j inside its Weil interval (the intervals are implied by
the 2x2 principal minors indexed {0, j}, so they are redundant as constraints
but pin down the finite scan ranges).

The search is an exact integer interval scan.  In the Gram matrix of a prefix
(N_1, .., N_j), the count N_j enters only through t_j = q^j + 1 - N_j at the
corner (0, j), so given a PSD prefix of length j - 1 the values of N_j that
keep it PSD form an interval, computed exactly by `psd_corner_interval`.  Each
N_j is taken only from that interval, intersected with its Weil interval and,
when toggled, with the place-count constraints.  Every candidate still passes
through `feasible_counts`, and no floating-point value enters the search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bounds import weil_interval
from .errors import BudgetExceeded, NegativeGenus, NotPrimePower, TooLarge, ZeroGenus
from .finite_field import prime_power_decomposition
from .gram import gram_absolute, psd_check, psd_corner_interval

MAX_ORDER = 3
MAX_Q = 64


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
        _check_field_size(self.q)


def _check_genus(g: int) -> None:
    if g < 0:
        raise NegativeGenus(f"genus must be nonnegative, got {g}")


def _check_field_size(q: int) -> None:
    if prime_power_decomposition(q) is None:
        raise NotPrimePower(f"field size {q} is not a prime power")


@dataclass(frozen=True)
class FeasibilityResult:
    max_n1: int
    witness: tuple
    scanned: int


def feasible_counts(q: int, g: int, counts, toggles: bool = True) -> bool:
    """True iff the induced absolute Gram is PSD and (when toggled) the
    place-count and Weil-interval constraints all hold."""
    counts = tuple(counts)
    m = len(counts)
    if m > MAX_ORDER:
        raise TooLarge(f"count vector length {m} exceeds {MAX_ORDER}")
    if toggles:
        if m >= 2:
            if counts[1] < counts[0] or (counts[1] - counts[0]) % 2 != 0:
                return False
        if m >= 3:
            if counts[2] < counts[0] or (counts[2] - counts[0]) % 3 != 0:
                return False
        for j in range(1, m + 1):
            lo, hi = weil_interval(q, g, j)
            if not lo <= counts[j - 1] <= hi:
                return False
    return psd_check(gram_absolute(q, g, counts, m)).psd


def max_n1(problem: FeasibilityProblem) -> FeasibilityResult:
    """Largest N_1 admitting a feasible completion.

    Scans N_1 descending from the Weil upper end; completions ascend
    lexicographically, pruned on infeasible prefixes (sound because the
    order-(m-1) Gram is a leading principal submatrix of the order-m one).
    Each N_j ranges over the exact interval that keeps the Gram matrix PSD
    (see the module docstring), so skipped values are exactly those that
    `feasible_counts` would reject.  The first feasible vector found is the
    witness; `scanned` counts the vectors passed to `feasible_counts`.
    Always terminates with a result: (q+1, q^2+1, q^3+1) is feasible for
    every genus.
    """
    q, g, m, toggles = problem.q, problem.g, problem.m, problem.toggles
    intervals = [weil_interval(q, g, j) for j in range(1, m + 1)]
    scanned = 0

    def completions(prefix):
        nonlocal scanned
        scanned += 1
        if not feasible_counts(q, g, prefix, toggles):
            return None
        j = len(prefix) + 1
        if j > m:
            return prefix
        # the trailing 0 is a placeholder for t_j, which the interval replaces
        t = psd_corner_interval(gram_absolute(q, g, prefix + (0,), j))
        # N_j = q^j + 1 - t_j; an empty t leaves lo > hi
        lo, hi = intervals[j - 1]
        lo, hi = max(lo, q**j + 2 - t.stop), min(hi, q**j + 1 - t.start)
        step = 1
        if toggles:
            # N_j >= N_1 and N_j == N_1 (mod j) for j = 2, 3 (j <= MAX_ORDER)
            lo, step = max(lo, prefix[0]), j
            lo += (prefix[0] - lo) % j
        for nj in range(lo, hi + 1, step):
            found = completions(prefix + (nj,))
            if found is not None:
                return found
        return None

    lo1, hi1 = intervals[0]
    for n1 in range(hi1, lo1 - 1, -1):
        witness = completions((n1,))
        if witness is not None:
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


def ihara_closed_form(q: int, g: int) -> IharaClosedForm:
    """Closed-form solution of the order-2 relaxation (Schwarz for the
    combined vector q*frob^0 + frob^2 against frob^1, with N_2 >= N_1)."""
    if g == 0:
        raise ZeroGenus("closed form needs g >= 1")
    _check_genus(g)
    _check_field_size(q)
    radicand = g * g * (8 * q + 1) + 4 * g * q * (q - 1)
    linear = Fraction(2 * q + 2 - g, 2)
    floor = (2 * q + 2 - g + math.isqrt(radicand)) // 2
    return IharaClosedForm(radicand=radicand, linear=linear, floor=floor)
