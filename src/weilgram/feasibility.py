"""Maximize N_1 over integer count vectors under exact PSD and place constraints.

A count vector (N_1, .., N_m) is *feasible* when the absolute Gram matrix it
induces is positive semidefinite and, optionally, when the place counts of
degree 1, 2 and 3 it implies are nonnegative integers:

    N_1 >= 0                            (degree-1 places)
    N_2 >= N_1 and N_2 == N_1 (mod 2)   (degree-2 places)
    N_3 >= N_1 and N_3 == N_1 (mod 3)   (degree-3 places)

Each N_j also lies in its Weil interval, because the 2x2 principal minor
indexed {0, j} is exactly the Weil inequality; no separate test is needed.

The search is an exact integer interval scan.  In the Gram matrix of a prefix
(N_1, .., N_j), the count N_j enters only through t_j = q^j + 1 - N_j at the
corner (0, j), so given a PSD prefix of length j - 1 the values of N_j that
keep it PSD form an interval, computed exactly by `psd_corner_interval`.
Every scan range is that interval, intersected, when toggled, with the
place-count constraints.  For N_1 the Gram matrix is the 2x2 one of order 1,
so its corner interval is exactly N_1's Weil interval; for j >= 2 the corner
interval already lies inside N_j's.  So every vector the scan reaches is
feasible, the first complete one is the witness, and only the witness passes
through `feasible_counts`, as a check.  No floating-point value enters the
search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, NegativeGenus, TooLarge, ZeroGenus
from .finite_field import check_prime_power
from .gram import gram_absolute, is_psd, psd_corner_interval

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
    """True iff the induced absolute Gram is PSD (`gram.is_psd`, one
    elimination) and, when toggled, the place-count constraints all hold.
    The Weil intervals need no test of their own: the {0, j} principal minor
    is exactly the Weil inequality."""
    _check_genus(g)
    counts = tuple(counts)
    m = len(counts)
    if m > MAX_ORDER:
        raise TooLarge(f"count vector length {m} exceeds {MAX_ORDER}")
    if toggles:
        if m >= 1 and counts[0] < 0:
            return False
        for j in range(2, m + 1):
            if counts[j - 1] < counts[0] or (counts[j - 1] - counts[0]) % j != 0:
                return False
    return is_psd(gram_absolute(q, g, counts, m))


def max_n1(problem: FeasibilityProblem) -> FeasibilityResult:
    """Largest N_1 admitting a feasible completion.

    Scans N_1 descending from the Weil upper end; completions ascend
    lexicographically, pruned on infeasible prefixes (sound because the
    order-(m-1) Gram is a leading principal submatrix of the order-m one).
    Each N_j ranges over the exact interval that keeps the Gram matrix PSD
    (see the module docstring), so skipped values are exactly those that
    `feasible_counts` would reject, and a prefix whose interval for the next
    count is empty has no completion.  The first complete vector reached is
    the witness; `scanned` counts the vectors visited, prefixes and the
    witness.  Always terminates with a result: (q+1, q^2+1, q^3+1) is
    feasible for every genus.
    """
    q, g, m, toggles = problem.q, problem.g, problem.m, problem.toggles
    scanned = 0

    def scan_range(prefix):
        """[lo, hi] of N_j, j = len(prefix) + 1: the PSD corner interval."""
        j = len(prefix) + 1
        # the trailing 0 is a placeholder for t_j, which the interval replaces
        t = psd_corner_interval(gram_absolute(q, g, prefix + (0,), j))
        # N_j = q^j + 1 - t_j; an empty t leaves lo > hi
        return q**j + 2 - t.stop, q**j + 1 - t.start

    def completions(prefix):
        nonlocal scanned
        scanned += 1
        j = len(prefix) + 1
        if j > m:
            return prefix
        lo, hi = scan_range(prefix)
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

    lo1, hi1 = scan_range(())
    for n1 in range(hi1, lo1 - 1, -1):
        witness = completions((n1,))
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


def ihara_closed_form(q: int, g: int) -> IharaClosedForm:
    """Closed-form solution of the order-2 relaxation (Schwarz for the
    combined vector q*frob^0 + frob^2 against frob^1, with N_2 >= N_1)."""
    if g == 0:
        raise ZeroGenus("closed form needs g >= 1")
    _check_genus(g)
    check_prime_power(q)
    radicand = g * g * (8 * q + 1) + 4 * g * q * (q - 1)
    linear = Fraction(2 * q + 2 - g, 2)
    floor = (2 * q + 2 - g + math.isqrt(radicand)) // 2
    return IharaClosedForm(radicand=radicand, linear=linear, floor=floor)
