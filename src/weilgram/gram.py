"""Exact integer Gram matrices of Frobenius iterate classes.

Three constructions share one shape.  With t_j = (q^j + 1) - N_j:

* absolute:  <v_i, v_i> = 2 g q^i,  <v_i, v_{i+j}> = q^i t_j(X);
* relative (cover X -> Y):   diagonal 2 (gX - gY) q^i,
  off-diagonal q^i (N_j(Y) - N_j(X));
* diagram (square X -> Y1, Y2 -> Z):  with G = gX - gY1 - gY2 + gZ,
  diagonal 2 G q^i, off-diagonal q^i (N_j(Y1) + N_j(Y2) - N_j(X) - N_j(Z)).

Only inner products are ever represented; the vectors themselves have no
finite description.  Positive semidefiniteness is decided exactly, in O(n^3)
integer operations, by one symmetric fraction-free elimination on positive
diagonal pivots (`is_psd`), so boundary cases with determinant exactly zero
are classified correctly.  The same elimination, carrying one extra column,
gives the exact integer range of one corner entry that keeps a matrix PSD
(`psd_corner_interval`).  Principal minors are enumerated only where their
values are the answer: the witness of `psd_check` and the margins of
`bounds`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Optional

from .errors import (
    DimensionMismatch,
    GenusOrder,
    IndexOutOfRange,
    InsufficientCounts,
    NegativeRelativeGenus,
    TooLarge,
)

# bounds the witness search of `psd_check`, which enumerates 2^n - 1 minors;
# `is_psd` has no order limit
PSD_MAX_ORDER = 8


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix of inner products, with labeled basis."""

    entries: tuple  # tuple of row tuples
    labels: tuple
    q: int

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]


@dataclass(frozen=True)
class PSDVerdict:
    psd: bool
    witness: Optional[tuple]  # index subset with negative principal minor


def _require_counts(counts, m: int, what: str):
    if len(counts) < m:
        raise InsufficientCounts(f"{what}: need {m} counts, have {len(counts)}")


def _toeplitz(q: int, c: int, t, m: int) -> tuple:
    """Order m + 1 entries with 2 c q^i at (i, i) and q^i t[j - 1] at
    (i, i + j) and (i + j, i): the shape all three constructions share."""
    if m < 0:
        raise DimensionMismatch(f"Gram order m must be >= 0, got {m}")
    size = m + 1
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        qi = q**i
        entries[i][i] = 2 * c * qi
        for j in range(1, size - i):
            entries[i][i + j] = entries[i + j][i] = qi * t[j - 1]
    return tuple(map(tuple, entries))


@lru_cache(maxsize=64)
def _labels(kind: str, m: int) -> tuple:
    """The basis labels frob^0|kind .. frob^m|kind, built once per order."""
    return tuple(f"frob^{i}|{kind}" for i in range(m + 1))


def gram_absolute(q: int, g: int, counts, m: int) -> GramMatrix:
    """Gram matrix of the 0th..mth Frobenius iterate classes of one curve."""
    _require_counts(counts, m, "absolute")
    t = [(q**j + 1) - counts[j - 1] for j in range(1, m + 1)]
    return GramMatrix(
        entries=_toeplitz(q, g, t, m),
        labels=_labels("absolute", m),
        q=q,
    )


def gram_relative(q: int, gX: int, gY: int, countsX, countsY, m: int) -> GramMatrix:
    """Gram matrix of the relative parts for a cover X -> Y."""
    if gX < gY:
        raise GenusOrder(f"cover needs gX >= gY, got {gX} < {gY}")
    _require_counts(countsX, m, "relative X")
    _require_counts(countsY, m, "relative Y")
    t = [countsY[j - 1] - countsX[j - 1] for j in range(1, m + 1)]
    return GramMatrix(
        entries=_toeplitz(q, gX - gY, t, m),
        labels=_labels("relative", m),
        q=q,
    )


def gram_diagram(q: int, genera, counts, m: int) -> GramMatrix:
    """Gram matrix of the square-diagram parts for X -> Y1, Y2 -> Z."""
    gX, gY1, gY2, gZ = genera
    G = gX - gY1 - gY2 + gZ
    if G < 0:
        raise NegativeRelativeGenus(
            f"gX - gY1 - gY2 + gZ = {G} < 0: not a valid diagram"
        )
    countsX, countsY1, countsY2, countsZ = counts
    for label, series in zip("X Y1 Y2 Z".split(), counts):
        _require_counts(series, m, f"diagram {label}")
    t = [countsY1[j - 1] + countsY2[j - 1] - countsX[j - 1] - countsZ[j - 1]
         for j in range(1, m + 1)]
    return GramMatrix(
        entries=_toeplitz(q, G, t, m),
        labels=_labels("diagram", m),
        q=q,
    )


def _square(rows) -> int:
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch(f"need a square matrix, got row lengths "
                                f"{[len(row) for row in rows]}")
    return n


def _entries_of(M, symmetric: bool = False) -> tuple:
    """The entries of M as integer row tuples.  A GramMatrix is square and
    symmetric by construction; other input is checked here."""
    if isinstance(M, GramMatrix):
        return M.entries
    entries = tuple(tuple(int(x) for x in row) for row in M)
    n = _square(entries)
    if symmetric and any(entries[i][j] != entries[j][i]
                         for i in range(n) for j in range(i)):
        raise DimensionMismatch("need a symmetric matrix")
    return entries


def int_det(rows) -> int:
    """Exact determinant of a square integer matrix by fraction-free
    elimination."""
    M = [list(row) for row in rows]
    n = _square(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            piv = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def principal_minors(M):
    """Yield (subset, det) for every principal minor of M, the index subsets
    as sorted tuples in lexicographic order.  Orders 1 and 2 are the closed
    forms a and a d - b c; int_det takes order 3 and up."""
    entries = _entries_of(M)
    n = len(entries)
    subsets = sorted(s for size in range(1, n + 1) for s in combinations(range(n), size))
    for subset in subsets:
        if len(subset) == 1:
            (r,) = subset
            yield subset, entries[r][r]
        elif len(subset) == 2:
            r, c = subset
            yield subset, entries[r][r] * entries[c][c] - entries[r][c] * entries[c][r]
        else:
            yield subset, int_det([[entries[r][c] for c in subset] for r in subset])


def _eliminate(B, n: int) -> Optional[list]:
    """Eliminate the symmetric integer matrix B in place, fraction-free,
    pivoting only on positive diagonal entries among indices 0..n-1; the
    rows and columns from n on are updated but never pivoted on.  A row from
    n on is updated only in the columns from n on: by symmetry its other
    entries are those of its column, which is kept current, and the update
    reads the pivot row B[k], never the pivot column.

    After the pivots K taken so far, each entry (i, j) left equals
    det(B[K]) times the Schur complement entry, with det(B[K]) > 0 the last
    pivot: the same signs, and B is PSD iff that complement is.  Once no
    positive pivot is left, every remaining diagonal entry below n is <= 0,
    so the leading n x n block is PSD exactly when what is left of it is all
    zero.  Returns the indices below n left without a pivot, or None when
    the leading block is not PSD."""
    rest = list(range(n))
    tail = list(range(n, len(B)))
    prev = 1
    while True:
        for k in rest:  # the first positive pivot, without a generator: this is hot
            if B[k][k] > 0:
                break
        else:
            return None if rest and any(B[i][j] for i in rest for j in rest) else rest
        rest.remove(k)
        row_k = B[k]
        p = row_k[k]
        cols = rest + tail
        for i in rest:
            row_i, bik = B[i], row_k[i]
            for j in cols:
                row_i[j] = (p * row_i[j] - bik * row_k[j]) // prev
        for i in tail:
            row_i, bik = B[i], row_k[i]
            for j in tail:
                row_i[j] = (p * row_i[j] - bik * row_k[j]) // prev
        prev = p


def is_psd(M) -> bool:
    """Exact PSD test of a symmetric integer matrix of any order, in O(n^3)
    integer operations (see `_eliminate`)."""
    B = [list(row) for row in _entries_of(M, symmetric=True)]
    return _eliminate(B, len(B)) is not None


def psd_check(M) -> PSDVerdict:
    """Exact PSD test with a witness: the verdict is `is_psd`'s, and a
    matrix that is not PSD has a negative principal minor.

    The witness, if any, is the lexicographically first index subset (as a
    sorted tuple) whose principal minor is negative; only it enumerates
    minors, so the order is capped at PSD_MAX_ORDER."""
    entries = _entries_of(M, symmetric=True)
    n = len(entries)
    if n > PSD_MAX_ORDER:
        raise TooLarge(f"order {n} exceeds the exact-minor limit {PSD_MAX_ORDER}")
    if is_psd(M):
        return PSDVerdict(psd=True, witness=None)
    witness = next(subset for subset, det in principal_minors(entries) if det < 0)
    return PSDVerdict(psd=False, witness=witness)


def psd_corner_interval(M) -> range:
    """Integers x such that M is PSD with x at (0, n) and (n, 0), n = order - 1.

    The given (0, n) entry is ignored.  M is checked to be a square symmetric
    integer matrix of order >= 2; the interval is `_corner_interval`'s."""
    entries = _entries_of(M, symmetric=True)
    if len(entries) < 2:
        raise DimensionMismatch(f"a corner entry needs order >= 2, got {len(entries)}")
    return _corner_interval(entries)


def _corner_interval(entries) -> range:
    """`psd_corner_interval` of the integer rows `entries`, a symmetric
    matrix of order n + 1 >= 2, taken as given.

    Column n is split as v + x*u, with u = e_0, and the leading n x n block
    A is bordered by v and u:

        [[A, v, u], [v^T, M[n][n], 0], [u^T, 0, 0]]

    `_eliminate` pivots on A alone.  Each remaining column entry is then the
    affine function u*x + v, and the corner the quadratic a*x^2 + b*x + c
    with (c, b/2, a) the bottom 2 x 2 block.  Once no positive pivot is left,
    the rest of A must be zero (else A is not PSD and the range is empty),
    and so must each column entry left beside it: u != 0 pins x to -v/u,
    u == 0 needs v == 0.  Last, the corner must be >= 0, a concave quadratic
    whose integer roots come exactly from isqrt.
    """
    n = len(entries) - 1
    B = [[*row, 0] for row in entries] + [[0] * (n + 2)]
    B[0][n] = B[n][0] = 0
    B[0][n + 1] = B[n + 1][0] = 1
    rest = _eliminate(B, n)
    empty = range(0)
    if rest is None:
        return empty
    c, b, a = B[n][n], 2 * B[n][n + 1], B[n + 1][n + 1]
    pin = None
    for i in rest:
        v, u = B[i][n:]
        if (u, v) == (0, 0):
            continue
        if u == 0 or v % u or pin not in (None, -v // u):
            return empty
        pin = -v // u
    if pin is not None:
        return range(pin, pin + 1) if (a * pin + b) * pin + c >= 0 else empty
    # x is unpinned only if some pivot had u != 0, and then a < 0
    disc = b * b - 4 * a * c
    if disc < 0:
        return empty
    # the roots are (b -+ sqrt(disc)) / den; for integers b and den > 0,
    # floor((b + sqrt(d)) / den) == floor((b + isqrt(d)) / den), and the
    # same holds for the ceiling of (b - sqrt(d)) / den
    root, den = math.isqrt(disc), -2 * a
    return range(-((root - b) // den), (b + root) // den + 1)


def schwarz_margin(M, i: int, j: int) -> int:
    """M[i][i] M[j][j] - M[i][j]^2: nonnegative iff the Cauchy-Schwarz
    inequality holds for that pair of basis vectors."""
    entries = _entries_of(M)
    n = len(entries)
    if not (0 <= i < n and 0 <= j < n) or i == j:
        raise IndexOutOfRange(f"need two distinct indices in [0, {n}), got {i}, {j}")
    return entries[i][i] * entries[j][j] - entries[i][j] ** 2


def combined_vector_gram(M: GramMatrix, combos) -> GramMatrix:
    """Gram matrix of integer linear combinations of the basis vectors,
    via the congruence transform C M C^T in exact arithmetic."""
    entries = _entries_of(M)
    n = len(entries)
    combos = [tuple(int(x) for x in combo) for combo in combos]
    for combo in combos:
        if len(combo) != n:
            raise DimensionMismatch(f"combo {combo} has length {len(combo)}, need {n}")
    size = len(combos)
    out = [[0] * size for _ in range(size)]
    for r in range(size):
        for s in range(size):
            acc = 0
            for a in range(n):
                if combos[r][a] == 0:
                    continue
                for b in range(n):
                    acc += combos[r][a] * entries[a][b] * combos[s][b]
            out[r][s] = acc
    labels = tuple(
        "+".join(f"{c}*{M.labels[a] if isinstance(M, GramMatrix) else a}"
                 for a, c in enumerate(combo) if c != 0) or "0"
        for combo in combos
    )
    return GramMatrix(
        entries=tuple(tuple(row) for row in out),
        labels=labels,
        q=M.q if isinstance(M, GramMatrix) else 0,
    )
