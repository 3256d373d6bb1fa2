"""Exact integer Gram matrices of Frobenius iterate classes.

Three constructions share one shape.  With t_j = (q^j + 1) - N_j:

* absolute:  <v_i, v_i> = 2 g q^i,  <v_i, v_{i+j}> = q^i t_j(X);
* relative (cover X -> Y):   diagonal 2 (gX - gY) q^i,
  off-diagonal q^i (N_j(Y) - N_j(X));
* diagram (square X -> Y1, Y2 -> Z):  with G = gX - gY1 - gY2 + gZ,
  diagonal 2 G q^i, off-diagonal q^i (N_j(Y1) + N_j(Y2) - N_j(X) - N_j(Z)).

Only inner products are ever represented; the vectors themselves have no
finite description.  Positive semidefiniteness is decided exactly by integer
determinants of all principal minors (fraction-free Bareiss elimination), so
boundary cases with determinant exactly zero are classified correctly.  The
same elimination, pivoted symmetrically, gives the exact integer range of one
corner entry that keeps a matrix PSD (`psd_corner_interval`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

PSD_MAX_ORDER = 8


@dataclass(frozen=True)
class GramMatrix:
    """Symmetric integer matrix of inner products, with labeled basis."""

    entries: tuple  # tuple of row tuples
    labels: tuple
    q: int
    provenance: dict

    @property
    def order(self) -> int:
        return len(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]


@dataclass(frozen=True)
class PSDVerdict:
    psd: bool
    witness: Optional[tuple]  # index subset with negative principal minor


def _counts_at(counts, j: int) -> int:
    return counts[j - 1]


def _require_counts(counts, m: int, what: str):
    if len(counts) < m:
        raise InsufficientCounts(f"{what}: need {m} counts, have {len(counts)}")


def gram_absolute(q: int, g: int, counts, m: int) -> GramMatrix:
    """Gram matrix of the 0th..mth Frobenius iterate classes of one curve."""
    _require_counts(counts, m, "absolute")
    size = m + 1
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = 2 * g * q**i
        for j in range(1, size - i):
            val = q**i * ((q**j + 1) - _counts_at(counts, j))
            entries[i][i + j] = entries[i + j][i] = val
    return GramMatrix(
        entries=tuple(tuple(row) for row in entries),
        labels=tuple(f"frob^{i}|absolute" for i in range(size)),
        q=q,
        provenance={"genus": g, "counts": tuple(counts[:m])},
    )


def gram_relative(q: int, gX: int, gY: int, countsX, countsY, m: int) -> GramMatrix:
    """Gram matrix of the relative parts for a cover X -> Y."""
    if gX < gY:
        raise GenusOrder(f"cover needs gX >= gY, got {gX} < {gY}")
    _require_counts(countsX, m, "relative X")
    _require_counts(countsY, m, "relative Y")
    size = m + 1
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = 2 * (gX - gY) * q**i
        for j in range(1, size - i):
            val = q**i * (_counts_at(countsY, j) - _counts_at(countsX, j))
            entries[i][i + j] = entries[i + j][i] = val
    return GramMatrix(
        entries=tuple(tuple(row) for row in entries),
        labels=tuple(f"frob^{i}|relative" for i in range(size)),
        q=q,
        provenance={"genera": (gX, gY),
                    "counts": (tuple(countsX[:m]), tuple(countsY[:m]))},
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
    size = m + 1
    entries = [[0] * size for _ in range(size)]
    for i in range(size):
        entries[i][i] = 2 * G * q**i
        for j in range(1, size - i):
            val = q**i * (
                _counts_at(countsY1, j) + _counts_at(countsY2, j)
                - _counts_at(countsX, j) - _counts_at(countsZ, j)
            )
            entries[i][i + j] = entries[i + j][i] = val
    return GramMatrix(
        entries=tuple(tuple(row) for row in entries),
        labels=tuple(f"frob^{i}|diagram" for i in range(size)),
        q=q,
        provenance={"genera": tuple(genera),
                    "counts": tuple(tuple(c[:m]) for c in counts)},
    )


def _entries_of(M) -> tuple:
    if isinstance(M, GramMatrix):
        return M.entries
    return tuple(tuple(int(x) for x in row) for row in M)


def int_det(rows) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    M = [list(row) for row in rows]
    n = len(M)
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


def psd_check(M) -> PSDVerdict:
    """Exact PSD test: every principal minor must be nonnegative.

    The witness, if any, is the lexicographically first index subset (as a
    sorted tuple) whose principal minor is negative."""
    entries = _entries_of(M)
    n = len(entries)
    if n > PSD_MAX_ORDER:
        raise TooLarge(f"order {n} exceeds the exact-minor limit {PSD_MAX_ORDER}")
    subsets = []
    for size in range(1, n + 1):
        subsets.extend(combinations(range(n), size))
    for subset in sorted(subsets):
        sub = [[entries[r][c] for c in subset] for r in subset]
        if int_det(sub) < 0:
            return PSDVerdict(psd=False, witness=subset)
    return PSDVerdict(psd=True, witness=None)


def psd_corner_interval(M) -> range:
    """Integers x such that M is PSD with x at (0, n) and (n, 0), n = order - 1.

    The given (0, n) entry is ignored.  The leading n x n block is eliminated
    symmetrically and fraction-free, always on a positive diagonal pivot,
    carrying column n as affine functions u*x + v and the corner as a
    quadratic a*x^2 + b*x + c.  Each step scales the Schur complement by a
    positive factor, so the PSD condition is kept.  Once no positive pivot is
    left, the rest of the block must be zero (else the block is not PSD and
    the range is empty), and so must each remaining column entry: u != 0 pins
    x to -v/u, u == 0 needs v == 0.  Last, the corner must be >= 0, a concave
    quadratic whose integer roots come exactly from isqrt.
    """
    entries = _entries_of(M)
    n = len(entries) - 1
    if n < 1:
        raise DimensionMismatch(f"a corner entry needs order >= 2, got {n + 1}")
    block = [list(row[:n]) for row in entries[:n]]
    column = [(1 if i == 0 else 0, 0 if i == 0 else entries[i][n]) for i in range(n)]
    a, b, c = 0, 0, entries[n][n]
    rest = list(range(n))
    prev = 1
    while (k := next((i for i in rest if block[i][i] > 0), None)) is not None:
        rest.remove(k)
        p = block[k][k]
        uk, vk = column[k]
        for i in rest:
            bik = block[i][k]
            for j in rest:
                block[i][j] = (p * block[i][j] - bik * block[k][j]) // prev
            ui, vi = column[i]
            column[i] = ((p * ui - bik * uk) // prev, (p * vi - bik * vk) // prev)
        a = (p * a - uk * uk) // prev
        b = (p * b - 2 * uk * vk) // prev
        c = (p * c - vk * vk) // prev
        prev = p
    empty = range(0)
    if any(block[i][j] for i in rest for j in rest):
        return empty
    pin = None
    for u, v in (column[i] for i in rest):
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
        provenance={"combined_from": getattr(M, "provenance", None),
                    "combos": tuple(combos)},
    )
