"""Exact integer Gram matrices of Frobenius iterate classes.

Three constructions share one shape.  With t_j = (q^j + 1) - N_j:

* absolute:  <v_i, v_i> = 2 g q^i,  <v_i, v_{i+j}> = q^i t_j(X);
* relative (cover X -> Y):   diagonal 2 (gX - gY) q^i,
  off-diagonal q^i (N_j(Y) - N_j(X));
* diagram (square X -> Y1, Y2 -> Z):  with G = gX - gY1 - gY2 + gZ,
  diagonal 2 G q^i, off-diagonal q^i (N_j(Y1) + N_j(Y2) - N_j(X) - N_j(Z)).

Only inner products are ever represented; the vectors themselves have no
finite description.  All three are `_toeplitz(q, c, t, m)`: G = D T D with
D = diag(q^{i/2}) and T Toeplitz, so G is PSD exactly when T is.  Levinson's
recursion decides that exactly, fraction-free, in O(m^2) integer steps
(`_levinson_step`), so boundary cases with determinant exactly zero are
classified correctly.  Its state, the leading determinant and an integer
predictor, gives the verdict (`is_psd`, and the RH check of `zeta`) and, by
one isqrt, the exact integer range of the next t_n that keeps G PSD
(`_levinson_interval`, the scan of `feasibility`).  Principal minors are
enumerated only where their values are the answer: `psd_check`, which
decides any symmetric matrix up to order 8 and names the first negative
minor, and the margins of `bounds`.
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

# bounds `psd_check`, which enumerates 2^n - 1 minors; `is_psd` has no order
# limit
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


def _levinson_state(q: int, c: int, t):
    """The state (P, d) of the Gram `_toeplitz(q, c, t, len(t))`, or None
    when that Gram is not PSD; q >= 1 is taken as given.  d is the Gram's
    determinant and P the integer predictor of `_levinson_step`.  The state
    of t = () is ((1,), 2c): d_{-1} = 1 and d_0 = 2c."""
    if c < 0:
        return None
    state = ((1,), 2 * c)
    for n in range(1, len(t) + 1):
        state = _levinson_step(q, state, t[:n])
        if state is None:
            return None
    return state


def _levinson_step(q: int, state, t):
    """The state of t from the state (P, d_{n-1}) of t[:-1], n = len(t), or
    None when the Gram of t is not PSD.

    G = D T D with D = diag(q^{i/2}) and T the Toeplitz matrix of 2c and
    t_j q^{-j/2}, so G is PSD exactly when T is.  This is one step of
    Levinson's recursion on T, fraction-free: with d_n = det G_{0..n}, the
    predictor scaled as alpha_i = a_i q^{i/2} and P = d_{n-2} alpha, which
    Cramer's rule makes integral,

        R    = sum_i P_i t_{n-i},
        d_n  = (q d_{n-1}^2 - q^{n-1} R^2) / d_{n-2},
        P'_i = (d_{n-1} P_i - q^{i-1} R P_{n-i}) / d_{n-2}   (P'_0 = d_{n-1}),

    both divisions exact, with d_{n-2} = P_0 > 0.  G is PSD while every
    d_n >= 0.  Once some d_n = 0, T_{0..n} has the predictor as a kernel
    vector and its PSD extension is unique: G stays PSD exactly when that
    frozen P annihilates every later t (R = 0), so the state is kept."""
    P, d = state
    R = sum(p * x for p, x in zip(P, reversed(t)))
    if d == 0:
        return state if R == 0 else None
    d_n = (q * d * d - q ** (len(t) - 1) * R * R) // P[0]
    if d_n < 0:
        return None
    nxt, qi = [d], R  # qi = q^{i-1} R
    for a, b in zip(P[1:] + (0,), reversed(P)):
        nxt.append((d * a - qi * b) // P[0])
        qi *= q
    return tuple(nxt), d_n


def _levinson_interval(q: int, state, t) -> range:
    """The integers t_n, n = len(t) + 1, that keep the Gram of t + (t_n,)
    PSD, from the state (P, d_{n-1}) of t, whose Gram is PSD.

    R = P_0 t_n + B, with B the rest of `_levinson_step`'s sum, and
    d_n >= 0 reads R^2 <= q d_{n-1}^2 / q^{n-1}, so for an integer R
    |R| <= isqrt(q d_{n-1}^2 // q^{n-1}): one isqrt, exact.  A frozen state
    (d_{n-1} = 0) leaves R = 0 alone, which pins t_n to -B / P_0, or leaves
    nothing when that is not an integer."""
    P, d = state
    B = sum(p * x for p, x in zip(P[1:], reversed(t)))
    r = math.isqrt(q * d * d // q ** len(t))
    return range(-((r + B) // P[0]), (r - B) // P[0] + 1)


def is_psd(M: GramMatrix) -> bool:
    """Exact PSD test of a GramMatrix of the shape all three constructions
    share, `_toeplitz(q, c, t, m)` with q >= 1, in O(m^2) integer steps
    (`_levinson_state`).  Anything else, plain rows included, raises
    DimensionMismatch; `psd_check` decides any symmetric matrix up to
    order PSD_MAX_ORDER."""
    if not isinstance(M, GramMatrix) or M.q < 1 or not M.entries:
        raise DimensionMismatch("is_psd needs a GramMatrix of Frobenius iterates with q >= 1")
    c, t = M[0][0] // 2, M[0][1:]
    if M.entries != _toeplitz(M.q, c, t, len(t)):
        raise DimensionMismatch("is_psd needs a GramMatrix of Frobenius iterates: "
                                "2 c q^i on the diagonal, q^i t_j at (i, i + j)")
    return _levinson_state(M.q, c, t) is not None


def psd_check(M) -> PSDVerdict:
    """Exact PSD test with a witness, for a symmetric integer matrix of order
    at most PSD_MAX_ORDER: it is PSD exactly when no principal minor is
    negative, and the witness, if any, is the lexicographically first index
    subset (as a sorted tuple) whose minor is, in one `principal_minors`
    pass."""
    entries = _entries_of(M, symmetric=True)
    n = len(entries)
    if n > PSD_MAX_ORDER:
        raise TooLarge(f"order {n} exceeds the exact-minor limit {PSD_MAX_ORDER}")
    witness = next((subset for subset, det in principal_minors(entries) if det < 0), None)
    return PSDVerdict(psd=witness is None, witness=witness)


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
