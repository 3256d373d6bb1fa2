"""Exact Gram matrices, PSD verdicts, and congruence transforms."""

import dataclasses
import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgram.curves import count_series, make_biquadratic
from weilgram.errors import (
    DimensionMismatch,
    WeilgramError,
    GenusOrder,
    IndexOutOfRange,
    InsufficientCounts,
    NegativeRelativeGenus,
    TooLarge,
)
from weilgram.feasibility import FeasibilityProblem, max_n1
from weilgram.finite_field import construct_field
from weilgram.gram import (
    _levinson_interval,
    _levinson_state,
    _toeplitz,
    combined_vector_gram,
    gram_absolute,
    gram_diagram,
    gram_relative,
    int_det,
    is_psd,
    principal_minors,
    psd_check,
    schwarz_margin,
)

from oracles import (
    corner_interval_by_elimination,
    counts_from_l,
    gauss_det,
    psd_by_eigenvalues,
    psd_by_elimination,
    psd_by_minors,
)

F3 = construct_field(3, 1)

SUPERSINGULAR = gram_absolute(3, 1, (4, 16), 2)
MAXIMAL = gram_absolute(3, 1, (7, 7), 2)


# --- constructors ----------------------------------------------------------

def test_gram_absolute_supersingular_anchor():
    assert SUPERSINGULAR.entries == ((2, 0, -6), (0, 6, 0), (-6, 0, 18))
    assert SUPERSINGULAR.labels == ("frob^0|absolute", "frob^1|absolute",
                                    "frob^2|absolute")
    assert SUPERSINGULAR.q == 3


def test_gram_absolute_genus_zero_is_zero_matrix():
    for q in (3, 5, 9):
        M = gram_absolute(q, 0, (q + 1, q**2 + 1), 2)
        assert M.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


def test_gram_absolute_maximal_anchor():
    assert MAXIMAL.entries == ((2, -3, 3), (-3, 6, -9), (3, -9, 18))


def test_gram_absolute_insufficient_counts():
    with pytest.raises(InsufficientCounts):
        gram_absolute(3, 1, (4,), 2)


def test_gram_relative_anchors():
    M = gram_relative(3, 1, 0, (4, 16), (4, 10), 1)
    assert M.entries == ((2, 0), (0, 6))
    same = gram_relative(3, 1, 1, (4, 16), (4, 16), 1)
    assert same.entries == ((0, 0), (0, 0))
    near = gram_relative(3, 1, 0, (7, 7), (4, 10), 1)
    assert near.entries == ((2, -3), (-3, 6))
    with pytest.raises(GenusOrder):
        gram_relative(3, 0, 1, (4, 10), (4, 16), 1)


def test_gram_diagram_anchors():
    M = gram_diagram(3, (3, 1, 0, 0), ((2,), (4,), (4,), (4,)), 1)
    assert M.entries == ((4, 2), (2, 12))
    with pytest.raises(NegativeRelativeGenus):
        gram_diagram(3, (1, 1, 1, 0), ((4,), (4,), (4,), (4,)), 1)
    lines = gram_diagram(3, (0, 0, 0, 0), ((4,), (4,), (4,), (4,)), 1)
    assert lines.entries == ((0, 0), (0, 0))


def test_gram_builders_order_zero_and_negative():
    builders = (
        lambda m: gram_absolute(3, 1, (4, 16), m),
        lambda m: gram_relative(3, 1, 0, (4, 16), (4, 10), m),
        lambda m: gram_diagram(3, (3, 1, 0, 0), ((2,), (4,), (4,), (4,)), m),
    )
    for build, diagonal in zip(builders, (2, 2, 4)):
        M = build(0)
        assert M.entries == ((diagonal,),) and M.order == 1
        for m in (-1, -2):
            with pytest.raises(DimensionMismatch) as info:
                build(m)
            assert isinstance(info.value, WeilgramError)


# --- determinants and PSD --------------------------------------------------

def test_psd_anchors():
    v = psd_check(SUPERSINGULAR)
    assert v.psd and v.witness is None
    assert int_det(SUPERSINGULAR.entries) == 0  # boundary case
    v = psd_check([[4, 2], [2, 12]])
    assert v.psd
    assert int_det([[4, 2], [2, 12]]) == 44
    v = psd_check([[1, 2], [2, 1]])
    assert not v.psd
    assert v.witness == (0, 1)
    v = psd_check([[-1]])
    assert not v.psd and v.witness == (0,)


def test_psd_witness_is_lexicographically_first():
    # index 1 alone is fine; {0,1} has minor -1; {0} comes before {0,1}
    M = [[0, 1], [1, 5]]
    assert psd_check(M).witness == (0, 1)
    M = [[-1, 0], [0, -2]]
    assert psd_check(M).witness == (0,)


def test_principal_minors_order_and_values():
    M = [[2, 1, 0], [1, -3, 4], [0, 4, 5]]
    minors = list(principal_minors(M))
    assert [subset for subset, _ in minors] == [
        (0,), (0, 1), (0, 1, 2), (0, 2), (1,), (1, 2), (2,)]
    for subset, det in minors:
        assert det == gauss_det([[M[r][c] for c in subset] for r in subset])
    assert list(principal_minors([])) == []
    # no order cap here: an order-9 matrix has 2^9 - 1 minors
    assert sum(1 for _ in principal_minors([[0] * 9 for _ in range(9)])) == 511


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_principal_minors_match_the_int_det_enumeration(rows):
    """The closed forms for orders 1 and 2 give the subsets, order and values
    of int_det on every principal submatrix, symmetric or not."""
    n = len(rows)
    subsets = sorted(s for size in range(1, n + 1) for s in combinations(range(n), size))
    want = [(s, int_det([[rows[r][c] for c in s] for r in s])) for s in subsets]
    assert list(principal_minors(rows)) == want


def test_psd_order_limit():
    with pytest.raises(TooLarge):
        psd_check([[0] * 9 for _ in range(9)])


@pytest.mark.parametrize("order", [9, 12])
def test_is_psd_decides_past_the_witness_limit(order):
    # V V^T with rows 2 and 5 of V zero; a 1 at (2, 5) and (5, 2) then makes
    # the {2, 5} minor 0 * 0 - 1 = -1.  No Gram of Frobenius iterates has
    # this shape, so the elimination oracle decides it.
    V = [[0] * 4 if i in (2, 5) else [(i * k) % 5 - 2 for k in range(1, 5)]
         for i in range(order)]
    M = [[sum(a * b for a, b in zip(u, v)) for v in V] for u in V]
    with pytest.raises(TooLarge):
        psd_check(M)
    assert psd_by_elimination(M)
    M[2][5] = M[5][2] = 1
    with pytest.raises(TooLarge):
        psd_check(M)
    assert not psd_by_elimination(M)
    # the Gram of a genus-3 L over F_4 with a repeated inverse-root pair:
    # PSD of rank 4, so singular from order 5 on, and not PSD once its last
    # count moves by 1
    counts = [int(n) for n in counts_from_l(4, _l_of(4, (2, 2, -3)), order - 1)]
    G = gram_absolute(4, 3, counts, order - 1)
    with pytest.raises(TooLarge):
        psd_check(G)
    assert is_psd(G) and psd_by_elimination(G.entries)
    counts[-1] += 1
    G = gram_absolute(4, 3, counts, order - 1)
    assert not is_psd(G) and not psd_by_elimination(G.entries)


# V V^T with some rows of V zeroed, so zero diagonals and zero pivots are
# common, then one symmetric pair (or one diagonal entry) moved by delta
@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(st.booleans(), min_size=n, max_size=n),
    st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-2, 2))))
def test_is_psd_matches_minors_oracle_with_zero_diagonals(case):
    """The elimination oracle, the reference for `is_psd` past order 8,
    agrees with the minors on general symmetric matrices."""
    V, zero, i, j, delta = case
    V = [[0] * len(row) if z else row for row, z in zip(V, zero)]
    M = [[sum(a * b for a, b in zip(u, v)) for v in V] for u in V]
    M[i][j] += delta
    if i != j:
        M[j][i] += delta
    assert psd_by_elimination(M) == psd_by_minors(M), M


def test_non_square_matrix_is_rejected():
    with pytest.raises(DimensionMismatch):
        psd_check([[1, 2]])
    with pytest.raises(DimensionMismatch):
        is_psd([[1, 2]])


def test_ragged_rows_are_rejected():
    for check in (psd_check, int_det, is_psd):
        with pytest.raises(DimensionMismatch):
            check([[1], [2]])


def test_asymmetric_matrix_is_rejected():
    for check in (psd_check, is_psd):
        with pytest.raises(DimensionMismatch):
            check([[1, 2], [3, 4]])
    assert int_det([[1, 2], [3, 4]]) == -2


def test_int_det_edge_cases():
    assert int_det([]) == 1
    assert int_det([[7]]) == 7
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[0, 0], [0, 5]]) == 0


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-30, 30), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_int_det_matches_fraction_elimination(rows):
    assert int_det(rows) == gauss_det(rows)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=4),
                       min_size=n, max_size=n)))
def test_gram_of_explicit_vectors_is_psd(vectors):
    k = min(len(v) for v in vectors)
    M = [[sum(u[i] * v[i] for i in range(k)) for v in vectors] for u in vectors]
    verdict = psd_check(M)
    assert verdict.psd, M
    assert psd_by_eigenvalues(M)


@settings(max_examples=60, deadline=None)
@given(
    vectors=st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                     min_size=3, max_size=3),
    combos=st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
                    min_size=1, max_size=3),
)
def test_congruence_transform_preserves_psd(vectors, combos):
    base = [[sum(u[i] * v[i] for i in range(3)) for v in vectors] for u in vectors]
    assert psd_check(base).psd
    out = combined_vector_gram(base, combos)
    assert psd_check(out).psd


# --- exact corner intervals ------------------------------------------------

def _with_corner(rows, x):
    out = [list(row) for row in rows]
    out[0][-1] = out[-1][0] = x
    return out


def _assert_interval_matches_psd_check(rows, window):
    assert psd_by_elimination(rows) == psd_check(rows).psd, rows
    interval = corner_interval_by_elimination(rows)
    for x in window:
        with_x = _with_corner(rows, x)
        verdict = psd_check(with_x).psd
        assert psd_by_elimination(with_x) == verdict, (rows, x)
        assert (x in interval) == verdict, (rows, x)
    return interval


# V V^T for V of (order) rows and rank-bounding width 0..order, so leading
# blocks of every rank appear, singular ones included
@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5).flatmap(
    lambda order: st.integers(0, order).flatmap(
        lambda width: st.lists(st.lists(st.integers(-3, 3), min_size=width, max_size=width),
                               min_size=order, max_size=order))),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3))
def test_corner_interval_matches_psd_check_on_gram_matrices(V, shift):
    rows = [[sum(a * b for a, b in zip(u, v)) for v in V] for u in V]
    window = range(rows[0][-1] - 40, rows[0][-1] + 41)
    assert rows[0][-1] in _assert_interval_matches_psd_check(rows, window)
    # shifting the rest of the last column keeps the leading block PSD, but
    # against a singular block it can leave no corner value at all
    for i, s in zip(range(1, len(rows) - 1), shift):
        rows[i][-1] += s
        rows[-1][i] += s
    _assert_interval_matches_psd_check(rows, window)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 4).flatmap(
    lambda order: st.lists(st.integers(-4, 4), min_size=order * order,
                           max_size=order * order).map(
        lambda flat: [[flat[order * min(i, j) + max(i, j)] for j in range(order)]
                      for i in range(order)])))
def test_corner_interval_matches_psd_check_on_symmetric_matrices(rows):
    # the leading block need not be PSD; then no x works
    _assert_interval_matches_psd_check(rows, range(-20, 21))


def test_corner_interval_singular_leading_block():
    # q = 4, g = 1, N_1 = 9 puts the rank-1 block [[2, -4], [-4, 8]] in front:
    # t_2 is pinned to 8, that is N_2 = 17 - 8 = 9
    rows = gram_absolute(4, 1, (9, 0), 2)
    assert [row[:2] for row in rows.entries[:2]] == [(2, -4), (-4, 8)]
    assert _assert_interval_matches_psd_check(rows, range(-40, 41)) == range(8, 9)
    # the Levinson state of t_1 = -4 is frozen (d_1 = 0) and pins t_2 alike
    state = _levinson_state(4, 1, (-4,))
    assert state[1] == 0 and _levinson_interval(4, state, (-4,)) == range(8, 9)
    res = max_n1(FeasibilityProblem(4, 1, 3))
    assert res.witness == (9, 9, 81)


def test_corner_interval_pins_and_empty_cases():
    # the column must be a multiple of (1, 2): x = 3 / 2 is no integer
    rows = [[1, 2, 0], [2, 4, 3], [0, 3, 5]]
    assert _assert_interval_matches_psd_check(rows, range(-20, 21)) == range(0)
    # a zero leading block pins x to 0, then the corner decides
    assert corner_interval_by_elimination([[0, 0], [0, 1]]) == range(0, 1)
    assert corner_interval_by_elimination([[0, 0], [0, -1]]) == range(0)
    # after pivoting on row 0, rows 1 and 2 pin x to -1 and to 0
    rows = [[1, 1, -1, 0], [1, 1, -1, -1], [-1, -1, 1, 0], [0, -1, 0, 1]]
    assert _assert_interval_matches_psd_check(rows, range(-20, 21)) == range(0)
    # a zero diagonal needs a zero column entry, whatever x is
    assert corner_interval_by_elimination([[1, 0, 0], [0, 0, 3], [0, 3, 5]]) == range(0)
    # a leading block that is not PSD leaves nothing
    assert corner_interval_by_elimination([[-1, 0], [0, 5]]) == range(0)
    assert corner_interval_by_elimination([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == range(0)


# --- the Levinson recursion -----------------------------------------------

def _l_of(q, a_values):
    """Coefficients of prod (1 + a T + q T^2), ascending: an L of genus
    len(a_values) whose inverse roots have modulus sqrt(q) when every
    |a| <= 2 sqrt(q)."""
    c = [1]
    for a in a_values:
        c = [x + a * y + q * z for x, y, z in zip(c + [0, 0], [0] + c + [0], [0, 0] + c)]
    return c


@st.composite
def _toeplitz_data(draw):
    """(q, c, t) for q = 1..64 and len(t) <= 9: either c factors
    1 + a T + q T^2 with |a| <= 2 sqrt(q), the boundary (when q is a square)
    and repeats common, and t their power sums, often with one moved by +-1
    or +-q; or c = -1..3 and random t.  The Grams have every rank."""
    q = draw(st.integers(1, 64))
    m = draw(st.integers(0, 9))
    if draw(st.booleans()):
        r = math.isqrt(4 * q)
        a_values = draw(st.lists(st.sampled_from([-r, 0, r]) | st.integers(-r, r), max_size=4))
        c = len(a_values)
        t = [int(q**n + 1 - N) for n, N in enumerate(counts_from_l(q, _l_of(q, a_values), m), 1)]
        if t and draw(st.booleans()):
            t[draw(st.integers(0, m - 1))] += draw(st.sampled_from([1, -1, q, -q]))
    else:
        c = draw(st.integers(-1, 3))
        t = draw(st.lists(st.integers(-6, 6), min_size=m, max_size=m))
    return q, c, tuple(t)


@settings(max_examples=300, deadline=None)
@given(_toeplitz_data())
def test_levinson_verdict_matches_the_oracles(data):
    q, c, t = data
    rows = _toeplitz(q, c, t, len(t))
    verdict = _levinson_state(q, c, t) is not None
    assert verdict == psd_by_elimination(rows), data
    if len(t) <= 5:
        assert verdict == psd_by_minors(rows), data


@settings(max_examples=80, deadline=None)
@given(_toeplitz_data())
def test_levinson_interval_matches_psd_check(data):
    """The next t_n of a PSD prefix that `_levinson_interval` allows are
    those psd_check accepts, near both ends and near 0, and its ends are the
    elimination oracle's corner interval."""
    q, c, t = data
    t = t[:4]
    state = _levinson_state(q, c, t)
    if state is None:
        return
    n = len(t) + 1
    interval = _levinson_interval(q, state, t)
    oracle = corner_interval_by_elimination(_toeplitz(q, c, t + (0,), n))
    def ends(r):
        return (r[0], r[-1]) if r else None

    assert ends(interval) == ends(oracle), data
    window = set(range(-10, 11))
    if interval:
        window |= {x + d for x in (interval[0], interval[-1]) for d in range(-3, 4)}
    for x in window:
        assert (x in interval) == psd_check(_toeplitz(q, c, t + (x,), n)).psd, (data, x)


def test_levinson_state_edge_cases():
    # c < 0 is refused; c = 0 freezes at once and needs every t = 0
    assert _levinson_state(3, -1, ()) is None
    assert _levinson_state(3, 0, (0, 0, 0)) == ((1,), 0)
    assert _levinson_state(3, 0, (0, 1)) is None
    assert _levinson_interval(3, ((1,), 0), (0, 0)) == range(0, 1)
    # t_1 = +-2 c sqrt(q) sits on the boundary: d_1 = 0 freezes the state
    assert _levinson_state(4, 1, (4,)) == ((2, -4), 0)
    assert _levinson_state(4, 1, (4, 8, 16)) is not None
    assert _levinson_state(4, 1, (4, 8, 15)) is None
    # a frozen state whose pin is no integer leaves nothing: t_4 = 5/2
    state = _levinson_state(1, 2, (0, -2, -3))
    assert state == ((48, 24, 24, 48), 0)
    assert _levinson_interval(1, state, (0, -2, -3)) == range(0)
    assert corner_interval_by_elimination(_toeplitz(1, 2, (0, -2, -3, 0), 4)) == range(0)


def test_is_psd_takes_only_grams_of_frobenius_iterates():
    assert is_psd(SUPERSINGULAR) and not is_psd(gram_absolute(3, 1, (8, 8), 2))
    for M in (gram_relative(3, 1, 0, (7, 7), (4, 10), 2),
              gram_diagram(3, (3, 1, 0, 0), ((2, 4), (4, 10), (4, 10), (4, 10)), 2)):
        assert is_psd(M) == psd_check(M).psd
    for M in (SUPERSINGULAR.entries,
              [[2, 0], [0, 6]],
              combined_vector_gram(SUPERSINGULAR, [(1, 1, 0), (0, 1, 0)]),
              combined_vector_gram(SUPERSINGULAR, []),
              dataclasses.replace(SUPERSINGULAR, q=0),
              dataclasses.replace(SUPERSINGULAR, q=-3)):
        with pytest.raises(DimensionMismatch):
            is_psd(M)


# --- Schwarz margins and combinations --------------------------------------

def test_schwarz_margin_anchors():
    assert schwarz_margin([[2, 0], [0, 6]], 0, 1) == 12
    assert schwarz_margin([[2, -3], [-3, 6]], 0, 1) == 3
    assert schwarz_margin([[0, 0], [0, 0]], 0, 1) == 0
    with pytest.raises(IndexOutOfRange):
        schwarz_margin([[2, 0], [0, 6]], 0, 0)
    with pytest.raises(IndexOutOfRange):
        schwarz_margin([[2, 0], [0, 6]], 0, 2)


def test_combined_vector_gram_anchors():
    out = combined_vector_gram(SUPERSINGULAR, [(3, 0, 1), (0, 1, 0)])
    assert out.entries == ((0, 0), (0, 6))  # supersingular boundary collapses
    identity = combined_vector_gram(SUPERSINGULAR, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert identity.entries == SUPERSINGULAR.entries
    a, b, c = 5, -2, 7
    squashed = combined_vector_gram([[a, b], [b, c]], [(1, 1)])
    assert squashed.entries == ((a + 2 * b + c,),)
    with pytest.raises(DimensionMismatch):
        combined_vector_gram(SUPERSINGULAR, [(1, 0)])


# --- structural identities on real curve data ------------------------------

def test_pythagoras_diagonal_identity():
    # relative norms are the difference of the absolute norms, entrywise
    countsX, countsY = (4, 16), (4, 10)
    MX = gram_absolute(3, 1, countsX, 2)
    MY = gram_absolute(3, 0, countsY, 2)
    MR = gram_relative(3, 1, 0, countsX, countsY, 2)
    for i in range(3):
        assert MR.entries[i][i] == MX.entries[i][i] - MY.entries[i][i]


def test_diagram_additivity_identity():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    m = 2
    series = {role: count_series(curve, m).counts
              for role, curve in (("X", D.X), ("Y1", D.Y1), ("Y2", D.Y2), ("Z", D.Z))}
    genera = (D.X.genus, D.Y1.genus, D.Y2.genus, D.Z.genus)
    MD = gram_diagram(3, genera, (series["X"], series["Y1"], series["Y2"], series["Z"]), m)
    XZ = gram_relative(3, D.X.genus, 0, series["X"], series["Z"], m)
    Y1Z = gram_relative(3, D.Y1.genus, 0, series["Y1"], series["Z"], m)
    Y2Z = gram_relative(3, D.Y2.genus, 0, series["Y2"], series["Z"], m)
    for i in range(m + 1):
        for j in range(m + 1):
            assert MD.entries[i][j] == (XZ.entries[i][j] - Y1Z.entries[i][j]
                                        - Y2Z.entries[i][j])


def test_gram_matrix_is_a_hashable_value():
    """A GramMatrix is its entries, labels and q, so equal ones hash equal."""
    M = gram_absolute(3, 1, (4, 16), 2)
    assert [f.name for f in dataclasses.fields(M)] == ["entries", "labels", "q"]
    assert hash(M) == hash(gram_absolute(3, 1, (4, 16), 2))
