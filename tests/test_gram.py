"""Exact Gram matrices, PSD verdicts, and congruence transforms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgram.curves import count_series, make_biquadratic
from weilgram.errors import (
    DimensionMismatch,
    GenusOrder,
    IndexOutOfRange,
    InsufficientCounts,
    NegativeRelativeGenus,
    TooLarge,
)
from weilgram.feasibility import FeasibilityProblem, max_n1
from weilgram.finite_field import construct_field
from weilgram.gram import (
    combined_vector_gram,
    gram_absolute,
    gram_diagram,
    gram_relative,
    int_det,
    psd_check,
    psd_corner_interval,
    schwarz_margin,
)

from oracles import gauss_det, psd_by_eigenvalues

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


def test_psd_order_limit():
    with pytest.raises(TooLarge):
        psd_check([[0] * 9 for _ in range(9)])


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
    interval = psd_corner_interval(rows)
    for x in window:
        assert (x in interval) == psd_check(_with_corner(rows, x)).psd, (rows, x)
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
    res = max_n1(FeasibilityProblem(4, 1, 3))
    assert res.witness == (9, 9, 81)


def test_corner_interval_pins_and_empty_cases():
    # the column must be a multiple of (1, 2): x = 3 / 2 is no integer
    rows = [[1, 2, 0], [2, 4, 3], [0, 3, 5]]
    assert _assert_interval_matches_psd_check(rows, range(-20, 21)) == range(0)
    # a zero leading block pins x to 0, then the corner decides
    assert psd_corner_interval([[0, 0], [0, 1]]) == range(0, 1)
    assert psd_corner_interval([[0, 0], [0, -1]]) == range(0)
    # after pivoting on row 0, rows 1 and 2 pin x to -1 and to 0
    rows = [[1, 1, -1, 0], [1, 1, -1, -1], [-1, -1, 1, 0], [0, -1, 0, 1]]
    assert _assert_interval_matches_psd_check(rows, range(-20, 21)) == range(0)
    # a zero diagonal needs a zero column entry, whatever x is
    assert psd_corner_interval([[1, 0, 0], [0, 0, 3], [0, 3, 5]]) == range(0)
    # a leading block that is not PSD leaves nothing
    assert psd_corner_interval([[-1, 0], [0, 5]]) == range(0)
    assert psd_corner_interval([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == range(0)
    # order 1 has no off-diagonal corner
    with pytest.raises(DimensionMismatch):
        psd_corner_interval([[1]])


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
