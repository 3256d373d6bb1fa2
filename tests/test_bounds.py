"""Exact bound checks, their margins, and report serialization."""

import json
from fractions import Fraction
from itertools import combinations

import pytest

import oracles

from weilgram.bounds import (
    check_diagram,
    check_relative,
    check_relative_second,
    check_weil,
    full_report,
    report_to_csv,
    report_to_dict,
    report_to_json,
    weil_interval,
)
from weilgram.corpus import seeded_diagrams
from weilgram.curves import (
    count_series,
    hyperelliptic_cover,
    make_biquadratic,
    make_hyperelliptic,
    make_projective_line,
)
from weilgram.errors import EqualGenera, GenusOrder, InvalidDegree, InvalidDiagram
from weilgram.finite_field import construct_field
from weilgram.gram import (
    combined_vector_gram,
    gram_absolute,
    gram_diagram,
    gram_relative,
    int_det,
    schwarz_margin,
)

F3 = construct_field(3, 1)


# --- weil ------------------------------------------------------------------

def test_weil_interval_anchors():
    assert weil_interval(3, 1, 1) == (1, 7)
    assert weil_interval(4, 1, 1) == (1, 9)
    assert weil_interval(5, 0, 2) == (26, 26)
    with pytest.raises(ValueError):
        weil_interval(3, -1, 1)
    with pytest.raises(ValueError):
        weil_interval(3, 1, 0)


def test_check_weil_examples():
    rec = check_weil(3, 1, 1, 4)
    assert rec.holds and rec.margin == 12 and rec.name == "weil_j1"
    rec = check_weil(3, 1, 1, 7)
    assert rec.holds and rec.margin == 3
    rec = check_weil(3, 1, 1, 8)
    assert not rec.holds and rec.margin == -4


def test_squared_form_equals_interval_membership():
    for q in (3, 4, 5, 9):
        for g in range(4):
            for j in (1, 2):
                lo, hi = weil_interval(q, g, j)
                for N in range(max(0, lo - 3), hi + 4):
                    assert check_weil(q, g, j, N).holds == (lo <= N <= hi)


def test_weil_is_relative_bound_over_the_line():
    for q, g, j, N in [(3, 1, 1, 4), (3, 1, 2, 16), (5, 2, 1, 1), (4, 1, 1, 9),
                       (3, 2, 1, 11)]:
        w = check_weil(q, g, j, N)
        r = check_relative(q**j, g, 0, N, q**j + 1)
        assert (w.lhs, w.rhs, w.holds, w.margin) == (r.lhs, r.rhs, r.holds, r.margin)


# --- relative --------------------------------------------------------------

def test_check_relative_examples():
    rec = check_relative(3, 1, 0, 4, 4)
    assert rec.holds and rec.margin == 12
    rec = check_relative(3, 1, 0, 7, 4)
    assert rec.holds and rec.margin == 3
    rec = check_relative(3, 1, 1, 4, 4)
    assert rec.holds and rec.margin == 0
    with pytest.raises(GenusOrder):
        check_relative(3, 0, 1, 4, 4)


def test_check_relative_second_examples():
    rec = check_relative_second(3, 1, 0, (4, 16), (4, 10))
    assert rec.holds and rec.margin == 0
    rec = check_relative_second(3, 1, 0, (7, 7), (4, 10))
    assert rec.holds and rec.margin == 0
    assert rec.lhs == -3 and rec.rhs == -3
    with pytest.raises(EqualGenera):
        check_relative_second(3, 1, 1, (4, 16), (4, 16))
    with pytest.raises(GenusOrder):
        check_relative_second(3, 0, 1, (4, 10), (4, 16))


def test_check_relative_second_fractional_margin():
    # gap 23 - 2 = 21 over genus gap 2 leaves an exact non-integer margin
    rec = check_relative_second(3, 2, 0, (5, 11), (4, 10))
    assert rec.holds
    assert rec.margin == Fraction(21, 2)
    assert isinstance(rec.margin, Fraction)


# --- diagram ---------------------------------------------------------------

def test_check_diagram_examples():
    rec = check_diagram(3, (3, 1, 0, 0), (2, 4, 4, 4), (True, True))
    assert rec.holds and rec.lhs == 4 and rec.rhs == 48 and rec.margin == 44
    rec = check_diagram(3, (0, 0, 0, 0), (4, 4, 4, 4), True)
    assert rec.holds and rec.margin == 0
    with pytest.raises(InvalidDiagram):
        check_diagram(3, (3, 1, 0, 0), (2, 4, 4, 4), (True, False))
    with pytest.raises(InvalidDiagram):
        check_diagram(3, (3, 1, 0, 0), (2, 4, 4, 4), False)


def test_check_diagram_negative_relative_genus_fails_even_with_small_lhs():
    rec = check_diagram(3, (1, 1, 1, 0), (4, 4, 4, 4), True)
    assert not rec.holds
    assert rec.lhs == 0  # the squared comparison alone would pass


def test_check_diagram_accepts_diagram_certificate():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    rec = check_diagram(3, (3, 1, 0, 0), (2, 4, 4, 4), D)
    assert rec.holds


# --- full reports ----------------------------------------------------------

def test_full_report_curve():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(E, 2)
    assert [c.name for c in report.checks] == ["weil_j1", "weil_j2"]
    assert [c.margin for c in report.checks] == [12, 0]
    assert report.all_hold
    # N_2 = 16 sits exactly on the upper Weil endpoint
    assert weil_interval(3, 1, 2) == (4, 16)


def test_full_report_line_has_zero_margins():
    report = full_report(make_projective_line(F3), 3)
    assert all(c.margin == 0 and c.holds for c in report.checks)


def test_full_report_cover_ordering():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(hyperelliptic_cover(E), 2)
    assert [c.name for c in report.checks] == [
        "weil_source_j1", "weil_source_j2",
        "weil_target_j1", "weil_target_j2",
        "relative", "relative_second",
    ]
    assert report.all_hold
    by_name = {c.name: c for c in report.checks}
    assert by_name["relative"].margin == 12
    assert by_name["relative_second"].margin == 0


def test_full_report_cover_equal_genera_skips_second_bound():
    conic = make_hyperelliptic(F3, (2, 1, 1))
    report = full_report(hyperelliptic_cover(conic), 2)
    assert [c.name for c in report.checks] == [
        "weil_source_j1", "weil_source_j2",
        "weil_target_j1", "weil_target_j2",
        "relative",
    ]
    assert report.all_hold


def test_full_report_cover_extends_counts_for_second_bound():
    # m=1 still produces the second-order check when the genera differ
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(hyperelliptic_cover(E), 1)
    assert [c.name for c in report.checks] == [
        "weil_source_j1", "weil_target_j1", "relative", "relative_second",
    ]


def test_full_report_diagram_ordering():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    report = full_report(D, 1)
    assert [c.name for c in report.checks] == [
        "weil_X_j1", "weil_Y1_j1", "weil_Y2_j1", "weil_Z_j1",
        "diagram",
        "psd_absolute_X", "psd_absolute_Y1", "psd_absolute_Y2", "psd_absolute_Z",
        "psd_relative_X_Y1", "psd_relative_X_Y2",
        "psd_relative_Y1_Z", "psd_relative_Y2_Z",
        "psd_diagram",
    ]
    assert report.all_hold
    diag = next(c for c in report.checks if c.name == "diagram")
    assert (diag.lhs, diag.rhs) == (4, 48)


def test_full_report_carries_the_series_it_checked():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(E, 3)
    assert [s.counts for s in report.series] == [(4, 16, 28)]
    cover = full_report(hyperelliptic_cover(E), 1)
    assert [s.counts for s in cover.series] == [(4, 16), (4, 10)]
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    report = full_report(D, 2)
    assert [s.counts for s in report.series] == [
        count_series(c, 2).counts for c in (D.X, D.Y1, D.Y2, D.Z)]
    assert "series" not in report_to_dict(report)
    assert report_to_csv(report).splitlines()[0] == "name,lhs,rhs,holds,margin,scale"


@pytest.mark.parametrize("m", [0, -1])
def test_full_report_rejects_order_below_one(m):
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    for subject in (E, hyperelliptic_cover(E), D):
        with pytest.raises(InvalidDegree):
            full_report(subject, m)


def test_full_report_rejects_unknown_subject():
    with pytest.raises(TypeError):
        full_report("not a curve", 2)


def test_holds_flags_are_consistent_with_stored_values():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    for report in (full_report(E, 3), full_report(hyperelliptic_cover(E), 2),
                   full_report(D, 2)):
        for c in report.checks:
            assert c.holds == (c.lhs <= c.rhs)


# --- PSD margins against cofactor expansion --------------------------------

def _oracle_min_minor(entries):
    n = len(entries)
    return min(oracles.laplace_det([[entries[r][c] for c in subset] for r in subset])
               for size in range(1, n + 1) for subset in combinations(range(n), size))


def _diagram_grams(D, series, m):
    q = D.X.q
    corners = dict(zip(("X", "Y1", "Y2", "Z"), (D.X, D.Y1, D.Y2, D.Z)))
    counts = dict(zip(corners, (s.counts for s in series)))
    grams = {f"psd_absolute_{r}": gram_absolute(q, c.genus, counts[r], m)
             for r, c in corners.items()}
    for src, dst in (("X", "Y1"), ("X", "Y2"), ("Y1", "Z"), ("Y2", "Z")):
        grams[f"psd_relative_{src}_{dst}"] = gram_relative(
            q, corners[src].genus, corners[dst].genus, counts[src], counts[dst], m)
    grams["psd_diagram"] = gram_diagram(
        q, tuple(c.genus for c in corners.values()), tuple(counts.values()), m)
    return grams


@pytest.mark.parametrize("fields, orders, some_positive", [
    (((3, 1), (5, 1), (7, 1)), (1, 2, 3), True),
    # order 9 Grams, above PSD_MAX_ORDER; genera are at most 3 here, so each
    # Gram has rank at most 2g < 9 and its minimum minor is exactly 0
    (((3, 1),), (8,), False),
])
def test_psd_margins_equal_cofactor_minimum(monkeypatch, fields, orders, some_positive):
    # cofactor expansion repeats the same submatrices across the 2^n minors,
    # so memoize it by value; it stays a pure cofactor expansion
    cache = {}
    expand = oracles.laplace_det

    def memoized(rows):
        key = tuple(map(tuple, rows))
        if key not in cache:
            cache[key] = expand(rows)
        return cache[key]

    monkeypatch.setattr(oracles, "laplace_det", memoized)
    margins = []
    for D in seeded_diagrams(seed=42, per_field=2, fields=fields):
        for m in orders:
            report = full_report(D, m)
            psd = {c.name: c for c in report.checks if c.name.startswith("psd_")}
            grams = _diagram_grams(D, report.series, m)
            assert list(psd) == list(grams)
            for name, M in grams.items():
                assert M.order == m + 1
                assert psd[name].margin == _oracle_min_minor(M.entries), (D.label, m, name)
                assert psd[name].holds == (psd[name].margin >= 0)
                margins.append(psd[name].margin)
    assert any(margins) == some_positive


# --- equivalence with the Gram machinery -----------------------------------

def test_relative_margin_equals_schwarz_margin():
    for N1X in range(0, 11):
        rec = check_relative(3, 1, 0, N1X, 4)
        M = gram_relative(3, 1, 0, (N1X,), (4,), 1)
        s = schwarz_margin(M, 0, 1)
        assert s == rec.margin
        assert rec.holds == (s >= 0)


def test_second_relative_matches_combined_vector_determinant():
    cases = [
        (3, 1, 0, (4, 16), (4, 10)),
        (3, 1, 0, (7, 7), (4, 10)),
        (3, 2, 0, (5, 11), (4, 10)),
        (5, 2, 1, (2, 40), (2, 30)),
    ]
    for q, gX, gY, NX, NY in cases:
        rec = check_relative_second(q, gX, gY, NX, NY)
        M = gram_relative(q, gX, gY, NX, NY, 2)
        combined = combined_vector_gram(M, [(q, 0, 1), (0, 1, 0)])
        det = int_det(combined.entries)
        assert det == 4 * q * q * (rec.rhs - rec.lhs)
        assert rec.holds == (det >= 0)


# --- serialization ---------------------------------------------------------

def test_report_serialization_round_trip():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(hyperelliptic_cover(E), 2)
    doc = json.loads(report_to_json(report))
    assert doc == report_to_dict(report)
    assert doc["subject"] == report.subject
    assert [c["name"] for c in doc["checks"]] == [c.name for c in report.checks]
    for c in doc["checks"]:
        assert set(c) == {"name", "lhs", "rhs", "holds", "margin", "scale"}


def test_fraction_margin_serializes_as_ratio_string():
    rec = check_relative_second(3, 2, 0, (5, 11), (4, 10))
    from weilgram.bounds import BoundReport
    report = BoundReport(subject="synthetic", checks=(rec,))
    doc = report_to_dict(report)
    assert doc["checks"][0]["margin"] == "21/2"
    csv_text = report_to_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "name,lhs,rhs,holds,margin,scale"
    assert lines[1].startswith("relative_second,")
    assert "21/2" in lines[1]


def test_csv_is_deterministic():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    report = full_report(E, 2)
    assert report_to_csv(report) == report_to_csv(full_report(E, 2))
