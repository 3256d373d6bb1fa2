"""Acceptance gate: the twelve headline guarantees, one test each.

Each test prints a single PASS line when its criterion holds; a failing
criterion shows up as a normal pytest failure for that test.
"""

import time

import pytest

from weilgram.bounds import check_diagram, weil_interval
from weilgram.corpus import default_corpus_spec, report_json, run_corpus
from weilgram.curves import make_biquadratic
from weilgram.errors import DegreeParity, NotCoprime
from weilgram.feasibility import FeasibilityProblem, ihara_closed_form, max_n1
from weilgram.finite_field import construct_field
from weilgram.gram import gram_absolute, gram_relative, int_det, psd_check

F3 = construct_field(3, 1)
PRIME_POWERS_16 = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)

SUPERSINGULAR_MANIFEST = {"kind": "hyperelliptic", "p": 3, "k": 1, "f": [0, 1, 0, 1]}
MAXIMAL_MANIFEST = {"kind": "hyperelliptic", "p": 3, "k": 1, "f": [1, 2, 0, 1]}


def _record(corpus_evaluation, manifest):
    for rec in corpus_evaluation["records"]:
        if rec["manifest"] == manifest:
            return rec
    raise AssertionError(f"corpus record not found for {manifest}")


def test_criterion_01_counts_match_zeta_extrapolation(corpus_evaluation):
    records = corpus_evaluation["records"]
    assert len(records) >= 30
    assert {rec["q"] for rec in records} == {3, 5, 7, 9}
    for rec in records:
        assert 0 <= rec["genus"] <= 4
        assert len(rec["counts"]) >= 2 * rec["genus"] + 2
        assert rec["extrapolation_exact"], rec["label"]
    assert corpus_evaluation["elapsed"] < 300.0
    print(f"PASS: criterion 1 - exact count/zeta agreement on {len(records)} "
          f"curves in {corpus_evaluation['elapsed']:.1f}s")


def test_criterion_02_riemann_hypothesis_numeric(corpus_evaluation):
    # the verdict is exact (a Gram positivity test), so no deviation bound is needed
    for rec in corpus_evaluation["records"]:
        assert rec["rh"]["passed"] is True, rec["label"]
    print(f"PASS: criterion 2 - all {len(corpus_evaluation['records'])} "
          f"L-polynomials pass RH exactly")


def test_criterion_03_weil_bound_with_boundary_instance(corpus_evaluation):
    for rec in corpus_evaluation["records"]:
        for check in rec["bounds"]["checks"]:
            assert check["holds"], (rec["label"], check["name"])
    boundary = _record(corpus_evaluation, SUPERSINGULAR_MANIFEST)
    assert weil_interval(3, 1, 2) == (4, 16)
    assert boundary["counts"][1] == 16  # attains the upper endpoint exactly
    print("PASS: criterion 3 - Weil bound exact everywhere; N_2=16 attains [4,16]")


def test_criterion_04_relative_bound_on_covers(corpus_evaluation):
    n = 0
    for rec in corpus_evaluation["records"]:
        if "cover" not in rec:
            continue
        n += 1
        rel = next(c for c in rec["cover"]["relative"] if c["name"] == "relative")
        assert rel["holds"], rec["label"]
    maximal = _record(corpus_evaluation, MAXIMAL_MANIFEST)
    rel = next(c for c in maximal["cover"]["relative"] if c["name"] == "relative")
    assert rel["margin"] == 3
    print(f"PASS: criterion 4 - relative bound holds on {n} covers; "
          "maximal-elliptic margin exactly 3")


def test_criterion_05_second_relative_bound_with_equality(corpus_evaluation):
    n = 0
    for rec in corpus_evaluation["records"]:
        if "cover" not in rec:
            continue
        n += 1
        rel2 = next(c for c in rec["cover"]["relative"]
                    if c["name"] == "relative_second")
        assert rel2["holds"], rec["label"]
    super_rec = _record(corpus_evaluation, SUPERSINGULAR_MANIFEST)
    assert super_rec["counts"][:2] == [4, 16]
    rel2 = next(c for c in super_rec["cover"]["relative"]
                if c["name"] == "relative_second")
    assert rel2["margin"] == 0  # equality at the supersingular boundary
    print(f"PASS: criterion 5 - second-order relative bound holds on {n} covers; "
          "supersingular equality margin 0")


def test_criterion_06_diagram_bound_on_seeded_diagrams(diagram_evaluation):
    assert len(diagram_evaluation) >= 20
    for rec in diagram_evaluation:
        diagram = next(c for c in rec["bounds"]["checks"] if c["name"] == "diagram")
        assert diagram["holds"], rec["label"]
    documented = check_diagram(3, (3, 1, 0, 0), (2, 4, 4, 4), (True, True))
    assert abs(2 - 4 - 4 + 4) == 2
    assert documented.lhs == 4 and documented.rhs == 48 and documented.holds
    print(f"PASS: criterion 6 - diagram bound holds on {len(diagram_evaluation)} "
          "seeded diagrams; documented example 4 <= 48")


def test_criterion_07_trace_identity(diagram_evaluation):
    for rec in diagram_evaluation:
        assert rec["trace_identity"] == [True, True], rec["label"]
    print(f"PASS: criterion 7 - trace identity at j=1,2 on "
          f"{len(diagram_evaluation)} diagrams")


def test_criterion_08_gram_psd_at_order_three(corpus_evaluation, diagram_evaluation):
    for rec in corpus_evaluation["records"]:
        counts = rec["counts"]
        assert psd_check(gram_absolute(rec["q"], rec["genus"], counts, 3)).psd
        if "cover" in rec:
            line = [rec["q"] ** j + 1 for j in (1, 2, 3)]
            assert psd_check(gram_relative(rec["q"], rec["genus"], 0,
                                           counts, line, 3)).psd
    for rec in diagram_evaluation:
        for check in rec["bounds"]["checks"]:
            if check["name"].startswith("psd_"):
                assert check["holds"], (rec["label"], check["name"])
    boundary = gram_absolute(3, 1, (4, 16), 2)
    assert boundary.entries == ((2, 0, -6), (0, 6, 0), (-6, 0, 18))
    assert psd_check(boundary).psd
    assert int_det(boundary.entries) == 0
    print("PASS: criterion 8 - all order-3 Gram matrices PSD; supersingular "
          "determinant exactly 0")


def test_criterion_09_gram_bound_equivalences(corpus_evaluation, diagram_evaluation):
    for rec in corpus_evaluation["records"]:
        if "cover" not in rec:
            continue
        assert rec["cover"]["relative_margin_equals_schwarz"] is True, rec["label"]
        assert rec["cover"]["second_margin_combined_det"] is True, rec["label"]
    for rec in diagram_evaluation:
        eq = rec["equivalence"]
        assert eq["relative_margins_equal_schwarz"] == [True] * 4, rec["label"]
        for v in eq["combined_det"]:
            assert v is None or v is True, rec["label"]
        assert eq["diagram_margin_equals_schwarz"] is True, rec["label"]
    print("PASS: criterion 9 - Schwarz margins and combined-vector determinants "
          "agree exactly with every bound verdict")


def test_criterion_10_feasibility_anchors_and_ihara():
    timings = []

    def timed(problem):
        start = time.time()
        result = max_n1(problem)
        timings.append(time.time() - start)
        return result

    assert timed(FeasibilityProblem(q=3, g=1, m=1)).max_n1 == 7
    res = timed(FeasibilityProblem(q=3, g=1, m=2))
    assert res.max_n1 == 7 and res.witness == (7, 7)
    for q in PRIME_POWERS_16:
        for m in (1, 2, 3):
            assert timed(FeasibilityProblem(q=q, g=0, m=m)).max_n1 == q + 1
    for q in PRIME_POWERS_16:
        for g in range(1, 5):
            bound = timed(FeasibilityProblem(q=q, g=g, m=2)).max_n1
            assert bound <= ihara_closed_form(q, g).floor, (q, g)
    assert max(timings) <= 60.0
    print(f"PASS: criterion 10 - feasibility anchors and Ihara comparison hold; "
          f"slowest run {max(timings):.2f}s")


def test_criterion_11_degenerate_diagrams_rejected():
    shared_root = (0, 1, 1)  # x(x+1), squarefree but sharing x with x^3+x
    with pytest.raises(NotCoprime):
        make_biquadratic(F3, (0, 1, 0, 1), shared_root)
    with pytest.raises(DegreeParity):
        make_biquadratic(F3, (0, 1, 0, 1), (0, 1, 0, 1))  # f = g
    print("PASS: criterion 11 - degenerate diagrams (gcd != 1, f = g) rejected")


def test_criterion_12_corpus_determinism():
    spec = default_corpus_spec(seed=42)
    first = report_json(run_corpus(spec))
    second = report_json(run_corpus(spec))
    parallel = report_json(run_corpus(spec, jobs=4))
    assert first == second
    assert first == parallel
    print("PASS: criterion 12 - seed-42 corpus reports byte-identical across "
          "runs and serial vs parallel")
