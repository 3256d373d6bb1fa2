"""Seeded corpus generation, curated corpus shape, and report determinism."""

import csv
import hashlib
import io
import json

import pytest

import weilgram.curves

from weilgram.corpus import (
    DEFAULT_DEGREES,
    LCG,
    REJECTION_CAP,
    CorpusSpec,
    _rejection,
    builtin_covers,
    builtin_curves,
    default_corpus_spec,
    evaluate_curve_record,
    evaluate_diagram_record,
    generate_corpus,
    parse_corpus_spec,
    report_json,
    run_corpus,
    seeded_diagrams,
    summary_csv,
    write_report,
)
from weilgram.curves import (
    DiagramData,
    make_biquadratic,
    make_hyperelliptic,
    make_projective_line,
    parse_manifest,
)
from weilgram.errors import BudgetExceeded, EvenCharacteristic
from weilgram.finite_field import construct_field

F3 = construct_field(3, 1)


# --- generator -------------------------------------------------------------

def test_lcg_frozen_sequence():
    rng = LCG(42)
    assert rng.next_u64() == 10481999410520546993
    assert rng.next_u64() == 4159066171780167020
    rng = LCG(42)
    assert rng.below(100) == 69
    assert rng.below(100) == 53


def test_lcg_edge_cases():
    rng = LCG(2**64 + 5)  # seeds reduce mod 2^64
    assert rng.state == 5
    assert LCG(5).next_u64() == rng.next_u64()
    with pytest.raises(ValueError):
        LCG(1).below(0)


# --- corpus specs ----------------------------------------------------------

def test_default_corpus_spec_shape():
    spec = default_corpus_spec()
    assert spec.seed == 42
    assert spec.fields == ((3, 1), (5, 1))
    assert spec.mix == (2, 1, 2)
    assert spec.degree_range("hyperelliptic") == (3, 6)
    assert spec.degree_range("biquadratic_g") == (2, 2)


def test_corpus_spec_round_trip():
    spec = default_corpus_spec()
    assert parse_corpus_spec(spec.to_dict()) == spec
    doc = spec.to_dict()
    doc["degrees"]["hyperelliptic"] = [3, 4]
    narrowed = parse_corpus_spec(doc)
    assert narrowed.degree_range("hyperelliptic") == (3, 4)
    assert narrowed.degree_range("plane") == DEFAULT_DEGREES["plane"]


@pytest.mark.parametrize("doc", [
    "not a dict",
    {"fields": [[3, 1]], "mix": [1, 0, 0]},                       # no seed
    {"seed": -1, "fields": [[3, 1]], "mix": [1, 0, 0]},
    {"seed": 2**64, "fields": [[3, 1]], "mix": [1, 0, 0]},
    {"seed": 42, "fields": [], "mix": [1, 0, 0]},
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0]},
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, -1]},
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, 0],
     "degrees": {"elliptic": [1, 2]}},
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, 0],
     "degrees": {"hyperelliptic": [0, 3]}},
    {"seed": 42, "fields": "F3", "mix": [1, 0, 0]},
])
def test_parse_corpus_spec_rejects_malformed(doc):
    with pytest.raises(ValueError):
        parse_corpus_spec(doc)


# --- generation ------------------------------------------------------------

def test_generate_corpus_is_deterministic():
    spec = default_corpus_spec()
    first = generate_corpus(spec)
    second = generate_corpus(spec)
    assert first == second
    assert len(first) == 10  # (2 + 1 + 2) instances x 2 fields


def test_generate_corpus_order_and_validity():
    spec = default_corpus_spec()
    manifests = generate_corpus(spec)
    kinds = [m["kind"] for m in manifests]
    assert kinds == ["hyperelliptic", "hyperelliptic", "plane",
                     "biquadratic", "biquadratic"] * 2
    assert [m["p"] for m in manifests] == [3] * 5 + [5] * 5
    for man in manifests:
        model = parse_manifest(man)  # every sampled instance must validate
        if man["kind"] == "hyperelliptic":
            assert 3 <= len(man["f"]) - 1 <= 6
            assert model.genus >= 1


def test_generate_corpus_seed_sensitivity():
    a = generate_corpus(default_corpus_spec(seed=42))
    b = generate_corpus(default_corpus_spec(seed=43))
    assert a != b


def test_even_characteristic_spec_fails():
    spec = CorpusSpec(seed=42, fields=((2, 1),), mix=(1, 0, 0))
    with pytest.raises(EvenCharacteristic):
        generate_corpus(spec)


def test_rejection_cap():
    with pytest.raises(BudgetExceeded) as info:
        _rejection(lambda: None)
    assert info.value.needed == REJECTION_CAP + 1
    assert info.value.budget == REJECTION_CAP


def test_seeded_diagrams_batch():
    batch = seeded_diagrams()
    assert len(batch) == 21
    assert all(isinstance(d, DiagramData) for d in batch)
    assert sorted({d.X.q for d in batch}) == [3, 5, 7]
    again = seeded_diagrams()
    assert [d.label for d in batch] == [d.label for d in again]
    small = seeded_diagrams(seed=7, per_field=2, fields=((3, 1),))
    assert len(small) == 2
    assert all(d.X.q == 3 for d in small)


# --- curated corpus --------------------------------------------------------

def test_builtin_curves_shape(corpus_curves):
    assert len(corpus_curves) == 34
    by_q = {}
    for c in corpus_curves:
        by_q[c.q] = by_q.get(c.q, 0) + 1
        assert 0 <= c.genus <= 4
    assert by_q == {3: 12, 5: 9, 7: 7, 9: 6}
    labels = [c.label for c in corpus_curves]
    assert len(set(labels)) == len(labels)
    kinds = [c.kind for c in corpus_curves]
    assert kinds.count("projective_line") == 4
    assert kinds.count("smooth_plane") == 7
    assert kinds.count("hyperelliptic") == 23


def test_builtin_covers_shape(corpus_covers):
    assert len(corpus_covers) == 23
    for cov in corpus_covers:
        assert cov.degree == 2
        assert cov.target.genus == 0
        assert cov.source.kind == "hyperelliptic"


# --- evaluation records ----------------------------------------------------

def test_evaluate_curve_record_supersingular():
    E = make_hyperelliptic(F3, (0, 1, 0, 1))
    rec = evaluate_curve_record(E)
    assert rec["kind"] == "hyperelliptic"
    assert rec["counts"] == [4, 16, 28, 64]
    assert rec["L"] == [1, 0, 3]
    assert rec["rh"]["passed"] is True
    assert rec["genus_inferred"] == 1
    assert rec["extrapolation_exact"] is True
    assert rec["checks_passed"] == rec["checks_total"]
    cover = rec["cover"]
    assert cover["relative_margin_equals_schwarz"] is True
    assert cover["second_margin_combined_det"] is True
    rel_checks = {c["name"]: c for c in cover["relative"]}
    assert rel_checks["relative"]["margin"] == 12
    assert rel_checks["relative_second"]["margin"] == 0


def test_evaluate_curve_record_line():
    from weilgram.curves import make_projective_line
    rec = evaluate_curve_record(make_projective_line(F3))
    assert rec["counts"] == [4, 10, 28]
    assert rec["genus_inferred"] == 0
    assert "cover" not in rec
    assert rec["checks_passed"] == rec["checks_total"]


def test_evaluate_diagram_record_documented_example():
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    rec = evaluate_diagram_record(D)
    assert rec["genera"] == {"X": 3, "Y1": 1, "Y2": 0, "Z": 0, "Y3": 2}
    assert rec["counts"]["X"][0] == 2
    assert rec["trace_identity"] == [True, True]
    assert rec["X_zeta"] is not None
    assert rec["X_zeta"]["rh"]["passed"] is True
    eq = rec["equivalence"]
    assert eq["relative_margins_equal_schwarz"] == [True, True, True, True]
    assert eq["combined_det"] == [True, True, True, None]
    assert eq["diagram_margin_equals_schwarz"] is True
    assert rec["checks_passed"] == rec["checks_total"]
    diagram_check = next(c for c in rec["bounds"]["checks"] if c["name"] == "diagram")
    assert (diagram_check["lhs"], diagram_check["rhs"]) == (4, 48)


@pytest.fixture
def counted_points(monkeypatch):
    """Every (curve label, j) that count_points is asked for, in call order."""
    calls = []
    count = weilgram.curves.count_points

    def counting(curve, j, budget=weilgram.curves.DEFAULT_BUDGET):
        calls.append((curve.label, j))
        return count(curve, j, budget)

    monkeypatch.setattr(weilgram.curves, "count_points", counting)
    return calls


def test_evaluate_diagram_record_counts_each_curve_once(counted_points):
    D = make_biquadratic(F3, (0, 1, 0, 1), (2, 1, 1))
    evaluate_diagram_record(D)
    assert len(counted_points) == 14  # 4 corners x 3, plus y3 x 2
    expected = [(c.label, j) for c in (D.X, D.Y1, D.Y2, D.Z) for j in (1, 2, 3)]
    expected += [(D.y3.label, j) for j in (1, 2)]
    assert sorted(counted_points) == sorted(expected)


def test_evaluate_curve_record_counts_each_extension_once(counted_points):
    """The curve once per j, then the P^1 target of its cover (a closed form)."""
    line = make_projective_line(F3).label
    for f, m in (((0, 1, 0, 1), 4), ((1, 2, 0, 0, 0, 1), 6)):
        E = make_hyperelliptic(F3, f)
        counted_points.clear()
        rec = evaluate_curve_record(E)
        assert counted_points == ([(E.label, j) for j in range(1, m + 1)]
                                  + [(line, j) for j in range(1, m + 1)])
        assert len(rec["counts"]) == m


# --- full runs -------------------------------------------------------------

SMALL_SPEC = CorpusSpec(seed=42, fields=((3, 1),), mix=(1, 0, 1))


def test_run_corpus_serial_deterministic():
    a = run_corpus(SMALL_SPEC)
    b = run_corpus(SMALL_SPEC)
    assert report_json(a) == report_json(b)
    assert a["instances"] == 2
    assert a["summary"]["curves"] == 1
    assert a["summary"]["diagrams"] == 1
    assert a["summary"]["all_passed"] is True


def test_run_corpus_parallel_matches_serial():
    serial = run_corpus(SMALL_SPEC, jobs=1)
    parallel = run_corpus(SMALL_SPEC, jobs=2)
    assert report_json(serial) == report_json(parallel)


def test_run_corpus_parallel_reports_budget_exceeded():
    over = CorpusSpec(seed=42, fields=((29, 1),), mix=(0, 0, 1))  # F_{29^3} has 24389
    with pytest.raises(BudgetExceeded):
        run_corpus(over, jobs=1, budget=1000)
    with pytest.raises(BudgetExceeded) as info:
        run_corpus(over, jobs=2, budget=1000)
    assert (info.value.needed, info.value.budget) == (24389, 1000)


def test_empty_mix_gives_empty_report():
    report = run_corpus(CorpusSpec(seed=42, fields=((3, 1),), mix=(0, 0, 0)))
    assert report["instances"] == 0
    assert report["summary"]["all_passed"] is True


def _without_max_deviation(node):
    if isinstance(node, dict):
        return {k: _without_max_deviation(v) for k, v in node.items()
                if k != "max_deviation"}
    if isinstance(node, list):
        return [_without_max_deviation(v) for v in node]
    return node


def test_small_corpus_bytes_are_frozen():
    # max_deviation is a float diagnostic of the numeric root finder; every
    # other byte of both reports is exact and must not change
    report = run_corpus(SMALL_SPEC)
    json_text = report_json(_without_max_deviation(report))
    rows = list(csv.reader(io.StringIO(summary_csv(report))))
    assert rows[0][-1] == "rh_max_deviation"
    csv_text = "\n".join(",".join(row[:-1]) for row in rows)
    assert hashlib.sha256(json_text.encode()).hexdigest() == (
        "456aacb4aa7e027fe466b7f5bf8885876515008b32ff6313a15ed53826c4a3b0")
    assert hashlib.sha256(csv_text.encode()).hexdigest() == (
        "9a556ea6496e24e36581688fd609acdf54cb6eb2778d8feb827c7cde3e810161")


def test_summary_csv_and_write_report(tmp_path):
    report = run_corpus(SMALL_SPEC)
    csv_text = summary_csv(report)
    lines = csv_text.splitlines()
    assert lines[0] == "index,label,kind,q,genus,checks_passed,checks_total,rh_max_deviation"
    assert len(lines) == 1 + report["instances"]
    json_path, csv_path = write_report(report, str(tmp_path / "out"))
    with open(json_path) as fh:
        assert json.load(fh) == report
    with open(json_path) as fh:
        assert fh.read() == report_json(report) + "\n"
    with open(csv_path) as fh:
        assert fh.read() == csv_text
