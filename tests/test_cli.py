"""End-to-end command-line behavior, exercised in process."""

import json
import time

import pytest

from weilgram import curves, feasibility
from weilgram.cli import main
from weilgram.corpus import MAX_INSTANCES
from weilgram.zeta import MAX_COUNTS

ELLIPTIC = {"kind": "hyperelliptic", "p": 3, "k": 1, "f": [0, 1, 0, 1]}
LINE_F5 = {"kind": "line", "p": 5, "k": 1}
LINE_F3 = {"kind": "line", "p": 3, "k": 1}
DIAGRAM = {"kind": "biquadratic", "p": 3, "k": 1, "f": [0, 1, 0, 1], "g": [2, 1, 1]}


@pytest.fixture
def manifest(tmp_path):
    def write(doc, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def run_lines(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out.splitlines()


# --- count -----------------------------------------------------------------

def test_count_elliptic(manifest, capsys):
    code, lines = run_lines(capsys, ["count", manifest(ELLIPTIC)])
    assert code == 0
    assert lines == ["N_1=4"]
    code, lines = run_lines(capsys, ["count", manifest(ELLIPTIC), "--ext", "2"])
    assert (code, lines) == (0, ["N_2=16"])


def test_count_line_extension(manifest, capsys):
    code, lines = run_lines(capsys, ["count", manifest(LINE_F5), "--ext", "2"])
    assert (code, lines) == (0, ["N_2=26"])


def test_count_line_past_the_budget_bits_is_refused(manifest, capsys):
    """q^j for j >= budget.bit_length() exceeds the budget: a line that far
    out ends in BudgetExceeded and exit 3, not in printing a number of
    thousands of digits."""
    assert main(["count", manifest(LINE_F3), "--ext", "10000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: enumeration of 3^10000 points exceeds budget {10**6}\n"
    code, lines = run_lines(capsys, ["count", manifest(LINE_F3), "--ext", "19"])
    assert (code, lines) == (0, [f"N_19={3**19 + 1}"])  # 19 < (10^6).bit_length()


def test_count_diagram_counts_total_space(manifest, capsys):
    code, lines = run_lines(capsys, ["count", manifest(DIAGRAM)])
    assert (code, lines) == (0, ["N_1=2"])


def test_count_invalid_inputs(manifest, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["count", str(bad)]) == 2
    capsys.readouterr()
    assert main(["count", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert main(["count", manifest({"kind": "elliptic", "p": 3, "k": 1})]) == 2
    capsys.readouterr()
    assert main(["count", manifest({"kind": "hyperelliptic", "p": 3, "k": 1,
                                    "f": [0, 0, 1, 1]})]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc,err", [
    ({"kind": "line", "p": 2, "k": 53}, "extension degree k=53 exceeds 52"),
    ({"kind": "hyperelliptic", "p": 3, "k": 1, "f": [1] * 1026}, "deg f = 1025 exceeds 1024"),
    ({"kind": "biquadratic", "p": 3, "k": 1, "f": [1] * 1024, "g": [1] * 3},
     "deg f + deg g = 1025 exceeds 1024"),
], ids=["k", "deg_f", "deg_f_plus_deg_g"])
def test_manifests_above_a_cap_exit_2(manifest, capsys, doc, err):
    assert main(["count", manifest(doc)]) == 2
    assert capsys.readouterr().err == f"error: TooLarge: {err}\n"


def test_count_budget_exit_code(manifest, capsys):
    assert main(["--budget", "2", "count", manifest(ELLIPTIC)]) == 3
    # 3^10000 is refused before it is computed, and the message prints
    assert main(["count", manifest(ELLIPTIC), "--ext", "10000"]) == 3
    assert "3^10000" in capsys.readouterr().err


# --- zeta ------------------------------------------------------------------

def test_zeta_elliptic(manifest, capsys):
    code, lines = run_lines(capsys, ["zeta", manifest(ELLIPTIC)])
    assert code == 0
    assert lines[0] == "L=[1,0,3]"
    assert lines[1] == "genus=1"
    assert lines[2] == "rh_passed=true"
    assert len(lines) == 3


def test_zeta_line(manifest, capsys):
    code, lines = run_lines(capsys, ["zeta", manifest(LINE_F3)])
    assert code == 0
    assert lines[0] == "L=[1]"
    assert lines[1] == "genus=0"


def test_zeta_single_count_prefers_genus_zero(manifest, capsys):
    # with only N_1 = 4 available, genus 0 already explains the data
    code, lines = run_lines(capsys, ["zeta", manifest(ELLIPTIC), "--max-ext", "1"])
    assert code == 0
    assert lines[0] == "L=[1]"
    assert lines[1] == "genus=0"


def test_zeta_inconsistent_counts(capsys):
    code, lines = run_lines(capsys, ["zeta", "--q", "3", "--counts", "9,10"])
    assert code == 1
    assert lines == ["genus=none"]


def test_zeta_direct_counts(capsys):
    code, lines = run_lines(capsys, ["zeta", "--q", "3", "--counts", "4,16"])
    assert code == 0
    assert lines[0] == "L=[1,0,3]"


def test_zeta_refuses_more_counts_than_the_limit(capsys):
    """MAX_COUNTS counts of the projective line answer genus 0; one more is
    refused with exit 2 and prints nothing."""
    counts = [str(3**j + 1) for j in range(1, MAX_COUNTS + 2)]
    code, lines = run_lines(capsys, ["zeta", "--q", "3", "--counts", ",".join(counts[:-1])])
    assert (code, lines) == (0, ["L=[1]", "genus=0", "rh_passed=true"])
    assert main(["zeta", "--q", "3", "--counts", ",".join(counts)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: TooLarge: {MAX_COUNTS + 1} counts exceed "
                            f"the limit {MAX_COUNTS}\n")


def test_zeta_counts_past_the_int_str_limit_find_no_genus(capsys):
    """Four counts of 4,001 digits fit no genus: genus=none and exit 1,
    quickly, where formatting a coefficient of theirs into an error message
    once passed Python's 4,300-digit int-to-str limit and ended in exit 2."""
    counts = ",".join(str(10**4000 + i) for i in range(1, 5))
    start = time.perf_counter()
    code, lines = run_lines(capsys, ["zeta", "--q", "3", "--counts", counts])
    assert time.perf_counter() - start < 1
    assert (code, lines) == (1, ["genus=none"])


def test_zeta_input_validation(capsys):
    assert main(["zeta", "--counts", "4,16"]) == 2   # --q missing
    capsys.readouterr()
    assert main(["zeta", "--q", "3", "--counts", "4,x"]) == 2
    capsys.readouterr()
    assert main(["zeta"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("q", ["6", "-3"])
def test_zeta_q_not_prime_power(capsys, q):
    assert main(["zeta", "--q", q, "--counts", "7,37"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: NotPrimePower: field size {q} is not a prime power\n"


# --- gram ------------------------------------------------------------------

def test_gram_absolute(manifest, capsys):
    code, lines = run_lines(capsys, ["gram", manifest(ELLIPTIC), "--order", "2"])
    assert code == 0
    assert lines[2] == "row0=[2, 0, -6]"
    assert lines[3] == "row1=[0, 6, 0]"
    assert lines[4] == "row2=[-6, 0, 18]"
    assert lines[5] == "psd=true"


def test_gram_relative(manifest, capsys):
    code, lines = run_lines(capsys, ["gram", manifest(ELLIPTIC),
                                     "--order", "1", "--matrix", "relative"])
    assert code == 0
    assert lines[2] == "row0=[2, 0]"
    assert lines[3] == "row1=[0, 6]"
    assert lines[4] == "psd=true"


def test_gram_diagram(manifest, capsys):
    code, lines = run_lines(capsys, ["gram", manifest(DIAGRAM), "--order", "1"])
    assert code == 0
    assert lines[2] == "row0=[4, 2]"
    assert lines[3] == "row1=[2, 12]"
    assert lines[4] == "psd=true"


def test_gram_relative_needs_hyperelliptic(manifest, capsys):
    assert main(["gram", manifest(LINE_F3), "--matrix", "relative"]) == 2
    capsys.readouterr()


def test_gram_order_zero_is_one_by_one(manifest, capsys):
    code, lines = run_lines(capsys, ["gram", manifest(ELLIPTIC), "--order", "0"])
    assert code == 0
    assert lines[1:] == ["labels=['frob^0|absolute']", "row0=[2]", "psd=true"]


@pytest.mark.parametrize("doc, extra", [
    (ELLIPTIC, []),
    (ELLIPTIC, ["--matrix", "relative"]),
    (DIAGRAM, []),
])
def test_gram_negative_order_is_invalid_input(manifest, capsys, doc, extra):
    code, lines = run_lines(capsys, ["gram", manifest(doc), "--order", "-1"] + extra)
    assert (code, lines) == (2, [])


def test_gram_order_past_the_psd_limit_prints_nothing(manifest, capsys):
    """Order 8 is a 9 x 9 matrix, past the exact-minor limit: the refusal
    comes before any row is printed."""
    assert main(["gram", manifest(ELLIPTIC), "--order", "8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: TooLarge: ")


# --- bounds ----------------------------------------------------------------

def test_bounds_elliptic_json(manifest, capsys):
    code = main(["bounds", manifest(ELLIPTIC), "--order", "2"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert [c["name"] for c in doc["checks"]] == ["weil_j1", "weil_j2"]
    assert [c["margin"] for c in doc["checks"]] == [12, 0]
    assert all(c["holds"] for c in doc["checks"])


def test_bounds_diagram(manifest, capsys):
    code = main(["bounds", manifest(DIAGRAM), "--order", "1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    diagram_check = next(c for c in doc["checks"] if c["name"] == "diagram")
    assert diagram_check["margin"] == 44
    assert all(c["holds"] for c in doc["checks"])


def test_bounds_certificate_override(manifest, capsys):
    doc = dict(DIAGRAM)
    doc["smooth"] = False
    assert main(["bounds", manifest(doc), "--order", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", [ELLIPTIC, LINE_F3, DIAGRAM])
@pytest.mark.parametrize("order", ["0", "-1"])
def test_bounds_order_below_one_is_invalid_input(manifest, capsys, doc, order):
    code = main(["bounds", manifest(doc), "--order", order])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: InvalidDegree:")


def test_bounds_csv_and_out(manifest, tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code = main(["bounds", manifest(LINE_F3), "--format", "csv",
                 "--out", str(out_file)])
    printed = capsys.readouterr().out
    assert code == 0
    assert printed == f"wrote {out_file}\n"
    lines = out_file.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,holds,margin,scale"
    assert len(lines) == 3  # header + weil j=1,2


# --- feasibility -----------------------------------------------------------

def test_feasibility_output(capsys):
    code, lines = run_lines(capsys, ["feasibility", "3", "1", "2"])
    assert code == 0
    assert lines[0] == "max_N1=7"
    assert lines[1] == "witness=(7, 7)"
    assert lines[2].startswith("scanned=")
    assert lines[3] == "ihara_floor=7"
    assert lines[4] == "within_closed_form=true"


def test_feasibility_genus_zero(capsys):
    code, lines = run_lines(capsys, ["feasibility", "3", "0", "2"])
    assert code == 0
    assert lines[0] == "max_N1=4"
    assert lines[3] == "ihara_floor=none"


def test_feasibility_default_order_is_two(capsys):
    code, lines = run_lines(capsys, ["feasibility", "4", "1"])
    assert code == 0
    assert lines[0] == "max_N1=9"


def test_feasibility_error_codes(capsys):
    assert main(["feasibility", "65", "1"]) == 3
    capsys.readouterr()
    assert main(["feasibility", "3", "-1"]) == 2
    capsys.readouterr()
    assert main(["feasibility", "3", "1", "4"]) == 2
    capsys.readouterr()


def test_feasibility_past_the_scan_budget_exits_3(monkeypatch, capsys):
    """A scan that would visit more than MAX_SCANNED vectors ends in
    BudgetExceeded and exit 3: (3, 8, 3) visits 27, so it answers at a
    budget of 27 and is refused at 26; (64, 1000, 3), which visits about
    4.6 million, is refused at the stated budget."""
    monkeypatch.setattr(feasibility, "MAX_SCANNED", 27)
    code, lines = run_lines(capsys, ["feasibility", "3", "8", "3"])
    assert (code, lines[2]) == (0, "scanned=27")
    monkeypatch.setattr(feasibility, "MAX_SCANNED", 26)
    assert main(["feasibility", "3", "8", "3"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: enumeration of 27 points exceeds budget 26\n")
    monkeypatch.undo()
    assert main(["feasibility", "64", "1000", "3"]) == 3
    assert capsys.readouterr().err == (f"error: enumeration of {feasibility.MAX_SCANNED + 1} "
                                       f"points exceeds budget {feasibility.MAX_SCANNED}\n")


def test_feasibility_rejects_invalid_field_and_genus(capsys):
    for q in ("6", "0", "1", "-3"):
        assert main(["feasibility", q, "1", "2"]) == 2
        assert "NotPrimePower" in capsys.readouterr().err
    assert main(["feasibility", "3", "-1", "2"]) == 2
    assert "NegativeGenus" in capsys.readouterr().err


# --- corpus ----------------------------------------------------------------

CORPUS_SPEC = {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, 1]}


def test_corpus_run_and_determinism(manifest, tmp_path, capsys):
    spec_path = manifest(CORPUS_SPEC, "spec.json")
    code, lines = run_lines(capsys, ["corpus", "run", spec_path,
                                     "--out", str(tmp_path / "a")])
    assert code == 0
    assert lines[2] == "instances=2"
    passed, total = lines[3].removeprefix("checks=").split("/")
    assert passed == total
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "b")]) == 0
    capsys.readouterr()
    report_a = (tmp_path / "a" / "report.json").read_bytes()
    report_b = (tmp_path / "b" / "report.json").read_bytes()
    assert report_a == report_b
    assert (tmp_path / "a" / "summary.csv").exists()


def test_corpus_parallel_matches_serial(manifest, tmp_path, capsys):
    spec_path = manifest(CORPUS_SPEC, "spec.json")
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "s")]) == 0
    capsys.readouterr()
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "p"),
                 "--jobs", "3"]) == 0
    capsys.readouterr()
    assert ((tmp_path / "s" / "report.json").read_bytes()
            == (tmp_path / "p" / "report.json").read_bytes())


def test_corpus_empty_mix(manifest, tmp_path, capsys):
    spec_path = manifest({"seed": 42, "fields": [[3, 1]], "mix": [0, 0, 0]},
                         "spec.json")
    code, lines = run_lines(capsys, ["corpus", "run", spec_path,
                                     "--out", str(tmp_path / "empty")])
    assert code == 0
    assert lines[2] == "instances=0"


def test_corpus_error_codes(manifest, tmp_path, capsys):
    spec_path = manifest({"seed": 42, "fields": [[2, 1]], "mix": [1, 0, 0]},
                         "even.json")
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    spec_path = manifest({"fields": [[3, 1]], "mix": [1, 0, 0]}, "noseed.json")
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "y")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", [
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, 0], "degrees": [1, 2]},
    {"seed": 42, "fields": [[3, 1]], "mix": [1, 0, 0], "degrees": {"plane": 5}},
    {"seed": 42, "fields": [[3, 1]], "mix": [10**8, 0, 0]},
    {"seed": 42, "fields": [[3, 1]] * 2, "mix": [0, MAX_INSTANCES // 2, 1]},
], ids=["degrees_a_list", "range_a_number", "mix_too_large", "fields_times_mix_too_large"])
def test_corpus_malformed_or_too_large_spec_exits_2(manifest, tmp_path, capsys, doc):
    """A malformed `degrees` and a spec above MAX_INSTANCES end in exit 2
    with one error line, before any instance is generated."""
    start = time.perf_counter()
    assert main(["corpus", "run", manifest(doc, "spec.json"), "--out", str(tmp_path / "x")]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not (tmp_path / "x").exists()


def test_corpus_refuses_an_over_budget_record_before_its_first_count(manifest, tmp_path,
                                                                     capsys, monkeypatch):
    """A plane cubic over F_97 needs N_1..N_4, and 97^4 exceeds the default
    budget: its record is refused before N_1 is counted, where counting
    N_1..N_3 first took seconds."""
    counted, count = [], curves.count_points

    def count_points(curve, j, budget):
        counted.append(j)
        return count(curve, j, budget)

    monkeypatch.setattr(curves, "count_points", count_points)
    spec_path = manifest({"seed": 42, "fields": [[97, 1]], "mix": [0, 5, 0]}, "spec.json")
    start = time.perf_counter()
    assert main(["corpus", "run", spec_path, "--out", str(tmp_path / "x")]) == 3
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == "error: enumeration of 88529281 points exceeds budget 1000000\n"
    assert counted == []


def test_corpus_over_budget_exit_code_same_in_parallel(manifest, tmp_path, capsys):
    spec_path = manifest({"seed": 42, "fields": [[29, 1]], "mix": [0, 0, 1]}, "over.json")
    codes = []
    for jobs in ("1", "2"):
        codes.append(main(["--budget", "1000", "corpus", "run", spec_path,
                           "--out", str(tmp_path / jobs), "--jobs", jobs]))
        assert "exceeds budget 1000" in capsys.readouterr().err
    assert codes == [3, 3]
