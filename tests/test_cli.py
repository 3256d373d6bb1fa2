"""End-to-end command-line behavior, exercised in process."""

import json

import pytest

from weilgram.cli import main

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


def test_count_budget_exit_code(manifest, capsys):
    assert main(["--budget", "2", "count", manifest(ELLIPTIC)]) == 3
    capsys.readouterr()


# --- zeta ------------------------------------------------------------------

def test_zeta_elliptic(manifest, capsys):
    code, lines = run_lines(capsys, ["zeta", manifest(ELLIPTIC)])
    assert code == 0
    assert lines[0] == "L=[1,0,3]"
    assert lines[1] == "genus=1"
    assert lines[2].startswith("rh_max_deviation=")
    assert lines[3] == "rh_passed=true"


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


def test_zeta_input_validation(capsys):
    assert main(["zeta", "--counts", "4,16"]) == 2   # --q missing
    capsys.readouterr()
    assert main(["zeta", "--q", "3", "--counts", "4,x"]) == 2
    capsys.readouterr()
    assert main(["zeta"]) == 2
    capsys.readouterr()


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


def test_corpus_over_budget_exit_code_same_in_parallel(manifest, tmp_path, capsys):
    spec_path = manifest({"seed": 42, "fields": [[29, 1]], "mix": [0, 0, 1]}, "over.json")
    codes = []
    for jobs in ("1", "2"):
        codes.append(main(["--budget", "1000", "corpus", "run", spec_path,
                           "--out", str(tmp_path / jobs), "--jobs", jobs]))
        assert "exceeds budget 1000" in capsys.readouterr().err
    assert codes == [3, 3]
