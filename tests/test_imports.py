"""The package namespace loads lazily, table-free paths never load numpy, and
the curve families share one field arithmetic.

Each check runs in a fresh interpreter, since the test session itself has
long since imported every module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from weilgram.errors import DEFAULT_BUDGET

SRC = str(Path(__file__).resolve().parent.parent / "src")

# the public names of the package, in order, as the eager namespace had them
PUBLIC = [
    "fppoly", "errors", "finite_field", "tables", "curves", "gram", "bounds",
    "BoundReport", "CheckRecord", "check_diagram", "check_relative",
    "check_relative_second", "check_weil", "full_report", "report_to_csv",
    "report_to_dict", "report_to_json", "weil_interval",
    "zeta", "corpus",
    "LCG", "CorpusSpec", "builtin_covers", "builtin_curves", "default_corpus_spec",
    "generate_corpus", "parse_corpus_spec", "run_corpus", "seeded_diagrams",
    "summary_csv", "write_report",
    "DEFAULT_BUDGET", "CoverData", "CurveModel", "DiagramData", "PointCountSeries",
    "count_points", "count_series", "hyperelliptic_cover", "hyperelliptic_genus",
    "make_biquadratic", "make_hyperelliptic", "make_projective_line",
    "make_smooth_plane", "parse_manifest", "serialize_manifest",
    "WeilgramError",
    "feasibility",
    "FeasibilityProblem", "FeasibilityResult", "IharaClosedForm", "feasible_counts",
    "ihara_closed_form", "max_n1",
    "FieldSpec", "construct_field", "extension_of",
    "GramMatrix", "PSDVerdict", "combined_vector_gram", "gram_absolute",
    "gram_diagram", "gram_relative", "int_det", "is_psd", "psd_check",
    "schwarz_margin",
    "LPolynomial", "check_functional_equation", "check_riemann_hypothesis",
    "extrapolate", "infer_genus", "l_from_counts", "power_sums",
]
SUBMODULES = ["fppoly", "errors", "finite_field", "tables", "curves", "gram",
              "bounds", "zeta", "corpus", "feasibility"]

# runs `python -m weilgram.cli ARGS`, then prints to stderr whether numpy was loaded
CLI_THEN_NUMPY = ("import atexit, runpy, sys; "
                  "atexit.register(lambda: print('numpy' in sys.modules, file=sys.stderr)); "
                  "runpy.run_module('weilgram.cli', run_name='__main__', alter_sys=True)")


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("module", ["weilgram", "weilgram.feasibility", "weilgram.zeta",
                                    "weilgram.gram", "weilgram.finite_field",
                                    "weilgram.fppoly", "weilgram.errors"])
def test_table_free_modules_load_no_numpy(module):
    result = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_table_free_names_load_no_numpy():
    result = run_python("import sys, weilgram\n"
                        "weilgram.max_n1, weilgram.is_psd, weilgram.l_from_counts\n"
                        "weilgram.construct_field, weilgram.DEFAULT_BUDGET, weilgram.WeilgramError\n"
                        "print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


@pytest.mark.parametrize("argv,stdout", [
    (["feasibility", "64", "8", "3"],
     "max_N1=193\nwitness=(193, 3073, 270337)\nscanned=3\n"
     "ihara_floor=262\nwithin_closed_form=true\n"),
    (["zeta", "--q", "3", "--counts", "4,16"], "L=[1,0,3]\ngenus=1\nrh_passed=true\n"),
    (["--help"], None),
], ids=["feasibility", "zeta", "help"])
def test_table_free_cli_commands_load_no_numpy(argv, stdout):
    result = run_python(CLI_THEN_NUMPY, *argv)
    assert result.returncode == 0, result.stderr
    assert result.stderr == "False\n"
    if stdout is not None:
        assert result.stdout == stdout
    else:
        assert f"(default {DEFAULT_BUDGET})" in result.stdout


def test_manifest_commands_still_load_numpy(tmp_path):
    """The control: a command that reads a manifest imports `curves`, and
    numpy with it, so the check above can see numpy when it is loaded."""
    manifest = tmp_path / "line.json"
    manifest.write_text(json.dumps({"kind": "line", "p": 3, "k": 1}))
    result = run_python(CLI_THEN_NUMPY, "count", str(manifest), "--ext", "2")
    assert result.returncode == 0, result.stderr
    assert (result.stdout, result.stderr) == ("N_2=10\n", "True\n")


def test_corpus_loads_the_process_pool_only_when_a_pool_starts():
    result = run_python("import sys, weilgram.corpus\n"
                        "print('concurrent.futures.process' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_public_names_resolve_to_their_home_objects():
    """Each submodule name is the submodule; each class or function is the
    object its defining module holds; `DEFAULT_BUDGET` is the one in
    `errors`, which `curves` shares."""
    code = """
import importlib, json, sys
import weilgram
submodules = json.loads(sys.argv[1])
wrong = []
for name in weilgram.__all__:
    obj = getattr(weilgram, name)
    if name in submodules:
        ok = obj is importlib.import_module("weilgram." + name)
    else:
        home = getattr(obj, "__module__", "weilgram.errors")
        ok = home.startswith("weilgram.") and getattr(importlib.import_module(home), name) is obj
    if not ok:
        wrong.append(name)
from weilgram import curves, errors
ok_budget = weilgram.DEFAULT_BUDGET is errors.DEFAULT_BUDGET is curves.DEFAULT_BUDGET
print(json.dumps({"all": weilgram.__all__, "dir": dir(weilgram), "wrong": wrong,
                  "budget": ok_budget}))
"""
    result = run_python(code, json.dumps(SUBMODULES))
    assert result.returncode == 0, result.stderr
    out = json.loads(result.stdout)
    assert out["all"] == PUBLIC
    assert out["dir"] == sorted(PUBLIC)
    assert out["wrong"] == []
    assert out["budget"]


def test_unknown_attribute_raises_attribute_error():
    result = run_python(
        "import weilgram\n"
        "try:\n    weilgram.no_such_name\n"
        "except AttributeError as exc:\n    print(exc)\n")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "module 'weilgram' has no attribute 'no_such_name'\n"

    import weilgram
    assert not hasattr(weilgram, "no_such_name")
    assert weilgram.__version__ == "0.1.0"


def test_oracles_take_only_the_field_models_from_the_library():
    """The brute-force oracles share no code with the paths they check: from
    weilgram they import FieldSpec, construct_field and extension_of only,
    and nothing from tables, fppoly or curves."""
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module or "", alias.name) for alias in node.names]
    from_library = [(module, name) for module, name in imported
                    if module.split(".")[0] == "weilgram"]
    assert from_library
    assert {name for _, name in from_library} <= {"FieldSpec", "construct_field", "extension_of"}
    forbidden = {"weilgram.tables", "weilgram.fppoly", "weilgram.curves"}
    assert not {module for module, _ in from_library} & forbidden


def test_curves_use_only_log_space_table_arithmetic():
    """One field arithmetic in the library: `curves` calls no index-space
    `mul`, `div`, `add` or `eval_poly` on a table (the `fppoly` functions
    of those names work on polynomials and stay), and `FieldTable` defines
    none of `div`, `add` and `eval_poly`.  One evaluator and one orbit
    routine: `curves` defines no `_square_roots` (a count reads f through
    `eval_logs`, at every x or at the orbit leaders), `FieldTable` defines
    no `_progression` (one Horner path) and no `add_scalar`,
    `frobenius_orbits` is the one `FieldTable` member about orbits, and
    `_count_plane` reads it.  It is one rotation filter: its only nested
    function is `rotate`, and `tables` names no `least_digit`."""
    package = Path(SRC) / "weilgram"
    index_space = {"mul", "div", "add", "eval_poly"}
    curves_tree = ast.parse((package / "curves.py").read_text())
    functions = {node.name: node for node in curves_tree.body
                 if isinstance(node, ast.FunctionDef)}
    assert "_square_roots" not in functions
    assert "frobenius_orbits" in {node.attr for node in ast.walk(functions["_count_plane"])
                                  if isinstance(node, ast.Attribute)}
    calls = [node.func for node in ast.walk(curves_tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)]
    table_calls = [(func.lineno, func.attr) for func in calls if func.attr in index_space
                   and not (isinstance(func.value, ast.Name) and func.value.id == "fppoly")]
    assert table_calls == []
    tree = ast.parse((package / "tables.py").read_text())
    table_class = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "FieldTable")
    methods = {node.name for node in table_class.body if isinstance(node, ast.FunctionDef)}
    assert "eval_logs" in methods
    assert not methods & {"div", "add", "eval_poly", "_progression", "add_scalar"}
    assert {name for name in methods if "orbit" in name} == {"frobenius_orbits"}
    orbits = next(node for node in table_class.body
                  if isinstance(node, ast.FunctionDef) and node.name == "frobenius_orbits")
    assert [node.name for node in ast.walk(orbits) if isinstance(node, ast.FunctionDef)
            and node is not orbits] == ["rotate"]
    assert "least_digit" not in (package / "tables.py").read_text()


def test_feasibility_reads_the_place_rule_from_zeta():
    """One place-count rule: `feasibility` takes no residue (no `%`, no
    `divmod`) and imports `places_are_whole`, the rule's integer form, and
    `place_floor` from `zeta`; `feasible_counts` reads the first and
    `max_n1` the second.  `zeta` inverts N_j = sum_{d | j} d a_d by that
    recursion, so it defines no Moebius function and imports no
    factorization."""
    package = Path(SRC) / "weilgram"
    tree = ast.parse((package / "feasibility.py").read_text())
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)]
    assert "divmod" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert {("zeta", "places_are_whole"), ("zeta", "place_floor")} <= imported
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name, reads in (("feasible_counts", "places_are_whole"), ("max_n1", "place_floor")):
        assert reads in {node.id for node in ast.walk(functions[name])
                         if isinstance(node, ast.Name)}, name
    zeta_tree = ast.parse((package / "zeta.py").read_text())
    defined = {node.name for node in ast.walk(zeta_tree) if isinstance(node, ast.FunctionDef)}
    assert not {name for name in defined if name.lower().lstrip("_") in {"mu", "mobius", "moebius"}}
    assert "_prime_factors" not in {alias.name for node in ast.walk(zeta_tree)
                                    if isinstance(node, ast.ImportFrom) for alias in node.names}


def test_max_n1_reads_the_toeplitz_rows_and_one_ihara_floor():
    """One PSD routine: `gram` decides the Toeplitz data (q, c, t) of its
    Grams by the Levinson recursion and defines no general elimination
    (`_eliminate`) and no bordered corner routine (`_corner_interval`,
    `psd_corner_interval`).  `max_n1` carries the recursion's state down its
    scan (`_levinson_step`, `_levinson_interval`) and builds no Toeplitz
    rows and no GramMatrix.  The Ihara floor has one formula, `_ihara`,
    which both `max_n1` and `ihara_closed_form` call; nothing else in
    `feasibility` takes an isqrt."""
    package = Path(SRC) / "weilgram"
    tree = ast.parse((package / "feasibility.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    assert {"_levinson_step", "_levinson_interval", "_ihara"} <= names(functions["max_n1"])
    assert not {"_toeplitz", "gram_absolute", "is_psd"} & names(functions["max_n1"])
    assert "_ihara" in names(functions["ihara_closed_form"])
    assert [name for name, node in functions.items()
            if any(isinstance(n, ast.Attribute) and n.attr == "isqrt" for n in ast.walk(node))] == ["_ihara"]
    gram_tree = ast.parse((package / "gram.py").read_text())
    defined = {node.name for node in ast.walk(gram_tree) if isinstance(node, ast.FunctionDef)}
    assert {"_levinson_state", "_levinson_step", "_levinson_interval"} <= defined
    assert not {"_eliminate", "_corner_interval", "psd_corner_interval"} & defined


def test_one_z_elimination_and_lazy_candidate_walks():
    """`curves` eliminates z one way: it defines no `_poly_det` and no
    `_share_a_factor_in_z`, and `_chart_a_elimination` calls `_resultant_z`
    once.  `finite_field` and `tables` import nothing from `itertools`: their
    candidate walks are counters, never a tuple of range(p)."""
    package = Path(SRC) / "weilgram"
    tree = ast.parse((package / "curves.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_resultant_z" in functions
    assert not {"_poly_det", "_share_a_factor_in_z"} & functions.keys()
    calls = [node.func.id for node in ast.walk(functions["_chart_a_elimination"])
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert calls.count("_resultant_z") == 1
    for module in ("finite_field", "tables"):
        tree = ast.parse((package / f"{module}.py").read_text())
        imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names]
        imported += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert "itertools" not in imported, module


def test_one_double_cover_count_one_line_degree_rule_one_cover_check():
    """`count_points` counts both double covers in one branch: it calls
    `_orbit_count` once and reads the square class at infinity from that
    table, never `scalar_is_square_in`.  `_count_plane` counts the line
    x = 0 with the other lines, by no `fppoly.powmod`.  `curves` defines
    `_degrees` once, at module level, and `_count_plane` and `_gcd_degrees`
    read it.  `corpus` defines no `_second_margin_combined_det_ok` (one
    cover-check routine), and `fppoly` no `eval_at`, which only tests read
    and `tests/oracles.py` now holds."""
    package = Path(SRC) / "weilgram"
    tree = ast.parse((package / "curves.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(function):
        return [node.func.id for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]

    calls = called(functions["count_points"])
    assert (calls.count("_orbit_count"), calls.count("scalar_is_square_in")) == (1, 0)
    assert "powmod" not in {node.attr for node in ast.walk(functions["_count_plane"])
                            if isinstance(node, ast.Attribute)}
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_degrees"] == ["_degrees"]
    assert "_degrees" in functions
    for name in ("_count_plane", "_gcd_degrees"):
        assert "_degrees" in called(functions[name]), name
    for module, gone in (("corpus", "_second_margin_combined_det_ok"), ("fppoly", "eval_at")):
        tree = ast.parse((package / f"{module}.py").read_text())
        assert gone not in {node.name for node in ast.walk(tree)
                            if isinstance(node, ast.FunctionDef)}, module


def test_one_newton_pass_and_one_squarefree_test_per_polynomial():
    """`l_from_counts` and `infer_genus` construct no `Fraction`: both read
    the one integer Newton pass, `_newton`.  `make_biquadratic` does not
    call `make_hyperelliptic`, so it tests f and g once each and f g never."""
    package = Path(SRC) / "weilgram"

    def functions(module):
        tree = ast.parse((package / f"{module}.py").read_text())
        return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(function):
        return [node.func.id for node in ast.walk(function)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]

    zeta = functions("zeta")
    for name in ("l_from_counts", "infer_genus", "_newton", "_completed"):
        assert "Fraction" not in {node.id for node in ast.walk(zeta[name])
                                  if isinstance(node, ast.Name)}, name
    for name in ("l_from_counts", "infer_genus"):
        assert called(zeta[name]).count("_newton") == 1, name
    curves = functions("curves")
    assert "make_hyperelliptic" not in called(curves["make_biquadratic"])
    assert "_hyperelliptic" in called(curves["make_biquadratic"])


def test_every_error_class_is_raised_or_caught():
    """Each exception class in `errors` is raised, or caught, somewhere in the
    package outside `errors.py`, so a class whose last raise was deleted
    leaves with it."""
    package = Path(SRC) / "weilgram"
    tree = ast.parse((package / "errors.py").read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}

    def names(node):  # the class names an expression refers to
        return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))}

    used = set()
    for path in package.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    used |= names(node.exc.func if isinstance(node.exc, ast.Call) else node.exc)
                elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                    used |= names(node.type)
    assert classes and sorted(classes - used) == []
