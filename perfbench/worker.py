"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--via cli|inproc] [--jobs J] [--trace]

`run.py` starts this script once per repetition, so every repetition sees
cold program caches (`get_table`, `construct_field`, `builtin_curves`), as a
user's process does.  The last line of stdout is one JSON object:

* ``t_ready``: ``time.monotonic()`` when set-up ended and the timed phase
  began; the caller subtracts its own launch time to get the set-up time.
* ``wall_s``: duration of the timed phase.
* ``items``: per item, its latency ``s`` (null where the program does not
  expose items one by one), the exception type if it raised, whether its
  output passed every check, and a digest of its exact output.
* ``peak_rss_kb``: the larger of this process's peak RSS and that of its
  largest reaped descendant (the CLI and its pool workers): the largest
  single process, not a sum.
* ``trace``: per-layer spans and counters when ``--trace`` is given.

Checks run after the timed phase: every record must pass all of its own
checks, the workload's invariants must hold, and where the reference in
``reference/<workload>.json`` applies (fixed inputs, or the reference seed)
every exact output field must equal it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from planes import is_singular_point, sample_planes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"

REFERENCE_SEED = 42
BUDGET = 10**7
CORPUS_PRIMES = (29, 31, 37, 41, 43, 47)
CORPUS_MIX = (0, 0, 6)
FEASIBILITY_ORDER = 3
FEASIBILITY_GENERA = range(1, 9)
FEASIBILITY_MAX_Q = 64
FIXED_INPUT = {"curated", "feasibility_grid"}


# --- exact outputs -----------------------------------------------------------

def strip_float_diagnostics(record):
    """The record without ``max_deviation``, the float diagnostic of the RH
    check; everything left is exact."""
    if isinstance(record, dict):
        return {k: strip_float_diagnostics(v) for k, v in record.items()
                if k != "max_deviation"}
    if isinstance(record, list):
        return [strip_float_diagnostics(v) for v in record]
    return record


def canonical(out) -> str:
    return json.dumps(out, sort_keys=True, separators=(",", ":"))


def digest(out) -> str:
    return hashlib.sha256(canonical(out).encode()).hexdigest()[:16]


def record_check(record):
    """A corpus record must pass every check it ran on itself."""
    if record["checks_passed"] != record["checks_total"]:
        return f"{record['label']}: {record['checks_passed']}/{record['checks_total']} checks"
    return None


def timed_items(inputs, evaluate):
    """Closed loop: each item starts when the previous one has finished."""
    done = []
    for x in inputs:
        t0 = time.perf_counter()
        try:
            out, error = evaluate(x), None
        except Exception as exc:  # an item that raises counts as failed
            out, error = None, type(exc).__name__
        done.append((time.perf_counter() - t0, out, error))
    return done


# --- workloads -------------------------------------------------------------

class Workload:
    """`setup` makes the inputs from the seed; `run` is the timed phase and
    returns (latency, exact output, exception type) per item; `check` gives
    the reason one output is wrong, or None; `close` removes what set-up
    wrote."""

    def close(self):
        pass


class Curated(Workload):
    def setup(self, seed):
        from weilgram.corpus import builtin_curves, evaluate_curve_record
        self.evaluate = evaluate_curve_record
        return builtin_curves()

    def run(self, curves):
        return timed_items(curves, lambda c: strip_float_diagnostics(
            self.evaluate(c, budget=BUDGET)))

    def check(self, curve, out):
        return record_check(out)


def prime_powers(limit):
    out = []
    for q in range(2, limit + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        r = q
        while r % p == 0:
            r //= p
        if r == 1:
            out.append(q)
    return out


class FeasibilityGrid(Workload):
    def setup(self, seed):
        from weilgram.feasibility import FeasibilityProblem, ihara_closed_form, max_n1
        self.max_n1, self.ihara = max_n1, ihara_closed_form
        return [FeasibilityProblem(q, g, FEASIBILITY_ORDER)
                for q in prime_powers(FEASIBILITY_MAX_Q) for g in FEASIBILITY_GENERA]

    def run(self, problems):
        def evaluate(problem):
            result = self.max_n1(problem)
            return {"q": problem.q, "g": problem.g, "max_n1": result.max_n1,
                    "witness": list(result.witness)}
        return timed_items(problems, evaluate)

    def check(self, problem, out):
        floor = self.ihara(problem.q, problem.g).floor
        if out["max_n1"] > floor:
            return f"q={problem.q} g={problem.g}: max_n1 {out['max_n1']} > ihara floor {floor}"
        if out["witness"][0] != out["max_n1"] or len(out["witness"]) != FEASIBILITY_ORDER:
            return f"q={problem.q} g={problem.g}: witness {out['witness']} does not match"
        return None


class PlaneValidation(Workload):
    def setup(self, seed):
        from weilgram.curves import parse_manifest
        from weilgram.errors import SingularCurve
        from weilgram.finite_field import construct_field
        self.parse, self.singular, self.field = parse_manifest, SingularCurve, construct_field
        return sample_planes(seed)

    def run(self, items):
        def evaluate(item):
            try:
                return {"genus": self.parse(item["manifest"]).genus}
            except self.singular as exc:
                return {"witness": list(exc.witness), "j": exc.extension_degree}
        return timed_items(items, evaluate)

    def check(self, item, out):
        if item["expect"] == "smooth":
            if out != {"genus": item["genus"]}:
                return f"smooth curve {item['manifest']['F']} gave {out}"
            return None
        if "witness" not in out:
            return f"singular curve {item['manifest']['F']} accepted as smooth"
        modulus = self.field(item["manifest"]["p"], out["j"]).modulus
        if not is_singular_point(item["manifest"], out["witness"], modulus):
            return f"witness {out} of {item['manifest']['F']} is not a singular point"
        if item["point"] is not None and (out["witness"] != item["point"] or out["j"] != 1):
            return f"witness {out} of {item['manifest']['F']}, expected {item['point']} at j=1"
        return None


def corpus_spec_doc(seed):
    return {"seed": seed, "fields": [[p, 1] for p in CORPUS_PRIMES], "mix": list(CORPUS_MIX)}


def cli_error_type(returncode, stderr) -> str:
    """Exception type of a failed `weilgram corpus run`, from its stderr."""
    if returncode == 3:  # the CLI's exit code for BudgetExceeded
        return "BudgetExceeded"
    lines = stderr.strip().splitlines()
    last = lines[-1] if lines else ""
    if last.startswith("error: "):
        last = last[len("error: "):]
    head = last.split(":", 1)[0].rsplit(".", 1)[-1]
    return head if head.isidentifier() else f"exit code {returncode}"


class DiagramCorpus(Workload):
    """`weilgram corpus run` as a subprocess (``via="cli"``), or `run_corpus`
    in this process (``via="inproc"``).  `run_corpus` stops at the first
    record that raises, so a run that raises fails all of its items."""

    def __init__(self, via="cli", jobs=2, budget=BUDGET):
        self.via, self.jobs, self.budget = via, jobs, budget

    def setup(self, seed):
        from weilgram.corpus import parse_corpus_spec, run_corpus
        self.run_corpus = run_corpus
        doc = corpus_spec_doc(seed)
        self.spec = parse_corpus_spec(doc)
        self.expected = len(self.spec.fields) * sum(self.spec.mix)
        tmp_root = ROOT / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(dir=tmp_root))
        self.spec_path = self.tmp / "spec.json"
        self.spec_path.write_text(json.dumps(doc))
        return None

    def run(self, _):
        if self.via == "cli":
            records, error = self._run_cli()
        else:
            try:
                records, error = self.run_corpus(self.spec, jobs=self.jobs,
                                                 budget=self.budget)["records"], None
            except Exception as exc:
                records, error = None, type(exc).__name__
        if records is None:
            return [(None, None, error)] * self.expected
        return [(None, strip_float_diagnostics(r), None) for r in records]

    def _run_cli(self):
        out_dir = self.tmp / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "weilgram.cli", "--budget", str(self.budget),
             "corpus", "run", str(self.spec_path), "--jobs", str(self.jobs),
             "--out", str(out_dir)],
            capture_output=True, text=True, cwd=ROOT)
        report = out_dir / "report.json"
        if proc.returncode not in (0, 1) or not report.is_file():
            return None, cli_error_type(proc.returncode, proc.stderr)
        return json.loads(report.read_text())["records"], None

    def check(self, _, out):
        return record_check(out)

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {
    "curated": Curated,
    "diagram_corpus": DiagramCorpus,
    "plane_validation": PlaneValidation,
    "feasibility_grid": FeasibilityGrid,
}


def reference_outputs(name, seed):
    """The frozen exact outputs, where they apply to this seed."""
    path = REFERENCE_DIR / f"{name}.json"
    if not path.is_file():
        return None
    ref = json.loads(path.read_text())
    if name in FIXED_INPUT or ref["seed"] == seed:
        return ref["outputs"]
    return None


def check_items(workload, inputs, done, reference):
    """Per item: (ok, reason).  An item fails if it raised, failed a check,
    or differs from the reference."""
    if reference is not None and len(reference) != len(done):
        return [(False, f"{len(done)} outputs, reference has {len(reference)}")] * len(done)
    per_input = inputs if inputs is not None else [None] * len(done)
    verdicts = []
    for i, ((_, out, error), x) in enumerate(zip(done, per_input)):
        if error is not None:
            verdicts.append((False, f"raised {error}"))
            continue
        why = workload.check(x, out)
        if why is None and reference is not None and canonical(out) != canonical(reference[i]):
            why = f"item {i} differs from the reference"
        verdicts.append((why is None, why))
    return verdicts


def use_checkout_sources():
    """Import the program from this checkout's src/, here and in children."""
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])


def make_workload(name, via="cli", jobs=2):
    if name == "diagram_corpus":
        return DiagramCorpus(via=via, jobs=jobs)
    return WORKLOADS[name]()


def peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--via", choices=("cli", "inproc"), default="cli")
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    use_checkout_sources()
    import weilgram  # noqa: F401  (part of set-up: the program's import cost)

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    workload = make_workload(args.workload, args.via, args.jobs)
    inputs = workload.setup(args.seed)
    t_ready = time.monotonic()
    try:
        if args.setup_only:
            print(json.dumps({"t_ready": t_ready}))
            return 0
        t0 = time.perf_counter()
        done = workload.run(inputs)
        wall = time.perf_counter() - t0
        trace = tracer.snapshot() if tracer else None
    finally:
        workload.close()

    verdicts = check_items(workload, inputs, done, reference_outputs(args.workload, args.seed))
    items = [{"s": s, "error": error, "ok": ok, "why": why,
              "digest": digest(out) if out is not None else None}
             for (s, out, error), (ok, why) in zip(done, verdicts)]
    print(json.dumps({"t_ready": t_ready, "wall_s": wall, "items": items,
                      "peak_rss_kb": peak_rss_kb(), "trace": trace}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
