"""Self-test of the benchmark's failure accounting.

    python3 perfbench/selftest.py

Runs the `diagram_corpus` workload with an over-budget input (budget 1000,
while F_{29^3} alone has 24389 elements) through the CLI and in-process, at
jobs 1 and jobs 2.  `run_corpus` stops at the first record that raises, so
every run must count all of its items as failed and record the exception
type, without the benchmark crashing.

Known defect of the program, recorded here and not worked around: at jobs 2
the failure reaches the caller as `BrokenProcessPool`, not `BudgetExceeded`,
because `BudgetExceeded(needed, budget)` cannot be unpickled when the pool
sends it back (`__init__() missing 1 required positional argument:
'budget'`).  `SingularCurve` has the same two-argument signature.
"""

from __future__ import annotations

import sys

import worker

OVER_BUDGET = 1000


def main() -> int:
    worker.use_checkout_sources()
    problems = []
    for via in ("cli", "inproc"):
        for jobs in (1, 2):
            workload = worker.DiagramCorpus(via=via, jobs=jobs, budget=OVER_BUDGET)
            workload.setup(worker.REFERENCE_SEED)
            try:
                done = workload.run(None)
            finally:
                workload.close()
            verdicts = worker.check_items(workload, None, done, None)
            failed = sum(not ok for ok, _ in verdicts)
            types = sorted({error for _, _, error in done if error})
            print(f"via={via} jobs={jobs}: {failed}/{len(done)} items failed, "
                  f"exception types {types}")
            if failed != len(done) or len(done) != workload.expected:
                problems.append(f"via={via} jobs={jobs}: {failed}/{len(done)} counted as failed")
            if not types:
                problems.append(f"via={via} jobs={jobs}: no exception type recorded")
            if jobs == 2 and types == ["BrokenProcessPool"]:
                print("  known defect present: BudgetExceeded cannot be unpickled, "
                      "so the pool reports BrokenProcessPool")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
