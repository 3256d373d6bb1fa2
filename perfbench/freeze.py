"""Write reference/<workload>.json: every exact output field of each workload
at the reference seed, one item per line.

    python3 perfbench/freeze.py [WORKLOAD ...]

Run it only when the program's exact output is meant to change, and say so
in the change that commits the new references.  Outputs that fail their own
checks are not frozen.
"""

from __future__ import annotations

import sys

import worker


def freeze(name: str) -> None:
    workload = worker.make_workload(name)
    inputs = workload.setup(worker.REFERENCE_SEED)
    try:
        done = workload.run(inputs)
    finally:
        workload.close()
    bad = [why for ok, why in worker.check_items(workload, inputs, done, None) if not ok]
    if bad:
        raise SystemExit(f"{name}: not freezing, {len(bad)} items fail: {bad[:3]}")
    outputs = ",\n".join(worker.canonical(out) for _, out, _ in done)
    path = worker.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(f'{{"seed": {worker.REFERENCE_SEED}, "outputs": [\n{outputs}\n]}}\n')
    print(f"{path}: {len(done)} items")


if __name__ == "__main__":
    worker.use_checkout_sources()
    for name in sys.argv[1:] or worker.WORKLOADS:
        freeze(name)
