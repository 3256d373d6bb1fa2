"""Command-line surface: manifests in, counts/zeta/Gram/bounds/corpus out.

Subcommands: count, zeta, gram, bounds, feasibility, corpus.  Exit codes:
0 success, 1 a verdict failed (a bound check or genus inference), 2 invalid
input, 3 budget exceeded.  Machine-readable lines use a stable `key=value`
shape; matrices print one `row<i>=[...]` line per row.

Only `tables` and `curves` import numpy (`bounds` and `corpus` through
them), and this module imports those only inside the commands that read a
manifest or a corpus spec.  `feasibility`, `zeta --q .. --counts ..`,
`--help` and argument errors therefore start without numpy: on a 2-vCPU VM
(Python 3.11, no cached bytecode) `weilgram feasibility 64 8 3` runs in
80-105 ms from a cold start, against 240-310 ms with numpy loaded.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import DEFAULT_BUDGET, BudgetExceeded, WeilgramError
from .feasibility import FeasibilityProblem, ihara_closed_form, max_n1
from .gram import gram_absolute, gram_diagram, gram_relative, psd_check
from .zeta import infer_genus, l_from_counts


def _load_manifest(path: str):
    from .curves import parse_manifest

    with open(path) as fh:
        doc = json.load(fh)
    return doc, parse_manifest(doc)


def _print_matrix(label: str, M) -> None:
    verdict = psd_check(M)  # first: a matrix it refuses prints nothing
    print(f"label={label}")
    print(f"labels={list(M.labels)}")
    for i, row in enumerate(M.entries):
        print(f"row{i}=[" + ", ".join(str(v) for v in row) + "]")
    print(f"psd={'true' if verdict.psd else 'false'}")
    if not verdict.psd:
        print(f"psd_witness={verdict.witness}")


def cmd_count(args) -> int:
    from .curves import DiagramData, count_points

    _, model = _load_manifest(args.manifest)
    if isinstance(model, DiagramData):
        model = model.X
    n = count_points(model, args.ext, args.budget)
    print(f"N_{args.ext}={n}")
    return 0


def cmd_zeta(args) -> int:
    if args.manifest is None:
        if args.q is None or args.counts is None:
            raise ValueError("zeta needs a manifest, or --q together with --counts")
        q = args.q
        counts = [int(v) for v in args.counts.split(",")]
    else:
        from .curves import DiagramData, count_series

        _, model = _load_manifest(args.manifest)
        if isinstance(model, DiagramData):
            model = model.X
        q = model.q
        m = args.max_ext if args.max_ext else max(2 * model.genus + 2, 3)
        counts = list(count_series(model, m, args.budget).counts)
    g = infer_genus(q, counts)
    if g is None:
        print("genus=none")
        return 1
    L = l_from_counts(q, g, counts[:g])
    print("L=[" + ",".join(str(c) for c in L.coefficients) + "]")
    print(f"genus={g}")
    print("rh_passed=true")  # infer_genus returns only a genus whose L passes
    return 0


def cmd_gram(args) -> int:
    from .curves import DiagramData, count_series, hyperelliptic_cover

    _, model = _load_manifest(args.manifest)
    m = args.order
    if isinstance(model, DiagramData):
        corners = (model.X, model.Y1, model.Y2, model.Z)
        series = [count_series(c, m, args.budget).counts for c in corners]
        M = gram_diagram(model.X.q, tuple(c.genus for c in corners),
                         tuple(series), m)
    elif args.matrix == "relative":
        cover = hyperelliptic_cover(model)
        sX = count_series(cover.source, m, args.budget).counts
        sY = count_series(cover.target, m, args.budget).counts
        M = gram_relative(model.q, cover.source.genus, cover.target.genus,
                          sX, sY, m)
    else:
        counts = count_series(model, m, args.budget).counts
        M = gram_absolute(model.q, model.genus, counts, m)
    _print_matrix(model.label, M)
    return 0


def cmd_bounds(args) -> int:
    from .bounds import full_report, report_to_csv, report_to_json
    from .curves import DiagramData

    doc, model = _load_manifest(args.manifest)
    if isinstance(model, DiagramData):
        overrides = {}
        for key in ("absolutely_irreducible", "smooth"):
            if key in doc:
                overrides[key] = bool(doc[key])
        if overrides:
            model = dataclasses.replace(model, **overrides)
    report = full_report(model, args.order, args.budget)
    text = (report_to_csv(report) if args.format == "csv"
            else report_to_json(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0 if report.all_hold else 1


def cmd_feasibility(args) -> int:
    problem = FeasibilityProblem(q=args.q, g=args.g, m=args.m,
                                 toggles=not args.no_toggles)
    result = max_n1(problem)
    print(f"max_N1={result.max_n1}")
    print(f"witness={result.witness}")
    print(f"scanned={result.scanned}")
    if args.g >= 1:
        closed = ihara_closed_form(args.q, args.g)
        print(f"ihara_floor={closed.floor}")
        print(f"within_closed_form={'true' if result.max_n1 <= closed.floor else 'false'}")
    else:
        print("ihara_floor=none")
    return 0


def cmd_corpus(args) -> int:
    from .corpus import parse_corpus_spec, run_corpus, write_report

    with open(args.spec) as fh:
        doc = json.load(fh)
    spec = parse_corpus_spec(doc)
    report = run_corpus(spec, jobs=args.jobs, budget=args.budget)
    json_path, csv_path = write_report(report, args.out)
    print(f"report={json_path}")
    print(f"summary={csv_path}")
    s = report["summary"]
    print(f"instances={s['instances']}")
    print(f"checks={s['checks_passed']}/{s['checks_total']}")
    return 0 if s["all_passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilgram",
        description="Exact point counts, zeta data, Gram matrices, and bound "
                    "reports for curves over finite fields.")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="max enumerated points per count (default %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print one exact point count")
    p.add_argument("manifest")
    p.add_argument("--ext", type=int, default=1, metavar="j",
                   help="extension degree j (default 1)")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("zeta", help="L-polynomial, RH report, inferred genus")
    p.add_argument("manifest", nargs="?")
    p.add_argument("--max-ext", type=int, default=0, metavar="m",
                   help="how many counts to use (default 2g+2)")
    p.add_argument("--q", type=int, help="base field size for --counts input")
    p.add_argument("--counts", help="comma-separated N_1,N_2,.. instead of a manifest")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("gram", help="print a Gram matrix and its PSD verdict")
    p.add_argument("manifest")
    p.add_argument("--order", type=int, default=2, metavar="m")
    p.add_argument("--matrix", choices=("absolute", "relative"), default="absolute",
                   help="for curve manifests: absolute, or relative vs P^1")
    p.set_defaults(func=cmd_gram)

    p = sub.add_parser("bounds", help="run every applicable bound check")
    p.add_argument("manifest")
    p.add_argument("--order", type=int, default=2, metavar="m")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("feasibility", help="maximize N_1 under Gram-PSD constraints")
    p.add_argument("q", type=int)
    p.add_argument("g", type=int)
    p.add_argument("m", type=int, nargs="?", default=2)
    p.add_argument("--no-toggles", action="store_true",
                   help="drop the place-count integrality constraints")
    p.set_defaults(func=cmd_feasibility)

    p = sub.add_parser("corpus", help="seeded corpus generation and evaluation")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    pr = corpus_sub.add_parser("run", help="generate, evaluate, write reports")
    pr.add_argument("spec", help="corpus spec JSON file")
    pr.add_argument("--out", required=True, help="output directory")
    pr.add_argument("--jobs", type=int, default=1,
                    help="parallel evaluation processes (default serial)")
    pr.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except WeilgramError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
