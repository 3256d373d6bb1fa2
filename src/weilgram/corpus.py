"""Seeded deterministic curve corpora and batch evaluation reports.

Two sources of test material:

* `builtin_curves()` is a fixed, hand-curated list of 34 curves over F_3,
  F_5, F_7 and F_9 with genus 0 through 4, covering every supported family
  and both hyperelliptic parities (including a non-square even-degree
  leading coefficient).  It is deterministic by construction and needs no
  seed.

* `generate_corpus(spec)` samples instances from a `CorpusSpec` with a
  64-bit linear congruential generator, x <- (a x + c) mod 2^64 using
  Knuth's published constants a = 6364136223846793005 and
  c = 1442695040888963407; draws take the top 32 bits modulo the range.
  Polynomials are sampled coefficient-wise (degree first, then coefficients
  from lowest to highest, then a nonzero leading coefficient) and rejected
  until the family constructor accepts them, capped at 10^4 attempts per
  instance.  Identical specs therefore yield identical corpora on every
  platform.

Evaluation produces one JSON-ready record per instance.  One `full_report`
call counts each curve once and makes the bound checks (with the PSD checks
for diagrams); the rest of the record is read from the count series that
report carries: the L-polynomial with its exact RH verdict, the
trace-identity checks (whose third quotient y3 is the only extra count), and
the exact agreement between bound margins and Schwarz/combined-vector Gram
quantities.  The same worker function runs in-process or under a process
pool; reports are assembled in corpus order either way, so serial and
parallel runs are byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass
from functools import lru_cache

from .bounds import BoundReport, cover_checks, full_report, report_to_dict
from .curves import (
    DEFAULT_BUDGET,
    DIAGRAM_EDGES,
    DIAGRAM_ROLES,
    CurveModel,
    DiagramData,
    count_series,
    hyperelliptic_cover,
    make_biquadratic,
    make_hyperelliptic,
    make_projective_line,
    make_smooth_plane,
    parse_manifest,
    serialize_manifest,
)
from .errors import (
    BudgetExceeded,
    NotCoprime,
    NotSquarefree,
    SingularCurve,
    TooLarge,
    ZeroPolynomial,
)
from .finite_field import construct_field
from .gram import combined_vector_gram, gram_diagram, gram_relative, int_det, schwarz_margin
from .zeta import check_riemann_hypothesis, extrapolate, infer_genus, l_from_counts

LCG_MULTIPLIER = 6364136223846793005
LCG_INCREMENT = 1442695040888963407
LCG_MASK = (1 << 64) - 1
REJECTION_CAP = 10**4
# the most instances, len(fields) * sum(mix), that a parsed spec may ask for
MAX_INSTANCES = 1000
# The "tol" field of every "rh" object.  The RH verdict is exact, so it has
# no effect; it stays so that report bytes match the frozen benchmark outputs.
LEGACY_RH_TOL = 1e-9


class LCG:
    """Deterministic 64-bit linear congruential generator (Knuth constants)."""

    def __init__(self, seed: int):
        self.state = seed & LCG_MASK

    def next_u64(self) -> int:
        self.state = (LCG_MULTIPLIER * self.state + LCG_INCREMENT) & LCG_MASK
        return self.state

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) from the top 32 bits."""
        if n <= 0:
            raise ValueError(f"range must be positive, got {n}")
        return (self.next_u64() >> 32) % n


DEFAULT_DEGREES = {
    "hyperelliptic": (3, 6),
    "plane": (2, 3),
    "biquadratic_f": (1, 3),
    "biquadratic_g": (2, 2),
}


@dataclass(frozen=True)
class CorpusSpec:
    """Seeded generation recipe: which fields, how many of each family,
    and the degree ranges to sample from.  `mix` is per field, in the order
    (hyperelliptic, plane, biquadratic)."""

    seed: int
    fields: tuple
    mix: tuple
    degrees: tuple = tuple(sorted(DEFAULT_DEGREES.items()))

    def degree_range(self, family: str):
        return dict(self.degrees)[family]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "fields": [list(pk) for pk in self.fields],
            "mix": list(self.mix),
            "degrees": {k: list(v) for k, v in sorted(self.degrees)},
        }


def parse_corpus_spec(doc: dict) -> CorpusSpec:
    """Validate a JSON corpus spec; ValueError on anything malformed, and
    TooLarge when it asks for more than MAX_INSTANCES instances."""
    if not isinstance(doc, dict):
        raise ValueError("corpus spec must be a JSON object")
    if "seed" not in doc:
        raise ValueError("corpus spec needs a seed")
    try:
        seed = int(doc["seed"])
        fields = tuple((int(p), int(k)) for p, k in doc["fields"])
        mix = tuple(int(v) for v in doc["mix"])
        ranges = [(key, tuple(int(v) for v in rng)) for key, rng in doc.get("degrees", {}).items()]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed corpus spec: {exc}") from exc
    if seed < 0 or seed > LCG_MASK:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if len(mix) != 3 or any(v < 0 for v in mix):
        raise ValueError(f"mix must be three nonnegative counts, got {mix}")
    if not fields:
        raise ValueError("corpus spec needs at least one field")
    if len(fields) * sum(mix) > MAX_INSTANCES:
        raise TooLarge(f"{len(fields) * sum(mix)} instances exceed the limit {MAX_INSTANCES}")
    degrees = dict(DEFAULT_DEGREES)
    for key, rng in ranges:
        if key not in degrees:
            raise ValueError(f"unknown degree range {key!r}")
        if len(rng) != 2 or not 1 <= rng[0] <= rng[1]:
            raise ValueError(f"bad degree range {key}: {list(rng)}")
        degrees[key] = rng
    return CorpusSpec(seed=seed, fields=fields, mix=mix,
                      degrees=tuple(sorted(degrees.items())))


def default_corpus_spec(seed: int = 42) -> CorpusSpec:
    return CorpusSpec(seed=seed, fields=((3, 1), (5, 1)), mix=(2, 1, 2))


# --- sampling --------------------------------------------------------------

def _sample_poly(rng: LCG, p: int, degree: int) -> tuple:
    coeffs = [rng.below(p) for _ in range(degree)]
    coeffs.append(1 + rng.below(p - 1))
    return tuple(coeffs)


def _rejection(build):
    for _ in range(REJECTION_CAP):
        model = build()
        if model is not None:
            return model
    raise BudgetExceeded(REJECTION_CAP + 1, REJECTION_CAP)


def _sample_hyperelliptic(rng: LCG, field, lo: int, hi: int):
    def build():
        d = lo + rng.below(hi - lo + 1)
        try:
            return make_hyperelliptic(field, _sample_poly(rng, field.p, d))
        except NotSquarefree:
            return None
    return _rejection(build)


def _sample_plane(rng: LCG, field, lo: int, hi: int):
    def build():
        d = lo + rng.below(hi - lo + 1)
        monos = [(a, b, d - a - b, rng.below(field.p))
                 for a in range(d, -1, -1) for b in range(d - a, -1, -1)]
        if all(co == 0 for _, _, _, co in monos):
            return None
        try:
            return make_smooth_plane(field, monos, d)
        except (SingularCurve, ZeroPolynomial):
            return None
    return _rejection(build)


def _sample_biquadratic(rng: LCG, field, f_range, g_range):
    odd = [d for d in range(f_range[0], f_range[1] + 1) if d % 2 == 1]
    even = [d for d in range(max(2, g_range[0]), g_range[1] + 1) if d % 2 == 0]
    if not odd or not even:
        raise ValueError(
            f"biquadratic degree ranges contain no odd/even choices: {f_range}, {g_range}")

    def build():
        df = odd[rng.below(len(odd))]
        f = _sample_poly(rng, field.p, df)
        dg = even[rng.below(len(even))]
        g = _sample_poly(rng, field.p, dg)
        try:
            return make_biquadratic(field, f, g)
        except (NotSquarefree, NotCoprime):
            return None
    return _rejection(build)


def generate_corpus(spec: CorpusSpec) -> list:
    """Manifests for every instance the spec asks for, in deterministic
    order: fields as listed; within a field hyperelliptic, then plane, then
    biquadratic.  One shared generator stream drives all sampling."""
    rng = LCG(spec.seed)
    manifests = []
    n_hyper, n_plane, n_biquad = spec.mix
    for p, k in spec.fields:
        field = construct_field(p, k)
        for _ in range(n_hyper):
            manifests.append(serialize_manifest(
                _sample_hyperelliptic(rng, field, *spec.degree_range("hyperelliptic"))))
        for _ in range(n_plane):
            manifests.append(serialize_manifest(
                _sample_plane(rng, field, *spec.degree_range("plane"))))
        for _ in range(n_biquad):
            manifests.append(serialize_manifest(
                _sample_biquadratic(rng, field,
                                    spec.degree_range("biquadratic_f"),
                                    spec.degree_range("biquadratic_g"))))
    return manifests


def seeded_diagrams(seed: int = 42, per_field: int = 7,
                    fields=((3, 1), (5, 1), (7, 1))) -> tuple:
    """Convenience: a reproducible batch of biquadratic diagrams."""
    spec = CorpusSpec(seed=seed, fields=tuple(fields), mix=(0, 0, per_field))
    return tuple(parse_manifest(man) for man in generate_corpus(spec))


# --- the fixed curated corpus ---------------------------------------------

_CONIC = ((2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1))
_CUBIC_A = ((3, 0, 0, 1), (1, 0, 2, 2), (0, 0, 3, 1), (0, 2, 1, -1))
_CUBIC_B = ((3, 0, 0, 1), (1, 0, 2, 1), (0, 0, 3, 1), (0, 2, 1, -1))


@lru_cache(maxsize=1)
def builtin_curves() -> tuple:
    """The fixed 34-curve corpus over F_3, F_5, F_7, F_9; genus 0..4."""
    F3 = construct_field(3, 1)
    F5 = construct_field(5, 1)
    F7 = construct_field(7, 1)
    F9 = construct_field(3, 2)
    out = []
    for field in (F3, F5, F7, F9):
        out.append(make_projective_line(field))
    for field in (F3, F5, F7, F9):
        out.append(make_smooth_plane(field, _CONIC, 2))
    out.append(make_smooth_plane(F3, _CUBIC_A, 3))
    out.append(make_smooth_plane(F5, _CUBIC_B, 3))
    out.append(make_smooth_plane(F7, _CUBIC_B, 3))
    hyper = [
        (F3, (0, 1, 0, 1)),                  # supersingular boundary instance
        (F3, (1, 2, 0, 1)),                  # maximal: N_1 = 7
        (F3, (0, 2, 0, 1)),
        (F3, (1, 2, 0, 0, 0, 1)),
        (F3, (1, 0, 1, 0, 0, 1)),
        (F3, (1, 1, 0, 0, 0, 0, 1)),
        (F3, (1, 2, 0, 0, 0, 0, 0, 1)),
        (F3, (1, 0, 0, 1, 0, 0, 0, 0, 1)),
        (F3, (1, 1, 0, 0, 0, 0, 0, 0, 0, 1)),
        (F5, (0, 1, 0, 1)),
        (F5, (1, 1, 0, 1)),
        (F5, (1, 0, 1, 0, 0, 1)),
        (F5, (1, 1, 0, 0, 0, 0, 1)),
        (F5, (1, 1, 0, 0, 0, 0, 0, 1)),
        (F5, (1, 0, 0, 1, 0, 0, 0, 0, 1)),
        (F7, (0, 1, 0, 1)),
        (F7, (1, 2, 0, 0, 0, 1)),
        (F7, (1, 0, 1, 0, 0, 1)),
        (F7, (2, 1, 0, 0, 0, 0, 3)),         # lc = 3: non-square at infinity
        (F9, (0, 1, 0, 1)),                  # maximal over F_9
        (F9, (1, 2, 0, 1)),
        (F9, (1, 2, 0, 0, 0, 1)),
        (F9, (1, 1, 0, 0, 0, 0, 1)),
    ]
    out.extend(make_hyperelliptic(field, f) for field, f in hyper)
    return tuple(out)


def builtin_covers() -> tuple:
    """The hyperelliptic-over-line covers of every curated hyperelliptic."""
    return tuple(hyperelliptic_cover(c) for c in builtin_curves()
                 if c.kind == "hyperelliptic")


# --- evaluation ------------------------------------------------------------

def _rh_dict(passed: bool) -> dict:
    return {"passed": passed, "tol": LEGACY_RH_TOL}


def _counts_order(curve: CurveModel) -> int:
    return max(2 * curve.genus + 2, 3)


def _check_cover(cover, source, target) -> tuple:
    """`cover_checks` from the count series of a cover's two curves; whether
    the first margin is the Schwarz margin of the order-2 relative Gram M;
    and whether det of the Gram of (q rel^0 + rel^2, rel^1) is 4 q^2 times
    the cleared second margin, exactly (None with no second check)."""
    X, Y = cover.source, cover.target
    checks = cover_checks(cover, source, target)
    M = gram_relative(X.q, X.genus, Y.genus, source.counts, target.counts, 2)
    det_ok = None
    if len(checks) == 2:
        combined = combined_vector_gram(M, [(X.q, 0, 1), (0, 1, 0)])
        det_ok = int_det(combined.entries) == 4 * X.q**2 * (checks[1].rhs - checks[1].lhs)
    return checks, schwarz_margin(M, 0, 1) == checks[0].margin, det_ok


def evaluate_curve_record(curve: CurveModel, budget: int = DEFAULT_BUDGET) -> dict:
    m = _counts_order(curve)
    report = full_report(curve, m, budget)
    counts = list(report.series[0].counts)
    L = l_from_counts(curve.q, curve.genus, counts[: curve.genus])
    inferred = infer_genus(curve.q, counts)
    rh = inferred == curve.genus or check_riemann_hypothesis(L)  # infer_genus checked this L
    record = {
        "label": curve.label,
        "kind": serialize_manifest(curve)["kind"],
        "q": curve.q,
        "genus": curve.genus,
        "manifest": serialize_manifest(curve),
        "counts": counts,
        "L": list(L.coefficients),
        "rh": _rh_dict(rh),
        "genus_inferred": inferred,
        "extrapolation_exact": all(extrapolate(L, j) == counts[j - 1]
                                   for j in range(1, m + 1)),
        "bounds": report_to_dict(report),
    }
    flags = [rh, inferred == curve.genus, record["extrapolation_exact"]]
    if curve.kind == "hyperelliptic" and curve.genus >= 1:
        cover = hyperelliptic_cover(curve)
        checks, schwarz, det_ok = _check_cover(cover, report.series[0],
                                               count_series(cover.target, m, budget))
        record["cover"] = {
            "target": cover.target.label,
            "relative": report_to_dict(BoundReport(curve.label, tuple(checks)))["checks"],
            "relative_margin_equals_schwarz": schwarz,
            "second_margin_combined_det": det_ok,
        }
        flags += [c.holds for c in checks] + [schwarz, det_ok]
    holds = [c.holds for c in report.checks] + flags
    record["checks_passed"] = sum(bool(h) for h in holds)
    record["checks_total"] = len(holds)
    return record


def evaluate_diagram_record(diagram: DiagramData, budget: int = DEFAULT_BUDGET) -> dict:
    q = diagram.X.q
    m = 3
    report = full_report(diagram, m, budget)
    series = dict(zip(DIAGRAM_ROLES, report.series))
    y3 = count_series(diagram.y3, 2, budget)
    trace = [series["X"][j - 1] ==
             series["Y1"][j - 1] + series["Y2"][j - 1] + y3[j - 1] - 2 * (q**j + 1)
             for j in (1, 2)]
    genera = {role: getattr(diagram, role).genus for role in DIAGRAM_ROLES}
    genera["Y3"] = diagram.y3.genus
    record = {
        "label": diagram.label,
        "kind": "biquadratic",
        "q": q,
        "manifest": serialize_manifest(diagram),
        "genera": genera,
        "counts": {role: list(s.counts) for role, s in series.items()},
        "counts_Y3": list(y3.counts),
        "trace_identity": [bool(t) for t in trace],
        "bounds": report_to_dict(report),
    }
    if diagram.X.genus <= m:
        L = l_from_counts(q, diagram.X.genus, series["X"].counts[: diagram.X.genus])
        rh = check_riemann_hypothesis(L)
        record["X_zeta"] = {"L": list(L.coefficients), "rh": _rh_dict(rh)}
        zeta_flags = [rh]
    else:
        record["X_zeta"] = None
        zeta_flags = []
    eq = {"relative_margins_equal_schwarz": [], "combined_det": []}
    for edge, (src, dst) in zip(diagram.edges, DIAGRAM_EDGES):
        _, schwarz, det_ok = _check_cover(edge, series[src], series[dst])
        eq["relative_margins_equal_schwarz"].append(schwarz)
        eq["combined_det"].append(det_ok)
    dia = next(c for c in report.checks if c.name == "diagram")
    MD = gram_diagram(q, tuple(genera[r] for r in DIAGRAM_ROLES),
                      tuple(s.counts for s in series.values()), 2)
    eq["diagram_margin_equals_schwarz"] = bool(schwarz_margin(MD, 0, 1) == dia.margin)
    record["equivalence"] = eq
    holds = ([c.holds for c in report.checks] + trace + zeta_flags
             + eq["relative_margins_equal_schwarz"]
             + [v for v in eq["combined_det"] if v is not None]
             + [eq["diagram_margin_equals_schwarz"]])
    record["checks_passed"] = sum(bool(h) for h in holds)
    record["checks_total"] = len(holds)
    return record


def _evaluate_manifest(payload) -> dict:
    manifest, budget = payload
    model = parse_manifest(manifest)
    if isinstance(model, DiagramData):
        return evaluate_diagram_record(model, budget)
    return evaluate_curve_record(model, budget)


def run_corpus(spec: CorpusSpec, jobs: int = 1, budget: int = DEFAULT_BUDGET) -> dict:
    """Generate, evaluate, and aggregate.  `jobs > 1` fans evaluation out to
    a process pool; records keep corpus order either way.  A pool chunk
    holds at most one field's records (sum(spec.mix), consecutive in corpus
    order), so that a field's tables are built in one worker, and at most
    an even share of them, so that no worker idles on a one-field spec."""
    manifests = generate_corpus(spec)
    payloads = [(man, budget) for man in manifests]
    if jobs <= 1:
        records = [_evaluate_manifest(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool starts

        chunksize = max(1, min(sum(spec.mix), -(-len(payloads) // jobs)))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_evaluate_manifest, payloads, chunksize=chunksize))
    passed = sum(r["checks_passed"] for r in records)
    total = sum(r["checks_total"] for r in records)
    return {
        "spec": spec.to_dict(),
        "instances": len(records),
        "records": records,
        "summary": {
            "instances": len(records),
            "curves": sum(1 for r in records if r["kind"] != "biquadratic"),
            "diagrams": sum(1 for r in records if r["kind"] == "biquadratic"),
            "checks_passed": passed,
            "checks_total": total,
            "all_passed": passed == total,
        },
    }


def report_json(report: dict) -> str:
    return json.dumps(report, indent=2)


SUMMARY_FIELDS = ("index", "label", "kind", "q", "genus",
                  "checks_passed", "checks_total")


def summary_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SUMMARY_FIELDS)
    for i, rec in enumerate(report["records"]):
        genus = rec["genera"]["X"] if rec["kind"] == "biquadratic" else rec["genus"]
        writer.writerow([i, rec["label"], rec["kind"], rec["q"], genus,
                         rec["checks_passed"], rec["checks_total"]])
    return buf.getvalue()


def write_report(report: dict, out_dir: str) -> tuple:
    os.makedirs(out_dir, exist_ok=True)
    json_path = os.path.join(out_dir, "report.json")
    csv_path = os.path.join(out_dir, "summary.csv")
    with open(json_path, "w") as fh:
        fh.write(report_json(report))
        fh.write("\n")
    with open(csv_path, "w") as fh:
        fh.write(summary_csv(report))
    return json_path, csv_path
