"""Exact evaluators for the four point-count bounds, aggregated into reports.

Every verdict is an integer (or exact rational) comparison; square roots are
eliminated by squaring and denominators are cleared, so no floating point is
involved anywhere.  Margins are reported in that transformed scale and each
record carries a note saying which scale that is.

The four bounds, in their exact forms:

* Weil:              (N_j - q^j - 1)^2 <= 4 g^2 q^j;
* relative:          (N1X - N1Y)^2 <= 4 (gX - gY)^2 q  for a cover X -> Y;
* second relative:   (N2X - N2Y)(gX - gY) <= 2 (gX - gY)^2 q - (N1X - N1Y)^2
                     (margin reported back in the uncleared scale, exact);
* diagram:           (NX - NY1 - NY2 + NZ)^2 <= 4 G^2 q  with
                     G = gX - gY1 - gY2 + gZ >= 0.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .curves import (
    DEFAULT_BUDGET,
    DIAGRAM_EDGES,
    DIAGRAM_ROLES,
    CoverData,
    CurveModel,
    DiagramData,
    PointCountSeries,
    count_series,
)
from .errors import EqualGenera, GenusOrder, InvalidDegree, InvalidDiagram
from .gram import gram_absolute, gram_diagram, gram_relative, principal_minors

Margin = Union[int, Fraction]


@dataclass(frozen=True)
class CheckRecord:
    name: str
    lhs: int
    rhs: int
    holds: bool
    margin: Margin
    scale: str


@dataclass(frozen=True)
class BoundReport:
    subject: str
    checks: tuple
    series: tuple = ()  # the PointCountSeries the checks were made from

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def weil_interval(q: int, g: int, j: int):
    """[lo, hi] with lo/hi = q^j + 1 -/+ isqrt(4 g^2 q^j), exact floor."""
    if g < 0 or j < 1:
        raise ValueError(f"need g >= 0 and j >= 1, got g={g}, j={j}")
    r = math.isqrt(4 * g * g * q**j)
    return (q**j + 1 - r, q**j + 1 + r)


def check_weil(q: int, g: int, j: int, N: int, name: str = None) -> CheckRecord:
    """Interval membership in exact squared form; equivalent to
    weil_interval(q, g, j)[0] <= N <= [1] because N is an integer."""
    lhs = (N - q**j - 1) ** 2
    rhs = 4 * g * g * q**j
    return CheckRecord(
        name=name or f"weil_j{j}",
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, margin=rhs - lhs,
        scale="squared: (N_j - q^j - 1)^2 vs 4 g^2 q^j",
    )


def check_relative(q: int, gX: int, gY: int, N1X: int, N1Y: int) -> CheckRecord:
    """|N1X - N1Y| <= 2 (gX - gY) sqrt(q), squared."""
    if gX < gY:
        raise GenusOrder(f"cover needs gX >= gY, got {gX} < {gY}")
    lhs = (N1X - N1Y) ** 2
    rhs = 4 * (gX - gY) ** 2 * q
    return CheckRecord(
        name="relative",
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, margin=rhs - lhs,
        scale="squared: (N1X - N1Y)^2 vs 4 (gX - gY)^2 q",
    )


def check_relative_second(q: int, gX: int, gY: int, NX, NY) -> CheckRecord:
    """N2X - N2Y <= 2 (gX - gY) q - (N1X - N1Y)^2 / (gX - gY), with the
    denominator cleared; the margin is converted back to the original scale
    as an exact rational."""
    if gX == gY:
        raise EqualGenera("second-order relative bound needs gX != gY")
    if gX < gY:
        raise GenusOrder(f"cover needs gX >= gY, got {gX} < {gY}")
    N1X, N2X = NX[0], NX[1]
    N1Y, N2Y = NY[0], NY[1]
    dg = gX - gY
    lhs = (N2X - N2Y) * dg
    rhs = 2 * dg * dg * q - (N1X - N1Y) ** 2
    margin = Fraction(rhs - lhs, dg)
    if margin.denominator == 1:
        margin = int(margin)
    return CheckRecord(
        name="relative_second",
        lhs=lhs, rhs=rhs, holds=lhs <= rhs, margin=margin,
        scale="cleared by (gX - gY); margin in the uncleared scale",
    )


def cover_checks(cover: CoverData, source: PointCountSeries,
                 target: PointCountSeries) -> list:
    """The relative check of a cover and, when the genera differ, the
    second-order relative check, from the count series of its two curves."""
    X, Y = cover.source, cover.target
    checks = [check_relative(X.q, X.genus, Y.genus, source[0], target[0])]
    if X.genus != Y.genus:
        checks.append(check_relative_second(
            X.q, X.genus, Y.genus, source.counts[:2], target.counts[:2]))
    return checks


def check_diagram(q: int, genera, Ns, certificate) -> CheckRecord:
    """|NX - NY1 - NY2 + NZ| <= 2 G sqrt(q), squared; requires the validity
    certificate (fiber product absolutely irreducible and smooth)."""
    flags = _certificate_flags(certificate)
    if not all(flags):
        raise InvalidDiagram(f"certificate flags {flags} must both be true")
    gX, gY1, gY2, gZ = genera
    NX, NY1, NY2, NZ = Ns
    G = gX - gY1 - gY2 + gZ
    lhs = (NX - NY1 - NY2 + NZ) ** 2
    rhs = 4 * G * G * q
    holds = G >= 0 and lhs <= rhs  # a negative G makes the unsquared bound vacuously false
    return CheckRecord(
        name="diagram",
        lhs=lhs, rhs=rhs, holds=holds, margin=rhs - lhs,
        scale="squared: (NX - NY1 - NY2 + NZ)^2 vs 4 G^2 q",
    )


def _certificate_flags(certificate):
    if isinstance(certificate, DiagramData):
        return (certificate.absolutely_irreducible, certificate.smooth)
    if isinstance(certificate, bool):
        return (certificate, certificate)
    return tuple(bool(x) for x in certificate)


def _psd_record(name: str, M) -> CheckRecord:
    m = min(det for _, det in principal_minors(M))
    return CheckRecord(
        name=name, lhs=-m, rhs=0, holds=m >= 0, margin=m,
        scale="minimal principal minor of the Gram matrix",
    )


def full_report(subject, m: int, budget: int = DEFAULT_BUDGET) -> BoundReport:
    """Every applicable check for a curve, cover, or diagram, in a fixed
    documented order.  Each curve is counted once; the report keeps those
    series, in subject order: (curve), (source, target) or (X, Y1, Y2, Z).

    * curve: Weil for j = 1..m.
    * cover: source Weil j = 1..m, target Weil j = 1..m, relative,
      then (when m >= 2 and the genera differ) the second-order relative.
    * diagram: Weil j = 1..m for X, Y1, Y2, Z; the diagram bound; PSD of the
      absolute Grams of the four curves, of the relative Grams of the four
      edges, and of the diagram Gram, all at order m.
    """
    if m < 1:
        raise InvalidDegree(m)

    if isinstance(subject, CurveModel):
        series = count_series(subject, m, budget)
        checks = [check_weil(subject.q, subject.genus, j, series[j - 1])
                  for j in range(1, m + 1)]
        return BoundReport(subject.label, tuple(checks), (series,))

    if isinstance(subject, CoverData):
        X, Y = subject.source, subject.target
        sX = count_series(X, max(m, 2) if X.genus != Y.genus else m, budget)
        sY = count_series(Y, len(sX), budget)
        checks = [check_weil(X.q, X.genus, j, sX[j - 1], name=f"weil_source_j{j}")
                  for j in range(1, m + 1)]
        checks += [check_weil(Y.q, Y.genus, j, sY[j - 1], name=f"weil_target_j{j}")
                   for j in range(1, m + 1)]
        checks += cover_checks(subject, sX, sY)
        return BoundReport(f"{X.label} -> {Y.label}", tuple(checks), (sX, sY))

    if isinstance(subject, DiagramData):
        q = subject.X.q
        corners = {role: getattr(subject, role) for role in DIAGRAM_ROLES}
        series = {role: count_series(c, m, budget) for role, c in corners.items()}
        checks = [check_weil(q, c.genus, j, series[role][j - 1], name=f"weil_{role}_j{j}")
                  for role, c in corners.items() for j in range(1, m + 1)]
        genera = tuple(c.genus for c in corners.values())
        checks.append(check_diagram(
            q, genera, tuple(s[0] for s in series.values()), subject))
        for role, c in corners.items():
            checks.append(_psd_record(
                f"psd_absolute_{role}",
                gram_absolute(q, c.genus, series[role].counts, m)))
        for src, dst in DIAGRAM_EDGES:
            checks.append(_psd_record(
                f"psd_relative_{src}_{dst}",
                gram_relative(q, corners[src].genus, corners[dst].genus,
                              series[src].counts, series[dst].counts, m)))
        checks.append(_psd_record(
            "psd_diagram",
            gram_diagram(q, genera, tuple(s.counts for s in series.values()), m)))
        return BoundReport(subject.label, tuple(checks), tuple(series.values()))

    raise TypeError(f"cannot report on {type(subject).__name__}")


# --- serialization ---------------------------------------------------------

def _margin_json(margin: Margin):
    if isinstance(margin, Fraction):
        return f"{margin.numerator}/{margin.denominator}"
    return margin


def report_to_dict(report: BoundReport) -> dict:
    return {
        "subject": report.subject,
        "checks": [
            {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "holds": c.holds,
             "margin": _margin_json(c.margin), "scale": c.scale}
            for c in report.checks
        ],
    }


def report_to_json(report: BoundReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)


CSV_FIELDS = ("name", "lhs", "rhs", "holds", "margin", "scale")


def report_to_csv(report: BoundReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_FIELDS)
    for c in report.checks:
        writer.writerow([c.name, c.lhs, c.rhs, c.holds, str(c.margin), c.scale])
    return buf.getvalue()
