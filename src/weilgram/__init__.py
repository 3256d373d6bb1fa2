"""Exact arithmetic for curves over finite fields: point counts, zeta
functions, Frobenius Gram matrices, the four point-count bounds, and
Gram-constrained feasibility searches."""

from .bounds import (
    BoundReport,
    CheckRecord,
    check_diagram,
    check_relative,
    check_relative_second,
    check_weil,
    full_report,
    report_to_csv,
    report_to_dict,
    report_to_json,
    weil_interval,
)
from .corpus import (
    LCG,
    CorpusSpec,
    builtin_covers,
    builtin_curves,
    default_corpus_spec,
    generate_corpus,
    parse_corpus_spec,
    run_corpus,
    seeded_diagrams,
    summary_csv,
    write_report,
)
from .curves import (
    DEFAULT_BUDGET,
    CoverData,
    CurveModel,
    DiagramData,
    PointCountSeries,
    count_points,
    count_series,
    hyperelliptic_cover,
    hyperelliptic_genus,
    make_biquadratic,
    make_hyperelliptic,
    make_projective_line,
    make_smooth_plane,
    parse_manifest,
    serialize_manifest,
)
from .errors import WeilgramError
from .feasibility import (
    FeasibilityProblem,
    FeasibilityResult,
    IharaClosedForm,
    feasible_counts,
    ihara_closed_form,
    max_n1,
)
from .finite_field import (
    FieldElement,
    FieldSpec,
    construct_field,
    enumerate_elements,
    extension_of,
    is_square,
)
from .gram import (
    GramMatrix,
    PSDVerdict,
    combined_vector_gram,
    gram_absolute,
    gram_diagram,
    gram_relative,
    int_det,
    is_psd,
    psd_check,
    schwarz_margin,
)
from .zeta import (
    LPolynomial,
    check_functional_equation,
    check_riemann_hypothesis,
    extrapolate,
    infer_genus,
    l_from_counts,
    power_sums,
)

__version__ = "0.1.0"

__all__ = [name for name in dict(vars()) if not name.startswith("_")]
