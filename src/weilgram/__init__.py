"""Exact arithmetic for curves over finite fields: point counts, zeta
functions, Frobenius Gram matrices, the four point-count bounds, and
Gram-constrained feasibility searches.

Public names load lazily (PEP 562): `import weilgram` imports no submodule,
and the first access to a name imports its home submodule.  Only `tables`
and `curves` import numpy, with `bounds` and `corpus` through them, so the
`gram`, `zeta` and `feasibility` layers run without it.
"""

import importlib

__version__ = "0.1.0"

# (names, home submodule) in the order of __all__; None: the names are the
# submodules themselves
_EXPORTS = (
    ("fppoly errors finite_field tables curves gram bounds", None),
    ("BoundReport CheckRecord check_diagram check_relative check_relative_second "
     "check_weil full_report report_to_csv report_to_dict report_to_json "
     "weil_interval", "bounds"),
    ("zeta corpus", None),
    ("LCG CorpusSpec builtin_covers builtin_curves default_corpus_spec "
     "generate_corpus parse_corpus_spec run_corpus seeded_diagrams summary_csv "
     "write_report", "corpus"),
    ("DEFAULT_BUDGET", "errors"),
    ("CoverData CurveModel DiagramData PointCountSeries count_points count_series "
     "hyperelliptic_cover hyperelliptic_genus make_biquadratic make_hyperelliptic "
     "make_projective_line make_smooth_plane parse_manifest serialize_manifest",
     "curves"),
    ("WeilgramError", "errors"),
    ("feasibility", None),
    ("FeasibilityProblem FeasibilityResult IharaClosedForm feasible_counts "
     "ihara_closed_form max_n1", "feasibility"),
    ("FieldSpec construct_field extension_of", "finite_field"),
    ("GramMatrix PSDVerdict combined_vector_gram gram_absolute gram_diagram "
     "gram_relative int_det is_psd psd_check schwarz_margin", "gram"),
    ("LPolynomial check_functional_equation check_riemann_hypothesis extrapolate "
     "infer_genus l_from_counts power_sums", "zeta"),
)
_HOME = {name: home or name for names, home in _EXPORTS for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{home}", __name__)
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
