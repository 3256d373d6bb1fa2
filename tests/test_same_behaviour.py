"""Same behaviour as a test: digests of CLI output and of corpus reports, and
every count path against the brute-force oracle on random inputs.

The digests were recorded before the double-cover counts, the plane line
degrees and the corpus cover checks were each rewritten as one routine, and
hold on both sides of that change.  A change that alters one line of CLI
stdout, one exit code or one report byte fails here; an intended output
change updates the digest in the change that makes it, and says so.
"""

import hashlib
import json

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from oracles import count_slow
from weilgram.cli import main
from weilgram.corpus import CorpusSpec, builtin_curves, run_corpus, write_report
from weilgram.curves import count_points, make_biquadratic, make_hyperelliptic, make_smooth_plane
from weilgram.errors import WeilgramError
from weilgram.finite_field import construct_field

ODD_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (3, 3), (5, 2))  # F_3, F_5, F_7, F_9, F_27, F_25
EVEN_FIELDS = ((2, 2), (2, 3))  # F_4, F_8
KLEIN = [3, 1, 0, 1, 0, 3, 1, 1, 1, 0, 3, 1]  # x^3 y + y^3 z + z^3 x: singular for p = 7
CUBIC = [3, 0, 0, 1, 1, 0, 2, 1, 0, 0, 3, 1, 0, 2, 1, -1]  # y^2 z = x^3 + x z^2 + z^3
FERMAT_CUBIC = [3, 0, 0, 1, 0, 3, 0, 1, 0, 0, 3, 1]
EVEN_F = {3: [2, 1, 1, 0, 2], 5: [2, 1, 1, 0, 2], 7: [1, 1, 0, 0, 3]}  # lc a non-square mod p
BIQUADRATIC_FG = {3: ([0, 1, 0, 1], [2, 1, 1]), 5: ([0, 1, 0, 1], [2, 1, 1]),
                  7: ([1, 1, 0, 1], [2, 0, 1])}


def _manifests():
    """(name, manifest) for every family over every field it allows."""
    out = []
    for p, k in ODD_FIELDS:
        f, g = BIQUADRATIC_FG[p]
        out += [
            (f"line_{p}_{k}", {"kind": "line", "p": p, "k": k}),
            (f"odd_{p}_{k}", {"kind": "hyperelliptic", "p": p, "k": k, "f": [1, 0, 1, 0, 0, 1]}),
            (f"even_{p}_{k}", {"kind": "hyperelliptic", "p": p, "k": k, "f": EVEN_F[p]}),
            (f"cubic_{p}_{k}", {"kind": "plane", "p": p, "k": k, "d": 3, "F": CUBIC}),
            (f"klein_{p}_{k}", {"kind": "plane", "p": p, "k": k, "d": 4, "F": KLEIN}),
            (f"biquad_{p}_{k}", {"kind": "biquadratic", "p": p, "k": k, "f": f, "g": g}),
        ]
    for p, k in EVEN_FIELDS:
        out += [
            (f"line_{p}_{k}", {"kind": "line", "p": p, "k": k}),
            (f"fermat_{p}_{k}", {"kind": "plane", "p": p, "k": k, "d": 3, "F": FERMAT_CUBIC}),
            (f"klein_{p}_{k}", {"kind": "plane", "p": p, "k": k, "d": 4, "F": KLEIN}),
        ]
    return out


REFUSED = [  # each refused with exit 2, whatever the command
    ("hyper_over_f4", {"kind": "hyperelliptic", "p": 2, "k": 2, "f": [1, 1, 0, 1]}),
    ("not_squarefree", {"kind": "hyperelliptic", "p": 3, "k": 1, "f": [0, 0, 1, 1]}),
    ("even_f_in_odd_slot", {"kind": "biquadratic", "p": 5, "k": 1, "f": [1, 0, 1], "g": [2, 1, 1]}),
    ("not_coprime", {"kind": "biquadratic", "p": 3, "k": 1, "f": [1, 1, 0, 1], "g": [2, 0, 1]}),
    ("singular_fermat_f3", {"kind": "plane", "p": 3, "k": 1, "d": 3, "F": FERMAT_CUBIC}),
    ("k_above_cap", {"kind": "line", "p": 2, "k": 53}),
    ("unknown_kind", {"kind": "elliptic", "p": 3, "k": 1}),
    ("no_p", {"kind": "line", "k": 1}),
    ("q_not_prime_power", {"kind": "line", "p": 6, "k": 1}),
]


def _commands():
    """argv lists in a fixed order; "@name" stands for the manifest `name`."""
    named = _manifests()
    out = [["count", f"@{name}", "--ext", str(j)] for name, _ in named for j in range(1, 6)]
    for name, doc in named:
        if doc["kind"] != "line" and doc["k"] <= 2:
            out.append(["zeta", f"@{name}"])
            for order in ("2", "3"):
                out.append(["gram", f"@{name}", "--order", order])
                out.append(["bounds", f"@{name}", "--order", order])
                if doc["kind"] == "hyperelliptic":
                    out.append(["gram", f"@{name}", "--order", order, "--matrix", "relative"])
    out += [["bounds", "@biquad_5_1", "--format", "csv"],
            ["zeta", "@odd_3_1", "--max-ext", "1"],
            ["--budget", "100", "count", "@klein_5_1", "--ext", "2"],  # exit 3
            ["count", "@odd_3_1", "--ext", "40"],                      # exit 3
            ["count", "@odd_3_1", "--ext", "0"],                       # exit 2
            ["gram", "@cubic_5_1", "--matrix", "relative"],            # exit 2
            ["gram", "@odd_5_1", "--order", "-1"]]                      # exit 2
    out += [[command, f"@{name}"] for name, _ in REFUSED for command in ("count", "zeta")]
    for counts in ("4,16", "9,10", "6,18,30", "4,16,28,256", "1,1", "0", "4,x"):
        out.append(["zeta", "--q", "3", "--counts", counts])
    out += [["zeta", "--q", "6", "--counts", "7"], ["zeta"],
            ["feasibility", "6", "2"], ["feasibility", "3", "-1"]]
    prime_powers = [q for q in range(2, 65)
                    if any(q == p**e for p in (2, 3, 5, 7) for e in range(1, 7))
                    or all(q % d for d in range(2, q))]
    for q in prime_powers:  # the 1,458 problems of the frozen feasibility grid
        for g in range(9):
            for m in (1, 2, 3):
                for toggles in ([], ["--no-toggles"]):
                    out.append(["feasibility", str(q), str(g), str(m), *toggles])
    return out


def test_cli_stdout_and_exit_codes_are_frozen(tmp_path, capsys):
    """One sha256 over (argv, exit code, stdout) of every command of
    `_commands`, run in process through `cli.main`: counts at j = 1..5 of
    each family over F_3, F_5, F_7, F_4, F_8, F_9, F_25 and F_27 where it
    applies, zeta, gram and bounds at orders 2 and 3, the feasibility grid,
    and refusals with exit 2 and exit 3."""
    for name, doc in _manifests() + REFUSED:
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    rows = []
    for argv in _commands():
        code = main([str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv])
        rows.append([argv, code, capsys.readouterr().out])
    assert len(rows) == 1859
    assert {code for _, code, _ in rows} == {0, 1, 2, 3}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "2b100f58084f0896d210adcb4f6aa90ea0d70c5741f52928dd9054e6d7f3b4e5"


SIX_PRIMES = CorpusSpec(seed=11, fields=tuple((p, 1) for p in (29, 31, 37, 41, 43, 47)),
                        mix=(0, 0, 6))
MIXED = CorpusSpec(seed=7, fields=((3, 1), (5, 1), (7, 1), (3, 2)), mix=(3, 2, 2))
SIX_PRIMES_DIGEST = "ed66ddc9d611606e034326694fe95e9e96994755997e154632f86190778e944b"
MIXED_DIGEST = "897fd741eb1518a1aacf3d347da93886e8a4006b383a3b44645edf68996dc456"


@pytest.mark.parametrize("spec,jobs,digest", [
    (SIX_PRIMES, 1, SIX_PRIMES_DIGEST),
    (SIX_PRIMES, 2, SIX_PRIMES_DIGEST),
    (MIXED, 1, MIXED_DIGEST),
    (MIXED, 2, MIXED_DIGEST),
], ids=["six_primes_jobs1", "six_primes_jobs2", "mixed_jobs1", "mixed_jobs2"])
def test_corpus_report_and_summary_are_frozen(tmp_path, spec, jobs, digest):
    """sha256 of report.json followed by summary.csv as `write_report`
    writes them: the benchmark's six-prime diagram spec (seed 11) and a
    mixed spec of all three families over F_3, F_5, F_7 and F_9."""
    json_path, csv_path = write_report(run_corpus(spec, jobs=jobs), str(tmp_path))
    with open(json_path, "rb") as fh_json, open(csv_path, "rb") as fh_csv:
        data = fh_json.read() + fh_csv.read()
    assert hashlib.sha256(data).hexdigest() == digest


def test_curated_records_are_frozen(corpus_evaluation):
    """sha256 of the 34 curated records at budget 10^7, cover checks included."""
    records = corpus_evaluation["records"]
    assert len(records) == len(builtin_curves()) == 34
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "dbcc9bba8ec67fd986c96ebda9e1c2b1d0a18d69c8700ed672549fc7dd83f0ac"


# --- every count path against the oracle -----------------------------------

def _extensions(primes, limit):
    """(p, k, j) with k <= 3, j <= 4 and p^(kj) <= limit."""
    return [(p, k, j) for p in primes for k in (1, 2, 3) for j in (1, 2, 3, 4)
            if p ** (k * j) <= limit]


# y^2 = f walks q^j elements in the oracle, a plane q^(2j) points
DOUBLE_COVER_CASES = _extensions((3, 5, 7, 11, 13), 750)
PLANE_CASES = _extensions((2, 3, 5, 7, 11, 13), 27)
RANDOM = settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])


def _poly(draw, p, degree):
    coeffs = draw(st.lists(st.integers(0, p - 1), min_size=degree, max_size=degree))
    return coeffs + [draw(st.integers(1, p - 1))]


def _constructed(build):
    try:
        return build()
    except WeilgramError:
        assume(False)


def test_the_random_cases_reach_every_count_path():
    """K = kj = 1, odd K > 1 (orbits), even K (the norm path), and plane
    lines over K = 1, odd K > 1 and even K."""
    for cases in (DOUBLE_COVER_CASES, PLANE_CASES):
        ks = {k * j for _, k, j in cases}
        assert 1 in ks and ks & {3, 5} and ks & {2, 4, 6}
    assert {k for _, k, _ in DOUBLE_COVER_CASES} == {1, 2, 3}


@RANDOM
@given(data=st.data(), case=st.sampled_from(DOUBLE_COVER_CASES))
def test_hyperelliptic_counts_match_the_oracle(data, case):
    """Squarefree f of odd and even degree, with any leading coefficient."""
    p, k, j = case
    f = _poly(data.draw, p, data.draw(st.integers(1, 6)))
    curve = _constructed(lambda: make_hyperelliptic(construct_field(p, k), f))
    assert count_points(curve, j) == count_slow(curve, j)


@RANDOM
@given(data=st.data(), case=st.sampled_from(DOUBLE_COVER_CASES))
def test_biquadratic_counts_match_the_oracle(data, case):
    p, k, j = case
    f = _poly(data.draw, p, data.draw(st.sampled_from((1, 3))))
    g = _poly(data.draw, p, data.draw(st.sampled_from((2, 4))))
    X = _constructed(lambda: make_biquadratic(construct_field(p, k), f, g)).X
    assert count_points(X, j) == count_slow(X, j)


@RANDOM
@given(data=st.data(), case=st.sampled_from(PLANE_CASES))
def test_plane_counts_match_the_oracle(data, case):
    """Dense forms of degree 2..4, each monomial's coefficient drawn."""
    p, k, j = case
    d = data.draw(st.integers(2, 4))
    monomials = [(a, b, d - a - b, data.draw(st.integers(0, p - 1)))
                 for a in range(d + 1) for b in range(d + 1 - a)]
    curve = _constructed(lambda: make_smooth_plane(construct_field(p, k), monomials, d))
    assert count_points(curve, j) == count_slow(curve, j)
