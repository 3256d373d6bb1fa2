"""Vectorized field tables against the scalar element arithmetic."""

import tracemalloc

import numpy as np
import pytest

from weilgram import curves
from weilgram.curves import count_points, make_biquadratic, make_hyperelliptic
from weilgram.errors import TooLarge
from weilgram.finite_field import (
    _prime_factors,
    construct_field,
    element_from_index,
    enumerate_elements,
    is_square,
)
from weilgram.tables import MAX_Q, FieldTable, get_table

# q - 1 = 1 (F_2), prime (F_3, F_4, F_8) and composite (the rest)
FIELDS = [(2, 1), (3, 1), (5, 1), (3, 2), (2, 3), (7, 1), (3, 3), (5, 2),
          (2, 2), (2, 4), (13, 1)]


@pytest.mark.parametrize("p,k", FIELDS + [(3, 7), (5, 6)])
def test_exp_is_a_bijection_and_log_inverts_it(p, k):
    T = get_table(construct_field(p, k))
    n = T.q - 1
    assert sorted(T.exp[:n].tolist()) == list(range(1, T.q))
    assert T.exp[n] == 0
    assert np.array_equal(T.log[T.exp[:n]], np.arange(n))
    assert T.exp.dtype == np.int32 and T.log.dtype.itemsize == 4


@pytest.mark.parametrize("p,k", FIELDS)
def test_mul_matches_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    q = p**k
    idx = np.arange(q, dtype=np.int64)
    for a in range(q):
        got = T.mul(np.full(q, a, dtype=np.int64), idx)
        ea = element_from_index(field, a)
        want = [(ea * element_from_index(field, b)).index() for b in range(q)]
        assert got.tolist() == want
        quotients = T.div(np.full(q - 1, a, dtype=np.int64), idx[1:])
        want = [(ea * element_from_index(field, b).inverse()).index() for b in range(1, q)]
        assert quotients.tolist() == want


@pytest.mark.parametrize("p,k", FIELDS)
def test_add_and_scale_match_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    q = p**k
    idx = np.arange(q, dtype=np.int64)
    for c in range(p):
        got = T.add_scalar(idx, c)
        want = [(field.scalar(c) + element_from_index(field, b)).index()
                for b in range(q)]
        assert got.tolist() == want
    # Zech addition, zero operands and sums that vanish included
    for a in range(q):
        got = T.add(np.full(q, a, dtype=np.int64), idx)
        ea = element_from_index(field, a)
        assert got.tolist() == [(ea + element_from_index(field, b)).index() for b in range(q)]


@pytest.mark.parametrize("p,k", FIELDS)
def test_sqrt_count_matches_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    counts = T.sqrt_count()
    for v in enumerate_elements(field):
        want = sum(1 for y in enumerate_elements(field) if y * y == v)
        assert counts[v.index()] == want


@pytest.mark.parametrize("p,k", FIELDS)
def test_eval_poly_matches_scalar_horner(p, k):
    """Log-space Horner against scalar Horner, on polynomials that vanish at
    x = 0 and elsewhere in the field, with runs of zero coefficients, and on
    x^q - x and x^(q-1) - 1, which vanish on the whole field or all of it
    but 0."""
    field = construct_field(p, k)
    T = get_table(field)
    q = field.q
    polys = [
        (2, 0, 1, 1),             # x^3 + x^2 + 2
        (0, 1, 0, 1),             # x^3 + x, f(0) = 0
        (0, 0, p - 1, 0, 1),      # x^4 - x^2: roots 0 and +-1
        (1, 0, 0, 0, 0, 3, 0, 0, 1, 0, 0),  # trailing zeros, coefficient 3 >= p for p = 2
        (0, p - 1) + (0,) * (q - 2) + (1,),  # x^q - x
        (p - 1,) + (0,) * (q - 2) + (1,),    # x^(q-1) - 1
        (), (0, 0), (p + 1,),
    ]
    for coeffs in polys:
        got = T.eval_poly(coeffs)
        for x in enumerate_elements(field):
            acc = field.zero()
            for c in reversed(coeffs):
                acc = acc * x + field.scalar(c)
            assert got[x.index()] == acc.index(), (coeffs, x.index())


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (2, 1), (2, 2), (2, 3), (13, 1)])
def test_powers_match_pow(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    q = field.q
    # exponents past q - 1, beyond 64 bits, and multiples of q - 1 (where
    # 0^n = 0 but x^n = 1 for x != 0)
    exponents = {1, 2, 3, 4, q - 2, q - 1, q, 2 * (q - 1), 2 * q + 1, (q - 1) * 2**70 + 2}
    for n in sorted(exponents - {0}):
        pw = T.powers(n)
        for x in enumerate_elements(field):
            assert pw[x.index()] == (x**n).index()
    # power zero is the constant-one table, including at zero
    assert T.powers(0).tolist() == [1] * field.q


def test_chunking_consistency_large_field():
    """Products over a half-million-element field: spot checks against scalar
    arithmetic and commutativity on the full arrays."""
    field = construct_field(3, 12)  # 531441 elements
    T = get_table(field)
    rng = np.random.default_rng(7)
    a = rng.integers(0, field.q, size=200_000).astype(np.int64)
    b = rng.integers(0, field.q, size=200_000).astype(np.int64)
    prod = T.mul(a, b)
    # spot-check 50 entries against scalar arithmetic
    for i in range(0, 200_000, 4001):
        ea = element_from_index(field, int(a[i]))
        eb = element_from_index(field, int(b[i]))
        assert int(prod[i]) == (ea * eb).index()
    # commutativity on the full arrays
    assert np.array_equal(prod, T.mul(b, a))
    # Horner over nine CHUNK slices of the nonzero elements
    coeffs = (1, 2, 0, 1, 0, 0, 2, 1)
    values = T.eval_poly(coeffs)
    for i in list(range(0, field.q, 9001)) + [field.q - 1]:
        x, acc = element_from_index(field, i), field.zero()
        for c in reversed(coeffs):
            acc = acc * x + field.scalar(c)
        assert int(values[i]) == acc.index()


def test_products_powers_and_roots_match_scalar_at_5_9():
    field = construct_field(5, 9)  # 1953125 elements
    T = get_table(field)
    rng = np.random.default_rng(11)
    a = np.concatenate(([0, 1, 0], rng.integers(0, field.q, size=60)))
    b = np.concatenate(([0, 0, 7], rng.integers(0, field.q, size=60)))
    prod = T.mul(a, b)
    cubes = T.powers(3)
    roots = T.sqrt_count()
    for x, y, xy in zip(a.tolist(), b.tolist(), prod.tolist()):
        ex, ey = element_from_index(field, x), element_from_index(field, y)
        assert xy == (ex * ey).index()
        assert cubes[x] == (ex**3).index()
        assert roots[x] == (1 if x == 0 else 2 if is_square(ex) else 0)


def test_tables_refuse_fields_too_large_for_32_bit_logs():
    big = construct_field(67108879, 1)  # the least prime above 2^26
    assert big.q > MAX_Q
    with pytest.raises(TooLarge):
        FieldTable(big)


@pytest.mark.parametrize("p,k", [(3, 12), (5, 9), (2, 20), (251, 2), (65521, 1)])
def test_recurrence_tables_match_scalar_powers(p, k):
    """exp and the Zech table from the linear recurring sequence, sampled
    against powers of the scalar primitive element: exp[i] is g^i, and
    g^zech[t] is 1 + g^t (the sentinel where 1 + g^t = 0)."""
    field = construct_field(p, k)
    T = FieldTable(field)
    n, g, one = field.q - 1, T._primitive_element(), field.one()
    rng = np.random.default_rng(p * k)
    samples = [0, 1, 2, n // 2, n - 1] + rng.integers(0, n, size=40).tolist()
    if p != 2:
        samples.append(n // 2 - 1)  # g^(n/2) = -1, so 1 + g^(n/2) = 0
    for i in samples:
        assert T.exp[i] == (g**i).index()
        z, total = int(T.zech[i]), one + g**i
        if total.is_zero():
            assert z == 3 * n
        else:
            assert z < n and g**z == total
    assert T.exp[n] == 0 and T.zech[n] == 0
    assert np.array_equal(T.log[T.exp[samples]], samples)


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (3, 10), (5, 3), (7, 2), (13, 1), (31, 2)])
def test_primitive_element_is_the_first_of_full_order(p, k):
    """g has order q-1 and every element before it in enumeration order
    (from t when k > 1) has a smaller one, by powers g^((q-1)/r) in the
    field alone, where the table decides r | p-1 through the norm."""
    field = construct_field(p, k)
    n, one = field.q - 1, field.one()
    cofactors = [n // r for r in _prime_factors(n)]
    g = FieldTable(field)._primitive_element()
    assert all(g**c != one for c in cofactors)
    for i in range(p if k > 1 else 1, g.index()):
        assert any(element_from_index(field, i)**c == one for c in cofactors), i


def test_counts_build_no_index_space_arrays(monkeypatch):
    """A hyperelliptic or biquadratic count reads only the Zech table and
    the prime-field logs: exp, log and digits are never built."""
    built = []

    def fresh_table(spec):
        built.append(FieldTable(spec))
        return built[-1]

    monkeypatch.setattr(curves, "get_table", fresh_table)
    F3 = construct_field(3, 1)
    count_points(make_hyperelliptic(F3, (1, 0, 2, 1, 0, 1)), 6)
    count_points(make_biquadratic(F3, (1, 2, 0, 1), (1, 0, 1)).X, 5)
    assert len(built) == 2
    for T in built:
        assert not {"exp", "log", "digits"} & vars(T).keys()


def test_hyperelliptic_count_peak_memory_per_element(monkeypatch):
    """One count over F_{3^12} from fresh tables stays under 12 bytes per
    element of F_{3^12} under tracemalloc.  kj = 12 is even, so the count
    builds only the table of F_{3^6} (729 elements) and its (c, a) grid, and
    peaks at about 2.5 bytes per element of F_{3^12}."""
    monkeypatch.setattr(curves, "get_table", FieldTable)
    curve = make_hyperelliptic(construct_field(3, 1), (1, 0, 2, 1, 0, 1))
    tracemalloc.start()
    try:
        n = count_points(curve, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 532683
    assert peak < 12 * 3**12


def test_odd_extension_count_peak_memory_per_element(monkeypatch):
    """kj = 13 is odd, so the count builds the table of F_{3^13} itself and
    peaks at about 10.5 bytes per element under tracemalloc: the build's E
    and L (4 bytes each), then the Zech table and eval_logs' result, plus
    CHUNK slices."""
    monkeypatch.setattr(curves, "get_table", FieldTable)
    curve = make_hyperelliptic(construct_field(3, 1), (1, 0, 2, 1, 0, 1))
    tracemalloc.start()
    try:
        n = count_points(curve, 13, budget=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 1596665
    assert peak < 12 * 3**13


@pytest.mark.parametrize("p,k", [(3, 4), (5, 2), (7, 1), (3, 1)])
def test_horner_logs_matches_index_space_horner(p, k):
    """Coefficients and points that vary per entry, zero among them, through
    the log-space Horner and through mul and add."""
    T = get_table(construct_field(p, k))
    rng = np.random.default_rng(p * k)
    coeffs = [rng.integers(0, T.q, size=(7, 1)) for _ in range(5)]
    coeffs[2][:3] = 0
    coeffs[-1][0] = 0
    x = np.append(rng.integers(0, T.q, size=9), 0)
    expected = coeffs[-1]
    for c in coeffs[-2::-1]:
        expected = T.add(T.mul(expected, x), c)
    got = T.horner_logs([T.log.take(c) for c in coeffs], T.log.take(x))
    assert np.array_equal(T.exp.take(got, mode="clip"), np.broadcast_to(expected, got.shape))
    assert got.max() <= 3 * (T.q - 1) and np.all((got < T.q - 1) | (got == 3 * (T.q - 1)))


@pytest.mark.parametrize("p,k", [(3, 1), (3, 4), (5, 3), (7, 2), (3, 6)])
def test_frobenius_orbits_partition_the_non_squares(p, k):
    T = get_table(construct_field(p, k))
    n = T.q - 1
    leaders, sizes = T.frobenius_orbits
    seen = set()
    for leader, size in zip(leaders.tolist(), sizes.tolist()):
        orbit = {leader * p**r % n for r in range(k)}
        assert leader % 2 == 1 and leader == min(orbit) and size == len(orbit)
        seen |= orbit
    assert seen == set(range(1, n, 2))


def test_eval_logs_builds_each_progression_once():
    T = FieldTable(construct_field(3, 11))  # 177,147 elements: three CHUNK slices
    first = T.eval_logs((1, 0, 2, 1, 0, 1))
    kept = dict(T._progressions)
    assert sorted(kept) == [0, 1, 2]  # the gaps 2, 1, 2 of x^5 + x^3 + 2x^2 + 1, then x^0
    assert np.array_equal(T.eval_logs((1, 0, 2, 1, 0, 1)), first)
    assert all(T._progressions[m] is a for m, a in kept.items())
