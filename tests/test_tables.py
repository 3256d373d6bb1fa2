"""Vectorized field tables against the scalar element arithmetic of the oracles."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from weilgram import curves
from weilgram.curves import count_points, make_biquadratic, make_hyperelliptic, make_smooth_plane
from weilgram.errors import TooLarge
from weilgram.finite_field import _prime_factors, construct_field
from weilgram.tables import CHUNK, MAX_Q, FieldTable, get_table

from oracles import (
    element_from_index,
    enumerate_elements,
    frobenius_orbits_by_cosets,
    is_irreducible_trial,
    is_square,
    one,
    scalar,
    zero,
)

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
        # in log space a / b adds (q-1) - log b, for b != 0 and a = 0 too
        quotients = T.reduce_logs(T.log[a] + (q - 1) - T.log[1:])
        want = [(ea * element_from_index(field, b).inverse()).index() for b in range(1, q)]
        assert quotients.tolist() == T.log[want].tolist()


@pytest.mark.parametrize("p,k", FIELDS)
def test_add_and_scale_match_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    q = p**k
    # Zech addition in log space, zero operands and sums that vanish included
    for a in range(q):
        got = T.add_logs(np.full(q, T.log[a]), T.log)
        ea = element_from_index(field, a)
        want = [(ea + element_from_index(field, b)).index() for b in range(q)]
        assert got.tolist() == T.log[want].tolist()


@pytest.mark.parametrize("p,k", FIELDS)
def test_sqrt_count_matches_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    counts = T.sqrt_count()
    for v in enumerate_elements(field):
        want = sum(1 for y in enumerate_elements(field) if y * y == v)
        assert counts[v.index()] == want


def _scalar_horner(field, coeffs, x):
    acc = zero(field)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _check_eval_logs(T, field, coeffs, got, entries):
    """Entry i of eval_logs is f(x) at x = exp[i]: at or past q-1 exactly
    where f(x) = 0, and the log of f(x) elsewhere."""
    coeffs = [scalar(field, c) for c in coeffs]
    for i in entries:
        want = _scalar_horner(field, coeffs, element_from_index(field, int(T.exp[i])))
        if want.is_zero():
            assert got[i] >= T.q - 1, (i, got[i])
        else:
            assert T.exp[got[i]] == want.index(), (i, got[i])


@pytest.mark.parametrize("p,k", FIELDS)
def test_eval_poly_matches_scalar_horner(p, k):
    """eval_logs, log-space Horner, against scalar Horner, on polynomials
    that vanish at x = 0 and elsewhere in the field, with runs of zero
    coefficients, and on x^q - x and x^(q-1) - 1, which vanish on the whole
    field or all of it but 0."""
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
    at = np.arange(q - 2, -1, -1, dtype=np.uint32)  # every nonzero x, last log first
    for coeffs in polys:
        got = T.eval_logs(coeffs)
        assert got.dtype == np.uint32 and len(got) == q
        _check_eval_logs(T, field, coeffs, got, range(q))
        at_logs = T.eval_logs(coeffs, at)
        assert at_logs.dtype == np.uint32 and np.array_equal(at_logs, got[at])


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
    # log-space Horner over nine CHUNK slices of the nonzero elements
    coeffs = (1, 2, 0, 1, 0, 0, 2, 1)
    values = T.eval_logs(coeffs)
    _check_eval_logs(T, field, coeffs, values, list(range(0, field.q, 9001)) + [field.q - 1])
    # and at given logs, in an order no slice of which is a progression
    at = rng.permutation(field.q - 1)[:200_000].astype(np.uint32)
    assert np.array_equal(T.eval_logs(coeffs, at), values[at])


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
    against powers of the primitive element as a scalar element: exp[i] is
    g^i, and g^zech[t] is 1 + g^t (the sentinel where 1 + g^t = 0)."""
    field = construct_field(p, k)
    T = FieldTable(field)
    n, g = field.q - 1, element_from_index(field, T._primitive_element())
    rng = np.random.default_rng(p * k)
    samples = [0, 1, 2, n // 2, n - 1] + rng.integers(0, n, size=40).tolist()
    if p != 2:
        samples.append(n // 2 - 1)  # g^(n/2) = -1, so 1 + g^(n/2) = 0
    for i in samples:
        assert T.exp[i] == (g**i).index()
        z, total = int(T.zech[i]), one(field) + g**i
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
    n, e1 = field.q - 1, one(field)
    cofactors = [n // r for r in _prime_factors(n)]
    index = FieldTable(field)._primitive_element()
    g = element_from_index(field, index)
    assert all(g**c != e1 for c in cofactors)
    for i in range(p if k > 1 else 1, index):
        assert any(element_from_index(field, i)**c == e1 for c in cofactors), i


@pytest.mark.parametrize("p,k", [(2, 2), (2, 7), (3, 3), (5, 2), (7, 2), (3, 4), (13, 2)])
def test_lazy_walks_match_an_enumeration_by_product(p, k):
    """construct_field and _primitive_element walk their candidates as the
    digits of a counter.  The order they had, by itertools.product, with
    irreducibility and order decided by brute force, gives the same modulus
    and the same g, so the same Zech table: zech[t] = log(1 + g^t), the
    sentinel 3(q-1) where 1 + g^t = 0, and zech[q-1] = 0."""
    field = construct_field(p, k)
    moduli = ((c0,) + tail + (1,) for c0 in range(1, p) for tail in product(range(p), repeat=k - 1))
    assert field.modulus == next(f for f in moduli if is_irreducible_trial(f, p))
    n, e1 = field.q - 1, one(field)

    def order(x):
        y, m = x, 1
        while y != e1:
            y, m = y * x, m + 1
        return m

    digits = product(range(p), repeat=k)  # most significant first
    candidates = (sum(c * p**i for i, c in enumerate(reversed(big))) for big in digits)
    index = next(i for i in candidates if i >= (p if k > 1 else 1)
                 and order(element_from_index(field, i)) == n)
    g = element_from_index(field, index)
    powers = [e1]
    for _ in range(n - 1):
        powers.append(powers[-1] * g)
    logs = {x: t for t, x in enumerate(powers)}
    zech = [3 * n if (e1 + x).is_zero() else logs[e1 + x] for x in powers] + [0]
    assert FieldTable(field).zech.tolist() == zech


def test_prime_field_table_build_peak_memory_per_element():
    """The primitive-element walk of F_1000003 is a counter: the build peaks
    at about 17 bytes per element under tracemalloc.  A walk by
    itertools.product held tuple(range(p)) and peaked at 40."""
    field = construct_field(1000003, 1)
    tracemalloc.start()
    try:
        T = FieldTable(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.zech[field.q - 1] == 0
    assert peak < 24 * field.q


def test_counts_build_no_index_space_arrays(monkeypatch):
    """A hyperelliptic, biquadratic or plane count reads only the Zech table
    and the prime-field logs: exp, log and digits are never built."""
    built = []

    def fresh_table(spec):
        built.append(FieldTable(spec))
        return built[-1]

    monkeypatch.setattr(curves, "get_table", fresh_table)
    F3 = construct_field(3, 1)
    count_points(make_hyperelliptic(F3, (1, 0, 2, 1, 0, 1)), 6)
    count_points(make_biquadratic(F3, (1, 2, 0, 1), (1, 0, 1)).X, 5)
    quartic = [(4, 0, 0, 1), (0, 4, 0, 1), (0, 0, 4, 1)]
    assert count_points(make_smooth_plane(construct_field(5, 1), quartic, 4), 2) == 44
    assert len(built) == 3
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
    peaks at about 9.7 bytes per element under tracemalloc: the build's E
    and L (4 bytes each), then the Zech table, the orbit leaders and f at
    them (about 9/13 bytes), plus CHUNK slices."""
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
    the log-space Horner and through scalar Horner on the oracle's
    elements."""
    field = construct_field(p, k)
    T = get_table(field)
    rng = np.random.default_rng(p * k)
    coeffs = [rng.integers(0, T.q, size=(7, 1)) for _ in range(5)]
    coeffs[2][:3] = 0
    coeffs[-1][0] = 0
    x = np.append(rng.integers(0, T.q, size=9), 0)
    got = T.horner_logs([T.log.take(c) for c in coeffs], T.log.take(x))
    assert got.shape == (7, 10)
    for r in range(7):
        row = [element_from_index(field, int(c[r, 0])) for c in coeffs]
        for s, xs in enumerate(x.tolist()):
            want = _scalar_horner(field, row, element_from_index(field, xs))
            assert got[r, s] == T.log[want.index()], (r, s)
    assert got.max() <= 3 * (T.q - 1) and np.all((got < T.q - 1) | (got == 3 * (T.q - 1)))


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 3), (13, 1)])
def test_add_logs_matches_scalar_on_zeros_and_vanishing_sums(p, k):
    """Every pair of operands, broadcast as a column against a row: sums
    with a zero operand are the other operand, and 0 + 0 and a + (-a) land
    exactly on the sentinel 3(q-1)."""
    field = construct_field(p, k)
    T = get_table(field)
    n = field.q - 1
    elements = list(enumerate_elements(field))
    got = T.add_logs(T.log[:, None], T.log[None, :])
    assert got.shape == (field.q, field.q) and got.dtype == np.uint32
    want = [[T.log[(a + b).index()] for b in elements] for a in elements]
    assert got.tolist() == [[int(v) for v in row] for row in want]
    assert np.all(got[0] == T.log) and np.all(got[:, 0] == T.log)
    negatives = [(-a).index() for a in elements]
    assert np.all(got[np.arange(field.q), negatives] == 3 * n)


def _odd_prime_powers(limit: int) -> list:
    primes = [p for p in range(3, limit + 1, 2) if _prime_factors(p) == [p]]
    return [(p, k) for p in primes for k in range(1, limit.bit_length()) if p**k <= limit]


@pytest.mark.parametrize("p,k", _odd_prime_powers(1 << 12) + [(2, k) for k in range(1, 13)])
def test_frobenius_orbits_partition_the_non_squares(p, k):
    """Every orbit of i -> p i mod (q-1), against the orbits listed by brute
    force: each leader the least log of its orbit, in increasing order, and
    each size its orbit's, a divisor of k; the sizes sum to q - 1, and for
    odd p the odd leaders' orbits are the non-squares, the odd logs.  Plane
    counts read the leaders over every field, F_{2^k} included."""
    T = get_table(construct_field(p, k))
    n = T.q - 1
    leaders, sizes = T.frobenius_orbits
    assert leaders.dtype == np.uint32 and sizes.dtype == np.uint8
    orbits = {}
    for i in range(n):
        orbit = {i * p**r % n for r in range(k)}
        orbits[min(orbit)] = len(orbit)
    assert leaders.tolist() == sorted(orbits)
    assert sizes.tolist() == [orbits[leader] for leader in sorted(orbits)]
    assert all(k % size == 0 for size in sizes.tolist())
    assert int(sizes.sum(dtype=np.int64)) == n
    if p == 2:
        return
    seen = set()
    for leader, size in zip(leaders.tolist(), sizes.tolist()):
        if leader % 2:
            seen |= {leader * p**r % n for r in range(size)}
    assert seen == set(range(1, n, 2))


@pytest.mark.parametrize("p,k", [(3, 11), (2, 17), (17, 4), (131071, 1)])
def test_frobenius_orbits_match_the_cosets_across_slices(p, k):
    """On fields whose logs span two or three CHUNK slices, the leaders and
    sizes equal the cyclotomic cosets computed by modular products (the
    oracle), so no orbit is lost or split at a slice boundary."""
    T = get_table(construct_field(p, k))
    assert CHUNK < T.q - 1 <= 3 * CHUNK
    leaders, sizes = T.frobenius_orbits
    assert leaders.dtype == np.uint32 and sizes.dtype == np.uint8
    want_leaders, want_sizes = frobenius_orbits_by_cosets(p, k)
    assert np.array_equal(leaders, want_leaders)
    assert np.array_equal(sizes, want_sizes)
