"""Vectorized field tables against the scalar element arithmetic."""

import numpy as np
import pytest

from weilgram.errors import TooLarge
from weilgram.finite_field import (
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


@pytest.mark.parametrize("p,k", FIELDS)
def test_add_and_scale_match_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    q = p**k
    idx = np.arange(q, dtype=np.int64)
    for a in range(q):
        ea = element_from_index(field, a)
        got = T.add(np.full(q, a, dtype=np.int64), idx)
        want = [(ea + element_from_index(field, b)).index() for b in range(q)]
        assert got.tolist() == want
    for c in range(p):
        got = T.scale(idx, c)
        want = [(field.scalar(c) * element_from_index(field, b)).index()
                for b in range(q)]
        assert got.tolist() == want
        got = T.add_scalar(idx, c)
        want = [(field.scalar(c) + element_from_index(field, b)).index()
                for b in range(q)]
        assert got.tolist() == want


@pytest.mark.parametrize("p,k", FIELDS)
def test_sqrt_count_matches_scalar(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    counts = T.sqrt_count()
    for v in enumerate_elements(field):
        want = sum(1 for y in enumerate_elements(field) if y * y == v)
        assert counts[v.index()] == want


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (3, 2), (7, 1)])
def test_eval_poly_matches_scalar_horner(p, k):
    field = construct_field(p, k)
    T = get_table(field)
    coeffs = (2, 0, 1, 1)  # x^3 + x^2 + 2 with prime-field coefficients
    got = T.eval_poly(coeffs)
    for x in enumerate_elements(field):
        acc = field.zero()
        for c in reversed(coeffs):
            acc = acc * x + field.scalar(c)
        assert got[x.index()] == acc.index()


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
