"""Field construction, and the scalar element arithmetic of the oracles,
checked against first principles."""

import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgram.errors import NotPrime, TooLarge
from weilgram.curves import count_points, parse_manifest
from weilgram.tables import MAX_Q, get_table
from weilgram.finite_field import (
    MAX_DEGREE,
    MR_LIMIT,
    _is_irreducible,
    construct_field,
    extension_of,
    is_prime,
    prime_power_decomposition,
)

from oracles import (
    element_from_index,
    enumerate_elements,
    generator,
    is_irreducible_trial,
    is_prime_trial,
    is_square,
    one,
    prime_power_trial,
    scalar,
    zero,
)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (3, 3)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)


def test_prime_power_decomposition():
    assert prime_power_decomposition(9) == (3, 2)
    assert prime_power_decomposition(8) == (2, 3)
    assert prime_power_decomposition(7) == (7, 1)
    for bad in (1, 6, 12, 100):
        assert prime_power_decomposition(bad) is None


def test_primality_matches_trial_division():
    for n in range(-3, 20000):
        assert is_prime(n) == is_prime_trial(n), n
        assert prime_power_decomposition(n) == prime_power_trial(n), n


def test_primality_beyond_trial_division():
    """Trial division took minutes at 2^61 - 1.  3215031751 = 151 * 751 * 28351
    is a strong pseudoprime to the bases 2, 3, 5 and 7."""
    assert is_prime(2**61 - 1)
    assert 193707721 * 761838257287 == 2**67 - 1
    assert not is_prime(2**67 - 1)
    assert not is_prime(3215031751) and not is_prime_trial(3215031751)
    assert prime_power_decomposition((2**61 - 1) ** 3) == (2**61 - 1, 3)
    assert prime_power_decomposition(2**100) == (2, 100)
    assert prime_power_decomposition(2**67 - 1) is None
    line = parse_manifest({"kind": "line", "p": 2**61 - 1, "k": 1})
    assert count_points(line, 1, budget=2**62) == 2**61
    assert not is_prime(2**89)  # a small factor decides it above the limit
    with pytest.raises(TooLarge):
        is_prime(2**89 - 1)
    with pytest.raises(TooLarge):
        is_prime(MR_LIMIT)


def test_construct_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        construct_field(4, 1)
    with pytest.raises(NotPrime):
        construct_field(1, 1)


# the largest degree checked exhaustively for each p: 15,331 polynomials in all
IRREDUCIBILITY_DEGREES = {2: 12, 3: 7, 5: 5, 7: 4, 11: 3, 13: 3}


def _monic_irreducible_count(p: int, k: int) -> int:
    """Gauss: (1/k) sum over d | k of mu(d) p^(k/d)."""
    def mu(n):
        out, r = 1, 2
        while r * r <= n:
            if n % r == 0:
                n //= r
                if n % r == 0:
                    return 0
                out = -out
            r += 1
        return -out if n > 1 else out
    return sum(mu(d) * p ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


@pytest.mark.parametrize("p", sorted(IRREDUCIBILITY_DEGREES))
def test_rabin_irreducibility_matches_trial_division(p):
    """Every monic polynomial with a nonzero constant term (the candidates of
    construct_field) gets the trial-division verdict, and the irreducibles
    of each degree number as Gauss's formula says (less t itself at k = 1)."""
    for k in range(1, IRREDUCIBILITY_DEGREES[p] + 1):
        found = 0
        for c0 in range(1, p):
            for tail in product(range(p), repeat=k - 1):
                f = (c0,) + tail + (1,)
                verdict = _is_irreducible(f, p)
                assert verdict == is_irreducible_trial(f, p), (p, f)
                found += verdict
        assert found == _monic_irreducible_count(p, k) - (k == 1), (p, k)


def test_modulus_of_f_2_40_is_pinned():
    """The lexicographically first irreducible of degree 40 over F_2 has
    ones at degrees 0, 35, 36, 37 and 40.  A divisor search would try up to
    2^20 polynomials on each candidate."""
    field = construct_field(2, 40)
    assert [i for i, c in enumerate(field.modulus) if c] == [0, 35, 36, 37, 40]


@pytest.mark.parametrize("p,k,modulus", [
    (1009, 4, (1, 0, 0, 1, 1)),
    (101, 6, (1, 0, 0, 0, 0, 6, 1)),
    (10007, 5, (1, 0, 0, 0, 9, 1)),
])
def test_large_prime_moduli_are_pinned_and_fast(p, k, modulus):
    """A divisor search would list p^(k/2), a million or more, polynomials
    here; Ben-Or's test takes at most k/2 modular powers per candidate."""
    start = time.perf_counter()
    field = construct_field.__wrapped__(p, k)  # bypass the cache
    assert time.perf_counter() - start < 10
    assert field.modulus == modulus and field.q == p**k


def test_modulus_search_over_a_huge_prime_walks_its_candidates_lazily():
    """The candidates are the base-p digits of a counter, never a tuple of
    range(p): over p = 2^61 - 1 that tuple raised MemoryError."""
    start = time.perf_counter()
    field = construct_field.__wrapped__(2**61 - 1, 2)  # bypass the cache
    assert time.perf_counter() - start < 1
    assert field.modulus == (1, 0, 1)  # p = 3 mod 4, so -1 is a non-square


@pytest.mark.parametrize("p", [2, 3, 5])
def test_extension_degree_is_capped_before_the_modulus_search(p):
    """k = MAX_DEGREE is searched (0.01-0.15 s for these p), k one above it
    raises TooLarge at once: k = 200 over F_5 took 13.5 s or more before."""
    start = time.perf_counter()
    field = construct_field.__wrapped__(p, MAX_DEGREE)  # bypass the cache
    assert time.perf_counter() - start < 10
    assert field.k == MAX_DEGREE and field.modulus[-1] == 1
    start = time.perf_counter()
    for k in (MAX_DEGREE + 1, 200, 10**6):
        with pytest.raises(TooLarge, match=f"k={k} exceeds {MAX_DEGREE}"):
            construct_field(p, k)
    with pytest.raises(TooLarge):
        extension_of(construct_field(p, 4), MAX_DEGREE // 4 + 1)
    assert time.perf_counter() - start < 0.1


def test_extension_degree_cap_keeps_every_table_backed_field():
    """A table stops at MAX_Q elements, and the norm path counts F_Q on the
    table of sqrt(Q), so a count reaches fields of at most MAX_Q^2 elements.
    F_2 has the largest such k, and it is MAX_DEGREE."""
    assert max(k for k in range(1, 100) if 2**k <= MAX_Q**2) == MAX_DEGREE


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, k):
    """Associativity, distributivity, inverses: every pair (and a cube slice)."""
    field = construct_field(p, k)
    elements = list(enumerate_elements(field))
    assert len(elements) == p**k
    e0, e1 = zero(field), one(field)
    for a in elements:
        assert a + e0 == a
        assert a * e1 == a
        assert a - a == e0
        if not a.is_zero():
            assert a * a.inverse() == e1
    for a in elements:
        for b in elements:
            assert a + b == b + a
            assert a * b == b * a
    slice3 = elements[: min(len(elements), 9)]
    for a in slice3:
        for b in slice3:
            for c in slice3:
                assert (a + b) * c == a * c + b * c
                assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_multiplicative_order_divides_group_order(p, k):
    field = construct_field(p, k)
    q = p**k
    e1 = one(field)
    for a in enumerate_elements(field):
        if not a.is_zero():
            assert a ** (q - 1) == e1


def test_generator_has_full_order():
    for p, k in [(3, 2), (2, 3), (5, 2)]:
        field = construct_field(p, k)
        g = generator(field)
        q = p**k
        seen = set()
        x = one(field)
        for _ in range(q - 1):
            x = x * g
            seen.add(x.index())
        # t need not be a primitive root, but its powers stay nonzero
        assert 0 not in seen


def test_pow_edge_cases():
    field = construct_field(5, 1)
    a = scalar(field, 3)
    assert a**0 == one(field)
    assert zero(field) ** 0 == one(field)
    assert a**-1 == a.inverse()
    assert a**-2 == (a * a).inverse()
    with pytest.raises(ZeroDivisionError):
        zero(field).inverse()


def test_index_round_trip():
    for p, k in SMALL_FIELDS:
        field = construct_field(p, k)
        for i in range(p**k):
            assert element_from_index(field, i).index() == i


def test_field_mismatch_raises():
    a = one(construct_field(3, 1))
    b = one(construct_field(5, 1))
    with pytest.raises(ValueError):
        a + b


def test_extension_of_sizes():
    F3 = construct_field(3, 1)
    assert extension_of(F3, 2).q == 9
    assert extension_of(F3, 4).q == 81
    F9 = construct_field(3, 2)
    assert extension_of(F9, 3).q == 9**3


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_is_square_matches_exhaustive_squares(p, k):
    """The oracle's Euler criterion, and the table rule a count reads (a
    nonzero F_p scalar c is a square exactly when its log is even), both
    agree with the set of squares y^2."""
    field = construct_field(p, k)
    squares = {(y * y).index() for y in enumerate_elements(field) if not y.is_zero()}
    for a in enumerate_elements(field):
        if not a.is_zero():
            assert is_square(a) == (a.index() in squares)
    prime_logs = get_table(field).prime_logs
    for c in range(1, p):
        assert (int(prime_logs[c]) % 2 == 0) == (scalar(field, c).index() in squares)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (7, 1), (3, 3)])
def test_scalar_square_agrees_with_element_route(p, k):
    field = construct_field(p, k)
    prime_logs = get_table(field).prime_logs
    for c in range(1, p):
        assert (int(prime_logs[c]) % 2 == 0) == is_square(scalar(field, c))


def test_half_of_units_are_squares():
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2)]:
        field = construct_field(p, k)
        n = sum(
            1 for a in enumerate_elements(field)
            if not a.is_zero() and is_square(a)
        )
        assert n == (p**k - 1) // 2


@settings(max_examples=60, deadline=None)
@given(
    pk=st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (2, 3)]),
    xi=st.integers(min_value=0, max_value=10**6),
    yi=st.integers(min_value=0, max_value=10**6),
)
def test_frobenius_is_additive(pk, xi, yi):
    """(x + y)^p = x^p + y^p, the defining identity of characteristic p."""
    p, k = pk
    field = construct_field(p, k)
    q = p**k
    x = element_from_index(field, xi % q)
    y = element_from_index(field, yi % q)
    assert (x + y) ** p == x**p + y**p
