"""Dense prime-field polynomial helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilgram import fppoly

from oracles import eval_at

polys = st.lists(st.integers(min_value=-9, max_value=9), min_size=0, max_size=6)
primes = st.sampled_from([2, 3, 5, 7])


def test_trim_and_degree():
    assert fppoly.trim((1, 2, 3, 0, 0), 5) == (1, 2, 3)
    assert fppoly.trim((0, 0), 3) == ()
    assert fppoly.trim((3, 6), 3) == ()
    assert fppoly.degree((1, 0, 2)) == 2
    assert fppoly.degree(()) == -1


def test_mul_known_product():
    # (x + 1)(x + 2) = x^2 + 3x + 2 -> x^2 + 2 mod 3
    assert fppoly.mul((1, 1), (2, 1), 3) == (2, 0, 1)


def test_divmod_reconstructs():
    f = (1, 2, 0, 1, 4)
    g = (2, 1, 1)
    q, r = fppoly.divmod_poly(f, g, 5)
    back = fppoly.add(fppoly.mul(q, g, 5), r, 5)
    assert back == fppoly.trim(f, 5)
    assert fppoly.degree(r) < fppoly.degree(g)


def test_gcd_of_multiples():
    h = (1, 1)  # x + 1
    a = fppoly.mul(h, (2, 0, 1), 7)
    b = fppoly.mul(h, (3, 1), 7)
    d = fppoly.gcd(a, b, 7)
    # gcd is monic and equals x + 1
    assert d == (1, 1)


def test_derivative():
    assert fppoly.derivative((5, 4, 3, 2), 7) == (4, 6, 6)
    # characteristic kills p-th powers: d/dx (x^3) = 0 mod 3
    assert fppoly.derivative((0, 0, 0, 1), 3) == ()


def test_is_squarefree_examples():
    # x^2 (x+1) = x^3 + x^2
    assert not fppoly.is_squarefree((0, 0, 1, 1), 3)
    assert fppoly.is_squarefree((0, 1, 0, 1), 3)  # x^3 + x
    assert fppoly.is_squarefree((1, 1), 3)
    # x^3 over p=3 is a perfect cube
    assert not fppoly.is_squarefree((0, 0, 0, 1), 3)


def test_eval_at():
    assert eval_at((1, 0, 1), 2, 5) == 5 % 5
    assert eval_at((2, 3), 4, 7) == (2 + 12) % 7


def test_to_string():
    assert fppoly.to_string((0, 1, 0, 1)) == "x^3 + x"
    assert fppoly.to_string((2,)) == "2"
    assert fppoly.to_string(()) == "0"


@settings(max_examples=120, deadline=None)
@given(f=polys, g=polys, p=primes)
def test_mul_commutes_and_respects_degree(f, g, p):
    a = fppoly.mul(tuple(f), tuple(g), p)
    b = fppoly.mul(tuple(g), tuple(f), p)
    assert a == b
    ft, gt = fppoly.trim(tuple(f), p), fppoly.trim(tuple(g), p)
    if ft and gt:
        assert fppoly.degree(a) == fppoly.degree(ft) + fppoly.degree(gt)
    else:
        assert a == ()


@settings(max_examples=120, deadline=None)
@given(f=polys, g=polys, p=primes, x=st.integers(min_value=0, max_value=6))
def test_operations_commute_with_evaluation(f, g, p, x):
    f, g = tuple(f), tuple(g)
    assert eval_at(fppoly.add(f, g, p), x, p) == \
        (eval_at(f, x, p) + eval_at(g, x, p)) % p
    assert eval_at(fppoly.mul(f, g, p), x, p) == \
        (eval_at(f, x, p) * eval_at(g, x, p)) % p


@settings(max_examples=100, deadline=None)
@given(f=polys, g=polys, p=primes)
def test_divmod_identity(f, g, p):
    g = fppoly.trim(tuple(g), p)
    if not g:
        return
    q, r = fppoly.divmod_poly(tuple(f), g, p)
    assert fppoly.add(fppoly.mul(q, g, p), r, p) == fppoly.trim(tuple(f), p)
    assert fppoly.degree(r) < fppoly.degree(g)
    # the remainder-only mod of a trimmed polynomial
    assert fppoly.mod(fppoly.trim(tuple(f), p), g, p) == r


@settings(max_examples=100, deadline=None)
@given(f=polys, g=polys, p=primes)
def test_gcd_divides_both(f, g, p):
    f, g = tuple(f), tuple(g)
    d = fppoly.gcd(f, g, p)
    if d == ():
        assert fppoly.trim(f, p) == () and fppoly.trim(g, p) == ()
        return
    for h in (f, g):
        _, r = fppoly.divmod_poly(h, d, p)
        assert r == ()
    # monic normalization
    assert d[-1] == 1


def test_powmod_edge_cases():
    m = (2, 0, 1, 1)  # x^3 + x^2 + 2 over F_3
    assert fppoly.powmod((1, 2), 0, m, 3) == (1,)
    assert fppoly.powmod((), 0, m, 3) == (1,)
    assert fppoly.powmod((), 5, m, 3) == ()
    # a degree-1 modulus x - a sends f to the constant f(a)^e
    for a in range(7):
        for e in range(9):
            want = fppoly.trim((pow(eval_at((3, 1, 4), a, 7), e, 7),), 7)
            assert fppoly.powmod((3, 1, 4), e, (-a % 7, 1), 7) == want


@settings(max_examples=80, deadline=None)
@given(f=polys, m=polys, e=st.integers(min_value=0, max_value=40), p=primes)
def test_powmod_matches_repeated_products(f, m, e, p):
    m = fppoly.trim(m, p)
    if fppoly.degree(m) < 1:
        return
    want = fppoly.mod((1,), m, p)
    for _ in range(e):
        want = fppoly.mod(fppoly.mul(want, fppoly.trim(f, p), p), m, p)
    assert fppoly.powmod(fppoly.trim(f, p), e, m, p) == want
