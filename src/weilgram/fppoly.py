"""Dense univariate polynomial arithmetic over a prime field F_p.

A polynomial is a tuple of ints in [0, p), ascending by degree, with no
trailing zeros; the zero polynomial is the empty tuple.  Everything here is
exact integer arithmetic, small enough that no clever algorithms are needed.
"""

from __future__ import annotations


def trim(coeffs, p):
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def degree(f):
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def add(f, g, p):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n)], p)


def sub(f, g, p):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                 for i in range(n)], p)


def scale(f, c, p):
    return trim([c * x for x in f], p)


def mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim(out, p)


def divmod_poly(f, g, p):
    """Quotient and remainder of f by nonzero g."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(trim(f, p))
    dg = len(g) - 1
    inv_lead = pow(g[-1], -1, p)
    q = [0] * max(len(f) - dg, 0)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        c = (f[-1] * inv_lead) % p
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        while f and f[-1] == 0:
            f.pop()
    return trim(q, p), tuple(f)


def mod(f, g, p):
    """Remainder of a polynomial f (trimmed, as everywhere here) by nonzero g;
    no quotient is built."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return tuple(f)
    f = list(f)
    inv_lead = pow(g[-1], -1, p)
    terms = [(i, b) for i, b in enumerate(g[:dg]) if b]  # moduli are often sparse
    for top in range(len(f) - 1, dg - 1, -1):
        c = f[top] * inv_lead % p
        if c:
            lo = top - dg
            for i, b in terms:
                f[lo + i] = (f[lo + i] - c * b) % p
    del f[dg:]
    while f and f[-1] == 0:
        f.pop()
    return tuple(f)


def powmod(f, e, m, p):
    """f^e mod m for e >= 0 by square-and-multiply; f^0 = 1 mod m."""
    result, f = mod((1,), m, p), mod(f, m, p)
    while e:
        if e & 1:
            result = mod(mul(result, f, p), m, p)
        f = mod(mul(f, f, p), m, p)
        e >>= 1
    return result


def gcd(f, g, p):
    """Monic gcd."""
    f, g = trim(f, p), trim(g, p)
    while g:
        f, g = g, mod(f, g, p)
    if f:
        f = scale(f, pow(f[-1], -1, p), p)
    return f


def resultant(f, g, p):
    """Res(f, g) = lc(f)^deg g * prod g(a) over the roots a of f, in F_p, by
    Euclid's algorithm: Res(f, g) = (-1)^(deg f deg g) Res(g, f), and
    Res(g, f) = lc(g)^(deg f - deg r) Res(g, r) for r = f mod g.  For a
    monic modulus f this is the norm of g from F_p[t]/(f) to F_p."""
    f, g = trim(f, p), trim(g, p)
    res = 1
    while True:
        if not f or not g:
            return 0
        df, dg = len(f) - 1, len(g) - 1
        if dg == 0:
            return res * pow(g[0], df, p) % p
        r = mod(f, g, p)
        if df * dg % 2:
            res = -res
        res = res * pow(g[-1], df - len(r) + 1, p) % p  # no r: the next pass returns 0
        f, g = g, r


def derivative(f, p):
    return trim([i * f[i] for i in range(1, len(f))], p)


def is_squarefree(f, p):
    """True iff f has no repeated root over the algebraic closure.

    gcd(f, f') must be constant.  In characteristic p the derivative can
    vanish identically (f a p-th power), which is never squarefree for
    deg f >= 1.
    """
    f = trim(f, p)
    if degree(f) < 1:
        return True
    d = derivative(f, p)
    if not d:
        return False
    return degree(gcd(f, d, p)) == 0


def to_string(f, var="x"):
    """Human-readable form, highest degree first."""
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            xs = var if i == 1 else f"{var}^{i}"
            parts.append(xs if c == 1 else f"{c}{xs}")
    return " + ".join(parts)
