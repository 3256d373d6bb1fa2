"""Seeded plane-curve manifests whose smoothness is known by construction,
and an independent check of singular-point witnesses.

Every pass has the same composition:

* for each p in 13, 17, 19, 23: one smooth cubic, and one singular cubic
  y^2 z = x^3 + a x^2 z (a node, or a cusp for a = 0) moved by a seeded
  invertible linear change of coordinates, which maps its one singular point
  (0:0:1) to a known rational point;
* over F_3: two smooth quartics, each followed by a product of two seeded
  smooth conics, which is singular exactly where the conics meet, over an
  extension of degree at most 4.

The smooth curves are fixed dense base curves (a x^3 + b y^3 + c z^3 + t xyz
and the quartics a x^4 + b y^4 + c z^4 and x^3 y + y^3 z + z^3 x, each moved
once by a fixed linear change) that the seed rescales by a diagonal change
(x, y, z) -> (ax, by, cz).  Such a change keeps smoothness and also the work
of the smoothness scan: the candidate lines it visits are rescaled, not
added or removed.  A full random change would not: how many candidate lines
a smooth cubic over F_23 has over F_{23^4} moves its validation time between
1.3 s and 3.6 s, which would make the workload's time depend on the seed.
The seed never reaches the program: it receives only the manifests.
"""

from __future__ import annotations

import random

CUBIC_PRIMES = (13, 17, 19, 23)


# --- polynomials in x, y, z as {(a, b, c): coeff mod p} --------------------

def _poly_mul(f: dict, g: dict, p: int) -> dict:
    out = {}
    for (a1, b1, c1), u in f.items():
        for (a2, b2, c2), v in g.items():
            key = (a1 + a2, b1 + b2, c1 + c2)
            out[key] = (out.get(key, 0) + u * v) % p
    return {k: v for k, v in out.items() if v}


def _substitute(f: dict, A, p: int) -> dict:
    """f(A v): variable i becomes the linear form row i of A."""
    forms = [{(1, 0, 0): A[i][0] % p, (0, 1, 0): A[i][1] % p, (0, 0, 1): A[i][2] % p}
             for i in range(3)]
    forms = [{k: v for k, v in form.items() if v} for form in forms]
    out = {}
    for exps, co in f.items():
        term = {(0, 0, 0): co}
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = _poly_mul(term, form, p)
        for k, v in term.items():
            out[k] = (out.get(k, 0) + v) % p
    return {k: v for k, v in out.items() if v}


def _det3(A, p: int) -> int:
    return (A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
            - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
            + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])) % p


def _random_gl3(rng: random.Random, p: int):
    while True:
        A = [[rng.randrange(p) for _ in range(3)] for _ in range(3)]
        if _det3(A, p):
            return A


def _inverse_column3(A, p: int):
    """Third column of A^{-1} mod p: the point v with A v = (0, 0, 1)."""
    det_inv = pow(_det3(A, p), -1, p)
    cof = [(A[0][1] * A[1][2] - A[0][2] * A[1][1]),
           -(A[0][0] * A[1][2] - A[0][2] * A[1][0]),
           (A[0][0] * A[1][1] - A[0][1] * A[1][0])]
    return [c * det_inv % p for c in cof]


def _normalize(v, p: int) -> list:
    """Projective point as the program reports it: (1:y:z), (0:1:z) or (0:0:1)."""
    lead = next(i for i, c in enumerate(v) if c % p)
    inv = pow(v[lead], -1, p)
    return [c * inv % p for c in v]


def _manifest(f: dict, p: int, d: int) -> dict:
    flat = []
    for (a, b, c), co in sorted(f.items()):
        flat.extend((a, b, c, co))
    return {"kind": "plane", "p": p, "k": 1, "d": d, "F": flat}


def _nonzero(rng, p):
    return 1 + rng.randrange(p - 1)


def _smooth_cubic(rng, p):
    while True:
        a, b, c = (_nonzero(rng, p) for _ in range(3))
        t = rng.randrange(p)
        if (t**3 + 27 * a * b * c) % p:
            f = {(3, 0, 0): a, (0, 3, 0): b, (0, 0, 3): c, (1, 1, 1): t}
            return {k: v for k, v in f.items() if v}


def _conic(rng, p):
    """v^T M v for a random symmetric M with det M != 0 (a smooth conic)."""
    while True:
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = rng.randrange(p)
        if _det3(m, p):
            f = {}
            for i in range(3):
                for j in range(3):
                    e = [0, 0, 0]
                    e[i] += 1
                    e[j] += 1
                    f[tuple(e)] = (f.get(tuple(e), 0) + m[i][j]) % p
            return {k: v for k, v in f.items() if v}


def _moved(rng, f, p):
    A = _random_gl3(rng, p)
    return _substitute(f, A, p), A


def _rescaled(rng, f, p):
    scale = [_nonzero(rng, p) for _ in range(3)]
    return {exps: co * pow(scale[0], exps[0], p) * pow(scale[1], exps[1], p)
            * pow(scale[2], exps[2], p) % p for exps, co in f.items()}


def _smooth_bases():
    """The fixed smooth curves: one cubic per prime, then two quartics over F_3."""
    rng = random.Random("plane_validation:base")
    cubics = [_moved(rng, _smooth_cubic(rng, p), p)[0] for p in CUBIC_PRIMES]
    fermat = {(4, 0, 0): 1, (0, 4, 0): 2, (0, 0, 4): 1}
    klein = {(3, 1, 0): 1, (0, 3, 1): 1, (1, 0, 3): 1}
    quartics = [_moved(rng, base, 3)[0] for base in (fermat, klein)]
    return cubics, quartics


def sample_planes(seed: int) -> list:
    """One pass of plane items: dicts with the manifest and what the
    construction guarantees ("smooth" with its genus, or "singular", with the
    singular point when it is rational)."""
    rng = random.Random(f"plane_validation:{seed}")
    cubics, quartics = _smooth_bases()
    items = []
    for p, base in zip(CUBIC_PRIMES, cubics):
        items.append({"manifest": _manifest(_rescaled(rng, base, p), p, 3),
                      "expect": "smooth", "genus": 1})
        a = rng.randrange(p)
        nodal = {(0, 2, 1): 1, (3, 0, 0): p - 1}
        if a:
            nodal[(2, 0, 1)] = p - a
        f, A = _moved(rng, nodal, p)
        items.append({"manifest": _manifest(f, p, 3), "expect": "singular",
                      "point": _normalize(_inverse_column3(A, p), p)})
    p = 3
    for base in quartics:
        items.append({"manifest": _manifest(_rescaled(rng, base, p), p, 4),
                      "expect": "smooth", "genus": 3})
        while True:
            c1, c2 = _conic(rng, p), _conic(rng, p)
            if not any(_poly_mul(c1, {(0, 0, 0): s}, p) == c2 for s in range(1, p)):
                break
        items.append({"manifest": _manifest(_poly_mul(c1, c2, p), p, 4),
                      "expect": "singular", "point": None})
    return items


# --- independent witness check ---------------------------------------------

def _digits(idx: int, p: int, k: int) -> list:
    out = []
    for _ in range(k):
        out.append(idx % p)
        idx //= p
    return out


def _fmul(u, v, modulus, p):
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, a in enumerate(u):
        if a:
            for j, b in enumerate(v):
                prod[i + j] = (prod[i + j] + a * b) % p
    for m in range(len(prod) - 1, k - 1, -1):
        c = prod[m]
        if c:
            for i in range(k + 1):
                prod[m - k + i] = (prod[m - k + i] - c * modulus[i]) % p
    return prod[:k]


def _eval(f: dict, point, modulus, p) -> bool:
    """True iff f vanishes at `point` (digit vectors over F_p[t]/modulus)."""
    k = len(modulus) - 1
    one = [1] + [0] * (k - 1)
    total = [0] * k
    for (a, b, c), co in f.items():
        term = [co % p] + [0] * (k - 1)
        for coord, e in zip(point, (a, b, c)):
            power = one
            for _ in range(e):
                power = _fmul(power, coord, modulus, p)
            term = _fmul(term, power, modulus, p)
        total = [(s + t) % p for s, t in zip(total, term)]
    return not any(total)


def _partial(f: dict, axis: int, p: int) -> dict:
    out = {}
    for exps, co in f.items():
        if exps[axis] and (co * exps[axis]) % p:
            e = list(exps)
            e[axis] -= 1
            out[tuple(e)] = (out.get(tuple(e), 0) + co * exps[axis]) % p
    return {k: v for k, v in out.items() if v}


def is_singular_point(manifest: dict, witness, modulus) -> bool:
    """F and its three partials vanish at the witness, whose coordinates are
    element indices of F_p[t]/modulus, computed without the program."""
    p = manifest["p"]
    flat = manifest["F"]
    f = {tuple(flat[i:i + 3]): flat[i + 3] % p for i in range(0, len(flat), 4)}
    k = len(modulus) - 1
    point = [_digits(int(w), p, k) for w in witness]
    return all(_eval(g, point, modulus, p)
               for g in (f, _partial(f, 0, p), _partial(f, 1, p), _partial(f, 2, p)))
