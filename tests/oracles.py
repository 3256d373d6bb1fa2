"""Slow, independent re-implementations used to cross-check the library.

Everything here deliberately avoids the library's fast paths: counting walks
scalar field elements in pure Python loops instead of vectorized tables,
determinants run rational Gaussian elimination instead of fraction-free
integer elimination, and power sums come from numpy root finding instead of
integer recurrences.  Agreement between the two routes is the point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from weilgram.finite_field import FieldSpec, enumerate_elements, extension_of


def poly_value(coeffs, x):
    """Horner evaluation of a prime-field-coefficient polynomial at a field
    element, using only scalar element arithmetic."""
    field = x.owner
    acc = field.zero()
    for c in reversed(coeffs):
        acc = acc * x + field.scalar(c)
    return acc


def sqrt_count_scalar(value) -> int:
    """#{y : y^2 = value} by scanning every y. O(q) per call."""
    return sum(1 for y in enumerate_elements(value.owner) if y * y == value)


def leading_is_square(coeffs, field: FieldSpec) -> bool:
    target = field.scalar(coeffs[-1])
    return any(y * y == target for y in enumerate_elements(field))


def count_hyperelliptic_slow(curve, j: int) -> int:
    """Scan all (x, y) pairs; apply the infinity rule for the smooth model."""
    ext = extension_of(curve.base, j)
    affine = 0
    for x in enumerate_elements(ext):
        fx = poly_value(curve.f, x)
        for y in enumerate_elements(ext):
            if y * y == fx:
                affine += 1
    deg = len(curve.f) - 1
    if deg % 2 == 1:
        return affine + 1
    return affine + (2 if leading_is_square(curve.f, ext) else 0)


def count_biquadratic_slow(curve, j: int) -> int:
    ext = extension_of(curve.base, j)
    affine = 0
    for x in enumerate_elements(ext):
        affine += sqrt_count_scalar(poly_value(curve.f, x)) * \
            sqrt_count_scalar(poly_value(curve.g, x))
    return affine + (2 if leading_is_square(curve.g, ext) else 0)


def monomials_value(monomials, x, y, z):
    field = x.owner
    acc = field.zero()
    for a, b, c, co in monomials:
        acc = acc + field.scalar(co) * x**a * y**b * z**c
    return acc


def count_plane_slow(curve, j: int) -> int:
    """All projective representatives (1:y:z), (0:1:z), (0:0:1) by scalar
    arithmetic."""
    ext = extension_of(curve.base, j)
    one, zero = ext.one(), ext.zero()
    total = 0
    for y in enumerate_elements(ext):
        for z in enumerate_elements(ext):
            if monomials_value(curve.monomials, one, y, z).is_zero():
                total += 1
    for z in enumerate_elements(ext):
        if monomials_value(curve.monomials, zero, one, z).is_zero():
            total += 1
    if monomials_value(curve.monomials, zero, zero, one).is_zero():
        total += 1
    return total


def legendre(v: int, p: int) -> int:
    """Legendre symbol (v/p) for an odd prime p, by Euler's criterion."""
    v %= p
    if v == 0:
        return 0
    return 1 if pow(v, (p - 1) // 2, p) == 1 else -1


def count_hyperelliptic_prime_field(f, p: int) -> int:
    """N_1 of y^2 = f(x) over F_p, p odd, from Legendre symbols in plain
    integer arithmetic: 1 + (f(x)/p) affine points over each x."""
    affine = 0
    for x in range(p):
        fx = 0
        for c in reversed(f):
            fx = (fx * x + c) % p
        affine += 1 + legendre(fx, p)
    if (len(f) - 1) % 2 == 1:
        return affine + 1
    return affine + 1 + legendre(f[-1], p)


def count_plane_prime_field(monomials, p: int) -> int:
    """N_1 of a plane curve over F_p, scanning (1:y:z), (0:1:z), (0:0:1)
    in plain integer arithmetic."""
    def value(x, y, z):
        return sum(co * x**a * y**b * z**c for a, b, c, co in monomials) % p
    total = sum(1 for y in range(p) for z in range(p) if value(1, y, z) == 0)
    total += sum(1 for z in range(p) if value(0, 1, z) == 0)
    return total + (value(0, 0, 1) == 0)


def count_line_slow(curve, j: int) -> int:
    ext = extension_of(curve.base, j)
    return ext.q + 1


def count_slow(model, j: int) -> int:
    kind = model.kind
    if kind == "projective_line":
        return count_line_slow(model, j)
    if kind == "hyperelliptic":
        return count_hyperelliptic_slow(model, j)
    if kind == "smooth_plane":
        return count_plane_slow(model, j)
    if kind == "biquadratic_total_space":
        return count_biquadratic_slow(model, j)
    raise ValueError(kind)


def gauss_det(rows) -> Fraction:
    """Determinant by rational Gaussian elimination with partial pivoting."""
    n = len(rows)
    M = [[Fraction(v) for v in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if M[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            M[col], M[pivot] = M[pivot], M[col]
            det = -det
        det *= M[col][col]
        inv = 1 / M[col][col]
        for r in range(col + 1, n):
            factor = M[r][col] * inv
            if factor:
                M[r] = [a - factor * b for a, b in zip(M[r], M[col])]
    return det


def psd_by_eigenvalues(entries, tol: float = 1e-9) -> bool:
    w = np.linalg.eigvalsh(np.array(entries, dtype=float))
    scale = max(1.0, float(np.abs(w).max()))
    return bool(w.min() >= -tol * scale)


def power_sums_by_roots(L, m: int):
    """t_j = sum of j-th powers of the inverse roots, via numpy.roots."""
    coeffs_desc = list(reversed(L.coefficients))
    if len(coeffs_desc) == 1:
        return [0.0] * m
    roots = np.roots(coeffs_desc)
    inverse_roots = 1.0 / roots
    return [float(np.real(np.sum(inverse_roots**j))) for j in range(1, m + 1)]
