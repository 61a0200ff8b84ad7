"""Seeded generators for randomized verification.

Everything takes an explicit random.Random so suites are reproducible:
identical seed and parameters give identical objects, which the CLI relies on
for byte-identical reports.

Double complexes are built from elementary shapes — dots, horizontal and
vertical segments, anticommuting unit squares, and staircase zigzags — summed
and then conjugated by random unimodular base changes in every bidegree.
Each shape is a list of one-dimensional pieces, in the order that decides
the draws of the base changes, and a list of unit d1 and d2 arrows given by
their sources (the square's d2 out of (p+1, q) is -1), built by _shape.  The
conjugation hides the block structure from the eliminations while preserving
validity; zigzags are what make higher spectral-sequence differentials show
up, so convergence tests see genuinely nontrivial pages.
"""

from __future__ import annotations

import random

from .bicomplex import DoubleComplex, direct_sum2
from .cochain import CochainComplex
from .linalg import RatMatrix, kernel_basis


def random_matrix(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    """Entries drawn uniformly from -2..2."""
    return RatMatrix(rows, cols, [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)])


def random_unimodular(rng: random.Random, n: int, shears: int):
    """(U, U^-1) with U a product of integer shear matrices: each shear
    E = I + c e_ij adds c times row j of U to its row i, and takes c times
    column i of U^-1 from its column j, so that U becomes E U and U^-1
    becomes U^-1 E^-1."""
    u = [[int(a == b) for b in range(n)] for a in range(n)]
    uinv = [row[:] for row in u]
    if n >= 2:
        for _ in range(shears):
            i = rng.randrange(n)
            j = rng.randrange(n)
            if i == j:
                continue
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
            for row in uinv:
                row[j] -= c * row[i]
    return RatMatrix(n, n, u), RatMatrix(n, n, uinv)


def random_complex(rng: random.Random, max_dim: int = 4, span: int = 4) -> CochainComplex:
    """Random bounded complex with d o d = 0 by construction: each next
    differential is (random matrix) @ (basis of the left kernel of the
    previous one), which reaches every valid complex up to base change."""
    lo = rng.randint(-2, 2)
    dims = {lo + i: rng.randint(0, max_dim) for i in range(span)}
    diffs = {}
    prev = None
    for k in sorted(dims):
        n_next, n_here = dims.get(k + 1, 0), dims[k]
        if n_next == 0 or n_here == 0:
            prev = None
            continue
        if prev is None:
            d = random_matrix(rng, n_next, n_here)
        else:
            left_null = kernel_basis(prev.transpose()).transpose()
            d = random_matrix(rng, n_next, left_null.rows) @ left_null
        diffs[k] = d
        prev = d
    return CochainComplex(dims, diffs)


def _shape(pieces, d1=(), d2=(), neg=()) -> DoubleComplex:
    """The shape with a one-dimensional piece at each bidegree of pieces, in
    that order, and a unit arrow out of each source in d1 (to the right) and
    d2 (upward); the arrows out of a source in neg are -1."""
    one = RatMatrix.from_rows([[1]]) if d1 or d2 else None  # a dot has no arrow
    arrows = [{key: -one if key in neg else one for key in keys} for keys in (d1, d2)]
    return DoubleComplex(dict.fromkeys(pieces, 1), *arrows)


def _dot(p: int, q: int) -> DoubleComplex:
    return _shape([(p, q)])


def _hseg(p: int, q: int) -> DoubleComplex:
    return _shape([(p, q), (p + 1, q)], d1=[(p, q)])


def _vseg(p: int, q: int) -> DoubleComplex:
    return _shape([(p, q), (p, q + 1)], d2=[(p, q)])


def _square(p: int, q: int) -> DoubleComplex:
    return _shape([(p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)],
                  d1=[(p, q), (p, q + 1)], d2=[(p, q), (p + 1, q)], neg=[(p + 1, q)])


def _zigzag(p: int, q: int, length: int) -> DoubleComplex:
    """Staircase of sources (p+i, q-i) and sinks (p+i, q-i+1).  The top-left
    class survives to the limit page even though the total differential is
    nonzero on its naive representative — good for exercising Z_r bookkeeping."""
    sources = [(p + i, q - i) for i in range(length + 1)]
    sinks = [(p + i, q - i + 1) for i in range(1, length + 1)]
    return _shape(sources + sinks, d1=sources[:-1], d2=sources[1:])


def _staircase(p: int, q: int, r: int) -> DoubleComplex:
    """Length-r ladder x -> m_1 <- v_1 -> m_2 <- ... -> w whose class at
    (p, q+r-1) supports a nonzero differential exactly on page r of the
    column-filtration spectral sequence (r >= 2).  Pieces: x, w, then each
    m_i above its v_i; v_i maps up to m_i and right to m_{i+1} (w if i = r-1)."""
    x = (p, q + r - 1)
    vs = [(p + i, q + r - i - 1) for i in range(1, r)]
    pieces = [x, (p + r, q)] + [cell for a, b in vs for cell in ((a, b + 1), (a, b))]
    return _shape(pieces, d1=[x, *vs], d2=vs)


def random_double_complex(rng: random.Random, p_span: int = 4, q_span: int = 4,
                          blocks: int | None = None) -> DoubleComplex:
    """Random valid double complex supported in a p_span x q_span window."""
    p0 = rng.randint(-2, 2)
    q0 = rng.randint(-2, 2)
    if blocks is None:
        blocks = rng.randint(2, 6)
    parts = []
    for _ in range(blocks):
        kind = rng.randrange(6)
        if kind == 1 and p_span >= 2:
            parts.append(_hseg(p0 + rng.randrange(p_span - 1), q0 + rng.randrange(q_span)))
        elif kind == 2 and q_span >= 2:
            parts.append(_vseg(p0 + rng.randrange(p_span), q0 + rng.randrange(q_span - 1)))
        elif kind == 3 and p_span >= 2 and q_span >= 2:
            parts.append(
                _square(p0 + rng.randrange(p_span - 1), q0 + rng.randrange(q_span - 1))
            )
        elif kind == 4 and p_span >= 2 and q_span >= 2:
            length = rng.randint(1, min(p_span - 1, q_span - 1))
            pp = p0 + rng.randrange(p_span - length)
            qq = q0 + length + rng.randrange(q_span - length)
            parts.append(_zigzag(pp, qq, length))
        elif kind == 5 and p_span >= 3 and q_span >= 2:
            depth = rng.randint(2, min(p_span - 1, q_span))
            pp = p0 + rng.randrange(p_span - depth)
            qq = q0 + rng.randrange(q_span - depth + 1)
            parts.append(_staircase(pp, qq, depth))
        else:
            parts.append(_dot(p0 + rng.randrange(p_span), q0 + rng.randrange(q_span)))
    raw = direct_sum2(parts)
    if raw.is_zero():
        return raw
    # conjugate by a random base change in every bidegree; nonzero stored
    # differentials always have nonzero endpoints, so both factors exist
    base = {}
    for key, n in raw.dims().items():
        base[key] = random_unimodular(rng, n, shears=rng.randint(1, 3))
    d1 = {}
    d2 = {}
    for (p, q), m in raw._d1.items():
        d1[(p, q)] = base[(p + 1, q)][0] @ m @ base[(p, q)][1]
    for (p, q), m in raw._d2.items():
        d2[(p, q)] = base[(p, q + 1)][0] @ m @ base[(p, q)][1]
    return DoubleComplex(raw.dims(), d1, d2)
