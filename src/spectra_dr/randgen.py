"""Seeded generators for randomized verification.

Everything takes an explicit random.Random so suites are reproducible:
identical seed and parameters give identical objects, which the CLI relies on
for byte-identical reports.

Double complexes are built from elementary shapes — dots, horizontal and
vertical segments, anticommuting unit squares, and staircase zigzags — summed
and then conjugated by random unimodular base changes in every bidegree.  The
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


def _dot(p: int, q: int) -> DoubleComplex:
    return DoubleComplex({(p, q): 1})


def _hseg(p: int, q: int) -> DoubleComplex:
    one = RatMatrix.from_rows([[1]])
    return DoubleComplex({(p, q): 1, (p + 1, q): 1}, {(p, q): one}, {})


def _vseg(p: int, q: int) -> DoubleComplex:
    one = RatMatrix.from_rows([[1]])
    return DoubleComplex({(p, q): 1, (p, q + 1): 1}, {}, {(p, q): one})


def _square(p: int, q: int) -> DoubleComplex:
    one = RatMatrix.from_rows([[1]])
    neg = RatMatrix.from_rows([[-1]])
    dims = {(p, q): 1, (p + 1, q): 1, (p, q + 1): 1, (p + 1, q + 1): 1}
    d1 = {(p, q): one, (p, q + 1): one}
    d2 = {(p, q): one, (p + 1, q): neg}
    return DoubleComplex(dims, d1, d2)


def _zigzag(p: int, q: int, length: int) -> DoubleComplex:
    """Staircase of sources (p+i, q-i) and sinks (p+i, q-i+1).  The top-left
    class survives to the limit page even though the total differential is
    nonzero on its naive representative — good for exercising Z_r bookkeeping."""
    one = RatMatrix.from_rows([[1]])
    dims = {}
    d1 = {}
    d2 = {}
    for i in range(length + 1):
        dims[(p + i, q - i)] = 1
    for i in range(1, length + 1):
        dims[(p + i, q - i + 1)] = 1
    for i in range(length):
        d1[(p + i, q - i)] = one
    for i in range(1, length + 1):
        d2[(p + i, q - i)] = one
    return DoubleComplex(dims, d1, d2)


def _staircase(p: int, q: int, r: int) -> DoubleComplex:
    """Length-r ladder x -> m_1 <- v_1 -> m_2 <- ... -> w whose class at
    (p, q+r-1) supports a nonzero differential exactly on page r of the
    column-filtration spectral sequence (r >= 2)."""
    one = RatMatrix.from_rows([[1]])
    dims = {(p, q + r - 1): 1, (p + r, q): 1}
    d1 = {}
    d2 = {}
    for i in range(1, r):
        dims[(p + i, q + r - i)] = 1      # m_i
        dims[(p + i, q + r - i - 1)] = 1  # v_i
    d1[(p, q + r - 1)] = one              # x -> m_1
    for i in range(1, r):
        d2[(p + i, q + r - i - 1)] = one  # v_i -> m_i
        d1[(p + i, q + r - i - 1)] = one  # v_i -> m_{i+1}, or w when i = r-1
    return DoubleComplex(dims, d1, d2)


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
