"""Every restriction, regrading and dual against the hand-written bodies it
replaced: truncate, the row, column and quad slices, both shifts, transpose2
and both duals are single calls into GradedComplex._part and _dual, and must
return complexes equal to the ones the per-operation comprehensions built."""

import random

import pytest

from spectra_dr.bicomplex import (
    DoubleComplex,
    column_complex,
    dual2,
    row_complex,
    shift2,
    transpose2,
)
from spectra_dr.cochain import CochainComplex, dual, shift
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import quad_slice, quad_tensor
from spectra_dr.truncation import truncate

# -- the hand-written bodies, kept as oracles -------------------------------


def old_truncate(s_cx, window):
    s, t = window
    if s > t:
        return DoubleComplex({})
    d1, d2 = s_cx._diffs
    dims = {(p, q): n for (p, q), n in s_cx.dims().items() if s <= p <= t}
    d1 = {(p, q): m for (p, q), m in d1.items() if s <= p < t}
    d2 = {(p, q): m for (p, q), m in d2.items() if s <= p <= t}
    return DoubleComplex(dims, d1, d2)


def old_row_complex(k, p):
    dims = {q: k.dim(p, q) for q in k.q_range()}
    return CochainComplex(dims, {q: m for (pp, q), m in k._d2.items() if pp == p})


def old_column_complex(k, q):
    dims = {p: k.dim(p, q) for p in k.p_range()}
    return CochainComplex(dims, {p: m for (p, qq), m in k._d1.items() if qq == q})


def old_shift(k_complex, m):
    dims = {k - m: n for k, n in k_complex.dims().items()}
    diffs = {k - m: d for k, d in k_complex._diffs[0].items()}
    return CochainComplex(dims, diffs)


def old_dual(k_complex):
    dims = {-k: n for k, n in k_complex.dims().items()}
    diffs = {}
    for j, d in k_complex._diffs[0].items():
        m = d.transpose()
        diffs[-j - 1] = m if j % 2 == 0 else -m
    return CochainComplex(dims, diffs)


def old_shift2(k, m, n):
    dims = {(p - m, q - n): d for (p, q), d in k.dims().items()}
    d1 = {(p - m, q - n): mat for (p, q), mat in k._d1.items()}
    d2 = {(p - m, q - n): mat for (p, q), mat in k._d2.items()}
    return DoubleComplex(dims, d1, d2)


def old_dual2(k):
    dims = {(-p, -q): n for (p, q), n in k.dims().items()}
    d1 = {}
    for (a, b), m in k._d1.items():
        t = m.transpose()
        d1[(-a - 1, -b)] = t if (a + b) % 2 == 0 else -t
    d2 = {}
    for (a, b), m in k._d2.items():
        t = m.transpose()
        d2[(-a, -b - 1)] = t if (a + b) % 2 == 0 else -t
    return DoubleComplex(dims, d1, d2)


def old_transpose2(k):
    dims = {(q, p): n for (p, q), n in k.dims().items()}
    d1 = {(q, p): m for (p, q), m in k._d2.items()}
    d2 = {(q, p): m for (p, q), m in k._d1.items()}
    return DoubleComplex(dims, d1, d2)


def old_quad_slice(a, p, q):
    dims = {}
    d1 = {}
    d2 = {}
    for key, n in a.dims().items():
        if key[0] == p and key[1] == q:
            r, s = key[2], key[3]
            dims[(r, s)] = n
            m3 = a._diffs[2].get(key)
            if m3 is not None:
                d1[(r, s)] = m3
            m4 = a._diffs[3].get(key)
            if m4 is not None:
                d2[(r, s)] = m4
    return DoubleComplex(dims, d1, d2)


# -- equality on seeded inputs ----------------------------------------------


def _same(got, want):
    assert type(got) is type(want)
    assert got == want


def _padded(lo, hi):
    """lo-1 .. hi+1, or a few degrees around 0 for an empty support."""
    return range(lo - 1, hi + 2) if lo <= hi else range(-1, 2)


@pytest.mark.parametrize("chunk", range(5))
def test_double_complex_parts_match_the_old_bodies(chunk):
    rng = random.Random(800 + chunk)
    for _ in range(100):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))
        ps, qs = _padded(k.p_lo, k.p_hi), _padded(k.q_lo, k.q_hi)
        for s in ps:
            for t in ps:  # s > t included: the empty window
                _same(truncate(k, (s, t)), old_truncate(k, (s, t)))
        for p in ps:
            _same(row_complex(k, p), old_row_complex(k, p))
        for q in qs:
            _same(column_complex(k, q), old_column_complex(k, q))
        for m in range(-2, 3):
            n = rng.randint(-2, 2)
            _same(shift2(k, m, n), old_shift2(k, m, n))
        _same(transpose2(k), old_transpose2(k))
        _same(dual2(k), old_dual2(k))


def test_cochain_parts_match_the_old_bodies():
    rng = random.Random(900)
    for _ in range(500):
        k = random_complex(rng, max_dim=rng.randint(0, 4), span=rng.randint(1, 5))
        for m in range(-2, 3):
            _same(shift(k, m), old_shift(k, m))
        _same(dual(k), old_dual(k))


def test_quad_slices_match_the_old_body():
    rng = random.Random(901)
    for _ in range(12):
        k = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        l = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        a = quad_tensor(k, l)
        for p in _padded(k.p_lo, k.p_hi):
            for q in _padded(l.p_lo, l.p_hi):
                _same(quad_slice(a, p, q), old_quad_slice(a, p, q))
