"""Every restriction, regrading and dual against the rules they state:
truncate, the row, column and quad slices, both shifts and transpose2 are
single calls into GradedComplex._part, whose part keeps the parent's pieces
in a box at their mapped keys and each parent block whose source and target
are both kept; both duals are single calls into GradedComplex._dual, whose
block at -step(k) is the parent's block at k transposed, negated when the
total degree of k is odd (the sign that makes the evaluation pairing a chain
map)."""

import random

import pytest
from dense import right, up
from ladder import padded

from spectra_dr.bicomplex import (
    DoubleComplex,
    column_complex,
    row_complex,
    shift2,
    transpose2,
)
from spectra_dr.cochain import CochainComplex, dual, shift
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import quad_slice, quad_tensor
from spectra_dr.truncation import truncate

# -- the rules --------------------------------------------------------------


def _up1(j):
    return j + 1


def _check_part(got, cls, parent, keep, key, diffs):
    """got is of type cls and holds parent's pieces whose key satisfies keep,
    each at key(k), and as its differential i the blocks of diffs[i] (a
    parent differential and its step) whose source and target are kept."""
    assert type(got) is cls
    assert got._dims == {key(k): n for k, n in parent._dims.items() if keep(k)}
    assert list(got._diffs) == [{key(k): m for k, m in blocks.items() if keep(k) and keep(step(k))}
                                for blocks, step in diffs]


def _check_dual(got, k, neg, total, steps):
    assert type(got) is type(k)
    assert got._dims == {neg(key): n for key, n in k._dims.items()}
    assert list(got._diffs) == [
        {neg(step(key)): m.transpose().scale(-1 if total(key) % 2 else 1)
         for key, m in blocks.items()} for blocks, step in zip(k._diffs, steps)]


# -- the parts of seeded inputs ---------------------------------------------


def _everything(_key):
    return True


@pytest.mark.parametrize("chunk", range(5))
def test_double_complex_parts_match_the_old_bodies(chunk):
    rng = random.Random(800 + chunk)
    for _ in range(100):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))
        ps, qs = padded(k.p_lo, k.p_hi), padded(k.q_lo, k.q_hi)
        d12 = [(k._d1, right), (k._d2, up)]
        for s in ps:
            for t in ps:  # s > t included: the empty window
                _check_part(truncate(k, (s, t)), DoubleComplex, k,
                            lambda key: s <= key[0] <= t, lambda key: key, d12)
        for p in ps:
            _check_part(row_complex(k, p), CochainComplex, k, lambda key: key[0] == p,
                        lambda key: key[1], d12[1:])
        for q in qs:
            _check_part(column_complex(k, q), CochainComplex, k, lambda key: key[1] == q,
                        lambda key: key[0], d12[:1])
        for m in range(-2, 3):
            n = rng.randint(-2, 2)
            _check_part(shift2(k, m, n), DoubleComplex, k, _everything,
                        lambda key: (key[0] - m, key[1] - n), d12)
        _check_part(transpose2(k), DoubleComplex, k, _everything, lambda key: key[::-1],
                    d12[::-1])
        _check_dual(dual(k), k, lambda key: (-key[0], -key[1]), sum, (right, up))


def test_cochain_parts_match_the_old_bodies():
    rng = random.Random(900)
    for _ in range(500):
        k = random_complex(rng, max_dim=rng.randint(0, 4), span=rng.randint(1, 5))
        for m in range(-2, 3):
            _check_part(shift(k, m), CochainComplex, k, _everything, lambda j: j - m,
                        [(k._diffs[0], _up1)])
        _check_dual(dual(k), k, lambda j: -j, lambda j: j, (_up1,))


def test_quad_slices_match_the_old_body():
    rng = random.Random(901)
    for _ in range(12):
        k = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        l = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        a = quad_tensor(k, l)
        steps = [(a._diffs[2], lambda c: (c[0], c[1], c[2] + 1, c[3])),
                 (a._diffs[3], lambda c: (c[0], c[1], c[2], c[3] + 1))]
        for p in padded(k.p_lo, k.p_hi):
            for q in padded(l.p_lo, l.p_hi):
                _check_part(quad_slice(a, p, q), DoubleComplex, a,
                            lambda c: c[:2] == (p, q), lambda c: c[2:], steps)
