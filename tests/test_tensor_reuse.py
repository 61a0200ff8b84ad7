"""Each tensor object is built once.  quad_tensor and ss_collapse are memos,
a Kronecker leg is built once per (block, piece size, sign) and shared, and
product_model shifts and signs the y labels once per cell.  The leg builders
and the label loop they replaced, one Kronecker product per (block, piece)
and one shifted label per (x label, y label) pair, are kept here as oracles:
the engine's tensors, quad tensors, collapses and product models must equal
theirs block for block, in one key order and with the same stored values."""

import random
import re

import pytest

from spectra_dr import suites
from spectra_dr.bicomplex import DoubleComplex, shift2
from spectra_dr.cochain import shift
from spectra_dr.errors import ValidationError
from spectra_dr.linalg import RatMatrix, clear_caches
from spectra_dr.models import (
    ModelDoubleComplex,
    iwasawa_spec,
    lie_model,
    product_model,
    torus_model,
)
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import QuadComplex, quad_tensor, ss_collapse, tensor

# -- the former bodies ----------------------------------------------------------


def old_left_legs(blocks, dims):
    return {(a, b): RatMatrix.kron(m, RatMatrix.identity(n))
            for a, m in blocks.items() for b, n in dims.items()}


def old_right_legs(dims, blocks, degree):
    out = {}
    for b, m in blocks.items():
        for a, n in dims.items():
            leg = RatMatrix.kron(RatMatrix.identity(n), m)
            out[(a, b)] = -leg if degree(a) % 2 else leg
    return out


def old_tensor(k, l, parity):
    dims = {}
    for p in k.degrees():
        for q in l.degrees():
            n = k.dim(p) * l.dim(q)
            if n:
                dims[(p, q)] = n
    return DoubleComplex(dims, old_left_legs(k._diffs[0], l._dims),
                         old_right_legs(k._dims, l._diffs[0], lambda p: p + parity))


def old_quad_tensor(k, l):
    dims = {}
    for (p, r), nk in k.dims().items():
        for (q, s), nl in l.dims().items():
            dims[(p, q, r, s)] = nk * nl
    (kd1, kd2), (ld1, ld2) = k._diffs, l._diffs
    legs = (old_left_legs(kd1, l._dims), old_right_legs(k._dims, ld1, sum),
            old_left_legs(kd2, l._dims), old_right_legs(k._dims, ld2, sum))
    return QuadComplex(dims, *({(p, q, r, s): m for ((p, r), (q, s)), m in d.items()}
                               for d in legs))


def old_product_model(x, y):
    n = x.n + y.n
    m = x.twist_rank * y.twist_rank
    quad = old_quad_tensor(x.complex, y.complex)
    cx = ss_collapse.__wrapped__(quad)  # the collapse, unmemoised
    labels = {}
    for (k, l), cells in quad._layout().items():
        labs = [None] * cx.dim(k, l)
        for (p, q, r, s), off, _size in cells:
            ylabs = y.labels[(q, s)]
            ny = len(ylabs)
            for ix, (cx_copy, sx, i1, j1) in enumerate(x.labels[(p, r)]):
                for iy, (cy_copy, sy, i2, j2) in enumerate(ylabs):
                    sign = sx * sy * (-1 if (r * q) % 2 else 1)
                    labs[off + ix * ny + iy] = (
                        cx_copy * y.twist_rank + cy_copy,
                        sign,
                        i1 + tuple(g + x.n for g in i2),
                        j1 + tuple(g + x.n for g in j2),
                    )
        labels[(k, l)] = tuple(labs)
    base = old_product_model(x.base, y.base) if m > 1 else None
    return ModelDoubleComplex(n, m, cx, labels, base)


# -- comparisons ----------------------------------------------------------------


def same_complex(got, want):
    """Equal, of one type, with one JSON, pieces and blocks in one key order,
    and every stored value of the same type (an int is not a Fraction)."""
    assert type(got) is type(want)
    assert got == want
    assert got.to_json() == want.to_json()
    assert list(got._dims) == list(want._dims)
    assert [list(d) for d in got._diffs] == [list(d) for d in want._diffs]
    for gd, wd in zip(got._diffs, want._diffs):
        assert [repr(m._rows) for m in gd.values()] == [repr(m._rows) for m in wd.values()]


def same_model(got, want):
    assert (got.n, got.twist_rank) == (want.n, want.twist_rank)
    same_complex(got.complex, want.complex)
    assert got.labels == want.labels
    assert list(got.labels) == list(want.labels)
    if want._base is None:
        assert got._base is None
    else:
        same_model(got._base, want._base)


def seeded_pairs(seed, count):
    """count pairs of small complexes and of small double complexes, some
    shifted into negative degrees so that both leg signs occur."""
    rng = random.Random(seed)
    for i in range(count):
        ck, cl = (random_complex(rng, max_dim=rng.randint(0, 3), span=rng.randint(1, 4))
                  for _ in range(2))
        k, l = (random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                      blocks=2) for _ in range(2))
        if i % 3 == 0:
            ck, k = shift(ck, rng.randint(-3, 3)), shift2(k, rng.randint(-2, 2),
                                                          rng.randint(-2, 2))
        yield ck, cl, k, l


def test_tensors_quads_and_collapses_match_the_former_bodies():
    clear_caches()
    legs = 0
    for ck, cl, k, l in seeded_pairs(2001, 200):
        for parity in (0, 1):
            same_complex(tensor(ck, cl, parity), old_tensor(ck, cl, parity))
        a, want = quad_tensor(k, l), old_quad_tensor(k, l)
        same_complex(a, want)
        same_complex(ss_collapse(a), ss_collapse.__wrapped__(want))
        legs += sum(map(len, a._diffs))
    assert legs > 1000
    clear_caches()


def ladder_factors():
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    return {"T1": t1, "T2": t2, "IW": iw, "T1xIW": old_product_model(t1, iw),
            "T1:2": torus_model(1, 2)}


def test_product_models_match_the_former_bodies():
    factors = ladder_factors()
    pairs = [(a, b) for a in factors for b in factors
             if factors[a].n + factors[b].n <= 6]
    assert len(pairs) == 22
    clear_caches()
    for a, b in pairs:
        x, y = factors[a], factors[b]
        same_model(product_model(x, y), old_product_model(x, y))
        same_complex(quad_tensor(x.complex, y.complex), old_quad_tensor(x.complex, y.complex))
    clear_caches()


# -- work counts ----------------------------------------------------------------


@pytest.fixture()
def krons(monkeypatch):
    calls = []
    real = RatMatrix.kron

    def counting(a, b):
        calls.append((a.rows, b.rows))
        return real(a, b)

    monkeypatch.setattr(RatMatrix, "kron", staticmethod(counting))
    return calls


def test_each_leg_is_built_once_per_shape(krons):
    t2, iw = torus_model(2), lie_model(iwasawa_spec())
    assert krons == []
    clear_caches()
    product_model(iw, iw)
    assert len(krons) == 72  # formerly 256, one per (block, piece)
    clear_caches()
    krons.clear()
    product_model(t2, iw)
    assert len(krons) == 24  # formerly 72
    krons.clear()
    product_model(t2, iw)  # the quad tensor is read from its memo
    assert krons == []
    clear_caches()


@pytest.mark.parametrize("seed", [0, 1, 7, 31])
def test_the_tensor_suite_builds_one_quad_and_one_collapse_per_run(seed):
    clear_caches()
    assert suites.run_suite("tensor", seed, 5).ok
    q, c = quad_tensor.cache_info(), ss_collapse.cache_info()
    # each run's four witnesses share one quad tensor and three one collapse
    assert (q.misses, q.hits) == (5, 15)
    assert (c.misses, c.hits) == (5, 10)
    clear_caches()


def test_a_warm_memo_still_refuses_an_oversized_product_by_name(monkeypatch):
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    t1, iw = torus_model(1), lie_model(iwasawa_spec())
    clear_caches()
    product_model(t1, iw)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "35")
    with pytest.raises(ValidationError, match=re.escape(
            "product n=1+3: piece (2,2) has dim 36 > SPECTRA_DR_MAX_DIM=35")):
        product_model(t1, iw)
    assert quad_tensor.cache_info().hits == 0  # refused before the memo is read
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "36")
    product_model(t1, iw)  # a memo entry answers only under its own cap
    assert quad_tensor.cache_info()[:2] == (0, 2)
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    product_model(t1, iw)
    assert quad_tensor.cache_info().hits == 1
    clear_caches()
