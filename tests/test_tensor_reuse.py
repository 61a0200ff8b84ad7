"""Each tensor object is built once: quad_tensor and ss_collapse are memos,
a Kronecker leg is built once per (block, piece size, sign) and shared, and
product_model shifts and signs the y labels once per cell.  The tensors are
checked against the Kunneth theorem on dense ranks (every column of a
tensor, and the whole total of a quad collapse, has the cohomology the
factors' dense ranks predict; the constructors check d^2 = 0 and the
anticommuting squares), and a product model's labels against the model of
the direct sum of the two Lie algebras, onto which they must give a
bijective signed permutation that commutes with both differentials."""

import random
import re

import pytest
from dense import convolve, window_dims
from ladder import ladder

from spectra_dr import suites
from spectra_dr.bicomplex import BicomplexMap, DoubleComplex, shift2, total
from spectra_dr.cochain import betti_numbers, shift
from spectra_dr.errors import ValidationError
from spectra_dr.linalg import RatMatrix, clear_caches
from spectra_dr.models import (
    LieModelSpec,
    iwasawa_spec,
    lie_model,
    product_model,
    torus_model,
)
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import QuadComplex, quad_tensor, ss_collapse, tensor

# -- the Kunneth theorem on dense ranks -----------------------------------------


def _as_double(k):
    """A cochain complex as the double complex of one column at p = 0."""
    return DoubleComplex({(0, j): n for j, n in k.dims().items()},
                         {}, {(0, j): m for j, m in k._diffs[0].items()})


def _hyper(k):
    return window_dims(k, k.p_lo, k.p_hi)


def _stored_canonically(c):
    """Every stored value of c's blocks is an int when it is integral."""
    return all(type(v) is int or v.denominator != 1
               for d in c._diffs for m in d.values() for row in m._rows for v in row[1::2])


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
    """Column p of tensor(K, L) is K^p copies of L, shifted by p; a quad
    collapse has the cohomology of the product of its factors' totals."""
    clear_caches()
    legs = 0
    for ck, cl, k, l in seeded_pairs(2001, 200):
        hl = _hyper(_as_double(cl))
        for parity in (0, 1):
            t = tensor(ck, cl, parity)
            assert type(t) is DoubleComplex and _stored_canonically(t)
            assert t.dims() == {(p, q): a * b for p, a in ck.dims().items()
                                for q, b in cl.dims().items()}
            for p, n in ck.dims().items():
                assert window_dims(t, p, p) == {p + q: n * h for q, h in hl.items()}
            assert _hyper(t) == convolve(_hyper(_as_double(ck)), hl)
        a = quad_tensor(k, l)
        ss = ss_collapse(a)
        assert type(a) is QuadComplex and _stored_canonically(a)
        assert type(ss) is DoubleComplex and _stored_canonically(ss)
        assert a.dims() == {(p, q, r, s): x * y for (p, r), x in k.dims().items()
                            for (q, s), y in l.dims().items()}
        assert _hyper(ss) == convolve(_hyper(k), _hyper(l))
        legs += sum(map(len, a._diffs))
    assert legs > 1000
    clear_caches()


def direct_sum_spec(x, y):
    """The spec of the direct sum of the Lie algebras of x and y, at the
    product of their twist ranks: y's generators and tokens move past x's."""
    def moved(token):
        return token + x.n if token > 0 else token - x.n

    shifted = {g + x.n: [(moved(ta), moved(tb), c) for ta, tb, c in terms]
               for g, terms in y.images.items()}
    return LieModelSpec(x.n + y.n, {**x.images, **shifted}, x.twist_rank * y.twist_rank)


def check_labels(prod, direct):
    """Each label (copy, sign, I, J) of prod is sign times the basis vector
    (copy, I, J) of direct: the signed permutation this gives must be
    bijective and commute with d1 and d2."""
    assert prod.complex.dims() == direct.complex.dims()
    mats = {}
    for (p, q), labels in prod.labels.items():
        look = direct.lookup(p, q)
        placed = [(look[c, ii, jj], s) for c, s, ii, jj in labels]
        assert sorted(j for (j, _s2), _s in placed) == list(range(len(labels)))
        mats[p, q] = RatMatrix.from_entries(len(labels), len(labels),
                                            [(j, i, s * s2) for i, ((j, s2), s)
                                             in enumerate(placed)])
    BicomplexMap(prod.complex, direct.complex, mats)  # raises unless squares commute


def test_product_models_match_the_former_bodies():
    t1, iw = LieModelSpec(1), iwasawa_spec()
    specs = {"T1": t1, "T2": LieModelSpec(2), "IW": iw, "T1xIW": direct_sum_spec(t1, iw),
             "T1:2": LieModelSpec(1, twist_rank=2)}
    factors = {name: ladder()[name] for name in specs}
    betti = {name: _hyper(x.complex) for name, x in factors.items()}
    pairs = [(a, b) for a in factors for b in factors
             if factors[a].n + factors[b].n <= 6]
    assert len(pairs) == 22
    clear_caches()
    for a, b in pairs:
        x, y = factors[a], factors[b]
        got = product_model(x, y)
        assert (got.n, got.twist_rank) == (x.n + y.n, x.twist_rank * y.twist_rank)
        assert got.complex == ss_collapse(quad_tensor(x.complex, y.complex))
        assert _stored_canonically(got.complex)
        assert betti_numbers(total(got.complex)) == convolve(betti[a], betti[b])
        spec = direct_sum_spec(specs[a], specs[b])
        check_labels(got, lie_model(spec))
        if got.twist_rank > 1:
            check_labels(got.base, lie_model(LieModelSpec(spec.n, spec.images)))
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
