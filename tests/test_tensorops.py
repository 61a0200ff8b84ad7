import random
import re

import pytest
from dense import M, betti, convolve

from spectra_dr.bicomplex import DoubleComplex, total
from spectra_dr.cochain import CochainComplex, betti_numbers, cohomology_dim
from spectra_dr.errors import ParseError, ValidationError
from spectra_dr.linalg import RatMatrix
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import (
    QuadComplex,
    collapse_rows_check,
    collapse_total_check,
    kunneth_check,
    kunneth_double_check,
    parity_iso,
    quad_slice,
    quad_tensor,
    slice_check,
    ss_collapse,
    tensor,
)


def segment():
    return CochainComplex({0: 1, 1: 1}, {0: M([[1]])})


def test_tensor_of_segments_is_unit_square():
    t = tensor(segment(), segment(), 0)
    one = M([[1]])
    want = DoubleComplex(
        {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
        {(0, 0): one, (0, 1): one},
        {(0, 0): one, (1, 0): M([[-1]])},
    )
    assert t == want
    # parity 1 flips the d2 signs
    t1 = tensor(segment(), segment(), 1)
    assert t1.d2(0, 0) == M([[-1]])
    assert t1.d2(1, 0) == one
    with pytest.raises(ValidationError):
        tensor(segment(), segment(), 2)


def test_tensor_dims_multiply():
    k = CochainComplex({0: 2, 1: 1}, {0: M([[1, 1]])})
    l = CochainComplex({0: 1, 1: 3})
    t = tensor(k, l)
    assert t.dim(0, 0) == 2 and t.dim(0, 1) == 6 and t.dim(1, 1) == 3
    assert t.dim(2, 0) == 0


def test_parity_iso_valid_and_frozen_signs():
    k = segment()
    l = CochainComplex({0: 1, 1: 2}, {0: M([[1], [0]])})
    f = parity_iso(k, l)  # construction validates both square families
    assert f.mat(0, 0) == M([[1]])
    assert f.mat(0, 1) == RatMatrix.identity(2).scale(-1)
    assert f.mat(1, 1) == RatMatrix.identity(2).scale(-1)


def test_kunneth_frozen():
    k = CochainComplex({0: 2, 1: 1}, {0: M([[1, 1]])})  # betti (1, 0)
    l = CochainComplex({0: 1, 1: 2})  # betti (1, 2)
    rep = kunneth_check(k, l)
    assert rep.ok
    t = total(tensor(k, l))
    assert betti_numbers(t) == {0: 1, 1: 2, 2: 0}


def test_kunneth_random():
    rng = random.Random(21)
    for _ in range(15):
        k = random_complex(rng, max_dim=3, span=3)
        l = random_complex(rng, max_dim=3, span=3)
        parity = rng.randint(0, 1)
        assert kunneth_check(k, l).ok
        assert betti(total(tensor(k, l, parity))) == convolve(betti(k), betti(l))


def test_quad_tensor_is_valid():
    # construction itself certifies d_i^2 = 0 and all six anticommutations
    rng = random.Random(22)
    for _ in range(8):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        a = quad_tensor(k, l)
        assert sum(a.dims().values()) == k.total_dim() * l.total_dim()


def test_quad_rejects_bad_input():
    one = M([[1]])
    with pytest.raises(ValidationError):
        QuadComplex({(0, 0, 0, 0): 1, (1, 0, 0, 0): 2}, d1={(0, 0, 0, 0): one})
    # commuting pair d1, d2 must be rejected
    with pytest.raises(ValidationError):
        QuadComplex(
            {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (1, 1, 0, 0): 1},
            d1={(0, 0, 0, 0): one, (0, 1, 0, 0): one},
            d2={(0, 0, 0, 0): one, (1, 0, 0, 0): one},
        )


def _unit(i):
    return tuple(1 if k == i else 0 for k in range(1, 5))


def _plus(*keys):
    return tuple(map(sum, zip(*keys)))


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_quad_rejects_nonzero_square(i):
    one = M([[1]])
    zero, e = (0, 0, 0, 0), _unit(i)
    dims = {zero: 1, e: 1, _plus(e, e): 1}
    with pytest.raises(ValidationError, match=re.escape(f"d{i} o d{i} != 0 from (0, 0, 0, 0)")):
        QuadComplex(dims, **{f"d{i}": {zero: one, e: one}})


@pytest.mark.parametrize("i, j", [(i, j) for i in range(1, 5) for j in range(i + 1, 5)])
def test_quad_rejects_commuting_pair(i, j):
    one = M([[1]])
    zero, ei, ej = (0, 0, 0, 0), _unit(i), _unit(j)
    dims = {zero: 1, ei: 1, ej: 1, _plus(ei, ej): 1}
    diffs = {f"d{i}": {zero: one, ej: one}, f"d{j}": {zero: one, ei: one}}
    with pytest.raises(ValidationError,
                       match=re.escape(f"d{i} and d{j} do not anticommute from (0, 0, 0, 0)")):
        QuadComplex(dims, **diffs)
    # with one sign flipped the square anticommutes
    diffs[f"d{j}"][ei] = M([[-1]])
    assert QuadComplex(dims, **diffs).dims() == dims


def test_quad_rejects_a_differential_that_is_not_a_matrix():
    with pytest.raises(ValidationError, match=re.escape("d2 at (0, 0, 0, 0) is not a RatMatrix")):
        QuadComplex({(0, 0, 0, 0): 1, (0, 1, 0, 0): 1}, d2={(0, 0, 0, 0): [[1]]})


def test_quad_piece_over_the_size_cap_is_named(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4")
    with pytest.raises(ValidationError,
                       match=re.escape("piece (0,1,0,0) has dim 5 > SPECTRA_DR_MAX_DIM=4")):
        QuadComplex({(0, 0, 0, 0): 4, (0, 1, 0, 0): 5})


def test_quad_slice_matches_row_tensor():
    rng = random.Random(23)
    for _ in range(6):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        assert slice_check(k, l).ok


def test_quad_slice_frozen():
    seg = segment()
    k = tensor(seg, seg, 0)
    a = quad_tensor(k, k)
    sl = quad_slice(a, 0, 0)
    # fixing p=q=0 leaves the (r, s) square K^{0,r} (x) K^{0,s}
    assert sl.dims() == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert sl.d1(0, 0) == M([[1]])
    assert sl.d2(1, 0) == M([[-1]])


def test_collapse_summand_order():
    seg = segment()
    k = tensor(seg, seg, 0)
    a = quad_tensor(k, k)
    # at (k,l) = (1,0): cells (p,q,r,s) with p+q=1, r+s=0, ordered by (p,r)
    cells = [key for key, _off, _n in a._layout()[(1, 0)]]
    assert cells == [(0, 1, 0, 0), (1, 0, 0, 0)]
    ss = ss_collapse(a)
    assert ss.dim(1, 0) == 2
    assert ss.dim(1, 1) == 4
    assert ss.support == (0, 2, 0, 2)


def test_collapse_is_valid_double_complex():
    # D1^2 = D2^2 = D1 D2 + D2 D1 = 0 is checked by the DoubleComplex
    # constructor; exercising it on random quads is the point
    rng = random.Random(24)
    for _ in range(6):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        ss = ss_collapse(quad_tensor(k, l))
        assert ss.total_dim() == k.total_dim() * l.total_dim()


def test_collapse_rows_check():
    rng = random.Random(25)
    for _ in range(6):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        assert collapse_rows_check(k, l).ok


def test_collapse_total_witness():
    rng = random.Random(26)
    for _ in range(6):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        w = collapse_total_check(k, l)
        for deg in w.source.degrees():
            assert w.source.dim(deg) == w.target.dim(deg)


def test_kunneth_double_check():
    rng = random.Random(27)
    for _ in range(5):
        k = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        l = random_double_complex(rng, p_span=2, q_span=2, blocks=2)
        assert kunneth_double_check(k, l).ok


def test_parity_total_cohomology_agrees():
    rng = random.Random(28)
    for _ in range(8):
        k = random_complex(rng, max_dim=2, span=3)
        l = random_complex(rng, max_dim=2, span=3)
        t0 = total(tensor(k, l, 0))
        t1 = total(tensor(k, l, 1))
        want = betti(t0)
        for deg in range(t0.lo, t0.hi + 1):
            assert cohomology_dim(t0, deg) == cohomology_dim(t1, deg) == want.get(deg, 0)


def test_tensor_refuses_an_oversized_piece_by_name(monkeypatch):
    # the legs would be 9x9 Kronecker products: the piece is named first
    k = CochainComplex({0: 3, 1: 3}, {0: RatMatrix.identity(3)})
    d = DoubleComplex({(0, 0): 3, (1, 0): 3}, {(0, 0): RatMatrix.identity(3)})
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "6")
    with pytest.raises(ValidationError,
                       match=re.escape("piece (0,0) has dim 9 > SPECTRA_DR_MAX_DIM=6")):
        tensor(k, k)
    with pytest.raises(ValidationError,
                       match=re.escape("piece (0,0,0,0) has dim 9 > SPECTRA_DR_MAX_DIM=6")):
        quad_tensor(d, d)


def test_ss_collapse_refuses_an_oversized_piece_by_name(monkeypatch):
    # every cell of the quad fits; the collapsed piece (1,0) sums two of them
    d = DoubleComplex({(0, 0): 1, (1, 0): 1}, {(0, 0): M([[1]])})
    a = quad_tensor(d, d)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "1")
    with pytest.raises(ValidationError,
                       match=re.escape("piece (1,0) has dim 2 > SPECTRA_DR_MAX_DIM=1")):
        ss_collapse(a)


def test_quad_json_round_trip():
    seg = segment()
    a = quad_tensor(tensor(seg, seg, 0), tensor(seg, seg, 0))
    j = a.to_json()
    assert QuadComplex.from_json(j) == a
    with pytest.raises(ParseError):
        QuadComplex.from_json({"dims": {"0,0,0": 1}})
