import random
import re

import pytest
from dense import M, betti

from spectra_dr.bicomplex import BicomplexMap, DoubleComplex
from spectra_dr.cochain import (
    ChainMap,
    CochainComplex,
    ZERO_COMPLEX,
    betti_numbers,
    cohomology,
    cohomology_dim,
    cohomology_map,
    compose,
    direct_sum,
    dual,
    euler_characteristic,
    identity_chain_map,
    is_cohomology_iso,
    shift,
)
from spectra_dr.errors import NotChainCompatible, ParseError, ValidationError
from spectra_dr.linalg import RatMatrix, rank
from spectra_dr.tensorops import QuadComplex


def two_to_one():
    # 0 -> Q^2 --(1 1)--> Q -> 0 in degrees 0, 1
    return CochainComplex({0: 2, 1: 1}, {0: M([[1, 1]])})


def rand_complex(rng, span=4, maxdim=3):
    # direct construction with guaranteed d^2 = 0 via composing with a kernel
    lo = rng.randint(-2, 2)
    dims = {lo + i: rng.randint(0, maxdim) for i in range(span)}
    from spectra_dr.linalg import kernel_basis

    diffs = {}
    prev = None
    for k in sorted(dims):
        n, m = dims.get(k + 1, 0), dims[k]
        if n == 0 or m == 0:
            prev = None
            continue
        if prev is None:
            d = RatMatrix(n, m, [[rng.randint(-2, 2) for _ in range(m)] for _ in range(n)])
        else:
            null = kernel_basis(prev.transpose()).transpose()  # rows span left-kernel
            r = RatMatrix(n, null.rows, [[rng.randint(-2, 2) for _ in range(null.rows)] for _ in range(n)])
            d = r @ null
        diffs[k] = d
        prev = d
    return CochainComplex(dims, diffs)


def test_construction_normalizes():
    k = CochainComplex({0: 2, 1: 1, 5: 0}, {0: M([[1, 1]])})
    assert k.lo == 0 and k.hi == 1
    assert k.dim(5) == 0 and k.dim(-3) == 0
    assert k.diff(7).shape == (0, 0)
    assert k.diff(-1).shape == (2, 0)
    assert ZERO_COMPLEX.is_zero() and ZERO_COMPLEX.hi < ZERO_COMPLEX.lo


def test_construction_rejects_bad_data():
    with pytest.raises(ValidationError):
        CochainComplex({0: 1, 1: 1}, {0: M([[1, 1]])})  # wrong shape
    with pytest.raises(ValidationError):
        CochainComplex({0: -1})
    # d o d != 0
    with pytest.raises(ValidationError):
        CochainComplex(
            {0: 1, 1: 1, 2: 1}, {0: M([[1]]), 1: M([[1]])}
        )


def test_first_d_squared_violation_is_the_lowest_degree():
    one = M([[1]])
    dims = {k: 1 for k in range(6)}
    # both d o d from degree 3 and from degree 0 fail; handed over descending
    with pytest.raises(ValidationError, match=re.escape("d o d != 0 from degree 0")):
        CochainComplex(dims, {4: one, 3: one, 1: one, 0: one})


def test_degree_over_the_size_cap_is_named(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4")
    assert CochainComplex({0: 4, 1: 4}).total_dim() == 8
    with pytest.raises(
        ValidationError, match=re.escape("degree -1 has dim 5 > SPECTRA_DR_MAX_DIM=4")
    ):
        CochainComplex({0: 4, 2: 6, -1: 5})
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError, match="must be an integer"):
        CochainComplex({0: 1})
    assert CochainComplex({0: 0}).is_zero()


@pytest.mark.parametrize("build", [
    lambda: CochainComplex({"0": 1}),
    lambda: CochainComplex({0: 1, 1: 1}, {(0,): M([[1]])}),
    lambda: DoubleComplex({5: 1}),
    lambda: DoubleComplex({(0, 0, 0): 1}),
    lambda: DoubleComplex({(0, "1"): 1}),
    lambda: DoubleComplex({(0, 0): 1, (1, 0): 1}, {"0,0": M([[1]])}),
    lambda: QuadComplex({(0, 0, 0): 1}),
    lambda: QuadComplex({(0, 0, 0, "a"): 1}),
    lambda: QuadComplex({(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}, d1={7: M([[1]])}),
    lambda: ChainMap(CochainComplex({0: 1}), CochainComplex({0: 1}), {"0": M([[1]])}),
    lambda: BicomplexMap(DoubleComplex({(0, 0): 1}), DoubleComplex({(0, 0): 1}),
                         {(0, 0, 0): M([[1]])}),
])
def test_malformed_key_is_a_validation_error(build):
    with pytest.raises(ValidationError):
        build()


def test_cohomology_frozen():
    k = two_to_one()
    h0 = cohomology(k, 0)
    assert h0.dim == 1
    assert h0.representative_basis == M([[-1], [1]])
    assert cohomology_dim(k, 1) == 0
    assert betti_numbers(k) == {0: 1, 1: 0}
    # zero differentials: betti = dims
    z = CochainComplex({0: 2, 1: 3})
    assert betti_numbers(z) == {0: 2, 1: 3}
    assert cohomology(z, 1).dim == 3


def test_exact_complex_has_no_cohomology():
    k = CochainComplex(
        {0: 1, 1: 2, 2: 1},
        {0: M([[1], [1]]), 1: M([[1, -1]])},
    )
    assert betti_numbers(k) == {0: 0, 1: 0, 2: 0}
    assert euler_characteristic(k) == 0


def test_euler_characteristic_matches_betti():
    rng = random.Random(3)
    for _ in range(25):
        k = rand_complex(rng)
        chi = euler_characteristic(k)
        assert chi == sum((-1) ** d * b for d, b in betti_numbers(k).items())


def test_shift():
    k = two_to_one()
    s = shift(k, 2)
    assert s.dims() == {-2: 2, -1: 1}
    assert s.diff(-2) == k.diff(0)
    assert shift(shift(k, 1), -1) == k
    assert cohomology_dim(s, -2) == betti(k).get(0, 0)


def test_dual_signs_and_dims():
    k = two_to_one()
    d = dual(k)
    assert d.dims() == {0: 2, -1: 1}
    # stored diff at -1 carries (-1)^0 * transpose
    assert d.diff(-1) == M([[1], [1]])
    k2 = CochainComplex({1: 1, 2: 1}, {1: M([[5]])})
    d2 = dual(k2)
    # comes from degree j=1: sign (-1)^1
    assert d2.diff(-2) == M([[-5]])
    # double dual negates differentials but preserves the complex's cohomology
    dd = dual(dual(k2))
    assert dd.dims() == k2.dims()
    assert dd.diff(1) == -k2.diff(1)


def test_dual_cohomology_dims_random():
    rng = random.Random(5)
    for _ in range(30):
        k = rand_complex(rng)
        d = dual(k)
        want = betti(k)
        for deg in range(k.lo - 1, k.hi + 2):
            assert cohomology_dim(d, -deg) == want.get(deg, 0)
            assert cohomology(d, -deg).dim == want.get(deg, 0)


def test_direct_sum():
    a = two_to_one()
    b = CochainComplex({1: 2})
    s = direct_sum([a, b])
    assert s.dims() == {0: 2, 1: 3}
    assert betti_numbers(s) == {0: 1, 1: 2}
    assert euler_characteristic(s) == euler_characteristic(a) + euler_characteristic(b)
    assert direct_sum([]) == ZERO_COMPLEX


def test_chain_map_validation():
    k = two_to_one()
    identity_chain_map(k)  # no raise
    with pytest.raises(NotChainCompatible):
        # identity in degree 0 with zero in degree 1 breaks the square at 0
        ChainMap(k, k, {0: RatMatrix.identity(2)})
    with pytest.raises(ValidationError):
        ChainMap(k, k, {0: RatMatrix.identity(3)})


def test_cohomology_map_frozen():
    k = two_to_one()
    f = ChainMap(
        k, k, {0: RatMatrix.identity(2).scale(3), 1: RatMatrix.identity(1).scale(3)}
    )
    assert cohomology_map(f, 0) == M([[3]])
    assert is_cohomology_iso(f)
    zero = ChainMap(k, k, {})
    assert cohomology_map(zero, 0) == M([[0]])
    assert not is_cohomology_iso(zero)
    # an injective map onto a larger cohomology is refused on the dimensions
    one, two = CochainComplex({0: 1}), CochainComplex({0: 2})
    inc = ChainMap(one, two, {0: M([[1], [0]])})
    assert rank(cohomology_map(inc, 0)) == 1
    assert not is_cohomology_iso(inc)


def test_compose_and_identity():
    k = two_to_one()
    ident = identity_chain_map(k)
    f = ChainMap(
        k, k, {0: RatMatrix.identity(2).scale(2), 1: RatMatrix.identity(1).scale(2)}
    )
    assert compose(ident, f) == f
    assert compose(f, f).mat(0) == RatMatrix.identity(2).scale(4)
    assert cohomology_map(compose(f, f), 0) == cohomology_map(f, 0) @ cohomology_map(f, 0)


def test_json_round_trip():
    k = two_to_one()
    assert CochainComplex.from_json(k.to_json()) == k
    with pytest.raises(ParseError):
        CochainComplex.from_json({"lo": 0})
    # negative degrees survive the string keys
    s = shift(k, 2)
    assert CochainComplex.from_json(s.to_json()) == s
