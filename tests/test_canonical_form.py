"""The stored form of RatMatrix entries: an int for each integral entry, a
Fraction (denominator > 1) for every other one, whatever built the matrix;
and RatMatrix.submatrix, its two branches against dense picks and its
refusals."""

import random
from fractions import Fraction

import pytest

from spectra_dr import cochain
from spectra_dr.bicomplex import DoubleComplex
from spectra_dr.errors import ValidationError
from spectra_dr.linalg import (
    RatMatrix,
    clear_caches,
    induced_map,
    kernel_basis,
    products_vanish,
    rank,
    solve_matrix,
    subquotient,
)
from spectra_dr.randgen import random_double_complex


def assert_canonical(m):
    """Every stored value of m is a nonzero int, or a Fraction that is not
    integral; columns ascend inside each row."""
    assert len(m._rows) == m.rows
    for row in m._rows:
        cols, vals = row[0::2], row[1::2]
        assert list(cols) == sorted(set(cols)) and all(0 <= c < m.cols for c in cols)
        for v in vals:
            assert v
            assert type(v) is int or (type(v) is Fraction and v.denominator != 1), (m, v)
    return m


# entries whose sums and products are often integral Fractions
VALUES = [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
          Fraction(2, 3), Fraction(-4, 3)]


def _source(rng, v):
    """One of the literal spellings of v: int, Fraction or "a/b" string."""
    choices = [Fraction(v), str(v), f"{2 * v.numerator}/{2 * v.denominator}"]
    if v.denominator == 1:
        choices.append(v.numerator)
    return rng.choice(choices)


def _matrix(rng, rows, cols):
    vals = [[Fraction(rng.choice(VALUES)) for _ in range(cols)] for _ in range(rows)]
    return RatMatrix(rows, cols, [[_source(rng, v) for v in r] for r in vals])


def test_every_operation_stores_the_canonical_form():
    rng = random.Random("canonical")
    for _ in range(150):
        n, k, l = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        a, a2 = _matrix(rng, n, k), _matrix(rng, n, k)
        b = _matrix(rng, k, l)
        for m in (a, a2, b, RatMatrix.from_json(a.to_json()),
                  RatMatrix(n, k, [a.row(i) for i in range(n)])):
            assert_canonical(m)
        assert_canonical(a @ b)
        assert_canonical(a + a2)
        assert_canonical(a - a2)
        assert_canonical(a - a)
        assert_canonical(-a)
        for c in (2, -3, Fraction(1, 2), "2/3", "-3/2", 0, 1):
            assert_canonical(a.scale(c))
        assert_canonical(RatMatrix.kron(a, b))
        assert_canonical(a.transpose())
        ri = [rng.randrange(n) for _ in range(rng.randint(0, 4))] if n else []
        ci = sorted(rng.sample(range(k), rng.randint(0, k)))
        assert_canonical(a.submatrix(ri, ci))
        assert_canonical(RatMatrix.hstack([a, a2]))
        assert_canonical(RatMatrix.from_blocks(n + k, k + l, [(0, 0, a), (n, k, b), (0, 0, a2)]))
        assert_canonical(RatMatrix.identity(n))
        for j in range(k):
            assert_canonical(a.select_columns([j]))
        assert_canonical(kernel_basis(a))
        rhs = a @ _matrix(rng, k, rng.randint(0, 3))
        x = solve_matrix(a, rhs)
        assert_canonical(x)
        assert a @ x == rhs
        assert_canonical(a.scale(Fraction(1, 7)))
        if n:
            sq = subquotient(a, a @ kernel_basis(a))
            for part in (sq.cycle_basis, sq.boundary_basis, sq.representative_basis):
                assert_canonical(part)
            assert_canonical(induced_map(RatMatrix.identity(n).scale("3/2"), sq, sq))
    clear_caches()


def test_integral_results_of_fraction_arithmetic_are_ints():
    half = RatMatrix(1, 1, [["1/2"]])
    two = RatMatrix(1, 1, [[2]])
    assert (half @ two)._rows == ((0, 1),)
    assert (half + half)._rows == ((0, 1),)
    assert half.scale(2)._rows == ((0, 1),)
    assert RatMatrix.kron(half, two)._rows == ((0, 1),)
    assert RatMatrix(1, 1, [["4/2"]])._rows == ((0, 2),)
    assert RatMatrix(1, 1, [[Fraction(6, 3)]])._rows == ((0, 2),)
    assert solve_matrix(RatMatrix(1, 1, [[2]]), RatMatrix(1, 1, [[4]]))._rows == ((0, 2),)
    assert solve_matrix(RatMatrix(1, 1, [[2]]), RatMatrix(1, 1, [[3]]))._rows == ((0, Fraction(3, 2)),)
    # the public boundary still hands out Fractions
    m = RatMatrix(1, 2, [[3, "1/2"]])
    assert type(m[0, 0]) is Fraction and type(m[0, 1]) is Fraction
    assert all(type(x) is Fraction for x in m.row(0) + m.transpose().row(1))
    assert m.to_json()["entries"] == [["3", "1/2"]]
    assert repr(m) == "RatMatrix(1x2: 3 1/2)"


def test_int_fraction_and_string_sources_give_one_matrix():
    rng = random.Random("sources")
    for _ in range(60):
        n, k = rng.randint(1, 5), rng.randint(1, 5)
        vals = [[Fraction(rng.choice(VALUES)) for _ in range(k)] for _ in range(n)]
        spellings = [
            [[v.numerator if v.denominator == 1 else v for v in r] for r in vals],
            [[Fraction(v) for v in r] for r in vals],
            [[str(v) for v in r] for r in vals],
            [[f"{3 * v.numerator}/{3 * v.denominator}" for v in r] for r in vals],
        ]
        mats = [RatMatrix(n, k, s) for s in spellings]
        built = (mats[1] @ RatMatrix.identity(k)).scale(2).scale("1/2")
        mats.append(built)
        clear_caches()
        r0 = rank(mats[0])
        for m in mats[1:]:
            assert m == mats[0] and hash(m) == hash(mats[0])
            assert rank(m) == r0
        info = rank.cache_info()
        assert info.currsize == 1 and info.misses == 1 and info.hits == len(mats) - 1
    clear_caches()


def test_products_vanish_sees_non_integral_products():
    half, third = RatMatrix(1, 1, [["1/2"]]), RatMatrix(1, 1, [["1/3"]])
    one = RatMatrix.identity(1)
    assert not products_vanish((half, third))
    assert products_vanish((half, third), (-half, third))
    # 1 - 5/6 = 1/6: integral and non-integral terms in one accumulated row
    assert not products_vanish((one, one), (RatMatrix(1, 1, [["-5/6"]]), one))
    assert products_vanish((one, one), (RatMatrix(1, 1, [["-3/2"]]), RatMatrix(1, 1, [["2/3"]])))
    rng = random.Random("vanish")
    for _ in range(200):
        n, k, m = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        f, g = _matrix(rng, n, k), _matrix(rng, k, m)
        prod = f @ g
        assert products_vanish((f, g)) == prod.is_zero()
        if not prod.is_zero():
            # plant a partner that leaves one non-integral entry, 1/5
            i, j = next((i, c) for i, r in enumerate(prod._rows) for c in r[0::2])
            rest = prod - RatMatrix.from_blocks(n, m, [(i, j, RatMatrix(1, 1, [["1/5"]]))])
            assert not products_vanish((f, g), (-rest, RatMatrix.identity(m)))
            assert products_vanish((f, g), (-prod, RatMatrix.identity(m)))


def test_products_vanish_refuses_what_at_and_plus_refuse():
    # each pair must conform, as for @, and the products must share a shape,
    # as for +; formerly these read True, False and an IndexError
    with pytest.raises(ValidationError, match="cannot multiply 1x3 by 2x2"):
        products_vanish((RatMatrix.zeros(1, 3), RatMatrix.identity(2)))
    with pytest.raises(ValidationError, match="cannot multiply 1x1 by 2x1"):
        products_vanish((RatMatrix.identity(1), RatMatrix(2, 1, [[1], [1]])))
    with pytest.raises(ValidationError, match="cannot multiply 1x2 by 1x1"):
        products_vanish((RatMatrix(1, 2, [[1, 1]]), RatMatrix.identity(1)))
    for f, g in [(RatMatrix.zeros(1, 3), RatMatrix.identity(2)),
                 (RatMatrix(1, 2, [[1, 1]]), RatMatrix.identity(1))]:
        with pytest.raises(ValidationError, match="cannot multiply") as at:
            f @ g
        with pytest.raises(ValidationError, match=str(at.value)):
            products_vanish((f, g))
    # 2x2 and 2x3 products: the shape message of +, first product first
    one = RatMatrix.identity(2)
    wide = RatMatrix(2, 3, [[1, 0, 0], [0, 0, 0]])
    with pytest.raises(ValidationError, match="shape mismatch 2x2 vs 2x3") as plus:
        products_vanish((one, one), (one, wide))
    with pytest.raises(ValidationError, match=str(plus.value)):
        (one @ one) + (one @ wide)
    # an absent factor still skips its pair, whatever the other's shape
    assert products_vanish((one, one), (None, wide), (wide, None)) is False
    assert products_vanish((RatMatrix.zeros(2, 2), one), (None, wide))


# -- submatrix: ascending int columns only ------------------------------------


def _dense_pick(m, ri, ci):
    return [[m.row(i)[c] for c in ci] for i in ri]


def test_submatrix_paths_agree_on_ascending_columns():
    """Both branches of submatrix, one slice of each row for a contiguous
    run of columns and a pick by column for any other ascending set, agree
    with a dense pick; rows come in any order, with repeats."""
    rng = random.Random("submatrix")
    for _ in range(300):
        a = _matrix(rng, rng.randint(0, 6), rng.randint(0, 8))
        n = a.cols
        ri = [rng.randrange(-a.rows, a.rows) for _ in range(rng.randint(0, 6))] if a.rows else []
        lo = rng.randint(0, n)
        hi = rng.randint(lo, n)
        for ci in (sorted(rng.sample(range(n), rng.randint(0, n))), range(lo, hi),
                   range(n), []):
            got = a.submatrix(ri, ci)
            assert_canonical(got)
            assert got == RatMatrix(len(ri), len(ci), _dense_pick(a, ri, ci))
    clear_caches()


def test_submatrix_refuses_every_other_column_pick():
    """A column index must be an int (TypeError, a bool included), in range
    (IndexError, a negative one included) and the picks must ascend without
    repeats (ValidationError)."""
    a = RatMatrix(2, 3, [[1, "1/2", 0], [0, 2, 3]])
    for ci in ([3], [0, 3], [-1], [-4, 0]):
        with pytest.raises(IndexError):
            a.submatrix([0], ci)
    with pytest.raises(IndexError):
        a.submatrix([2], [0, 1])
    for ci in ([Fraction(1)], [0.0], [True, 2], [0, False]):
        with pytest.raises(TypeError):
            a.submatrix([0], ci)
    for ci in ([1, 0], [0, 0], [2, 1, 0], [0, 2, 2]):
        with pytest.raises(ValidationError, match="ascend without repeats"):
            a.submatrix([0], ci)
    assert a.submatrix([1, 0], [0, 2]) == RatMatrix(2, 2, [[0, 3], [1, 0]])


# -- validation ------------------------------------------------------------


def test_validation_multiplies_only_complete_terms(monkeypatch):
    real = cochain.products_vanish
    calls = []

    def recorded(*pairs):
        assert any(f is not None and g is not None for f, g in pairs)
        calls.append(len(pairs))
        return real(*pairs)

    monkeypatch.setattr(cochain, "products_vanish", recorded)
    rng = random.Random("validate")
    for _ in range(40):
        k = random_double_complex(random.Random(rng.randrange(2**31)))
        DoubleComplex(k.dims(), k._d1, k._d2)
    assert calls
    one = RatMatrix.identity(1)
    with pytest.raises(ValidationError, match=r"d1 o d1 != 0 from \(0,0\)"):
        DoubleComplex({(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(0, 0): one, (1, 0): one}, {})
    with pytest.raises(ValidationError, match=r"d1 and d2 do not anticommute from \(0,0\)"):
        DoubleComplex({(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
                      {(0, 0): one, (0, 1): one}, {(0, 0): one, (1, 0): one})
    clear_caches()
