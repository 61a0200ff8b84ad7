import os
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import gcd

import pytest
from dense import M, dense, rref
from dense import rank as dense_rank

from spectra_dr.bicomplex import total
from spectra_dr.cochain import cohomology
from spectra_dr.errors import (
    ContainmentViolation,
    NotChainCompatible,
    ParseError,
    ValidationError,
)
from spectra_dr.linalg import (
    RatMatrix,
    check_piece_dims,
    clear_caches,
    image_basis,
    induced_map,
    kernel_basis,
    pivot_columns,
    products_vanish,
    rank,
    rat_from,
    solve_matrix,
    subquotient,
)
from spectra_dr.randgen import random_double_complex, random_unimodular


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return RatMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# -- scalars --------------------------------------------------------------

def test_rational_parsing():
    assert rat_from("3/4") == Fraction(3, 4)
    assert rat_from("-7") == Fraction(-7)
    assert rat_from(5) == Fraction(5)
    with pytest.raises(ParseError, match=re.escape("not a rational: 0.5 (floats are not accepted)")):
        rat_from(0.5)
    with pytest.raises(ParseError):
        rat_from("1/0")
    with pytest.raises(ParseError):
        rat_from(True)
    # only a float is told that floats are not accepted
    for bad in (None, [1], {"a": 1}):
        with pytest.raises(ParseError) as err:
            rat_from(bad)
        assert str(err.value) == f"not a rational: {bad!r}"


# -- matrix basics --------------------------------------------------------

def test_matrix_construction_and_access():
    m = M([[1, 2], [3, "1/2"]])
    assert m.shape == (2, 2)
    assert m[1, 1] == Fraction(1, 2)
    assert RatMatrix(2, 2, [[1, 2], [3, 4]]).row(1) == (Fraction(3), Fraction(4))
    # one literal form, rows of entries: a flat list of rows * cols is refused
    with pytest.raises(ValidationError, match="must be 2 rows of 2 entries"):
        RatMatrix(2, 2, [1, 2, 3, 4])
    with pytest.raises(ValidationError):
        RatMatrix(2, 2, [1, 2, 3])
    with pytest.raises(ValidationError):
        RatMatrix(2, 2, [[1], [2, 3]])


def test_empty_shapes_are_first_class():
    e = RatMatrix.zeros(0, 3)
    assert e.shape == (0, 3)
    assert (e @ RatMatrix.zeros(3, 2)).shape == (0, 2)
    # product through a zero-dim middle space is the zero matrix
    z = RatMatrix.zeros(2, 0) @ RatMatrix.zeros(0, 4)
    assert z == RatMatrix.zeros(2, 4)
    assert RatMatrix.zeros(3, 0).transpose().shape == (0, 3)
    assert rank(e) == 0
    assert kernel_basis(e) == RatMatrix.identity(3)
    assert kernel_basis(RatMatrix.zeros(3, 0)) == RatMatrix.zeros(0, 0)
    assert image_basis(e).shape == (0, 0)


def test_arithmetic():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a + b == M([[1, 3], [4, 4]])
    assert a - a == RatMatrix.zeros(2, 2)
    assert (-a) == a.scale(-1)
    assert a @ b == M([[2, 1], [4, 3]])
    assert a.scale("1/2") == M([["1/2", 1], ["3/2", 2]])
    assert a.transpose() == M([[1, 3], [2, 4]])
    with pytest.raises(ValidationError):
        a @ RatMatrix.zeros(3, 3)


def test_stack_and_kron():
    a = M([[1, 2]])
    b = M([[3, 4]])
    assert RatMatrix.from_blocks(2, 2, [(0, 0, a), (1, 0, b)]) == M([[1, 2], [3, 4]])
    assert RatMatrix.from_blocks(1, 4, [(0, 0, a), (0, 2, b)]) == M([[1, 2, 3, 4]])
    assert RatMatrix.from_blocks(2, 4, [(0, 0, a), (1, 2, b)]) == M([[1, 2, 0, 0], [0, 0, 3, 4]])
    k = RatMatrix.kron(M([[1, 2]]), M([[0, 1], [1, 0]]))
    assert k == M([[0, 1, 0, 2], [1, 0, 2, 0]])
    # kron with identity reproduces block structure
    assert RatMatrix.kron(RatMatrix.identity(2), a) == RatMatrix.from_blocks(
        2, 4, [(0, 0, a), (1, 2, a)])


def test_from_blocks_places_each_block():
    a = M([[1, 2], [3, 4]])
    b = M([["1/2"], [-1]])
    got = RatMatrix.from_blocks(4, 5, [(0, 1, a), (2, 4, b), (3, 0, M([[7]]))])
    assert got == M([
        [0, 1, 2, 0, 0],
        [0, 3, 4, 0, 0],
        [0, 0, 0, 0, "1/2"],
        [7, 0, 0, 0, -1],
    ])
    # blocks flush with every edge, and empty blocks anywhere inside
    assert RatMatrix.from_blocks(2, 2, [(0, 0, a)]) == a
    assert RatMatrix.from_blocks(2, 3, [(2, 3, RatMatrix.zeros(0, 0)),
                                        (1, 0, RatMatrix.zeros(1, 0))]) == RatMatrix.zeros(2, 3)
    # random blocks, one per band of rows, against an entry-by-entry fill
    rng = random.Random(5)
    for _ in range(30):
        cols = rng.randint(0, 5)
        blocks = []
        r0 = 0
        for _ in range(rng.randint(0, 3)):
            m = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, cols))
            blocks.append((r0, rng.randint(0, cols - m.cols), m))
            r0 += m.rows + rng.randint(0, 1)
        want = [[0] * cols for _ in range(r0)]
        for b0, c0, m in blocks:
            for i in range(m.rows):
                for j in range(m.cols):
                    want[b0 + i][c0 + j] = m[i, j]
        assert RatMatrix.from_blocks(r0, cols, blocks) == RatMatrix(r0, cols, want)


def test_from_blocks_empty_is_zero():
    assert RatMatrix.from_blocks(3, 2, []) == RatMatrix.zeros(3, 2)
    assert RatMatrix.from_blocks(0, 4, []) == RatMatrix.zeros(0, 4)
    assert RatMatrix.from_blocks(0, 0, []).shape == (0, 0)


@pytest.mark.parametrize("r0, c0", [(-1, 0), (0, -1), (2, 0), (0, 3), (3, 4)])
def test_from_blocks_rejects_a_block_that_does_not_fit(r0, c0):
    with pytest.raises(ValidationError, match="does not fit in 3x4"):
        RatMatrix.from_blocks(3, 4, [(0, 0, M([[1]])), (r0, c0, M([[1, 2], [3, 4]]))])


def test_from_blocks_reads_the_size_cap(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "8")
    assert RatMatrix.from_blocks(8, 8, [(7, 7, M([[1]]))]).shape == (8, 8)
    with pytest.raises(ValidationError, match="exceeds SPECTRA_DR_MAX_DIM=8"):
        RatMatrix.from_blocks(9, 1, [])
    with pytest.raises(ValidationError, match="exceeds SPECTRA_DR_MAX_DIM=8"):
        RatMatrix.from_blocks(9, 9, [(0, 0, RatMatrix.identity(5)), (5, 5, RatMatrix.identity(4))])
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError, match="must be an integer"):
        RatMatrix.from_blocks(1, 1, [])
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    clear_caches()


def test_hash_and_eq():
    a = M([[1, 2], [2, 4]])
    b = RatMatrix(2, 2, [[1, 2], [2, 4]])
    assert a == b and hash(a) == hash(b)
    assert a != M([[1, 2], [2, 5]])
    with pytest.raises(AttributeError):
        a.rows = 5


def test_json_round_trip():
    m = M([["1/3", -2], [0, "5/7"]])
    j = m.to_json()
    assert j["rows"] == 2 and j["entries"][0] == ["1/3", "-2"]
    assert RatMatrix.from_json(j) == m
    with pytest.raises(ParseError):
        RatMatrix.from_json({"rows": 1, "cols": 1})
    with pytest.raises(ParseError):
        RatMatrix.from_json([1, 2])


def test_internal_construction_hashes_like_public():
    m = M([[1, 0, 2], [0, -3, 0]])
    ways = [
        m,
        M([["1", "0", "4/2"], ["0", "-3", "0/5"]]),
        RatMatrix.identity(2) @ m,
        m.transpose().transpose(),
        RatMatrix.from_blocks(2, 4, [(0, 0, m), (0, 3, M([[7], [8]]))]).submatrix(
            range(2), range(3)),
    ]
    halves = [
        M([["1/2", 0], [0, "-2/3"]]),
        M([[1, 0], [0, "-4/3"]]).scale("1/2"),
        -M([["-2/4", 0], [0, "4/6"]]),
    ]
    for group in (ways, halves):
        for other in group[1:]:
            assert other == group[0]
            assert hash(other) == hash(group[0])
        clear_caches()
        r0 = rank(group[0])
        before = rank.cache_info()
        for other in group[1:]:
            assert rank(other) == r0
        after = rank.cache_info()
        assert after.misses == before.misses
        assert after.hits == before.hits + len(group) - 1
        assert after.currsize == 1
    clear_caches()


# -- construction from entries and from shears ------------------------------


def test_from_entries_sums_repeats_and_stores_canonical_values():
    half, third = Fraction(1, 2), Fraction(1, 3)
    m = RatMatrix.from_entries(2, 3, [(0, 1, 2), (1, 0, half), (0, 1, -2), (1, 2, third),
                                      (1, 0, half), (0, 2, Fraction(10, 2))])
    assert m == M([[0, 0, 5], [1, 0, "1/3"]])
    # the repeats at (0,1) cancel and are not stored; 1/2 + 1/2 and 10/2 are ints
    assert m._rows == ((2, 5), (0, 1, 2, third))
    assert [type(v) for row in m._rows for v in row[1::2]] == [int, int, Fraction]
    assert RatMatrix.from_entries(2, 0, []) == RatMatrix.zeros(2, 0)
    for i, j in ((2, 0), (0, 3), (-1, 0), (0, -1)):
        with pytest.raises(ValidationError, match=re.escape(f"entry ({i},{j}) outside 2x3")):
            RatMatrix.from_entries(2, 3, [(0, 0, 1), (i, j, 1)])


def test_from_entries_matches_a_dense_grid_on_seeded_triples():
    """The oracle sums the triples into a dense grid of Fractions and parses
    it as a literal."""
    rng = random.Random(2121)
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        triples = [(rng.randrange(rows), rng.randrange(cols),
                    rng.choice((Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                rng.randint(-2, 2))))
                   for _ in range(rng.randint(0, 12) if rows and cols else 0)]
        grid = [[Fraction(0)] * cols for _ in range(rows)]
        for i, j, v in triples:
            grid[i][j] += v
        assert RatMatrix.from_entries(rows, cols, triples) == RatMatrix(rows, cols, grid)


def test_random_unimodular_pairs_are_inverse_and_the_shear_products():
    """U U^-1 = I on 500 seeded draws, and U is the product of the drawn
    shear matrices, read from a second generator with the same seed."""
    for seed in range(500):
        rng = random.Random(seed)
        n = rng.randint(0, 6)
        shears = rng.randint(0, 8)
        u, uinv = random_unimodular(rng, n, shears)
        assert u @ uinv == RatMatrix.identity(n) == uinv @ u
        replay = random.Random(seed)
        replay.randint(0, 6), replay.randint(0, 8)
        want = RatMatrix.identity(n)
        for _ in range(shears if n >= 2 else 0):
            i, j = replay.randrange(n), replay.randrange(n)
            if i != j:
                e = [[int(a == b) for b in range(n)] for a in range(n)]
                e[i][j] = replay.choice((-2, -1, 1, 2))
                want = RatMatrix(n, n, e) @ want
        assert u == want


def test_max_dim_cap_on_internal_construction(monkeypatch):
    a = RatMatrix.identity(3)
    b = M([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "8")
    assert a @ b == b
    with pytest.raises(ValidationError):
        RatMatrix.kron(a, b)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError):
        a @ b
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    assert RatMatrix.kron(a, b).shape == (9, 9)
    clear_caches()


def test_max_dim_cap(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "8")
    RatMatrix.zeros(8, 8)
    with pytest.raises(ValidationError):
        RatMatrix.zeros(9, 1)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError):
        RatMatrix.zeros(1, 1)
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    clear_caches()


_A = M([[1, 2, 0], [0, "1/2", 3]])
_B = M([[1, 0], [2, -1], [0, "3/4"]])
_SQ = M([[1, 2], [2, 4]])

# every producer of a RatMatrix, each building its result from operands made
# under the default cap
PRODUCERS = {
    "add": lambda: _A + _A,
    "sub": lambda: _A - _A,
    "neg": lambda: -_A,
    "scale": lambda: _A.scale(2),
    "matmul": lambda: _A @ _B,
    "transpose": lambda: _A.transpose(),
    "submatrix": lambda: _A.submatrix([0, 1], [0, 2]),
    "hstack": lambda: RatMatrix.from_blocks(2, 6, [(0, 0, _A), (0, 3, _A)]),
    "kron": lambda: RatMatrix.kron(_SQ, _B),
    "identity": lambda: RatMatrix.identity(3),
    "zeros": lambda: RatMatrix.zeros(2, 3),
    "from_blocks": lambda: RatMatrix.from_blocks(3, 4, [(1, 1, _A)]),
    "kernel_basis": lambda: kernel_basis(RatMatrix.from_blocks(2, 6, [(0, 0, _A), (0, 3, _A)])),
    "solve_matrix": lambda: solve_matrix(_A, _A),
}


@pytest.mark.parametrize("name", PRODUCERS)
def test_every_producer_reads_the_cap(monkeypatch, name):
    make = PRODUCERS[name]
    clear_caches()
    shape = make().shape
    assert max(shape) >= 2
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    clear_caches()
    with pytest.raises(ValidationError,
                       match=r"^SPECTRA_DR_MAX_DIM must be an integer, got 'junk'$"):
        make()
    cap = max(shape) - 1
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", str(cap))
    clear_caches()
    with pytest.raises(ValidationError, match=f"exceeds SPECTRA_DR_MAX_DIM={cap}$"):
        make()
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", str(cap + 1))
    clear_caches()
    assert make().shape == shape
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    clear_caches()


def test_a_junk_cap_raises_on_every_construction(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    for _ in range(2):
        with pytest.raises(ValidationError, match="must be an integer, got 'junk'"):
            RatMatrix.identity(1)


def test_a_cap_set_and_removed_is_seen_at_the_next_construction():
    assert "SPECTRA_DR_MAX_DIM" not in os.environ
    os.environ["SPECTRA_DR_MAX_DIM"] = "8"
    try:
        assert RatMatrix.identity(8).shape == (8, 8)
        with pytest.raises(ValidationError, match="exceeds SPECTRA_DR_MAX_DIM=8"):
            RatMatrix.identity(9)
    finally:
        del os.environ["SPECTRA_DR_MAX_DIM"]
    assert RatMatrix.identity(9).shape == (9, 9)


@pytest.mark.parametrize("raw", ["-1", "-4096"])
def test_a_negative_cap_is_refused_by_name(monkeypatch, raw):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", raw)
    message = f"SPECTRA_DR_MAX_DIM must be a non-negative integer, got '{raw}'"
    with pytest.raises(ValidationError, match=f"^{message}$"):
        RatMatrix.zeros(0, 0)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        check_piece_dims({0: 1})


def test_a_zero_cap_admits_only_empty_matrices(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "0")
    assert RatMatrix.zeros(0, 0).shape == (0, 0)
    with pytest.raises(ValidationError, match="matrix shape 1x0 exceeds SPECTRA_DR_MAX_DIM=0"):
        RatMatrix.zeros(1, 0)


@pytest.mark.parametrize("make", [lambda: RatMatrix.from_blocks(-1, 2, []),
                                  lambda: RatMatrix.zeros(-1, 0)])
def test_a_negative_shape_is_refused(make):
    with pytest.raises(ValidationError, match="negative matrix shape"):
        make()


@pytest.mark.parametrize("build", [
    lambda a, b: a @ b,
    lambda a, b: RatMatrix.kron(a, b),
    lambda a, b: RatMatrix.zeros(2, 5),
    lambda a, b: RatMatrix.identity(4),
    lambda a, b: a.transpose(),
    lambda a, b: a.submatrix([1], [0, 2]),
    lambda a, b: kernel_basis(a),
])
def test_each_construction_is_one_init_call(monkeypatch, build):
    # the benchmark tracer counts RatMatrix constructions by wrapping __init__
    a, b = M([[1, 2, 3], [2, 4, 6]]), M([[1], [0], ["1/3"]])
    clear_caches()
    calls = []
    init = RatMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatMatrix, "__init__", counting)
    build(a, b)
    assert len(calls) == 1
    clear_caches()


# -- elimination ----------------------------------------------------------

def test_rank_frozen_values():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[1, 2], [3, 4]])) == 2
    assert rank(RatMatrix.zeros(3, 3)) == 0
    assert rank(M([["1/2", "1/3"], ["1/4", "1/6"]])) == 1
    assert rank(RatMatrix.identity(5)) == 5


def test_kernel_frozen_values():
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k == M([[-2], [1]])
    assert kernel_basis(RatMatrix.identity(3)).shape == (3, 0)
    k2 = kernel_basis(M([[1, 1, 1]]))
    # free columns 1 and 2, ascending; defining coordinate positive
    assert k2 == M([[-1, -1], [1, 0], [0, 1]])
    # the leftmost column is the pivot, so column 1 is free
    k3 = kernel_basis(M([["1/2", "1/3"]]))
    assert k3 == M([[-2], [3]])


def test_image_frozen_values():
    im = image_basis(M([[1, 2], [2, 4]]))
    assert im == M([[1], [2]])
    assert pivot_columns(M([[0, 1, 1], [0, 0, 0]])) == (1,)
    im2 = image_basis(M([[0, 1, 2], [0, 2, 4], [0, 0, 0]]))
    assert im2 == M([[1], [2], [0]])


def test_solve_and_span():
    a = M([[1, 2], [3, 4]])
    x = solve_matrix(a, M([[5], [11]]))
    assert a @ x == M([[5], [11]])
    assert solve_matrix(M([[1, 2], [2, 4]]), M([[1], [0]])) is None
    assert solve_matrix(M([[1], [1]]), M([[3], [3]])) is not None
    assert solve_matrix(M([[1], [1]]), M([[1], [0]])) is None
    # underdetermined: free variables set to zero
    s = solve_matrix(M([[1, 1]]), M([[4]]))
    assert s == M([[4], [0]])


def test_elimination_random_consistency():
    rng = random.Random(0)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        m = rand_matrix(rng, r, c)
        rk = dense_rank(m)
        ker = kernel_basis(m)
        im = image_basis(m)
        assert rank(m) == rk == rank(m.transpose())
        assert rk + ker.cols == c
        assert im.cols == rk and rank(im) == rk
        if ker.cols:
            assert (m @ ker).is_zero()
        # every column of m is in the span of the image basis
        assert solve_matrix(im, m) is not None


def test_solve_matrix_edge_shapes():
    # more right-hand columns than rows, with a free column in a
    a = M([[1, 2, 0], [0, 1, "1/2"]])
    b = M([[1, 0, 3, 5, 0], [2, -1, 0, "1/2", 0]])
    x = solve_matrix(a, b)
    assert a @ x == b
    assert x == M([[-3, 2, 3, 4, 0], [2, -1, 0, "1/2", 0], [0, 0, 0, 0, 0]])
    # a with no columns reaches only the zero right-hand side
    assert solve_matrix(RatMatrix.zeros(2, 0), RatMatrix.zeros(2, 3)) == RatMatrix.zeros(0, 3)
    assert solve_matrix(RatMatrix.zeros(2, 0), M([[0], [1]])) is None
    # the only nonzero of [a | b] is in the right-hand part
    assert solve_matrix(RatMatrix.zeros(2, 3), M([[0, 0], [0, 5]])) is None
    assert solve_matrix(RatMatrix.zeros(2, 3), RatMatrix.zeros(2, 2)) == RatMatrix.zeros(3, 2)
    # a dependent row of a whose right-hand side is not dependent
    assert solve_matrix(M([[1, 1], [2, 2]]), M([[1, 0], [2, 1]])) is None
    assert solve_matrix(M([[1, 1], [2, 2]]), M([[1, 0], [2, 0]])) == M([[1, 0], [0, 0]])


def _split(rng, m):
    """m cut into one to three column parts, some of them empty."""
    cuts = sorted(rng.randint(0, m.cols) for _ in range(rng.randint(0, 2)))
    return [m.submatrix(range(m.rows), range(lo, hi))
            for lo, hi in zip([0] + cuts, cuts + [m.cols])]


def test_solve_matrix_reads_column_parts_as_the_glued_matrix():
    rng = random.Random(37)
    seen = Counter()
    for _ in range(300):
        n = rng.randint(0, 5)
        a = rand_matrix(rng, n, rng.randint(0, 5))
        # half the right-hand sides lie in the span of a
        b = a @ rand_matrix(rng, a.cols, rng.randint(0, 4)) if rng.random() < 0.5 else (
            rand_matrix(rng, n, rng.randint(0, 4)))
        want = solve_matrix(a, b)
        assert solve_matrix(_split(rng, a), _split(rng, b)) == want
        assert solve_matrix(_split(rng, a), b) == want
        assert solve_matrix(a, _split(rng, b)) == want
        seen[want is None] += 1
    assert min(seen.values()) >= 50
    # the same refusal text on two matrices and on their parts
    a, b = M([[1, 2], [3, 4]]), M([[1], [2], [3]])
    for lhs, rhs in ((a, b), ([a], [b]), (_split(rng, a), b)):
        with pytest.raises(ValidationError, match=r"^solve shape mismatch: 2x2 vs rhs 3x1$"):
            solve_matrix(lhs, rhs)
    with pytest.raises(ValidationError, match="solve shape mismatch"):
        solve_matrix((a, RatMatrix.zeros(3, 1)), M([[1], [2]]))
    with pytest.raises(ValidationError, match="no column parts"):
        solve_matrix((), b)


# -- subquotients ---------------------------------------------------------

def _coordinates(sq, vectors):
    """The coordinates of the cycle columns vectors in sq, as induced_map
    reads them from the subquotient whose representatives are the standard
    basis."""
    n = vectors.cols
    return induced_map(vectors, subquotient(RatMatrix.identity(n), RatMatrix.zeros(n, 0)), sq)


def test_subquotient_frozen():
    sq = subquotient(RatMatrix.identity(2), M([[1], [1]]))
    assert sq.dim == 1
    assert sq.ambient_dim == 2
    assert sq.cycle_basis == RatMatrix.identity(2)
    assert sq.boundary_basis == M([[1], [1]])
    assert sq.representative_basis == M([[1], [0]])
    # e0 and e1 are the same class mod (1,1): coordinates 1 and -1
    assert _coordinates(sq, M([[1], [0]])) == M([[1]])
    assert _coordinates(sq, M([[0], [1]])) == M([[-1]])


def test_subquotient_errors():
    with pytest.raises(ContainmentViolation):
        subquotient(M([[1], [1]]), RatMatrix.identity(2))
    # as many boundaries as cycles, but a different span
    with pytest.raises(ContainmentViolation):
        subquotient(M([[1], [0]]), M([[0], [1]]))
    with pytest.raises(ContainmentViolation):
        subquotient(M([[1, 0], [0, 1], [0, 0]]), M([[1, 0], [0, 0], [0, 1]]))
    # more independent boundaries than cycles
    with pytest.raises(ContainmentViolation):
        subquotient(M([[1], [0], [0]]), M([[1, 0], [0, 1], [0, 0]]))
    sq = subquotient(M([[1], [1]]), RatMatrix.zeros(2, 0))
    with pytest.raises(NotChainCompatible, match="^map does not send cycles to cycles$"):
        _coordinates(sq, M([[1], [0]]))


def _check_against_greedy(cycles, boundaries):
    sq = subquotient(cycles, boundaries)
    assert sq.representative_basis == _dense_representatives(cycles, boundaries)
    assert sq.dim == dense_rank(cycles) - dense_rank(boundaries)
    assert induced_map(RatMatrix.identity(sq.ambient_dim), sq, sq) == RatMatrix.identity(sq.dim)
    return sq


def _rand_fraction_matrix(rng, rows, cols):
    return RatMatrix(rows, cols, [
        [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(cols)]
        for _ in range(rows)
    ])


def test_subquotient_representatives_match_greedy_scan():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randint(0, 6)
        cycles = _rand_fraction_matrix(rng, n, rng.randint(0, 6))
        mix = _rand_fraction_matrix(rng, cycles.cols, rng.randint(0, 4))
        _check_against_greedy(cycles, cycles @ mix)


def test_subquotient_representatives_edge_cases():
    # a redundant spanning set: column 2 = 2 * column 0 - 3/2 * column 1
    z = M([["1/2", 0, 1], [0, "-2/3", 1], [0, 0, 0], ["3/4", 1, 0]])
    # no boundaries: every cycle-basis column is a representative
    sq = _check_against_greedy(z, RatMatrix.zeros(4, 0))
    assert sq.representative_basis == z.select_columns(_dense_pivots(z))
    sq = _check_against_greedy(z, z @ RatMatrix.zeros(3, 2))
    assert sq.dim == dense_rank(z) == 2
    # span B = span Z: nothing survives
    assert _check_against_greedy(z, z).dim == 0
    assert _check_against_greedy(z, z @ M([[1, 1, 0], [0, 1, 1], [1, 0, 1]])).dim == 0
    # zero ambient dimension
    assert _check_against_greedy(RatMatrix.zeros(0, 3), RatMatrix.zeros(0, 2)).dim == 0
    # a cycle that is itself a boundary is never a representative
    sq = _check_against_greedy(RatMatrix.identity(3), M([[0], [0], [1]]))
    assert sq.representative_basis == M([[1, 0], [0, 1], [0, 0]])
    sq = _check_against_greedy(RatMatrix.identity(3), M([["1/2"], [0], [0]]))
    assert sq.representative_basis == M([[0, 0], [1, 0], [0, 1]])
    with pytest.raises(ContainmentViolation):
        subquotient(z, RatMatrix.identity(4))


def test_subquotient_zero_spaces():
    full = subquotient(RatMatrix.identity(2), RatMatrix.identity(2))
    assert full.dim == 0
    assert _coordinates(full, M([[1], [1]])) == RatMatrix.zeros(0, 1)
    empty = subquotient(RatMatrix.zeros(0, 0), RatMatrix.zeros(0, 0))
    assert empty.dim == 0 and empty.ambient_dim == 0


def test_induced_map_frozen():
    sq = subquotient(RatMatrix.identity(2), M([[1], [1]]))
    doubling = M([[2, 0], [0, 2]])
    assert induced_map(doubling, sq, sq) == M([[2]])
    assert induced_map(RatMatrix.identity(2), sq, sq) == M([[1]])


def test_induced_map_rejects_incompatible():
    cyc = kernel_basis(M([[1, 1]]))  # span (-1,1)
    sq = subquotient(cyc, RatMatrix.zeros(2, 0))
    shear = M([[1, 1], [0, 1]])  # does not preserve the line x+y=0
    with pytest.raises(NotChainCompatible):
        induced_map(shear, sq, sq)
    with pytest.raises(ValidationError):
        induced_map(RatMatrix.zeros(3, 3), sq, sq)


def test_induced_map_functorial():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randint(1, 4)
        d = rand_matrix(rng, rng.randint(0, 3), n)
        cyc = kernel_basis(d)
        sq = subquotient(cyc, RatMatrix.zeros(n, 0))
        # any matrix commuting with d=projection? use scalar maps, always compatible
        c1, c2 = rng.randint(-3, 3), rng.randint(-3, 3)
        f = RatMatrix.identity(n).scale(c1)
        g = RatMatrix.identity(n).scale(c2)
        lhs = induced_map(f @ g, sq, sq)
        rhs = induced_map(f, sq, sq) @ induced_map(g, sq, sq)
        assert lhs == rhs


def _dense_induced_map(mat, source, target):
    """induced_map by dense solves: the images of the cycles must lie in the
    span of the target's cycles, those of the boundaries in the span of its
    boundaries, and the images of the representatives are read in the basis
    [B | R] of the target's cycles, their R coordinates kept."""
    if _dense_solve(target.cycle_basis, mat @ source.cycle_basis) is None:
        raise NotChainCompatible("map does not send cycles to cycles")
    if _dense_solve(target.boundary_basis, mat @ source.boundary_basis) is None:
        raise NotChainCompatible("map does not send boundaries to boundaries")
    nb = target.boundary_basis.cols
    basis = RatMatrix.from_blocks(target.ambient_dim, nb + target.dim,
                                  [(0, 0, target.boundary_basis),
                                   (0, nb, target.representative_basis)])
    x = _dense_solve(basis, mat @ source.representative_basis)
    return x.submatrix(range(nb, x.rows), range(x.cols))


def _outcome(f, *args):
    try:
        return f(*args)
    except NotChainCompatible as exc:
        return str(exc)


def test_induced_map_matches_three_solves():
    rng = random.Random(43)
    seen = Counter()
    subquotients = 0
    while subquotients < 300:
        t = total(random_double_complex(rng))
        for deg in t.degrees():
            sq, nxt = cohomology(t, deg), cohomology(t, deg + 1)
            subquotients += 1
            n, z, r = sq.ambient_dim, sq.cycle_basis, sq.representative_basis
            cases = [(mat, sq) for mat in (
                RatMatrix.identity(n), RatMatrix.zeros(n, n), rand_matrix(rng, n, n),
                z @ rand_matrix(rng, z.cols, n), r @ rand_matrix(rng, r.cols, n))]
            cases += [(t.diff(deg), nxt), (rand_matrix(rng, nxt.ambient_dim, n), nxt)]
            for mat, target in cases:
                got = _outcome(induced_map, mat, sq, target)
                assert got == _outcome(_dense_induced_map, mat, sq, target)
                seen[got if isinstance(got, str) else "ok"] += 1
                if not isinstance(got, str):
                    assert got.shape == (target.dim, sq.dim)
    assert set(seen) == {"ok", "map does not send cycles to cycles",
                         "map does not send boundaries to boundaries"}
    assert min(seen.values()) >= 50


# -- literals ---------------------------------------------------------------

@pytest.mark.parametrize("bad", [True, False, 0.5, "1/0", None])
def test_matrix_literal_rejects_non_rationals(bad):
    with pytest.raises(ParseError):
        RatMatrix(2, 2, [[1, 0], [bad, "0"]])
    with pytest.raises(ParseError):
        RatMatrix(1, 3, [[0, "0", bad]])


def test_zero_literals_give_the_zero_matrix():
    assert RatMatrix(2, 3, [["0"] * 3, ["0"] * 3]) == RatMatrix.zeros(2, 3)
    assert RatMatrix(2, 3, [[0] * 3, [0] * 3]) == RatMatrix.zeros(2, 3)
    assert RatMatrix(2, 2, [["0", 0], ["0/7", Fraction(0)]]) == RatMatrix.zeros(2, 2)
    assert RatMatrix.from_json({"rows": 1, "cols": 2, "entries": [["0", "0"]]}).is_zero()
    assert M([["0", "-3/6"]]) == M([[0, "-1/2"]])


# -- differential tests: sparse rows against the dense engine -----------------
# The dense Gauss-Jordan elimination of tests/dense.py, an oracle that shares
# no code with the column reduction, on dense lists of Fractions taken
# through the public row().


def _dense_pivots(m):
    return tuple(rref(dense(m), m.cols)[0])


def _dense_primitive(vec):
    lcm = 1
    for x in vec:
        if x.denominator != 1:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [Fraction(v // g) if g > 1 else Fraction(v) for v in ints]


def _dense_kernel(m):
    n = m.cols
    pivots, rows = rref(dense(m), n)
    cols = []
    for f in range(n):
        if f not in pivots:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            for i, c in enumerate(pivots):
                x[c] = -rows[i][f]
            cols.append(_dense_primitive(x))
    return _from_columns(n, cols)


def _from_columns(n, cols):
    """The n x len(cols) matrix with the given columns."""
    return RatMatrix(n, len(cols), [list(row) for row in zip(*cols)] if cols else [[]] * n)


def _dense_solve(a, b):
    n, k = a.cols, b.cols
    if k == 0:
        return RatMatrix.zeros(n, 0)
    if a.rows == 0:
        return RatMatrix.zeros(n, k)
    aug = [ra + rb for ra, rb in zip(dense(a), dense(b))]
    pivots, rows = rref(aug, n)
    if any(any(rows[i][n:]) for i in range(len(pivots), a.rows)):
        return None
    out = [[0] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        out[c] = rows[i][n:]
    return RatMatrix(n, k, out)


def _dense_representatives(cycles, boundaries):
    """The representative rule as a greedy scan by dense rank: the pivot
    columns of the cycles, left to right, each kept when it is not in the
    span of the boundaries and the columns kept before it."""
    z = cycles.select_columns(_dense_pivots(cycles))
    b = boundaries.select_columns(_dense_pivots(boundaries))
    aug = [rb + rz for rb, rz in zip(dense(b), dense(z))]
    pivots, _ = rref(aug, b.cols + z.cols)
    return z.select_columns([c - b.cols for c in pivots if c >= b.cols])


def _entries(rng, kind):
    if kind == "rational":
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))
    if kind == "magnitude":
        return rng.choice((-1, 1)) * rng.randint(2, 9) if rng.random() < 0.9 else rng.randint(-1, 1)
    return rng.randint(-3, 3)


def _row_sparse(rng, rows, cols):
    """A rows x cols matrix of which a quarter of the rows (one row, below
    four) may hold entries, so from four rows on at least three in four are
    zero rows."""
    out = [[0] * cols for _ in range(rows)]
    for i in rng.sample(range(rows), max(rows // 4, min(rows, 1))):
        out[i] = [_entries(rng, "rational") if rng.random() < 0.6 else 0 for _ in range(cols)]
    return RatMatrix(rows, cols, out)


def _gen(rng, kind):
    """One seeded matrix of the given kind."""
    if kind == "zero-shape":
        r, c = rng.choice([(0, rng.randint(0, 5)), (rng.randint(0, 5), 0),
                           (rng.randint(1, 5), rng.randint(1, 5))])
        return RatMatrix.zeros(r, c)
    if kind == "sparse":
        r, c = rng.randint(6, 16), rng.randint(6, 16)
        rows = [[0] * c for _ in range(r)]
        for _ in range(max(1, r * c // 16)):
            rows[rng.randrange(r)][rng.randrange(c)] = rng.choice((1, -1, 1, -1, 2, -3))
        return RatMatrix(r, c, rows)
    if kind == "row-sparse":
        # the walks of @, transpose, kron and the reduction skip zero rows
        return _row_sparse(rng, rng.randint(4, 16), rng.randint(1, 8))
    if kind == "magnitude":
        # pivots are rarely 1, and rows that a step leaves alone are read
        # again while they still owe that step's scaling
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        return RatMatrix(r, c, [[_entries(rng, kind) if rng.random() < 0.5 else 0
                                 for _ in range(c)] for _ in range(r)])
    if kind == "shared-swap":
        # the smallest entry of the first held column sits below a row of
        # large entries that shares columns with it, so the pivot row is
        # swapped with a row it overlaps, under both pivot rules
        r, c = rng.randint(3, 8), rng.randint(3, 8)
        rows = [[rng.choice((-1, 1)) * rng.randint(2, 5) if rng.random() < 0.7 else 0
                 for _ in range(c)] for _ in range(r)]
        rows[0][0] = rng.choice((-7, 7))
        rows[0][1] = rows[0][1] or 6
        low = rng.randrange(1, r)
        rows[low][0] = rng.choice((-1, 1))
        rows[low][1] = rows[low][1] or -4
        return RatMatrix(r, c, rows)
    if kind == "block":
        blocks = [rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3), -2, 2)
                  for _ in range(rng.randint(1, 5))]
        rows = accumulate((b.rows for b in blocks), initial=0)
        cols = accumulate((b.cols for b in blocks), initial=0)
        m = RatMatrix.from_blocks(sum(b.rows for b in blocks), sum(b.cols for b in blocks),
                                  [(r0, c0, b) for r0, c0, b in zip(rows, cols, blocks)])
        ri = list(range(m.rows))
        ci = list(range(m.cols))
        rng.shuffle(ri)
        rng.shuffle(ci)
        # columns in any order: a row pick of the transpose
        return m.submatrix(ri, range(m.cols)).transpose().submatrix(ci, range(m.rows)).transpose()
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    return RatMatrix(r, c, [[_entries(rng, kind) for _ in range(c)] for _ in range(r)])


def _like(rng, m, kind):
    """Another matrix of m's shape."""
    if kind == "row-sparse":
        return _row_sparse(rng, m.rows, m.cols)
    density = 0.1 if kind == "sparse" else 0.5
    return RatMatrix(m.rows, m.cols, [[_entries(rng, kind) if rng.random() < density else 0
                                       for _ in range(m.cols)] for _ in range(m.rows)])


KINDS = ["dense", "sparse", "block", "rational", "zero-shape", "row-sparse"]


@pytest.mark.parametrize("kind", KINDS + ["magnitude", "shared-swap"])
def test_elimination_matches_dense_engine(kind):
    rng = random.Random(f"elim-{kind}")
    for _ in range(200):
        m = _gen(rng, kind)
        assert rank(m) == dense_rank(m)
        assert pivot_columns(m) == _dense_pivots(m)
        assert kernel_basis(m) == _dense_kernel(m)
        consistent = m @ _like(rng, RatMatrix.zeros(m.cols, rng.randint(0, 3)), kind)
        for rhs in (consistent, _like(rng, consistent, kind)):
            assert solve_matrix(m, rhs) == _dense_solve(m, rhs)
        boundaries = m @ _like(rng, RatMatrix.zeros(m.cols, rng.randint(0, 4)), kind)
        sq = subquotient(m, boundaries)
        assert sq.representative_basis == _dense_representatives(m, boundaries)
    clear_caches()


def _from_dense(rows, cols):
    return RatMatrix(len(rows), cols, rows)


@pytest.mark.parametrize("kind", KINDS)
def test_algebra_matches_dense_lists(kind):
    rng = random.Random(f"algebra-{kind}")
    for _ in range(200):
        a = _gen(rng, kind)
        n, da = a.cols, dense(a)
        assert kind != "row-sparse" or 4 * sum(map(any, da)) <= a.rows
        b = _like(rng, a, kind)
        db = dense(b)
        zero = RatMatrix.zeros(a.rows, n)
        assert _from_dense(da, n) == a and hash(_from_dense(da, n)) == hash(a)
        assert a + b == _from_dense([[x + y for x, y in zip(p, q)] for p, q in zip(da, db)], n)
        assert a - b == _from_dense([[x - y for x, y in zip(p, q)] for p, q in zip(da, db)], n)
        assert a - a == zero and hash(a - a) == hash(zero)
        assert -a == _from_dense([[-x for x in r] for r in da], n)
        for c in (0, 1, -1, Fraction(2, 3)):
            assert a.scale(c) == _from_dense([[c * x for x in r] for r in da], n)
        assert a.is_zero() == (not any(any(r) for r in da))
        assert a.transpose() == RatMatrix(n, a.rows, [[r[j] for r in da] for j in range(n)])
        assert a.transpose().transpose() == a
        other = _like(rng, RatMatrix.zeros(n, rng.randint(0, 4)), kind)
        do = dense(other)
        assert a @ other == _from_dense(
            [[sum((x * do[k][j] for k, x in enumerate(r) if x), Fraction(0))
              for j in range(other.cols)] for r in da], other.cols)
        # rows picked with repeats and in any order, columns ascending; any
        # other column pick is refused
        ri = [rng.randrange(a.rows) for _ in range(rng.randint(0, 4))] if a.rows else []
        ci = [rng.randrange(n) for _ in range(rng.randint(0, 6))] if n else []
        kept = sorted(set(ci))
        assert a.submatrix(ri, kept) == _from_dense([[da[i][j] for j in kept] for i in ri],
                                                    len(kept))
        if ci != kept:
            with pytest.raises(ValidationError):
                a.submatrix(ri, ci)
        assert a.select_columns(kept) == _from_dense([[r[j] for j in kept] for r in da], len(kept))
        wide = [p + q + p for p, q in zip(da, db)]
        assert RatMatrix.from_blocks(a.rows, 3 * n, [(0, 0, a), (0, n, b), (0, 2 * n, a)]) == (
            _from_dense(wide, 3 * n))
        assert RatMatrix.from_blocks(2 * a.rows, n, [(0, 0, b), (b.rows, 0, a)]) == _from_dense(
            db + da, n)
        small = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
        ds = dense(small)
        assert RatMatrix.kron(a, small) == _from_dense(
            [[x * y for x in ra for y in rs] for ra in da for rs in ds], n * small.cols)
        assert RatMatrix.kron(small, a) == _from_dense(
            [[x * y for x in rs for y in ra] for rs in ds for ra in da], small.cols * n)
        # overlapping blocks: a later block overwrites the columns it spans
        want = [list(r) for r in da]
        blocks = []
        for _ in range(rng.randint(0, 3)):
            blk = rand_matrix(rng, rng.randint(0, a.rows), rng.randint(0, n))
            r0 = rng.randint(0, a.rows - blk.rows)
            c0 = rng.randint(0, n - blk.cols)
            blocks.append((r0, c0, blk))
            for i, row in enumerate(dense(blk)):
                want[r0 + i][c0:c0 + blk.cols] = row
        assert RatMatrix.from_blocks(a.rows, n, [(0, 0, a)] + blocks) == _from_dense(want, n)
        assert [a.row(i) for i in range(a.rows)] == [tuple(r) for r in da]
        for _ in range(4 if a.rows and n else 0):
            i, j = rng.randrange(a.rows), rng.randrange(n)
            assert a[i, j] == da[i][j] and type(a[i, j]) is Fraction
            assert a[i - a.rows, j - n] == da[i][j]
            assert a.transpose().row(j) == tuple(r[j] for r in da)
        assert a.to_json()["entries"] == [[str(x) for x in r] for r in da]
        assert RatMatrix.from_json(a.to_json()) == a


def _sympy_solve(sympy, a, b):
    """sympy's solution of a @ X = b with every free parameter zero, or None."""
    if a.cols == 0 or b.cols == 0:  # sympy refuses both shapes
        return sympy.zeros(a.cols, b.cols) if b.is_zero_matrix else None
    try:
        sol, params = a.gauss_jordan_solve(b)
    except ValueError:
        return None
    return sol.subs({t: 0 for t in params})


def test_sparse_rank_against_sympy():
    # rank, pivot columns, kernel and solve on the same matrices, each read
    # from sympy's own reduced echelon form; the right-hand sides come from
    # a second generator, so the matrices are those the rank check always had
    sympy = pytest.importorskip("sympy")
    rng, rhs_rng = random.Random(11), random.Random(12)

    def to_sympy(m):
        return sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                             for i in range(m.rows) for x in m.row(i)])

    def from_sympy(s):
        return RatMatrix(s.rows, s.cols, [[Fraction(int(x.p), int(x.q)) for x in s.row(i)]
                                          for i in range(s.rows)])

    for kind in KINDS:
        for _ in range(24):
            m = _gen(rng, kind)
            sm = to_sympy(m)
            assert rank(m) == sm.rank()
            assert pivot_columns(m) == sm.rref()[1]
            want = [_dense_primitive(from_sympy(v).transpose().row(0)) for v in sm.nullspace()]
            assert kernel_basis(m) == _from_columns(m.cols, want)
            consistent = m @ _like(rhs_rng, RatMatrix.zeros(m.cols, rhs_rng.randint(0, 3)), kind)
            for rhs in (consistent, _like(rhs_rng, consistent, kind)):
                x = _sympy_solve(sympy, sm, to_sympy(rhs))
                assert solve_matrix(m, rhs) == (None if x is None else from_sympy(x))
    clear_caches()


def test_image_basis_returns_independent_columns_unchanged():
    m = M([[1, 2], [0, 1], [3, 0]])
    assert image_basis(m) is m
    k = kernel_basis(M([[1, 1, 1, 1]]))
    assert image_basis(k) is k
    # a dependent set is still cut down to its pivot columns
    assert image_basis(M([[1, 2], [2, 4]])) == M([[1], [2]])


def test_subquotient_of_boundary_parts_matches_the_glued_boundaries(monkeypatch):
    # B is the image_basis of the glued boundaries, found from the parts
    # alone: under a cap of the largest part the glued matrix is often wider
    rng = random.Random(31)
    wider = 0
    for _ in range(150):
        monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
        n = rng.randint(0, 6)
        cycles = _rand_fraction_matrix(rng, n, rng.randint(0, 6))
        parts = [cycles @ _rand_fraction_matrix(rng, cycles.cols, rng.randint(0, 3))
                 for _ in range(rng.randint(1, 3))]
        offs = list(accumulate((m.cols for m in parts), initial=0))
        glued = RatMatrix.from_blocks(n, offs[-1], [(0, o, m) for o, m in zip(offs, parts)])
        want_b = image_basis(glued)
        want = subquotient(cycles, glued)
        cap = max([n, cycles.cols] + [m.cols for m in parts])
        wider += glued.cols > cap
        monkeypatch.setenv("SPECTRA_DR_MAX_DIM", str(cap))
        got = subquotient(cycles, parts)
        assert got.cycle_basis == want.cycle_basis
        assert got.boundary_basis == want.boundary_basis == want_b
        assert got.representative_basis == want.representative_basis
    assert wider >= 20
    with pytest.raises(ValidationError, match="ambient mismatch"):
        subquotient(RatMatrix.identity(2), (RatMatrix.zeros(2, 1), RatMatrix.zeros(3, 1)))
    with pytest.raises(ValidationError, match="no boundary parts"):
        subquotient(RatMatrix.identity(2), ())


def test_subquotient_takes_boundary_parts_wider_together_than_the_cap(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "3")
    clear_caches()
    z = RatMatrix.identity(3)
    b1, b2 = M([[1, 0], [0, 1], [0, 0]]), M([[1, 1], [1, 1], [0, 0]])
    sq = subquotient(z, (b1, b2))
    assert sq.dim == 1
    assert sq.boundary_basis == b1
    assert sq.representative_basis == M([[0], [0], [1]])
    clear_caches()


def test_products_vanish_matches_the_summed_products():
    rng = random.Random(5)
    vanished = 0
    for _ in range(200):
        n, m = rng.randint(0, 4), rng.randint(0, 4)
        pairs = []
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, 4)
            pairs.append((_rand_fraction_matrix(rng, n, k), _rand_fraction_matrix(rng, k, m)))
        if rng.random() < 0.5:
            pairs += [(f, -g) for f, g in pairs]
        products = [f @ g for f, g in pairs]
        want = sum(products[1:], products[0]).is_zero() if products else True
        vanished += want
        assert products_vanish(*pairs) == want
        assert products_vanish(*pairs, (None, RatMatrix.identity(m)), (None, None)) == want
    assert 50 <= vanished <= 150
    # row-sparse factors against dense products: rows held by one pair's
    # left factor alone, rows cancelled across two pairs ((f a) b against
    # f (a b)), and Kronecker factors with an all-zero or a zero-column
    # factor, whose rows are all zero rows
    rng = random.Random(6)
    lone = cancelled = vanished = 0
    for _ in range(300):
        n, m, k, l = rng.randint(4, 12), rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        f, h = _row_sparse(rng, n, k), _row_sparse(rng, n, k)
        a, b = _rand_fraction_matrix(rng, k, l), _rand_fraction_matrix(rng, l, m)
        g = _row_sparse(rng, k, m) if rng.random() < 0.5 else _rand_fraction_matrix(rng, k, m)
        zero = RatMatrix.zeros(1, rng.randint(0, 2))
        u = _rand_fraction_matrix(rng, n, rng.randint(1, 3))
        fk = RatMatrix.kron(u, zero) if rng.random() < 0.5 else RatMatrix.kron(zero, u)
        assert fk == RatMatrix.zeros(n, u.cols * zero.cols)
        pairs = [(f @ a, b), (f, -(a @ b))] if rng.random() < 0.7 else []
        pairs += [(h, g)] * (rng.random() < 0.6)
        pairs.append((fk, _rand_fraction_matrix(rng, fk.cols, m)))
        rng.shuffle(pairs)
        want = not any(map(any, _dense_product_sum(pairs, n, m)))
        assert products_vanish(*pairs) == want
        assert products_vanish((None, b), *pairs) == want
        # how many left factors hold each row
        held = [sum(map(any, rows)) for rows in zip(*(dense(fl) for fl, _g in pairs))]
        lone += 1 in held
        cancelled += want and max(held) >= 2
        vanished += want
    assert lone >= 100 and cancelled >= 60 and 150 <= vanished <= 270


def _dense_product_sum(pairs, rows, cols):
    """The sum of the products f g over pairs, as dense lists of Fractions."""
    out = [[Fraction(0)] * cols for _ in range(rows)]
    for f, g in pairs:
        dg = dense(g)
        for i, row in enumerate(dense(f)):
            for j in range(cols):
                out[i][j] += sum(x * dg[c][j] for c, x in enumerate(row))
    return out
