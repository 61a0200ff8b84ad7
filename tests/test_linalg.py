import random
from fractions import Fraction

import pytest

from spectra_dr.errors import (
    ContainmentViolation,
    NotChainCompatible,
    ParseError,
    ValidationError,
)
from spectra_dr.linalg import (
    RatMatrix,
    clear_caches,
    image_basis,
    in_span,
    induced_map,
    kernel_basis,
    pivot_columns,
    rank,
    rat_from,
    rat_str,
    solve_matrix,
    subquotient,
)


def M(rows):
    return RatMatrix.from_rows(rows)


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return RatMatrix(rows, cols, [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)])


# -- scalars --------------------------------------------------------------

def test_rational_parsing():
    assert rat_from("3/4") == Fraction(3, 4)
    assert rat_from("-7") == Fraction(-7)
    assert rat_from(5) == Fraction(5)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(-2)) == "-2"
    with pytest.raises(ParseError):
        rat_from(0.5)
    with pytest.raises(ParseError):
        rat_from("1/0")
    with pytest.raises(ParseError):
        rat_from(True)


# -- matrix basics --------------------------------------------------------

def test_matrix_construction_and_access():
    m = M([[1, 2], [3, "1/2"]])
    assert m.shape == (2, 2)
    assert m[1, 1] == Fraction(1, 2)
    flat = RatMatrix(2, 2, [1, 2, 3, 4])
    assert flat.row(1) == (Fraction(3), Fraction(4))
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
    assert RatMatrix.vstack([a, b]) == M([[1, 2], [3, 4]])
    assert RatMatrix.hstack([a, b]) == M([[1, 2, 3, 4]])
    assert RatMatrix.block_diag([a, b]) == M([[1, 2, 0, 0], [0, 0, 3, 4]])
    k = RatMatrix.kron(M([[1, 2]]), M([[0, 1], [1, 0]]))
    assert k == M([[0, 1, 0, 2], [1, 0, 2, 0]])
    # kron with identity reproduces block structure
    assert RatMatrix.kron(RatMatrix.identity(2), a) == RatMatrix.block_diag([a, a])


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
        RatMatrix.block_diag([RatMatrix.identity(5), RatMatrix.identity(4)])
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError, match="must be an integer"):
        RatMatrix.from_blocks(1, 1, [])
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    clear_caches()


def test_hash_and_eq():
    a = M([[1, 2], [2, 4]])
    b = RatMatrix(2, 2, [1, 2, 2, 4])
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
        RatMatrix.hstack([m, M([[7], [8]])]).submatrix(range(2), range(3)),
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
    # full pivoting picks the cleared entry 2 in column 1, so column 0 is free
    k3 = kernel_basis(M([["1/2", "1/3"]]))
    assert k3 == M([[2], [-3]])


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
    assert in_span(M([[1], [1]]), M([[3], [3]]))
    assert not in_span(M([[1], [1]]), M([[1], [0]]))
    # underdetermined: free variables set to zero
    s = solve_matrix(M([[1, 1]]), M([[4]]))
    assert s == M([[4], [0]])


def test_elimination_random_consistency():
    rng = random.Random(0)
    for _ in range(60):
        r = rng.randint(0, 5)
        c = rng.randint(0, 5)
        m = rand_matrix(rng, r, c)
        rk = rank(m)
        ker = kernel_basis(m)
        im = image_basis(m)
        assert rk == rank(m.transpose())
        assert rk + ker.cols == c
        assert im.cols == rk and rank(im) == rk
        if ker.cols:
            assert (m @ ker).is_zero()
        # every column of m is in the span of the image basis
        assert in_span(im, m)


# -- subquotients ---------------------------------------------------------

def test_subquotient_frozen():
    sq = subquotient(RatMatrix.identity(2), M([[1], [1]]))
    assert sq.dim == 1
    assert sq.ambient_dim == 2
    assert sq.cycle_basis == RatMatrix.identity(2)
    assert sq.boundary_basis == M([[1], [1]])
    assert sq.representative_basis == M([[1], [0]])
    # e0 and e1 are the same class mod (1,1): coordinates 1 and -1
    assert sq.reduce(M([[1], [0]])) == M([[1]])
    assert sq.reduce(M([[0], [1]])) == M([[-1]])


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
    with pytest.raises(ContainmentViolation):
        sq.reduce(M([[1], [0]]))


def _greedy_representatives(z, b):
    """The original representative rule, kept as an oracle: scan the cycle
    basis left to right and keep each column that one solve against the
    boundaries plus the kept columns cannot reach."""
    reps = []
    current = b
    for j in range(z.cols):
        col = z.col_matrix(j)
        if solve_matrix(current, col) is None:
            reps.append(j)
            current = RatMatrix.hstack([current, col])
    return z.select_columns(reps)


def _check_against_greedy(cycles, boundaries):
    sq = subquotient(cycles, boundaries)
    greedy = _greedy_representatives(image_basis(cycles), image_basis(boundaries))
    assert sq.representative_basis == greedy
    assert sq.dim == rank(cycles) - rank(boundaries)
    assert sq.reduce(sq.representative_basis) == RatMatrix.identity(sq.dim)
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
    assert sq.representative_basis == image_basis(z)
    sq = _check_against_greedy(z, z @ RatMatrix.zeros(3, 2))
    assert sq.dim == rank(z) == 2
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
    assert full.reduce(M([[1], [1]])) == RatMatrix.zeros(0, 1)
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
