import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

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
    _bareiss,
    _integer_rows,
    clear_caches,
    image_basis,
    induced_map,
    kernel_basis,
    pivot_columns,
    products_vanish,
    rank,
    rat_from,
    rat_str,
    solve_matrix,
    subquotient,
)
from spectra_dr.randgen import random_double_complex


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
        rk = rank(m)
        ker = kernel_basis(m)
        im = image_basis(m)
        assert rk == rank(m.transpose())
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


def _three_solve_induced_map(mat, source, target):
    """The original induced_map, kept as an oracle: one solve each for the
    images of the cycles and of the boundaries, then reduce."""
    if solve_matrix(target.cycle_basis, mat @ source.cycle_basis) is None:
        raise NotChainCompatible("map does not send cycles to cycles")
    if solve_matrix(target.boundary_basis, mat @ source.boundary_basis) is None:
        raise NotChainCompatible("map does not send boundaries to boundaries")
    return target.reduce(mat @ source.representative_basis)


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
                assert got == _outcome(_three_solve_induced_map, mat, sq, target)
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
        RatMatrix(1, 3, [0, "0", bad])


def test_zero_literals_give_the_zero_matrix():
    assert RatMatrix(2, 3, [["0"] * 3, ["0"] * 3]) == RatMatrix.zeros(2, 3)
    assert RatMatrix(2, 3, [[0] * 3, [0] * 3]) == RatMatrix.zeros(2, 3)
    assert RatMatrix(2, 2, ["0", 0, "0/7", Fraction(0)]) == RatMatrix.zeros(2, 2)
    assert RatMatrix.from_json({"rows": 1, "cols": 2, "entries": [["0", "0"]]}).is_zero()
    assert M([["0", "-3/6"]]) == M([[0, "-1/2"]])


# -- differential tests: sparse rows against the dense engine -----------------
# The dense elimination engine the sparse one replaced, kept as an oracle.
# It runs on dense lists of Fractions taken through the public row().


def _dense(m):
    return [list(m.row(i)) for i in range(m.rows)]


def _dense_integer_rows(rows):
    out = []
    for r in rows:
        lcm = 1
        for x in r:
            d = x.denominator
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
        out.append([int(x * lcm) if lcm != 1 else x.numerator for x in r])
    return out


def _dense_bareiss(a, nrows, ncols):
    colperm = list(range(ncols))
    prev = 1
    rank = 0
    limit = min(nrows, ncols)
    for r in range(limit):
        best = None
        bi = bj = -1
        for i in range(r, nrows):
            ai = a[i]
            for j in range(r, ncols):
                v = ai[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, bi, bj = av, i, j
                        if av == 1:
                            break
            if best == 1:
                break
        if best is None:
            break
        if bi != r:
            a[r], a[bi] = a[bi], a[r]
        if bj != r:
            for row in a:
                row[r], row[bj] = row[bj], row[r]
            colperm[r], colperm[bj] = colperm[bj], colperm[r]
        piv = a[r][r]
        for i in range(r + 1, nrows):
            ai = a[i]
            head = ai[r]
            if head:
                ar = a[r]
                for j in range(r + 1, ncols):
                    ai[j] = (piv * ai[j] - head * ar[j]) // prev
                ai[r] = 0
            elif prev != 1 or piv != 1:
                for j in range(r + 1, ncols):
                    if ai[j]:
                        ai[j] = piv * ai[j] // prev
        prev = piv
        rank = r + 1
    return rank, colperm, a


def _dense_rref(rows, lead_cols):
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(lead_cols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = Fraction(1) / prow[c]
        if inv != 1:
            rows[r] = prow = [x * inv for x in prow]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, rows


def _dense_elim(m):
    return _dense_bareiss(_dense_integer_rows(_dense(m)), m.rows, m.cols)


def _dense_rank(m):
    return 0 if m.rows == 0 or m.cols == 0 else _dense_elim(m)[0]


def _dense_pivots(m):
    if m.rows == 0 or m.cols == 0:
        return ()
    r, colperm, _ = _dense_elim(m)
    return tuple(sorted(colperm[:r]))


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
    if n == 0:
        return RatMatrix.zeros(0, 0)
    if m.rows == 0:
        return RatMatrix.identity(n)
    r, colperm, a = _dense_elim(m)
    cols = []
    for f in sorted(range(r, n), key=lambda f: colperm[f]):
        y = [Fraction(0)] * n
        y[f] = Fraction(1)
        for i in range(r - 1, -1, -1):
            s = sum((a[i][j] * y[j] for j in range(i + 1, n)), Fraction(0))
            y[i] = -s / a[i][i]
        x = [Fraction(0)] * n
        for j in range(n):
            x[colperm[j]] = y[j]
        cols.append(_dense_primitive(x))
    return RatMatrix(n, len(cols), [list(row) for row in zip(*cols)] if cols else [[]] * n)


def _dense_solve(a, b):
    n, k = a.cols, b.cols
    if k == 0:
        return RatMatrix.zeros(n, 0)
    if a.rows == 0:
        return RatMatrix.zeros(n, k)
    aug = [ra + rb for ra, rb in zip(_dense(a), _dense(b))]
    pivots, rows = _dense_rref(aug, n)
    if any(any(rows[i][n:]) for i in range(len(pivots), a.rows)):
        return None
    out = [[0] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        out[c] = rows[i][n:]
    return RatMatrix(n, k, out)


def _dense_representatives(cycles, boundaries):
    z = cycles.select_columns(_dense_pivots(cycles))
    b = boundaries.select_columns(_dense_pivots(boundaries))
    aug = [rb + rz for rb, rz in zip(_dense(b), _dense(z))]
    pivots, _ = _dense_rref(aug, b.cols + z.cols)
    return z.select_columns([c - b.cols for c in pivots if c >= b.cols])


def _entries(rng, kind):
    if kind == "rational":
        return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5)))
    if kind == "magnitude":
        return rng.choice((-1, 1)) * rng.randint(2, 9) if rng.random() < 0.9 else rng.randint(-1, 1)
    return rng.randint(-3, 3)


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
        m = RatMatrix.block_diag(blocks)
        ri = list(range(m.rows))
        ci = list(range(m.cols))
        rng.shuffle(ri)
        rng.shuffle(ci)
        return m.submatrix(ri, ci)
    r, c = rng.randint(1, 7), rng.randint(1, 7)
    return RatMatrix(r, c, [[_entries(rng, kind) for _ in range(c)] for _ in range(r)])


def _like(rng, m, kind):
    """Another matrix of m's shape."""
    density = 0.1 if kind == "sparse" else 0.5
    return RatMatrix(m.rows, m.cols, [[_entries(rng, kind) if rng.random() < density else 0
                                       for _ in range(m.cols)] for _ in range(m.rows)])


KINDS = ["dense", "sparse", "block", "rational", "zero-shape"]


@pytest.mark.parametrize("kind", KINDS + ["magnitude", "shared-swap"])
def test_elimination_matches_dense_engine(kind):
    rng = random.Random(f"elim-{kind}")
    for _ in range(200):
        m = _gen(rng, kind)
        assert rank(m) == _dense_rank(m)
        assert pivot_columns(m) == _dense_pivots(m)
        assert kernel_basis(m) == _dense_kernel(m)
        consistent = m @ _like(rng, RatMatrix.zeros(m.cols, rng.randint(0, 3)), kind)
        for rhs in (consistent, _like(rng, consistent, kind)):
            assert solve_matrix(m, rhs) == _dense_solve(m, rhs)
        boundaries = m @ _like(rng, RatMatrix.zeros(m.cols, rng.randint(0, 4)), kind)
        sq = subquotient(m, boundaries)
        assert sq.representative_basis == _dense_representatives(m, boundaries)
    clear_caches()


def _eager_bareiss(a, nrows, ncols, lead=None):
    """The column-indexed elimination's predecessor, kept as an oracle: it
    finds every candidate by scanning all remaining rows and scales each row
    a step leaves alone by piv / prev at once."""
    full = lead is None
    if full:
        colperm = list(range(ncols))
        pos = list(range(ncols))
    else:
        held = iter(sorted({c for row in a for c in row if c < lead}))
    pivots = []
    prev = 1
    r = 0
    while r < nrows:
        if full:
            best = None
            bi = bc = bp = -1
            for i in range(r, nrows):
                for c, v in a[i].items():
                    av = abs(v)
                    if best is None or av < best:
                        best, bi, bc, bp = av, i, c, pos[c]
                    elif av == best and i == bi and pos[c] < bp:
                        bc, bp = c, pos[c]
                if best == 1:
                    break
            if best is None:
                break
            if bp != r:
                moved = colperm[r]
                colperm[r], colperm[bp] = bc, moved
                pos[bc], pos[moved] = r, bp
        else:
            for bc in held:
                held_by = [(abs(v), i) for i in range(r, nrows) if (v := a[i].get(bc))]
                if held_by:
                    bi = min(held_by)[1]
                    break
            else:
                break
        a[r], a[bi] = a[bi], a[r]
        prow = a[r]
        piv = prow[bc]
        for i in range(r + 1, nrows):
            row = a[i]
            head = row.pop(bc, 0)
            new = {}
            for c in row.keys() | prow.keys():
                if c != bc:
                    x = (piv * row.get(c, 0) - head * prow.get(c, 0)) // prev
                    if x:
                        new[c] = x
            a[i] = new
        prev = piv
        pivots.append(bc)
        r += 1
    return r, pivots, a


@pytest.mark.parametrize("kind", KINDS + ["magnitude", "shared-swap"])
def test_elimination_gives_the_integers_of_eager_scaling(kind):
    # every pivot, every pivot row and every remaining row, under both pivot
    # rules: the lazy scaling changes no integer and no pivot choice
    rng = random.Random(f"eager-{kind}")
    for _ in range(200):
        m = _gen(rng, kind)
        rhs = _like(rng, RatMatrix.zeros(m.rows, rng.randint(0, 3)), kind)
        width = m.cols + rhs.cols
        for lead in (None, m.cols, width):
            rows = _integer_rows(m, rhs)
            want = _eager_bareiss([dict(r) for r in rows], m.rows, width, lead)
            assert _bareiss(rows, m.rows, width, lead) == want


def _from_dense(rows, cols):
    return RatMatrix(len(rows), cols, rows)


@pytest.mark.parametrize("kind", KINDS)
def test_algebra_matches_dense_lists(kind):
    rng = random.Random(f"algebra-{kind}")
    for _ in range(200):
        a = _gen(rng, kind)
        n, da = a.cols, _dense(a)
        b = _like(rng, a, kind)
        db = _dense(b)
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
        do = _dense(other)
        assert a @ other == _from_dense(
            [[sum((x * do[k][j] for k, x in enumerate(r) if x), Fraction(0))
              for j in range(other.cols)] for r in da], other.cols)
        # rows and columns picked with repeats and in any order
        ri = [rng.randrange(a.rows) for _ in range(rng.randint(0, 4))] if a.rows else []
        ci = [rng.randrange(n) for _ in range(rng.randint(0, 6))] if n else []
        assert a.submatrix(ri, ci) == _from_dense([[da[i][j] for j in ci] for i in ri], len(ci))
        kept = sorted(set(ci))
        assert a.select_columns(kept) == _from_dense([[r[j] for j in kept] for r in da], len(kept))
        wide = [p + q + p for p, q in zip(da, db)]
        assert RatMatrix.hstack([a, b, a]) == _from_dense(wide, 3 * n)
        assert RatMatrix.vstack([b, a]) == _from_dense(db + da, n)
        small = rand_matrix(rng, rng.randint(0, 3), rng.randint(0, 3))
        ds = _dense(small)
        assert RatMatrix.kron(a, small) == _from_dense(
            [[x * y for x in ra for y in rs] for ra in da for rs in ds], n * small.cols)
        # overlapping blocks: a later block overwrites the columns it spans
        want = [list(r) for r in da]
        blocks = []
        for _ in range(rng.randint(0, 3)):
            blk = rand_matrix(rng, rng.randint(0, a.rows), rng.randint(0, n))
            r0 = rng.randint(0, a.rows - blk.rows)
            c0 = rng.randint(0, n - blk.cols)
            blocks.append((r0, c0, blk))
            for i, row in enumerate(_dense(blk)):
                want[r0 + i][c0:c0 + blk.cols] = row
        assert RatMatrix.from_blocks(a.rows, n, [(0, 0, a)] + blocks) == _from_dense(want, n)
        assert [a.row(i) for i in range(a.rows)] == [tuple(r) for r in da]
        for _ in range(4 if a.rows and n else 0):
            i, j = rng.randrange(a.rows), rng.randrange(n)
            assert a[i, j] == da[i][j] and type(a[i, j]) is Fraction
            assert a[i - a.rows, j - n] == da[i][j]
            assert a.col(j) == tuple(r[j] for r in da)
            assert a.col_matrix(j) == a.select_columns([j])
        assert a.to_json()["entries"] == [[rat_str(x) for x in r] for r in da]
        assert RatMatrix.from_json(a.to_json()) == a


def test_sparse_rank_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    for kind in KINDS:
        for _ in range(24):
            m = _gen(rng, kind)
            want = sympy.Matrix(m.rows, m.cols, [sympy.Rational(x.numerator, x.denominator)
                                                 for i in range(m.rows) for x in m.row(i)]).rank()
            assert rank(m) == want
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
        glued = RatMatrix.hstack(parts)
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
