"""The model layer's one rule per job against oracles that do not share
its code: wedge_monomials against the parity of the inversions of the
concatenated monomial, the projective-bundle and blowup predictors against
the dense windows of the built products with the hyperplane classes, and a
twist against the block-diagonal copies of its base.  wedge and cup_map, one
right-wedge matrix, are checked against dense matrices built entry by entry
from the labels: each entry's sign is the inversion count's, and its row is
found by a search of the target's label list."""

import warnings
from itertools import combinations

import pytest
from dense import dense, sort_sign, windows
from ladder import every_window, ladder, ladder_windows

from spectra_dr.bicomplex import DoubleComplex, shift2, truncate
from spectra_dr.errors import PreconditionViolation
from spectra_dr.linalg import kernel_basis
from spectra_dr.models import (
    _twist,
    blowup_predict,
    cup_map,
    projective_bundle_predict,
    wedge,
    wedge_monomials,
)
from spectra_dr.tensorops import quad_tensor, ss_collapse

# -- the oracles ------------------------------------------------------------


def inversion_sign(i1, j1, i2, j2):
    """(sign, I, J) of (w^I1 wb^J1) ^ (w^I2 wb^J2) from its definition: the
    sorted monomial puts every w before every wb, each block ascending, and
    the sign is the parity of the inversions of the concatenation; a
    repeated generator gives 0."""
    sign, _ = sort_sign([(0, g) for g in i1] + [(1, g) for g in j1]
                        + [(0, g) for g in i2] + [(1, g) for g in j2])
    if not sign:
        return 0, (), ()
    return sign, tuple(sorted((*i1, *i2))), tuple(sorted((*j1, *j2)))


def right_wedge_rows(model, bideg, alpha_bideg, alpha):
    """Dense rows of x |-> x ^ alpha from bideg to bideg + alpha_bideg, for
    an untwisted alpha, entry by entry: source label (c, s1, I1, J1) times
    base label (_, s2, I2, J2) with coefficient a adds a s1 s2 ws ts at the
    target label (c, ts, I, J), where (ws, I, J) is inversion_sign's and the
    target label is found by searching the list."""
    (a, b), (u, v) = bideg, alpha_bideg
    src, tgt = model.labels.get((a, b), ()), model.labels.get((a + u, b + v), ())
    coeffs = [row[0] for row in dense(alpha)]
    rows = [[0] * len(src) for _ in tgt]
    for col, (c1, s1, i1, j1) in enumerate(src):
        for coeff, (_c2, s2, i2, j2) in zip(coeffs, model.base.labels.get((u, v), ())):
            ws, ii, jj = inversion_sign(i1, j1, i2, j2)
            if coeff and ws:
                pos, ts = next((pos, ts) for pos, (c, ts, i, j) in enumerate(tgt)
                               if (c, i, j) == (c1, ii, jj))
                rows[pos][col] += coeff * s1 * s2 * ws * ts
    return rows


def classes(lo, r):
    """The classes (i, i), lo <= i < r, and no differential: the powers of a
    hyperplane class."""
    return DoubleComplex({(i, i): 1 for i in range(lo, r)})


def built_dims(x, lo, r):
    """Every window of the product of x with the classes (i, i), lo <= i < r,
    built by the quad tensor and read by dense ranks."""
    dims = windows(ss_collapse(quad_tensor(classes(lo, r), x.complex)))
    return lambda w, k: dims(*w).get(k, 0)


def closed_classes(model):
    """(bidegree, column) for a basis of the d1- and d2-closed forms of
    every bidegree of an untwisted model."""
    cx = model.complex
    out = []
    for (u, v) in sorted(cx.dims()):
        z1 = kernel_basis(cx.d1(u, v))
        z = z1 @ kernel_basis(cx.d2(u, v) @ z1)
        out.extend(((u, v), z.select_columns([c])) for c in range(z.cols))
    return out


# -- the bundle predictors --------------------------------------------------


BUNDLE_BASES = ("T1", "T2", "IW", "pt", "T1xIW")  # the bases and centres checked


def test_projective_bundle_predict_is_the_former_loop():
    """P(E) of a trivial rank-r bundle is the product with P^{r-1}."""
    for x in map(ladder().get, BUNDLE_BASES):
        for r in (1, 2, 3):
            built = built_dims(x, 0, r)
            for w in every_window(0, x.n + r - 1):
                for k in range(-1, 2 * (x.n + r) + 1):
                    assert projective_bundle_predict(x, w, k, r) == built(w, k)


def test_blowup_predict_is_the_former_loop():
    """The blowup adds to x the product of the centre with the classes
    (i, i), 0 < i < r."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for y in map(ladder().get, BUNDLE_BASES):
            for r in (2, 3, 4):
                built = built_dims(y, 1, r)
                for name in BUNDLE_BASES:
                    x, here = ladder()[name], ladder_windows(name)
                    for w in every_window(0, x.n):
                        for k in range(-1, 2 * x.n + 2):
                            want = here(*w).get(k, 0) + built(w, k)
                            assert blowup_predict(x, y, w, k, r) == want


def test_the_bundle_preconditions_and_the_warning_stay():
    x, y = ladder()["IW"], ladder()["T1"]
    with pytest.raises(PreconditionViolation, match="bundle rank must be positive, got 0"):
        projective_bundle_predict(x, (0, 1), 1, 0)
    with pytest.raises(PreconditionViolation, match="codimension must be at least 2, got 1"):
        blowup_predict(x, y, (0, 1), 1, 1)
    with pytest.warns(UserWarning, match=r"center dimension 1 \+ codimension 3 != ambient 3"):
        blowup_predict(x, y, (0, 1), 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = ladder_windows("IW")(0, 1).get(1, 0) + built_dims(y, 1, 2)((0, 1), 1)
        assert blowup_predict(x, y, (0, 1), 1, 2) == want


# -- one wedge routine ------------------------------------------------------


def test_wedge_monomials_sorts_as_the_former_merge():
    """Against the inversion count, on every pair of subsets of 4 generators."""
    subsets = [c for size in range(5) for c in combinations(range(4), size)]
    for i1 in subsets:
        for i2 in subsets:
            for j1, j2 in (((), ()), ((0,), (1, 2)), ((1, 3), (0, 2)), ((2,), (2,))):
                assert wedge_monomials(i1, j1, i2, j2) == inversion_sign(i1, j1, i2, j2)
                assert wedge_monomials(j1, i1, j2, i2) == inversion_sign(j1, i1, j2, i2)


@pytest.mark.parametrize("name", ["T2", "IW", "T1xT1"])
def test_wedge_is_the_former_body(name):
    model = ladder()[name]
    classes = closed_classes(model)
    assert len(classes) > 10
    for b1, v1 in classes:
        column = [row[0] for row in dense(v1)]
        for b2, v2 in classes:
            want = [[sum(x * y for x, y in zip(row, column))]
                    for row in right_wedge_rows(model, b1, b2, v2)]
            assert dense(wedge(model, b1, v1, b2, v2)) == want


@pytest.mark.parametrize("name", ["T2", "IW", "T1xT1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cup_map_is_the_former_body(name, m):
    base = ladder()[name]
    model = base.with_twist_rank(m)
    n = model.n
    for (u, v), alpha in closed_classes(base):
        for s, t in ((0, n), (1, n - 1)):
            got = cup_map(model, (s, t), (u, v), alpha)
            assert got.source == truncate(model.complex, (s, t))
            assert got.target == shift2(truncate(model.complex, (s + u, t + u)), u, v)
            for a, b in got.source.dims():
                assert dense(got.mat(a, b)) == right_wedge_rows(model, (a, b), (u, v), alpha)


# -- twists are direct sums -------------------------------------------------


@pytest.mark.parametrize("name", ["T2", "IW", "T1xT1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_twist_is_the_former_kron_build(name, m):
    """A twist of rank m holds m copies of its base, block-diagonally, and
    lists each piece's labels copy by copy."""
    base = ladder()[name]
    got = _twist(base, m)
    cx = base.complex
    assert got.complex.dims() == {key: m * n for key, n in cx.dims().items()}
    for mine, theirs in zip(got.complex._diffs, cx._diffs):
        assert mine.keys() == theirs.keys()
        for key, block in theirs.items():
            rows, cols = block.rows, block.cols
            assert dense(mine[key]) == [
                [x if c // cols == i // rows else 0 for c, x in enumerate(row * m)]
                for i, row in enumerate(dense(block) * m)]
    assert got.labels == {key: tuple((c, *lab[1:]) for c in range(m) for lab in labs)
                          for key, labs in base.labels.items()}
    assert (got.n, got.twist_rank) == (base.n, m)
    assert got.base is (base if m > 1 else base.base)
