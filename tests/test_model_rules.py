"""The model layer's one rule per job against oracles that do not share
its code: wedge_monomials against the parity of the inversions of the
concatenated monomial, the projective-bundle and blowup predictors against
the windows of the built products with the hyperplane classes, and a twist
against the block-diagonal copies of its base.  wedge and cup_map, one
right-wedge matrix, are checked against the term-by-term bodies they
replaced, which take their sign from the inversion count."""

import warnings
from itertools import combinations

import pytest
from dense import dense

from spectra_dr.bicomplex import BicomplexMap, DoubleComplex, shift2, truncate
from spectra_dr.errors import PreconditionViolation
from spectra_dr.linalg import F0, RatMatrix, kernel_basis
from spectra_dr.models import (
    _twist,
    blowup_predict,
    cup_map,
    iwasawa_spec,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
    wedge,
    wedge_monomials,
)
from spectra_dr.tensorops import quad_tensor, ss_collapse
from spectra_dr.truncation import hyper_dims

# -- the oracles ------------------------------------------------------------


def inversion_sign(i1, j1, i2, j2):
    """(sign, I, J) of (w^I1 wb^J1) ^ (w^I2 wb^J2) from its definition: the
    sorted monomial puts every w before every wb, each block ascending, and
    the sign is the parity of the inversions of the concatenation; a
    repeated generator gives 0."""
    seq = [(0, g) for g in i1] + [(1, g) for g in j1] + [(0, g) for g in i2] + [(1, g) for g in j2]
    if len(set(seq)) < len(seq):
        return 0, (), ()
    inversions = sum(a > b for x, a in enumerate(seq) for b in seq[x + 1:])
    return ((-1) ** inversions, tuple(sorted((*i1, *i2))), tuple(sorted((*j1, *j2))))


def old_wedge(model, bideg1, v1, bideg2, v2):
    p1, q1 = bideg1
    p2, q2 = bideg2
    tp, tq = p1 + p2, q1 + q2
    out = [F0] * model.dim(tp, tq)
    look = model.lookup(tp, tq)
    for a, (_c1, s1, i1, j1) in enumerate(model.labels.get((p1, q1), ())):
        ca = v1[a, 0]
        if not ca:
            continue
        for b, (_c2, s2, i2, j2) in enumerate(model.labels.get((p2, q2), ())):
            cb = v2[b, 0]
            if not cb:
                continue
            ws, ii, jj = inversion_sign(i1, j1, i2, j2)
            if not ws:
                continue
            pos, ts = look[(0, ii, jj)]
            out[pos] += ca * cb * (s1 * s2 * ws * ts)
    return RatMatrix.column(out)


def old_cup_map(model, window, alpha_bidegree, alpha):
    u, v = alpha_bidegree
    s, t = window
    src = truncate(model.complex, (s, t))
    tgt = shift2(truncate(model.complex, (s + u, t + u)), u, v)
    alabs = model.base.labels[(u, v)]
    mats = {}
    for (a, b), cols in src.dims().items():
        rows = model.dim(a + u, b + v)
        if rows == 0:
            continue
        look = model.lookup(a + u, b + v)
        out = [[F0] * cols for _ in range(rows)]
        for col, (c1, s1, i1, j1) in enumerate(model.labels[(a, b)]):
            for pos_a, (_c2, s2, i2, j2) in enumerate(alabs):
                coeff = alpha[pos_a, 0]
                if not coeff:
                    continue
                ws, ii, jj = inversion_sign(i1, j1, i2, j2)
                if not ws:
                    continue
                pos, ts = look[(c1, ii, jj)]
                out[pos][col] += coeff * (s1 * s2 * ws * ts)
        mats[(a, b)] = RatMatrix(rows, cols, out)
    return BicomplexMap(src, tgt, mats)


def classes(lo, r):
    """The classes (i, i), lo <= i < r, and no differential: the powers of a
    hyperplane class."""
    return DoubleComplex({(i, i): 1 for i in range(lo, r)})


def built_dims(x, lo, r):
    """Every window of the product of x with the classes (i, i), lo <= i < r,
    built by the quad tensor and read by the barcode."""
    prod = ss_collapse(quad_tensor(classes(lo, r), x.complex))
    return lambda w, k: hyper_dims(prod, w).get(k, 0)


# -- the models -------------------------------------------------------------


@pytest.fixture(scope="module")
def models():
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    return {"T1": t1, "T2": t2, "IW": iw, "pt": point_model(), "T1xIW": product_model(t1, iw),
            "T1xT1": product_model(t1, t1)}


def windows(n):
    return [(s, t) for s in range(-1, n + 2) for t in range(-1, n + 2)]


def closed_classes(model):
    """(bidegree, column) for a basis of the d1- and d2-closed forms of
    every bidegree of an untwisted model."""
    cx = model.complex
    out = []
    for (u, v) in sorted(cx.dims()):
        z1 = kernel_basis(cx.d1(u, v))
        z = z1 @ kernel_basis(cx.d2(u, v) @ z1)
        out.extend(((u, v), z.col_matrix(c)) for c in range(z.cols))
    return out


# -- the bundle predictors --------------------------------------------------


def bundle_bases(models):
    """T1, T2, IW, the point and T1xIW: the bases and centres checked."""
    return [models[name] for name in ("T1", "T2", "IW", "pt", "T1xIW")]


def test_projective_bundle_predict_is_the_former_loop(models):
    """P(E) of a trivial rank-r bundle is the product with P^{r-1}."""
    for x in bundle_bases(models):
        for r in (1, 2, 3):
            built = built_dims(x, 0, r)
            for w in windows(x.n + r - 1):
                for k in range(-1, 2 * (x.n + r) + 1):
                    assert projective_bundle_predict(x, w, k, r) == built(w, k)


def test_blowup_predict_is_the_former_loop(models):
    """The blowup adds to x the product of the centre with the classes
    (i, i), 0 < i < r."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in bundle_bases(models):
            for y in bundle_bases(models):
                for r in (2, 3, 4):
                    built = built_dims(y, 1, r)
                    for w in windows(x.n):
                        here = hyper_dims(x.complex, w)
                        for k in range(-1, 2 * x.n + 2):
                            assert blowup_predict(x, y, w, k, r) == here.get(k, 0) + built(w, k)


def test_the_bundle_preconditions_and_the_warning_stay(models):
    x, y = models["IW"], models["T1"]
    with pytest.raises(PreconditionViolation, match="bundle rank must be positive, got 0"):
        projective_bundle_predict(x, (0, 1), 1, 0)
    with pytest.raises(PreconditionViolation, match="codimension must be at least 2, got 1"):
        blowup_predict(x, y, (0, 1), 1, 1)
    with pytest.warns(UserWarning, match=r"center dimension 1 \+ codimension 3 != ambient 3"):
        blowup_predict(x, y, (0, 1), 1, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = hyper_dims(x.complex, (0, 1)).get(1, 0) + built_dims(y, 1, 2)((0, 1), 1)
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
def test_wedge_is_the_former_body(models, name):
    model = models[name]
    classes = closed_classes(model)
    assert len(classes) > 10
    for b1, v1 in classes:
        for b2, v2 in classes:
            assert wedge(model, b1, v1, b2, v2) == old_wedge(model, b1, v1, b2, v2)


@pytest.mark.parametrize("name", ["T2", "IW", "T1xT1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_cup_map_is_the_former_body(models, name, m):
    base = models[name]
    model = base.with_twist_rank(m)
    n = model.n
    for bideg, alpha in closed_classes(base):
        for window in ((0, n), (1, n - 1)):
            assert cup_map(model, window, bideg, alpha) == old_cup_map(model, window, bideg, alpha)


# -- twists are direct sums -------------------------------------------------


@pytest.mark.parametrize("name", ["T2", "IW", "T1xT1"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_twist_is_the_former_kron_build(models, name, m):
    """A twist of rank m holds m copies of its base, block-diagonally, and
    lists each piece's labels copy by copy."""
    base = models[name]
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
