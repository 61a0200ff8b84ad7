"""The model layer's one rule per job against the bodies it replaced: the
projective-bundle and blowup predictors are Leray-Hirsch sums, wedge and
cup_map are one right-wedge matrix, wedge_monomials sorts through
_sort_sign, and a twist is a direct sum of copies.  The former bodies are
kept here as oracles."""

import warnings
from itertools import combinations

import pytest

from spectra_dr.bicomplex import BicomplexMap, DoubleComplex, shift2, truncate
from spectra_dr.errors import PreconditionViolation
from spectra_dr.linalg import F0, RatMatrix, kernel_basis
from spectra_dr.models import (
    ModelDoubleComplex,
    _twist,
    blowup_predict,
    cup_map,
    hyper,
    iwasawa_spec,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
    wedge,
    wedge_monomials,
)

# -- the hand-written bodies, kept as oracles -------------------------------


def old_merge_sign(a, b):
    sign = 1
    out = []
    i, j = 0, 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return 0, ()
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return sign, tuple(out)


def old_wedge_monomials(i1, j1, i2, j2):
    s1, ii = old_merge_sign(tuple(i1), tuple(i2))
    if not s1:
        return 0, (), ()
    s2, jj = old_merge_sign(tuple(j1), tuple(j2))
    if not s2:
        return 0, (), ()
    sign = s1 * s2
    if (len(j1) * len(i2)) % 2:
        sign = -sign
    return sign, ii, jj


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
            ws, ii, jj = old_wedge_monomials(i1, j1, i2, j2)
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
                ws, ii, jj = old_wedge_monomials(i1, j1, i2, j2)
                if not ws:
                    continue
                pos, ts = look[(c1, ii, jj)]
                out[pos][col] += coeff * (s1 * s2 * ws * ts)
        mats[(a, b)] = RatMatrix(rows, cols, out)
    return BicomplexMap(src, tgt, mats)


def old_twist(base, m):
    if m == 1:
        return base
    ident = RatMatrix.identity(m)
    dims = {key: m * d for key, d in base.complex.dims().items()}
    d1 = {key: RatMatrix.kron(ident, mat) for key, mat in base.complex._d1.items()}
    d2 = {key: RatMatrix.kron(ident, mat) for key, mat in base.complex._d2.items()}
    labels = {key: tuple((c, s, i, j) for c in range(m) for (_c, s, i, j) in labs)
              for key, labs in base.labels.items()}
    return ModelDoubleComplex(base.n, m, DoubleComplex(dims, d1, d2), labels, base)


def old_projective(x, window, k, r):
    s, t = window
    return sum(hyper(x, (s - i, t - i), k - 2 * i) for i in range(r))


def old_blowup(x, y, window, k, r):
    s, t = window
    return hyper(x, (s, t), k) + sum(hyper(y, (s - i, t - i), k - 2 * i) for i in range(1, r))


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
    for x in bundle_bases(models):
        for r in (1, 2, 3):
            for w in windows(x.n + r - 1):
                for k in range(-1, 2 * (x.n + r) + 1):
                    assert projective_bundle_predict(x, w, k, r) == old_projective(x, w, k, r)


def test_blowup_predict_is_the_former_loop(models):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for x in bundle_bases(models):
            for y in bundle_bases(models):
                for r in (2, 3, 4):
                    for w in windows(x.n):
                        for k in range(-1, 2 * x.n + 2):
                            assert blowup_predict(x, y, w, k, r) == old_blowup(x, y, w, k, r)


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
        assert blowup_predict(x, y, (0, 1), 1, 2) == old_blowup(x, y, (0, 1), 1, 2)


# -- one wedge routine ------------------------------------------------------


def test_wedge_monomials_sorts_as_the_former_merge():
    subsets = [c for size in range(5) for c in combinations(range(4), size)]
    for i1 in subsets:
        for i2 in subsets:
            for j1, j2 in (((), ()), ((0,), (1, 2)), ((1, 3), (0, 2)), ((2,), (2,))):
                assert wedge_monomials(i1, j1, i2, j2) == old_wedge_monomials(i1, j1, i2, j2)
                assert wedge_monomials(j1, i1, j2, i2) == old_wedge_monomials(j1, i1, j2, i2)


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
    base = models[name]
    got, want = _twist(base, m), old_twist(base, m)
    assert got.complex == want.complex
    assert got.complex.to_json() == want.complex.to_json()
    assert got.labels == want.labels
    assert (got.n, got.twist_rank, got.base) == (want.n, want.twist_rank, base)
