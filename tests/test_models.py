import hashlib
import json
import random
import re
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from dense import collapsed, convolve, dense, right, up, windows
from dense import rank as dense_rank
from ladder import ladder_windows

from spectra_dr import cli, models
from spectra_dr.bicomplex import (
    BicomplexMap,
    DoubleComplex,
    column_complex,
    direct_sum2,
    row_complex,
    total,
    total_map,
)
from spectra_dr.cochain import (
    ChainMap,
    betti_numbers,
    cohomology_dim,
    direct_sum,
    is_cohomology_iso,
)
from spectra_dr.errors import (
    IntegralNotClosed,
    JacobiViolation,
    NotClosed,
    ParseError,
    PreconditionViolation,
    ValidationError,
)
from spectra_dr.linalg import F0, RatMatrix, clear_caches
from spectra_dr.models import (
    BUILTIN_SPECS,
    LieModelSpec,
    blowup_predict,
    bott_chern_dim,
    cup_map,
    degeneration_equivalence,
    duality_map,
    hodge_filtration_projective_predict,
    integral,
    iwasawa_spec,
    kunneth_predict,
    leray_hirsch_predict,
    lie_model,
    point_model,
    product_model,
    projective_bundle_predict,
    torus_model,
    wedge,
)
from spectra_dr.spectral import limit_page, stabilization_index
from spectra_dr.tensorops import QuadComplex, tensor
from spectra_dr.truncation import (
    column_cohomology_dim,
    frolicher_is_equality,
    hodge_filtration_dims,
    hyper_dims,
    hypercohomology,
)


@pytest.fixture(scope="module")
def iw():
    return lie_model(iwasawa_spec())


def unit(n, i):
    return RatMatrix.from_rows([[int(k == i)] for k in range(n)], 1)


# -- torus ----------------------------------------------------------------


def test_torus_dims():
    t2 = torus_model(2)
    assert t2.dim(1, 1) == 4
    assert t2.dim(0, 2) == 1
    assert betti_numbers(total(t2.complex)) == {0: 1, 1: 4, 2: 6, 3: 4, 4: 1}
    assert hypercohomology(t2.complex, (1, 2), 2) == 5
    assert hodge_filtration_dims(t2.complex, 1, 2) == [4, 2, 0, 0]


def test_torus_every_window_degenerates():
    t2 = torus_model(2)
    for s in range(3):
        for t in range(s, 3):
            assert frolicher_is_equality(t2.complex, (s, t))


def test_point():
    pt = point_model()
    assert pt.complex.dims() == {(0, 0): 1}
    assert hypercohomology(pt.complex, (0, 0), 0) == 1


@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("m", range(1, 4))
def test_torus_models_are_the_bare_exterior_algebra(n, m):
    """No block stored, dims C(n,p) C(n,q) m, and in each copy of the twist
    the labels are the exterior monomials w^I wb^J, I before J, in the
    order combinations gives."""
    model = torus_model(n, m)
    assert model.complex.to_json()["d1"] == model.complex.to_json()["d2"] == {}
    assert model.complex.dims() == {(p, q): comb(n, p) * comb(n, q) * m
                                    for p in range(n + 1) for q in range(n + 1)}
    assert model.labels.keys() == model.complex.dims().keys()
    for (p, q), labs in model.labels.items():
        assert labs == tuple((c, 1, i, j) for c in range(m)
                             for i in combinations(range(n), p)
                             for j in combinations(range(n), q))


def test_a_torus_walks_no_derivation(monkeypatch):
    calls = []
    real = models._d_monomial
    monkeypatch.setattr(models, "_d_monomial",
                        lambda gen_d, mono: calls.append(mono) or real(gen_d, mono))
    torus_model(4, 2)
    point_model(3)
    assert calls == []
    lie_model(iwasawa_spec())  # positive control: a Lie model does walk it
    assert calls


# -- spec validation ------------------------------------------------------


def test_spec_rejects_antiholomorphic_square():
    with pytest.raises(ValidationError):
        LieModelSpec(2, {1: [(-1, -2, 1)]})


def test_spec_rejects_bad_tokens():
    with pytest.raises(ValidationError):
        LieModelSpec(2, {1: [(1, 3, 1)]})
    with pytest.raises(ValidationError):
        LieModelSpec(2, {1: [(2, 2, 1)]})
    with pytest.raises(ValidationError):
        LieModelSpec(2, {3: [(1, 2, 1)]})


def test_spec_json_round_trip():
    """The Iwasawa spec as a spec file writes it reads back to iwasawa_spec."""
    spec = iwasawa_spec()
    obj = {
        "n": 3,
        "twist_rank": 1,
        "d": {"3": [{"wedge": [1, 2], "coeff": "-1"}]},
    }
    again = LieModelSpec.from_json(obj)
    assert (again.n, again.twist_rank, again.images) == (spec.n, spec.twist_rank, spec.images)


def test_spec_from_json_errors():
    with pytest.raises(ParseError):
        LieModelSpec.from_json([])
    with pytest.raises(ParseError):
        LieModelSpec.from_json({"n": 2, "d": {"x": []}})
    with pytest.raises(ParseError):
        LieModelSpec.from_json({"n": 2, "d": {"1": [{"wedge": [1]}]}})


def test_jacobi_violation():
    # d(w^3) = w^1 w^2 while d(w^1) = w^1 wb^1 leaves d^2 w^3 nonzero
    spec = LieModelSpec(3, {1: [(1, -1, 1)], 3: [(1, 2, 1)]})
    with pytest.raises(JacobiViolation):
        lie_model(spec)


def test_builtins():
    assert set(BUILTIN_SPECS) == {"iwasawa"}


# -- iwasawa --------------------------------------------------------------


def test_iwasawa_structure(iw):
    # dw^3 = -w^1 w^2 shows up in d1 at (1,0); conjugate in d2 at (0,1)
    minus = [["0", "0", "-1"], ["0", "0", "0"], ["0", "0", "0"]]
    assert iw.complex.d1(1, 0).to_json()["entries"] == minus
    assert iw.complex.d2(0, 1).to_json()["entries"] == minus
    assert iw.complex.d2(1, 0).is_zero()


def test_iwasawa_column_numbers(iw):
    assert column_cohomology_dim(iw.complex, 1, 0) == 3
    assert column_cohomology_dim(iw.complex, 0, 1) == 2
    assert cohomology_dim(total(iw.complex), 1) == 4
    assert {q: column_cohomology_dim(iw.complex, 1, q) for q in range(4)} == {
        0: 3, 1: 6, 2: 6, 3: 3}


def test_iwasawa_window_tables(iw):
    assert hyper_dims(iw.complex, (0, 3)) == {
        0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1,
    }
    assert hyper_dims(iw.complex, (0, 2)) == {
        0: 1, 1: 4, 2: 8, 3: 9, 4: 6, 5: 2,
    }
    assert hyper_dims(iw.complex, (1, 2)) == {1: 2, 2: 6, 3: 8, 4: 6, 5: 2}


def test_iwasawa_frolicher_flags(iw):
    flags = {
        (s, t): frolicher_is_equality(iw.complex, (s, t))
        for s in range(4)
        for t in range(s, 4)
    }
    assert flags == {
        (0, 0): True, (0, 1): True, (0, 2): False, (0, 3): False,
        (1, 1): True, (1, 2): False, (1, 3): False,
        (2, 2): True, (2, 3): True, (3, 3): True,
    }


def test_iwasawa_bott_chern(iw):
    assert bott_chern_dim(iw.complex, 1, 0) == 2
    assert bott_chern_dim(iw.complex, 0, 1) == 2
    assert bott_chern_dim(iw.complex, 1, 1) == 4
    assert bott_chern_dim(iw.complex, 2, 2) == 8
    assert bott_chern_dim(iw.complex, 0, 0) == 1


# -- wedge / integral -----------------------------------------------------


def test_wedge_frozen_sign(iw):
    v = wedge(iw, (1, 0), unit(3, 1), (1, 0), unit(3, 0))
    assert [v[r, 0] for r in range(3)] == [Fraction(-1), F0, F0]
    assert wedge(iw, (1, 0), unit(3, 0), (1, 0), unit(3, 0)).is_zero()


def test_wedge_graded_commutativity(iw):
    rng = random.Random(505)
    bidegs = [(1, 0), (0, 1), (1, 1), (2, 0)]
    for _ in range(10):
        b1 = bidegs[rng.randrange(len(bidegs))]
        b2 = bidegs[rng.randrange(len(bidegs))]
        v1 = RatMatrix.from_rows([[rng.randint(-3, 3)] for _ in range(iw.dim(*b1))], 1)
        v2 = RatMatrix.from_rows([[rng.randint(-3, 3)] for _ in range(iw.dim(*b2))], 1)
        lhs = wedge(iw, b1, v1, b2, v2)
        rhs = wedge(iw, b2, v2, b1, v1)
        sign = (-1) ** (sum(b1) * sum(b2))
        assert lhs == (rhs if sign == 1 else -rhs)


def test_wedge_needs_untwisted():
    with pytest.raises(PreconditionViolation):
        wedge(torus_model(1, 2), (0, 0), unit(2, 0), (0, 0), unit(2, 0))


def test_integral(iw):
    assert integral(iw, unit(1, 0)) == 1
    # Stokes: d of anything in (2,3) and (3,2) has zero integral
    for (a, b) in ((2, 3), (3, 2)):
        d = iw.complex.d1(a, b) if a == 2 else iw.complex.d2(a, b)
        for col in range(iw.dim(a, b)):
            assert integral(iw, d.select_columns([col])) == 0


# -- cup maps -------------------------------------------------------------


def test_cup_rejects_non_closed(iw):
    with pytest.raises(NotClosed):
        cup_map(iw, (0, 3), (1, 0), unit(3, 2))  # dw^3 != 0


def test_cup_by_one_is_identity(iw):
    cm = cup_map(iw, (0, 3), (0, 0), unit(1, 0))
    for (p, q) in iw.complex.dims():
        assert cm.mat(p, q) == RatMatrix.identity(iw.dim(p, q))


def test_cup_frozen_matrix(iw):
    cm = cup_map(iw, (0, 3), (1, 0), unit(3, 0))
    assert cm.mat(1, 0).to_json()["entries"] == [
        ["0", "-1", "0"], ["0", "0", "-1"], ["0", "0", "0"],
    ]
    # window shifts right by the holomorphic degree of the class
    assert cm.target.dim(3, 0) == 0
    assert cm.target.dim(0, 0) == iw.dim(1, 0)


# -- duality --------------------------------------------------------------


def test_duality_bijective(iw):
    for w in [(0, 3), (0, 1), (1, 2), (2, 2)]:
        assert is_cohomology_iso(total_map(duality_map(iw, w)))


def test_duality_dimension_symmetry(iw):
    n = 3
    for s in range(4):
        for t in range(s, 4):
            for k in range(0, 2 * n + 1):
                lhs = hypercohomology(iw.complex, (s, t), k)
                rhs = ladder_windows("IW")(n - t, n - s).get(2 * n - k, 0)
                assert lhs == rhs, (s, t, k)


def test_duality_torus():
    t1 = torus_model(1)
    for w in [(0, 1), (0, 0), (1, 1)]:
        assert is_cohomology_iso(total_map(duality_map(t1, w)))


def test_duality_needs_stokes():
    # dw^1 = w^1 wb^1 is not unimodular: the top-degree integral leaks
    bad = lie_model(LieModelSpec(1, {1: [(1, -1, 1)]}))
    with pytest.raises(IntegralNotClosed):
        duality_map(bad, (0, 1))


# -- products -------------------------------------------------------------


def test_product_of_circles_is_torus():
    t1 = torus_model(1)
    t2 = torus_model(2)
    pm = product_model(t1, t1)
    assert pm.n == 2
    assert pm.complex.dims() == t2.complex.dims()
    for s in range(3):
        for t in range(s, 3):
            assert hyper_dims(pm.complex, (s, t)) == ladder_windows("T2")(s, t)


def test_product_with_point_is_identity(iw):
    pt = point_model()
    for pm in (product_model(pt, iw), product_model(iw, pt)):
        assert pm.complex == iw.complex
        assert pm.labels == iw.labels


def test_product_matches_direct_model(iw):
    # relabeling the T^1 x Iwasawa product generators gives the n=4 spec
    # with d(w^4) = -w^2 w^3; the label-driven signed permutation must be
    # a bijective map of double complexes
    prod = product_model(torus_model(1), iw)
    direct = lie_model(LieModelSpec(4, {4: [(2, 3, "-1")]}))
    mats = {}
    for (p, q) in prod.complex.dims():
        rows, cols = direct.dim(p, q), prod.dim(p, q)
        out = [[F0] * cols for _ in range(rows)]
        look = direct.lookup(p, q)
        for i, (c, s, ii, jj) in enumerate(prod.labels[(p, q)]):
            j, s2 = look[(c, ii, jj)]
            out[j][i] = F0 + s * s2
        mats[(p, q)] = RatMatrix(rows, cols, out)
    iso = BicomplexMap(prod.complex, direct.complex, mats)
    assert all(
        dense_rank(iso.mat(p, q)) == direct.dim(p, q)
        for (p, q) in direct.complex.dims()
    )


def test_kunneth_predict_spot(iw):
    t1 = torus_model(1)
    for window in [(0, 2), (1, 3), (2, 2)]:
        for c in range(0, 9):
            assert ladder_windows("T1xIW")(*window).get(c, 0) == kunneth_predict(t1, iw, window, c)


@pytest.mark.parametrize("x", ["point", "T1", "T2", "torus:1:2"])
@pytest.mark.parametrize("y", ["T1", "IW"])
def test_kunneth_predict_is_the_built_product_on_every_window(iw, x, y):
    """x's classes come from its barcode; torus:1:2 has each class twice."""
    x = {"point": point_model(), "T1": torus_model(1), "T2": torus_model(2),
         "torus:1:2": torus_model(1, 2)}[x]
    y = torus_model(1) if y == "T1" else iw
    prod = product_model(x, y)
    n, built = prod.n, windows(prod.complex)
    for s in range(-1, n + 2):
        for t in range(-1, n + 2):
            dims = built(s, t)
            for c in range(-1, 2 * n + 2):
                assert kunneth_predict(x, y, (s, t), c) == dims.get(c, 0)


@pytest.mark.parametrize("y", ["T1", "point"])
def test_kunneth_refuses_a_first_factor_that_does_not_degenerate(iw, y):
    y = torus_model(1) if y == "T1" else point_model()
    assert stabilization_index(iw.complex) == 2
    with pytest.raises(PreconditionViolation, match=re.escape(
            "kunneth needs a first factor that degenerates at E_1, but the first "
            "factor's spectral sequence stabilizes at page 2")):
        kunneth_predict(iw, y, (0, 2), 1)


def test_the_kunneth_formula_misses_where_it_is_refused(iw):
    """Why IW x T1 is refused: the sum over IW's E_1 classes gives 7 in
    window (0,2), degree 1, and the built product has 6."""
    t1 = torus_model(1)
    classes = [(w, a - w) for w in range(4) for a in range(7)
               for _ in range(ladder_windows("IW")(w, w).get(a, 0))]
    assert leray_hirsch_predict(t1, (0, 2), 1, classes) == 7
    assert hypercohomology(product_model(iw, t1).complex, (0, 2), 1) == 6


def test_leray_hirsch_takes_repeats_or_multiplicities(iw):
    window, k = (1, 2), 4
    dims = ladder_windows("IW")
    want = 2 * dims(1, 2).get(4, 0) + dims(0, 1).get(2, 0)
    assert leray_hirsch_predict(iw, window, k, [(0, 0), (1, 1), (0, 0)]) == want
    assert leray_hirsch_predict(iw, window, k, {(0, 0): 2, (1, 1): 1}) == want
    # a class off the diagonal shifts the window by its first index alone
    assert leray_hirsch_predict(iw, window, k, [(1, 0)]) == dims(0, 1).get(3, 0) == 7


def test_kunneth_reads_each_window_of_the_second_factor_once(monkeypatch, iw):
    """Kunneth is Leray-Hirsch over y with x's classes read from x's barcode:
    y's windows are those of the former double loop, each read once, a class
    that x has several times is read once, and x gets no window read."""
    t2 = torus_model(2)
    reads = []
    real = models.hypercohomology
    monkeypatch.setattr(models, "hypercohomology",
                        lambda cx, w, k: reads.append((cx is iw.complex, w, k)) or real(cx, w, k))
    value = kunneth_predict(t2, iw, (1, 3), 4)
    former = set()
    total = 0
    for w in range(3):
        for a in range(5):
            hx = ladder_windows("T2")(w, w).get(a, 0)
            if hx:
                former.add((True, (1 - w, 3 - w), 4 - a))
                total += hx * ladder_windows("IW")(1 - w, 3 - w).get(4 - a, 0)
    assert value == total
    assert set(reads) == former
    assert len(reads) == len(former)


def test_iwasawa_squared_betti_numbers_follow_kunneth(iw):
    betti_iw = {0: 1, 1: 4, 2: 8, 3: 10, 4: 8, 5: 4, 6: 1}
    assert betti_numbers(total(iw.complex)) == betti_iw == ladder_windows("IW")(0, 3)
    prod = product_model(iw, iw)
    assert prod.complex.total_dim() == 4096
    assert betti_numbers(total(prod.complex)) == convolve(betti_iw, betti_iw)


def test_t2_iwasawa_spectral_sequence_stabilizes_at_page_2(iw):
    t2 = torus_model(2)
    prod = product_model(t2, iw)
    assert stabilization_index(prod.complex) == 2
    antidiagonals = {}
    for (p, q), n in limit_page(prod.complex).dims().items():
        antidiagonals[p + q] = antidiagonals.get(p + q, 0) + n
    betti = betti_numbers(total(prod.complex))
    assert antidiagonals == betti
    assert betti == convolve(ladder_windows("T2")(0, 2), ladder_windows("IW")(0, 3))


def test_iwasawa_squared_spectral_sequence_stabilizes_at_page_2(iw):
    prod = product_model(iw, iw)
    assert stabilization_index(prod.complex) == 2
    antidiagonals = {}
    for (p, q), n in limit_page(prod.complex).dims().items():
        antidiagonals[p + q] = antidiagonals.get(p + q, 0) + n
    betti_iw = dict(enumerate((1, 4, 8, 10, 8, 4, 1)))
    assert antidiagonals == betti_numbers(total(prod.complex)) == convolve(betti_iw, betti_iw)


# -- labels on demand -----------------------------------------------------


@pytest.fixture()
def products_spied(monkeypatch):
    """The label builders product_model makes, in order; a builder keeps
    its result, so its cache_info().misses counts its runs."""
    made = []
    real = models._product_labels

    def spied(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(models, "_product_labels", spied)
    return made


def _runs(made):
    return [build.cache_info().misses for build in made]


def test_a_product_builds_its_labels_on_first_read_only(products_spied, capsys, iw):
    made = products_spied
    t1 = torus_model(1)
    prod = product_model(t1, iw)
    for args in (("torus:1", "lie:iwasawa"), ("torus:2", "lie:iwasawa"),
                 ("torus:1:2", "lie:iwasawa")):
        for info in ((), ("--info",)):
            assert cli.main(["model", "product", "--left", args[0], "--right", args[1],
                             *info]) == 0
            capsys.readouterr()
    hyper_dims(prod.complex, (1, 3))
    kunneth_predict(t1, prod, (1, 3), 3)
    betti_numbers(total(prod.complex))
    # a twisted product builds its rank-1 base with it, so T1:2xIW makes two
    assert len(made) == 9 and not any(_runs(made))
    labels = prod.labels
    assert _runs(made)[0] == 1
    assert prod.labels is labels and prod.lookup(1, 1) and sum(_runs(made)) == 1


def test_a_twist_of_an_unread_product_builds_its_labels_once(products_spied, iw):
    """The base's labels and the twist's, read in either order, run the
    product's builder once; the twist's copies are the base's.  A twist's
    builder, read by a product and by its own model, runs once too."""
    made = products_spied
    for order in ((0, 1), (1, 0)):
        made.clear()
        tw = product_model(torus_model(1), iw).with_twist_rank(2)
        for k in order:
            (tw.base, tw)[k].labels
        assert _runs(made) == [1]
        assert tw.labels == {key: tuple((c, s, i, j) for c in range(2) for _c, s, i, j in labs)
                             for key, labs in tw.base.labels.items()}
    # and a twisted factor's labels, read by a product and then by itself
    x = torus_model(1, 2)
    build = x._labels
    product_model(x, iw).labels
    assert x.labels is build() and build.cache_info().misses == 1


def test_a_labels_dict_that_misses_a_piece_is_refused_by_bidegree():
    cx = torus_model(1).complex
    labels = {key: labs for key, labs in torus_model(1).labels.items() if key != (1, 1)}
    with pytest.raises(ValidationError, match=re.escape("mismatch at (1,1): 0 labels for dim 1")):
        models.ModelDoubleComplex(1, 1, cx, labels)
    derived = models.ModelDoubleComplex(1, 1, cx, lambda: labels)  # checked when read
    with pytest.raises(ValidationError, match=re.escape("mismatch at (1,1)")):
        derived.labels
    extra = {**torus_model(1).labels, (2, 0): ((0, 1, (0, 1), ()),)}
    with pytest.raises(ValidationError, match=re.escape("mismatch at (2,0): 1 labels for dim 0")):
        models.ModelDoubleComplex(1, 1, cx, extra)


# sha256 over every cup map by a closed (1, 0) or (0, 1) unit class and every
# duality map of T1xIW, window by window, and the wedges of the (1, 0) units
# with the (0, 1) ones, as the labels built at construction gave them
LABEL_CALCULUS_DIGEST = "556cc6854aedf1c60c02f62d243baf2795cd2546dee424a1e7a644caf4c2fb87"


def test_the_label_calculus_on_a_product_is_unchanged(products_spied, iw):
    made = products_spied
    prod = product_model(torus_model(1), iw)
    h = hashlib.sha256()

    def put(tag, m):
        h.update(f"{tag}:{json.dumps(m.to_json(), sort_keys=True)};".encode())

    windows = [(s, t) for s in range(prod.n + 1) for t in range(s, prod.n + 1)]
    for bideg in ((1, 0), (0, 1)):
        d1, d2 = prod.complex.d1(*bideg), prod.complex.d2(*bideg)
        for i in range(prod.dim(*bideg)):
            u = unit(prod.dim(*bideg), i)
            if (d1 @ u).is_zero() and (d2 @ u).is_zero():
                for s, t in windows:
                    cm = cup_map(prod, (s, t), bideg, u)
                    for key in sorted(cm.source.dims()):
                        put(f"cup{bideg}{i}{s}{t}{key}", cm.mat(*key))
    for s, t in windows:
        dm = duality_map(prod, (s, t))
        for key in sorted(dm.source.dims()):
            put(f"dual{s}{t}{key}", dm.mat(*key))
    for i in range(prod.dim(1, 0)):
        for j in range(prod.dim(0, 1)):
            put(f"wedge{i}{j}", wedge(prod, (1, 0), unit(prod.dim(1, 0), i),
                                      (0, 1), unit(prod.dim(0, 1), j)))
    assert h.hexdigest() == LABEL_CALCULUS_DIGEST
    assert _runs(made) == [1]


def test_product_validates_only_the_quad_tensor_and_builds_no_zero_matrix(monkeypatch, iw):
    # the collapse is placed from the quad tensor's own blocks and admitted
    # without validation; re-admitting it validates it, still without zeros
    clear_caches()  # the quad tensor is built cold, not read from its memo
    t1 = torus_model(1)
    validating = []
    validated = []
    zeros = []
    real_zeros = RatMatrix.zeros

    def counting_zeros(rows, cols):
        if validating:
            zeros.append((rows, cols))
        return real_zeros(rows, cols)

    monkeypatch.setattr(RatMatrix, "zeros", staticmethod(counting_zeros))
    for cls in (DoubleComplex, QuadComplex):
        def validate(self, _real=cls._validate):
            validating.append(self)
            try:
                return _real(self)
            finally:
                validated.append(type(self).__name__)
                validating.pop()

        monkeypatch.setattr(cls, "_validate", validate)
    k = product_model(t1, iw).complex
    assert set(validated) == {"QuadComplex"}
    DoubleComplex(k.dims(), k._d1, k._d2)
    assert set(validated) == {"DoubleComplex", "QuadComplex"}
    assert zeros == []


def test_map_squares_build_no_zero_matrix(monkeypatch, iw):
    constructing = []
    built = []
    zeros = []
    real_zeros = RatMatrix.zeros

    def counting_zeros(rows, cols):
        if constructing:
            zeros.append((rows, cols))
        return real_zeros(rows, cols)

    monkeypatch.setattr(RatMatrix, "zeros", staticmethod(counting_zeros))
    for cls in (BicomplexMap, ChainMap):
        def init(self, *args, _real=cls.__init__):
            constructing.append(self)
            try:
                return _real(self, *args)
            finally:
                built.append(type(self).__name__)
                constructing.pop()

        monkeypatch.setattr(cls, "__init__", init)
    total_map(duality_map(iw, (0, 3)))
    assert built == ["BicomplexMap", "ChainMap"]
    assert zeros == []


def _dense_form(x):
    """A complex as its pieces and, per differential, its stored blocks as
    dense rows: the form dense.collapsed gives."""
    return x.dims(), [{key: dense(m) for key, m in d.items()} for d in x._diffs]


def _dense_tensor(a, b):
    """The dense form of tensor(a, b, parity=1) by the rule: d1 is d_a (x) 1
    and d2 is 1 (x) d_b, negated where the degree of a is even."""
    def kron(x, y):
        return [[u * v for u in rx for v in ry] for rx in x for ry in y]

    def eye(n):
        return [[int(i == j) for j in range(n)] for i in range(n)]

    pieces = {(p, q): a.dim(p) * b.dim(q) for p in a.dims() for q in b.dims()}
    d1 = {(p, q): kron(dense(m), eye(b.dim(q)))
          for p, m in a._diffs[0].items() for q in b.dims()}
    d2 = {(p, q): [[-x if p % 2 == 0 else x for x in row]
                   for row in kron(eye(a.dim(p)), dense(m))]
          for p in a.dims() for q, m in b._diffs[0].items()}
    return pieces, [d1, d2]


def test_builders_build_no_zero_block(monkeypatch, iw):
    zeros = []
    real_zeros = RatMatrix.zeros

    def counting_zeros(rows, cols):
        zeros.append((rows, cols))
        return real_zeros(rows, cols)

    monkeypatch.setattr(RatMatrix, "zeros", staticmethod(counting_zeros))
    product_model(iw, iw)
    k = iw.complex
    rows = [row_complex(k, p) for p in k.p_range()]
    cols = [column_complex(k, q) for q in k.q_range()]
    parts = [k, torus_model(1).complex, k]
    built = (*rows, *cols, direct_sum(rows), direct_sum2(parts),
             tensor(rows[1], cols[0], parity=1))
    assert zeros == []
    # the expected values, dense: a row is the column p of k with d2, a
    # column the row q with d1, a direct sum its summands placed back to
    # back in order, each summand tagged by its position
    def tagged(n, step):  # differential n of every part, keyed (p, q, position)
        return [({key + (i,): m for key, m in part._diffs[n].items()},
                 lambda key: step(key[:2]) + key[2:]) for i, part in enumerate(parts)]

    want = [collapsed({key: n for key, n in k.dims().items() if key[0] == p},
                      [[(k._d2, up)]], lambda key: key[1]) for p in k.p_range()]
    want += [collapsed({key: n for key, n in k.dims().items() if key[1] == q},
                       [[(k._d1, right)]], lambda key: key[0]) for q in k.q_range()]
    want.append(collapsed(k.dims(), [[(k._d2, up)]], lambda key: key[1]))
    want.append(collapsed({key + (i,): n for i, part in enumerate(parts)
                           for key, n in part.dims().items()},
                          [tagged(0, right), tagged(1, up)], lambda key: key[:2]))
    want = [(dims, mats) for dims, _offsets, mats in want]
    want.append(_dense_tensor(rows[1], cols[0]))
    assert [_dense_form(x) for x in built] == want


# -- admission ------------------------------------------------------------


@pytest.fixture()
def builders_spied(monkeypatch):
    """Default size cap; records every call that would start building."""
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    calls = []
    real_labels, real_quad = models._exterior_labels, models.quad_tensor
    monkeypatch.setattr(models, "_exterior_labels",
                        lambda n: calls.append(("labels", n)) or real_labels(n))
    monkeypatch.setattr(models, "quad_tensor",
                        lambda k, l: calls.append(("quad", k)) or real_quad(k, l))
    return calls


def _cap_error(text):
    return pytest.raises(ValidationError, match=re.escape(text + " > SPECTRA_DR_MAX_DIM=4096"))


@pytest.mark.parametrize("build, message", [
    (lambda: torus_model(2, "a"), "bad twist rank 'a'"),
    (lambda: torus_model(2, None), "bad twist rank None"),
    (lambda: point_model(2.0), "bad twist rank 2.0"),
    (lambda: torus_model(-1), "bad generator count -1"),
    (lambda: LieModelSpec(3, twist_rank=0), "bad twist rank 0"),
], ids=["str", "None", "float", "negative-n", "spec"])
def test_counts_are_refused_by_name_before_anything_is_built(builders_spied, build,
                                                              message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()
    assert builders_spied == []


def test_a_float_twist_rank_is_refused_even_at_rank_one():
    with pytest.raises(ValidationError, match=r"^bad twist rank 1\.0$"):
        torus_model(2).with_twist_rank(1.0)


def test_oversized_torus_refused_before_labels(builders_spied):
    with _cap_error("torus n=8: piece (4,4) has dim 4900"):
        torus_model(8)
    with _cap_error("torus n=3 twist_rank=500: piece (1,1) has dim 4500"):
        torus_model(3, 500)
    assert builders_spied == []
    assert torus_model(7).dim(3, 4) == 1225
    assert builders_spied == [("labels", 7)]


def test_oversized_lie_spec_refused_before_labels(builders_spied):
    spec = LieModelSpec(8, {3: [(1, 2, "-1")]})
    with _cap_error("lie n=8: piece (4,4) has dim 4900"):
        lie_model(spec)
    with _cap_error("lie n=3 twist_rank=456: piece (1,1) has dim 4104"):
        lie_model(iwasawa_spec(456))
    assert builders_spied == []


def test_oversized_twist_and_product_refused(builders_spied, iw):
    with _cap_error("twist n=3 twist_rank=500: piece (1,1) has dim 4500"):
        iw.with_twist_rank(500)
    iw41 = iw.with_twist_rank(41)
    t2 = torus_model(2)
    builders_spied.clear()
    with _cap_error("product n=2+3 twist_rank=41: piece (2,2) has dim 4100"):
        product_model(t2, iw41)
    with _cap_error("product n=4+4: piece (4,4) has dim 4900"):
        product_model(torus_model(4), torus_model(4))
    assert [c for c in builders_spied if c[0] == "quad"] == []


# -- twists ---------------------------------------------------------------


def test_twist_scales_everything():
    t2 = torus_model(2)
    t2_3 = torus_model(2, 3)
    assert t2_3.dim(1, 1) == 12
    assert hypercohomology(t2_3.complex, (0, 2), 2) == 3 * ladder_windows("T2")(0, 2)[2]
    assert t2_3.with_twist_rank(1) is t2_3.base
    assert t2_3.with_twist_rank(2).twist_rank == 2


def test_twisted_duality(iw):
    tw = iw.with_twist_rank(2)
    assert is_cohomology_iso(total_map(duality_map(tw, (1, 3))))


# -- predictors -----------------------------------------------------------


def test_blowup_identity(iw):
    t1 = torus_model(1)
    for window in [(0, 3), (1, 2), (0, 1)]:
        for k in range(0, 7):
            lhs = blowup_predict(iw, t1, window, k, 2)
            rhs = (
                ladder_windows("IW")(*window).get(k, 0)
                + projective_bundle_predict(t1, window, k, 2)
                - ladder_windows("T1")(*window).get(k, 0)
            )
            assert lhs == rhs


def test_leray_hirsch_vs_projective(iw):
    classes = [(i, i) for i in range(3)]
    for window in [(0, 3), (1, 2)]:
        for k in range(0, 9):
            assert leray_hirsch_predict(iw, window, k, classes) == \
                projective_bundle_predict(iw, window, k, 3)


def test_blowup_preconditions(iw):
    with pytest.raises(PreconditionViolation):
        blowup_predict(iw, torus_model(1), (0, 3), 2, 1)
    with pytest.warns(UserWarning):
        blowup_predict(iw, torus_model(2), (0, 3), 2, 3)


def test_projective_precondition(iw):
    with pytest.raises(PreconditionViolation):
        projective_bundle_predict(iw, (0, 3), 2, 0)


def test_degeneration_equivalence_frozen(iw):
    de = degeneration_equivalence(torus_model(2), 2)
    assert de["base_all"] and de["bundle_all"] and de["equivalent"]
    de = degeneration_equivalence(iw, 2)
    assert not de["base_all"]
    assert not de["bundle_all"]
    assert de["equivalent"]
    assert de["base_windows"][(0, 3)] is False
    assert de["bundle_windows"][(0, 4)] is False


def test_hodge_filtration_projective(iw):
    assert hodge_filtration_projective_predict(iw, 2, 1) == \
        hodge_filtration_dims(iw.complex, 2, 3)
    assert hodge_filtration_projective_predict(iw, 2, 2) == [9, 7, 2, 0, 0, 0]


def test_bott_chern_under_a_cap_below_the_stacked_differentials(monkeypatch):
    # d1 and d2 at (0,0) have 2 rows each; stacked they would have 4 > 3
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "3")
    k = DoubleComplex({(0, 0): 3, (1, 0): 2, (0, 1): 2},
                      {(0, 0): RatMatrix.from_rows([[1, 0, 0], [0, 0, 0]])},
                      {(0, 0): RatMatrix.from_rows([[0, 1, 0], [0, 0, 0]])})
    assert bott_chern_dim(k, 0, 0) == 1
    assert bott_chern_dim(k, 1, 0) == 2
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "1")
    with pytest.raises(ValidationError, match=re.escape("piece (0,0) has dim 3")):
        DoubleComplex({(0, 0): 3, (1, 0): 2, (0, 1): 2})
