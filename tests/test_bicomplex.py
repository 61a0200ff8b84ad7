import random
import re

import pytest
from dense import M, first_square_failure, first_violation

from spectra_dr.bicomplex import (
    BicomplexMap,
    DoubleComplex,
    ZERO_DOUBLE,
    column_complex,
    direct_sum2,
    identity_bicomplex_map,
    row_complex,
    shift2,
    total,
    total_map,
    transpose2,
    verify_total_dual_iso,
)
from spectra_dr.cochain import (
    ChainMap,
    betti_numbers,
    cohomology_dim,
    compose,
    dual,
    identity_chain_map,
    shift,
)
from spectra_dr import suites
from spectra_dr.errors import NotChainCompatible, ParseError, ValidationError, WitnessFailure
from spectra_dr.randgen import random_double_complex, random_matrix
from spectra_dr.truncation import window_map


def unit_square(p=0, q=0):
    one = M([[1]])
    return DoubleComplex(
        {(p, q): 1, (p + 1, q): 1, (p, q + 1): 1, (p + 1, q + 1): 1},
        {(p, q): one, (p, q + 1): one},
        {(p, q): one, (p + 1, q): M([[-1]])},
    )


def test_construction_and_support():
    k = unit_square()
    assert k.support == (0, 1, 0, 1)
    assert k.dim(0, 0) == 1 and k.dim(2, 2) == 0
    assert k.d1(5, 5).shape == (0, 0)
    assert ZERO_DOUBLE.is_zero()
    assert ZERO_DOUBLE.support == (0, -1, 0, -1)


def test_rejects_bad_differentials():
    one = M([[1]])
    with pytest.raises(ValidationError):
        DoubleComplex({(0, 0): 1, (1, 0): 2}, {(0, 0): one}, {})
    # commuting instead of anticommuting squares must be rejected
    with pytest.raises(ValidationError):
        DoubleComplex(
            {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1},
            {(0, 0): one, (0, 1): one},
            {(0, 0): one, (1, 0): one},
        )
    # d1 o d1 != 0
    with pytest.raises(ValidationError):
        DoubleComplex(
            {(0, 0): 1, (1, 0): 1, (2, 0): 1},
            {(0, 0): one, (1, 0): one},
            {},
        )


def _refusal(dims, d1, d2):
    try:
        DoubleComplex(dims, d1, d2)
    except ValidationError as exc:
        return str(exc)
    return None


def test_rejection_messages():
    one = M([[1]])
    line = {(0, 0): 1, (0, 1): 1, (0, 2): 1}
    assert _refusal(line, {}, {(0, 0): one, (0, 1): one}) == "d2 o d2 != 0 from (0,0)"
    row = {(0, 0): 1, (1, 0): 1, (2, 0): 1}
    assert _refusal(row, {(0, 0): one, (1, 0): one}, {}) == "d1 o d1 != 0 from (0,0)"
    square = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    assert (_refusal(square, {(0, 0): one, (0, 1): one}, {(0, 0): one, (1, 0): one})
            == "d1 and d2 do not anticommute from (0,0)")
    # one composite missing, the other nonzero
    assert (_refusal(square, {(0, 1): one}, {(0, 0): one})
            == "d1 and d2 do not anticommute from (0,0)")


def test_two_violations_report_the_first_in_bidegree_order():
    one = M([[1]])
    # d1 o d1 and d2 o d2 both fail at (0,0): d1 o d1 is checked first
    dims = {(0, 0): 1, (1, 0): 1, (2, 0): 1, (0, 1): 1, (0, 2): 1}
    d1 = {(0, 0): one, (1, 0): one}
    d2 = {(0, 0): one, (0, 1): one}
    assert _refusal(dims, d1, d2) == "d1 o d1 != 0 from (0,0)"
    assert first_violation(dims, d1, d2) == "d1 o d1 != 0 from (0,0)"
    # p before q: (0,5) precedes (1,0)
    dims = {(1, 0): 1, (2, 0): 1, (3, 0): 1, (0, 5): 1, (0, 6): 1, (0, 7): 1}
    d1 = {(1, 0): one, (2, 0): one}
    d2 = {(0, 5): one, (0, 6): one}
    assert _refusal(dims, d1, d2) == "d2 o d2 != 0 from (0,5)"
    assert first_violation(dims, d1, d2) == "d2 o d2 != 0 from (0,5)"


def test_first_violation_matches_bounding_box_scan():
    rng = random.Random(31)
    rejected = 0
    for _ in range(80):
        k = random_double_complex(rng, p_span=3, q_span=3, blocks=3)
        dims = k.dims()
        d1, d2 = dict(k._d1), dict(k._d2)
        for _ in range(rng.randint(1, 3)):
            (p, q), n = rng.choice(sorted(dims.items()))
            diffs, tgt = rng.choice(((d1, (p + 1, q)), (d2, (p, q + 1))))
            if dims.get(tgt):
                diffs[(p, q)] = random_matrix(rng, dims[tgt], n)
        want = first_violation(dims, d1, d2)
        assert _refusal(dims, d1, d2) == want
        rejected += want is not None
    assert rejected >= 20


def _seeded_map(rng, kind):
    """A valid map: an identity, a window inclusion or projection, or the
    total map of one of those."""
    k = random_double_complex(rng, p_span=3, q_span=3)
    if kind == "identity":
        return identity_bicomplex_map(k)
    if kind == "identity_chain":
        return identity_chain_map(total(k))
    lo, hi = k.p_lo, k.p_hi
    a, b = sorted(rng.randint(lo - 1, hi + 1) for _ in range(2))
    c = rng.randint(b, hi + 1)
    if rng.random() < 0.5:
        f = window_map(k, (b, c), (a, c))  # inclusion, shared right edge
    else:
        f = window_map(k, (a, c), (a, b))  # projection, shared left edge
    return total_map(f) if kind == "total" else f


def test_first_map_square_failure_matches_bounding_box_scan():
    rng = random.Random(41)
    kinds = ("identity", "window", "total", "identity_chain")
    rejected = 0
    for n in range(120):
        f = _seeded_map(rng, kinds[n % 4])
        cls = type(f)
        src, tgt = f.source, f.target
        mats = dict(f._mats)
        if mats and n % 3 == 0:
            # a dropped block breaks the squares into and out of its key
            del mats[rng.choice(sorted(mats))]
        else:
            keys = [key for key, m in src.dims().items()
                    if (tgt.dim(key) if cls is ChainMap else tgt.dim(*key))]
            if keys:
                key = rng.choice(sorted(keys))
                rows = tgt.dim(key) if cls is ChainMap else tgt.dim(*key)
                mats[key] = random_matrix(rng, rows, src.dims()[key])
        want = first_square_failure(src, tgt, mats)
        try:
            cls(src, tgt, mats)
            got = None
        except NotChainCompatible as exc:
            got = str(exc)
        assert got == want
        rejected += want is not None
    assert rejected >= 40


def test_piece_over_the_size_cap_is_named(monkeypatch):
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4")
    assert DoubleComplex({(0, 0): 4, (1, 0): 4}).total_dim() == 8
    with pytest.raises(
        ValidationError,
        match=re.escape("piece (1,-1) has dim 5 > SPECTRA_DR_MAX_DIM=4"),
    ):
        DoubleComplex({(0, 0): 4, (2, 3): 6, (1, -1): 5})
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "junk")
    with pytest.raises(ValidationError, match="must be an integer"):
        DoubleComplex({(0, 0): 1})
    assert DoubleComplex({(0, 0): 0}).is_zero()


def test_total_of_unit_square_is_exact():
    t = total(unit_square())
    assert t.dims() == {0: 1, 1: 2, 2: 1}
    # block order at degree 1: (0,1) before (1,0)
    assert [key for key, _off, _n in unit_square()._layout()[1]] == [(0, 1), (1, 0)]
    assert t.diff(0) == M([[1], [1]])
    assert t.diff(1) == M([[1, -1]])
    assert betti_numbers(t) == {0: 0, 1: 0, 2: 0}


def test_total_layout():
    k = DoubleComplex({(0, 1): 2, (1, 0): 3})
    assert k._layout() == {1: [((0, 1), 0, 2), ((1, 0), 2, 3)]}
    assert total(k).dim(1) == 5


def test_row_and_column_complexes():
    k = unit_square()
    r0 = row_complex(k, 0)  # column p=0, differential d2
    assert r0.dims() == {0: 1, 1: 1}
    assert r0.diff(0) == M([[1]])
    c0 = column_complex(k, 0)  # row q=0, differential d1
    assert c0.dims() == {0: 1, 1: 1}
    assert c0.diff(0) == M([[1]])
    assert cohomology_dim(r0, 0) == 0


def test_shift2_total_compatibility():
    rng = random.Random(11)
    for _ in range(10):
        k = random_double_complex(rng)
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        assert total(shift2(k, m, n)) == shift(total(k), m + n)


def test_bigraded_dual_is_valid_and_involutive_on_dims():
    rng = random.Random(12)
    for _ in range(10):
        k = random_double_complex(rng)
        d = dual(k)  # construction validates the sign conventions
        assert type(d) is DoubleComplex and d.dim(1, 2) == k.dim(-1, -2)
        dd = dual(d)
        assert dd.dims() == k.dims()


def test_transpose2():
    k = unit_square()
    t = transpose2(k)
    assert t.dims() == k.dims()  # square is symmetric
    rng = random.Random(13)
    for _ in range(5):
        c = random_double_complex(rng)
        tt = transpose2(transpose2(c))
        assert tt == c


def test_verify_total_dual_iso_frozen():
    k = unit_square()
    w = verify_total_dual_iso(k)
    assert w.source == dual(total(k))
    assert w.target == total(dual(k))
    # at degree -1 the two blocks get swapped
    assert w.mat(-1) == M([[0, 1], [1, 0]])


def test_verify_total_dual_iso_random():
    rng = random.Random(14)
    for _ in range(15):
        k = random_double_complex(rng)
        w = verify_total_dual_iso(k)
        for deg in w.source.degrees():
            assert w.source.dim(deg) == w.target.dim(deg)


def test_direct_sum2():
    a = unit_square()
    b = DoubleComplex({(0, 0): 2})
    s = direct_sum2([a, b])
    assert s.dim(0, 0) == 3
    assert s.dim(1, 1) == 1
    assert direct_sum2([]) == ZERO_DOUBLE


def test_bicomplex_map_validation():
    k = unit_square()
    identity_bicomplex_map(k)
    with pytest.raises(ValidationError):
        BicomplexMap(k, k, {(0, 0): M([[1, 1]])})
    with pytest.raises(NotChainCompatible):
        # scaling one corner only cannot commute with both differentials
        BicomplexMap(
            k, k,
            {
                (0, 0): M([[2]]),
                (1, 0): M([[1]]),
                (0, 1): M([[1]]),
                (1, 1): M([[1]]),
            },
        )


def test_total_map():
    k = unit_square()
    f = identity_bicomplex_map(k)
    assert total_map(f) == identity_chain_map(total(k))
    doubled = BicomplexMap(
        k, k, {key: M([[2]]) for key in k.dims()}
    )
    tm = total_map(doubled)
    assert tm.mat(1) == M([[2, 0], [0, 2]])
    assert compose(doubled, doubled).mat(0, 0) == M([[4]])


def test_compose_keeps_the_message_of_each_kind():
    k, moved = unit_square(), unit_square(1, 0)
    with pytest.raises(ValidationError, match="^bicomplex maps not composable$"):
        compose(identity_bicomplex_map(moved), identity_bicomplex_map(k))
    with pytest.raises(ValidationError, match="^chain maps not composable$"):
        compose(identity_chain_map(total(moved)), identity_chain_map(total(k)))


def test_json_round_trip():
    k = unit_square()
    assert DoubleComplex.from_json(k.to_json()) == k
    with pytest.raises(ParseError):
        DoubleComplex.from_json({"support": [0, 0, 0, 0]})
    with pytest.raises(ParseError):
        DoubleComplex.from_json({"dims": {"nope": 1}})
    # negative bidegrees round-trip
    s = shift2(k, 3, 3)
    assert DoubleComplex.from_json(s.to_json()) == s


def test_randgen_determinism():
    a = random_double_complex(random.Random(42))
    b = random_double_complex(random.Random(42))
    assert a == b
    c = random_double_complex(random.Random(43))
    assert a != c or a.is_zero()


def test_validation_takes_pieces_under_the_cap_whose_pairs_are_wider(monkeypatch):
    # d2 d1 + d1 d2 at (0,0) pairs two products whose inner widths (3 + 3)
    # add up past the cap; each piece fits, so the complex is accepted
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4")
    e = M([[1], [0], [0]])
    dims = {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 1}
    k = DoubleComplex(dims, {(0, 0): e, (0, 1): M([[-1, 0, 0]])},
                      {(0, 0): e, (1, 0): M([[1, 0, 0]])})
    assert k.total_dim() == 8
    with pytest.raises(ValidationError,
                       match=re.escape("d1 and d2 do not anticommute from (0,0)")):
        DoubleComplex(dims, {(0, 0): e, (0, 1): M([[1, 0, 0]])},
                      {(0, 0): e, (1, 0): M([[1, 0, 0]])})
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "2")
    with pytest.raises(ValidationError,
                       match=re.escape("piece (0,1) has dim 3 > SPECTRA_DR_MAX_DIM=2")):
        DoubleComplex(dims)


def test_a_witness_that_raises_fails_its_line_and_the_report_comes_back_whole(monkeypatch):
    want = suites.bicomplex_suite(5, 3)
    assert want.ok

    def broken(k):
        raise WitnessFailure("the dual map is not an isomorphism")

    monkeypatch.setattr(suites, "verify_total_dual_iso", broken)
    got = suites.bicomplex_suite(5, 3)
    assert [(ln.check, ln.degree) for ln in got.lines] == [
        (ln.check, ln.degree) for ln in want.lines]
    assert [(ln.check, ln.degree, ln.lhs, ln.rhs) for ln in got.failures()] == [
        ("total_dual_witness", i, "WitnessFailure: the dual map is not an isomorphism", "ok")
        for i in range(3)]
    assert [ln for ln in got.lines if ln.check != "total_dual_witness"] == [
        ln for ln in want.lines if ln.check != "total_dual_witness"]
