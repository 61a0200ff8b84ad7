"""A complex is admitted once.

Windows, row and column complexes, shifts, transposes, totals, direct sums,
quad slices, quad collapses and total maps are placed from a valid
complex's own blocks, and the graded core admits them without regrading,
shape checks or validation (the rule is stated in GradedComplex).  Each of
them is rebuilt here through its public constructor, which regrades the
keys, checks every shape and zero block, and multiplies every stored square
and anticommutator: the rebuilt object must come back equal, with no
exception.  The work counts pin that the placed builders multiply nothing,
with a positive control (the same data through the public constructor) and
a negative one (a broken model is still refused by name).

A map is admitted like a complex, through the same routine and with its
squares tested by products_vanish: the last section compares its refusals
with the shape rule and a dense scan of the squares (dense.py), and pins
that the witnesses multiply no product only to test it for zero.
"""

import json
import random
import re
from fractions import Fraction

import pytest
from dense import first_square_failure
from ladder import every_window, ladder, padded

from spectra_dr import cochain, truncation
from spectra_dr.bicomplex import (
    BicomplexMap,
    DoubleComplex,
    clear_total_cache,
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
from spectra_dr.cli import main
from spectra_dr.cochain import (
    ChainMap,
    CochainComplex,
    GradedMap,
    direct_sum,
    identity_chain_map,
    shift,
)
from spectra_dr.errors import EngineError, NotChainCompatible, ValidationError
from spectra_dr.linalg import RatMatrix, clear_caches
from spectra_dr.models import duality_map
from spectra_dr.randgen import random_double_complex
from spectra_dr.tensorops import quad_slice, quad_tensor, ss_collapse
from spectra_dr.truncation import (
    clear_truncation_cache,
    four_term_check,
    hyper_dims,
    hypercohomology,
    les_check,
    truncate,
    truncated_total,
    window_map,
)


@pytest.fixture(scope="module")
def models():
    return {name: ladder()[name] for name in ("T1", "T2", "IW", "T2xIW", "IWxIW")}


def readmit(x):
    """x rebuilt through its public constructor: equal, with its pieces,
    blocks and bounds in the same order."""
    if isinstance(x, GradedMap):
        y = type(x)(x.source, x.target, x._mats)
        assert list(y._mats) == list(x._mats)
    else:
        y = type(x)(x._dims, *x._diffs)
        assert list(y._dims) == list(x._dims)
        assert [list(d) for d in y._diffs] == [list(d) for d in x._diffs]
        assert repr(y) == repr(x)
    assert type(y) is type(x) and y == x
    return 1


def _derived(k):
    """Every window, row, column, shift, the transpose and the total of k."""
    for w in every_window(k.p_lo, k.p_hi):
        yield truncate(k, w)
    for p in padded(k.p_lo, k.p_hi):
        yield row_complex(k, p)
    for q in padded(k.q_lo, k.q_hi):
        yield column_complex(k, q)
    t = total(k)
    for m in range(-2, 3):
        yield shift(t, m)
        for n in range(-2, 3):
            yield shift2(k, m, n)
    yield transpose2(k)
    yield t


# -- re-admission ---------------------------------------------------------------


def test_derived_complexes_of_seeded_complexes_readmit():
    rng = random.Random(2400)
    checked = 0
    prev = random_double_complex(rng)
    for _ in range(300):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))
        checked += sum(map(readmit, _derived(k)))
        checked += readmit(direct_sum2([k, prev])) + readmit(direct_sum([total(k), total(prev)]))
        prev = k
    assert checked > 300 * 60


def test_derived_complexes_of_the_ladder_readmit(models):
    for name, model in models.items():
        k = model.complex
        windows = every_window(k.p_lo, k.p_hi)
        assert sum(readmit(truncate(k, w)) for w in windows) == len(windows)
        for p in k.p_range():
            readmit(row_complex(k, p))
        for q in k.q_range():
            readmit(column_complex(k, q))
        readmit(transpose2(k))
        readmit(total(k))
        readmit(shift2(k, 1, -2))
        if name in ("T1", "T2", "IW"):
            readmit(direct_sum2([k, models["T1"].complex]))


def test_quad_collapses_and_slices_readmit():
    rng = random.Random(2401)
    slices = 0
    for _ in range(16):
        k = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        l = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        a = quad_tensor(k, l)
        readmit(ss_collapse(a))
        for p in padded(k.p_lo, k.p_hi):
            for q in padded(l.p_lo, l.p_hi):
                slices += readmit(quad_slice(a, p, q))
    assert slices >= 16 * 9


def test_total_maps_of_window_maps_readmit():
    rng = random.Random(2402)
    for _ in range(100):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 4))
        a, b = sorted(rng.randint(k.p_lo - 1, k.p_hi + 1) for _ in range(2))
        c = rng.randint(b, k.p_hi + 1)
        for f in (window_map(k, (b, c), (a, c)), window_map(k, (a, c), (a, b))):
            g = total_map(f)
            readmit(g.source)
            readmit(g.target)
            readmit(g)


# -- work counts and controls ----------------------------------------------------


def test_placed_builders_multiply_nothing(monkeypatch, models):
    iwiw = models["IWxIW"].complex
    quad = quad_tensor(models["T2"].complex, models["IW"].complex)
    window = truncate(iwiw, (1, 3))
    inclusion = window_map(iwiw, (2, 4), (1, 4))
    real = cochain.products_vanish
    calls, inside = [], []

    def counting(*pairs):
        calls.append(len(pairs) if inside else "outside a square check")
        return real(*pairs)

    def squares(self, _real=GradedMap._check_squares):
        calls.append("square")
        inside.append(self)
        try:
            return _real(self)
        finally:
            inside.pop()

    monkeypatch.setattr(cochain, "products_vanish", counting)
    monkeypatch.setattr(GradedMap, "_check_squares", squares)
    clear_total_cache()
    parts = [truncate(iwiw, (s, t)) for s in iwiw.p_range() for t in range(s, iwiw.p_hi + 1)]
    assert len(parts) == 28
    total(iwiw)
    assert total.cache_info().misses == 1
    ss_collapse(quad)
    total_map(inclusion)
    assert calls == []
    # positive control: the same data through the public constructors
    DoubleComplex(window.dims(), window._d1, window._d2)
    assert len(calls) > 0
    calls.clear()
    type(inclusion)(inclusion.source, inclusion.target, inclusion._mats)
    # the square check multiplies through products_vanish, and only it does
    assert calls[0] == "square" and len(calls) > 1
    assert all(type(c) is int for c in calls[1:])
    clear_total_cache()


BROKEN = "d1 and d2 do not anticommute from (1,1)"


def test_a_model_with_a_flipped_sign_is_still_refused(models, tmp_path, capsys):
    obj = models["IW"].complex.to_json()
    row = obj["d2"]["2,1"]["entries"][0]
    assert row[2] == "-1"
    row[2] = "1"
    with pytest.raises(ValidationError, match=re.escape(BROKEN)):
        DoubleComplex.from_json(obj)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(obj))
    for argv in (["spectral", str(path)], ["truncate", str(path), "--window", "1,3"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {BROKEN}\n")


# -- the refusals regrading gave -------------------------------------------------


def test_shift_amounts_must_be_integers(models):
    k = models["IW"].complex
    with pytest.raises(ValidationError, match="key must be 2 integers"):
        shift2(k, 0.5, 0)
    with pytest.raises(ValidationError, match="degree must be an integer"):
        shift(total(k), 1.0)
    assert shift2(k, True, 0) == shift2(k, 1, 0)
    assert shift2(k, True, 0).support == (-1, 2, 0, 3)
    assert shift(total(k), True) == shift(total(k), 1)


def test_window_bounds_must_be_integers(models):
    k = models["IW"].complex
    clear_truncation_cache()
    bad = (1.5, 2)
    message = re.escape("window bounds must be integers, got (1.5, 2)")
    for call in (lambda: truncate(k, bad), lambda: hyper_dims(k, bad),
                 lambda: hypercohomology(k, bad, 3), lambda: truncated_total(k, *bad),
                 lambda: window_map(k, bad, (1, 2)), lambda: window_map(k, (1, 2), bad)):
        with pytest.raises(ValidationError, match=message):
            call()
    assert truncation.window_barcode.cache_info().currsize == 0
    assert hyper_dims(k, (2, 2)) == {2: 3, 3: 6, 4: 6, 5: 3}
    assert hyper_dims(k, (True, 2)) == hyper_dims(k, (1, 2))
    clear_truncation_cache()


def test_a_warm_memo_still_refuses_float_window_bounds(models):
    """A cached (1, 2) must not answer for (1.0, 2): the memo keys are
    typed, so the float misses and reaches the bound check."""
    iw = models["IW"]
    k = iw.complex
    clear_truncation_cache()
    assert hyper_dims(k, (1, 2)) == {1: 2, 2: 6, 3: 8, 4: 6, 5: 2}
    assert hypercohomology(k, (1, 2), 3) == 8
    for bad in ((1.0, 2), (1, 2.0)):
        message = re.escape(f"window bounds must be integers, got {bad}")
        for call in (lambda: hyper_dims(k, bad), lambda: hypercohomology(k, bad, 3)):
            with pytest.raises(ValidationError, match=message):
                call()
    assert truncation.window_barcode.cache_info().currsize == 1
    clear_truncation_cache()


def test_a_lowered_cap_refuses_warm_memos_by_name(models, monkeypatch):
    """A memo's key holds the raw SPECTRA_DR_MAX_DIM value, so an entry
    answers only under the cap it was built under: a lowered cap raises the
    cold path's refusal, and the restored cap hits the entry again."""
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    k = models["IW"].complex
    clear_caches()
    quad = quad_tensor(k, k)
    calls = {
        total: (lambda: total(k), "total degree 2 has dim 15"),
        quad_tensor: (lambda: quad_tensor(k, k), "piece (0,1,1,1) has dim 27"),
        ss_collapse: (lambda: ss_collapse(quad), "piece (0,2) has dim 15"),
        truncated_total: (lambda: truncated_total(k, 0, 3), "total degree 2 has dim 15"),
        truncation.window_barcode: (lambda: truncation.window_barcode(k, 0, 3),
                                    "total degree 2 has dim 15"),
    }
    warm = {cached: call() for cached, (call, _text) in calls.items()}
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "10")
    for call, text in calls.values():
        with pytest.raises(ValidationError, match=re.escape(f"{text} > SPECTRA_DR_MAX_DIM=10")):
            call()
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    for cached, (call, _text) in calls.items():
        before = cached.cache_info()
        assert call() is warm[cached]
        after = cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    clear_caches()


# -- maps are admitted like complexes ---------------------------------------------


def map_refusal(source, target, mats):
    """The refusal, as (type, message), that the rules give the map mats from
    source to target, or None: the first block in mats whose shape is not
    (target piece, source piece) is a ValidationError, and otherwise the
    first square that the dense scan finds does not commute is
    NotChainCompatible."""
    chain = type(source) is CochainComplex
    for key, m in mats.items():
        want = (target.dims().get(key, 0), source.dims().get(key, 0))
        if m.shape != want:
            at = f"degree {key}" if chain else f"({key[0]},{key[1]})"
            noun = "chain map" if chain else "bicomplex map"
            return ValidationError, f"{noun} at {at} has shape {m.shape}, expected {want}"
    failure = first_square_failure(source, target, mats)
    return failure and (NotChainCompatible, failure)


def _admission(cls, source, target, mats):
    try:
        cls(source, target, mats)
    except EngineError as exc:
        return type(exc), str(exc)
    return None


def _seeded_maps(rng, models):
    """Valid maps: identities, window inclusions and restrictions of seeded
    complexes, their total maps, and the duality maps of the small models."""
    for n in range(160):
        k = random_double_complex(rng, p_span=rng.randint(1, 4), q_span=rng.randint(1, 4))
        if n % 8 == 0:
            yield identity_bicomplex_map(k)
            yield identity_chain_map(total(k))
        a, b = sorted(rng.randint(k.p_lo - 1, k.p_hi + 1) for _ in range(2))
        c = rng.randint(b, k.p_hi + 1)
        f = window_map(k, (b, c), (a, c)) if n % 2 else window_map(k, (a, c), (a, b))
        yield total_map(f) if n % 3 == 0 else f
    for name in ("T1", "T2", "IW"):
        model = models[name]
        for s in range(model.n + 1):
            for t in range(s, model.n + 1):
                f = duality_map(model, (s, t))
                yield f
                yield total_map(f)


def _planted(rng, f):
    """f's blocks, with one entry of one block changed, or one block given a
    row too many, or untouched."""
    mats = dict(f._mats)
    sd, td = f.source._dims, f.target._dims
    keys = sorted(key for key in sd if td.get(key))
    fault = rng.choice(("none", "entry", "entry", "entry", "shape"))
    if fault == "none" or not keys:
        return mats
    key = rng.choice(keys)
    m = f._block(key)
    if fault == "shape":
        mats[key] = RatMatrix.zeros(m.rows + 1, m.cols)
        return mats
    rows = [list(m.row(i)) for i in range(m.rows)]
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice((1, -1, 2, Fraction(1, 2)))
    mats[key] = RatMatrix(m.rows, m.cols, rows)
    return mats


def test_map_admission_matches_the_previous_release(models):
    rng = random.Random(1900)
    seen = {None: 0, ValidationError: 0, NotChainCompatible: 0}
    for f in _seeded_maps(rng, models):
        cls = type(f)
        assert _admission(cls, f.source, f.target, f._mats) is None
        mats = _planted(rng, f)
        want = map_refusal(f.source, f.target, mats)
        assert _admission(cls, f.source, f.target, mats) == want
        seen[want and want[0]] += 1
    assert min(seen.values()) >= 15, seen


def test_a_map_block_that_is_not_a_matrix_is_refused_by_name(models):
    k = models["IW"].complex
    tk = total(k)
    one = RatMatrix.identity(1)
    cases = [
        (ChainMap, tk, {0: "x"}, "chain map at degree 0 is not a RatMatrix"),
        (ChainMap, tk, {0: one, 1: [[1, 0, 0]]}, "chain map at degree 1 is not a RatMatrix"),
        (BicomplexMap, k, {(0, 0): one, (1, 0): None},
         "bicomplex map at (1,0) is not a RatMatrix"),
        (BicomplexMap, k, {(0, 1): 1.0}, "bicomplex map at (0,1) is not a RatMatrix"),
        (ChainMap, tk, {0.5: one}, "degree must be an integer, got 0.5"),
        (BicomplexMap, k, {(0,): one}, "key must be 2 integers, got (0,)"),
    ]
    for cls, space, mats, message in cases:
        with pytest.raises(ValidationError) as info:
            cls(space, space, mats)
        assert str(info.value) == message


def test_witnesses_and_map_admission_build_no_products(monkeypatch, models):
    """Squares, compositions, closedness and the Stokes condition are zero
    tests of products, made without building the product.  What les_check
    still multiplies is, in each of its 22 induced maps, the ambient matrix
    by the two parts of the source's basis, its boundaries and its
    representatives; the certification of a connecting map on every cycle
    is a zero test and adds none."""
    iw, iwiw = models["IW"], models["IWxIW"].complex
    real = RatMatrix.__matmul__
    count = []

    def counting(a, b):
        count.append(1)
        return real(a, b)

    maps = [window_map(iwiw, (2, 4), (1, 4)), duality_map(iw, (0, 3)),
            total_map(window_map(iwiw, (0, 4), (0, 2)))]
    monkeypatch.setattr(RatMatrix, "__matmul__", counting)
    for f in maps:
        readmit(f)
    assert count == []
    for call, want in ((lambda: window_map(iwiw, (2, 4), (1, 4)), 0),
                       (lambda: four_term_check(iw.complex, 0, 1, 2, 3), 0),
                       (lambda: verify_total_dual_iso(iwiw), 0),
                       (lambda: duality_map(iw, (0, 3)), 0),
                       (lambda: les_check(iw.complex, 0, 1, 3), 2 * 22)):
        clear_caches()
        count.clear()
        call()
        assert len(count) == want
    clear_caches()
