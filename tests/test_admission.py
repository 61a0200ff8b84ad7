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
"""

import json
import random
import re

import pytest

from spectra_dr import cochain, truncation
from spectra_dr.bicomplex import (
    DoubleComplex,
    clear_total_cache,
    column_complex,
    direct_sum2,
    row_complex,
    shift2,
    total,
    total_map,
    transpose2,
)
from spectra_dr.cli import main
from spectra_dr.cochain import GradedMap, direct_sum, shift
from spectra_dr.errors import ValidationError
from spectra_dr.models import hyper, iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_double_complex
from spectra_dr.tensorops import quad_slice, quad_tensor, ss_collapse
from spectra_dr.truncation import (
    clear_truncation_cache,
    hyper_dims,
    hypercohomology,
    truncate,
    truncated_total,
    window_map,
)


@pytest.fixture(scope="module")
def models():
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    return {"T1": t1, "T2": t2, "IW": iw,
            "T2xIW": product_model(t2, iw), "IWxIW": product_model(iw, iw)}


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


def _padded(lo, hi):
    return range(lo - 1, hi + 2)


def _windows(k):
    return [(s, t) for s in _padded(k.p_lo, k.p_hi) for t in _padded(k.p_lo, k.p_hi)]


def _derived(k):
    """Every window, row, column, shift, the transpose and the total of k."""
    for w in _windows(k):
        yield truncate(k, w)
    for p in _padded(k.p_lo, k.p_hi):
        yield row_complex(k, p)
    for q in _padded(k.q_lo, k.q_hi):
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
        windows = _windows(k)
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
        for p in _padded(k.p_lo, k.p_hi):
            for q in _padded(l.p_lo, l.p_hi):
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
    calls = []

    def counting(*pairs):
        calls.append(len(pairs))
        return real(*pairs)

    def squares(self, _real=GradedMap._check_squares):
        calls.append("square")
        return _real(self)

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
    assert calls == ["square"]
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
    assert hyper(iw, (1, 2), 3) == hypercohomology(k, (1, 2), 3) == 8
    for bad in ((1.0, 2), (1, 2.0)):
        message = re.escape(f"window bounds must be integers, got {bad}")
        for call in (lambda: hyper_dims(k, bad), lambda: hypercohomology(k, bad, 3),
                     lambda: hyper(iw, bad, 3)):
            with pytest.raises(ValidationError, match=message):
                call()
    assert truncation.window_barcode.cache_info().currsize == 1
    clear_truncation_cache()
