"""The lifetime rule of the seven complex-keyed memos: an entry lives as long
as the complex it is filed under and is found by value while that complex
lives; its key holds the cap and the argument types, and no exception is
cached."""

import gc
import random
import re
from weakref import ref

import pytest

from spectra_dr import linalg
from spectra_dr.bicomplex import total
from spectra_dr.cochain import cohomology
from spectra_dr.errors import ValidationError
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.spectral import page, window_barcode
from spectra_dr.suites import run_suite
from spectra_dr.tensorops import quad_tensor, ss_collapse
from spectra_dr.truncation import truncated_total


def double(seed):
    return random_double_complex(random.Random(seed))


def cochain(seed):
    return random_complex(random.Random(seed))


def quad(seed):
    return quad_tensor(double(seed), double(seed + 1))


# name -> (memo, a call of it on one complex, the complex built from a seed);
# quad_tensor is called on (k, k), so its key holds its own first argument
CASES = {
    "total": (total, total, double),
    "cohomology": (cohomology, lambda c: cohomology(c, c.lo + 1), cochain),
    "page": (page, lambda k: page(k, 2), double),
    "window_barcode": (window_barcode, lambda k: window_barcode(k, k.p_lo, k.p_hi), double),
    "truncated_total": (truncated_total, lambda k: truncated_total(k, k.p_lo, k.p_hi), double),
    "quad_tensor": (quad_tensor, lambda k: quad_tensor(k, k), double),
    "ss_collapse": (ss_collapse, ss_collapse, quad),
}
MEMOS = [memo for memo, _call, _build in CASES.values()]
SEED = 28


@pytest.fixture(autouse=True)
def cold(monkeypatch):
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM", raising=False)
    linalg.clear_caches()
    yield
    linalg.clear_caches()


def currsize(memo):
    return memo.cache_info().currsize


def counts(memo):
    info = memo.cache_info()
    return info.hits, info.misses


@pytest.mark.parametrize("name", CASES)
def test_an_entry_goes_with_its_complex(name):
    memo, call, build = CASES[name]
    k = build(SEED)
    value = call(k)
    assert currsize(memo) >= 1
    probe = ref(k)
    del k
    gc.collect()
    # the complex is freed while its value lives: no value holds its own
    # complex, which would keep both alive for good
    assert probe() is None and value is not None
    assert currsize(memo) == 0


@pytest.mark.parametrize("name", CASES)
def test_an_equal_complex_hits_while_the_first_lives(name):
    memo, call, build = CASES[name]
    k, twin = build(SEED), build(SEED)
    assert twin == k and twin is not k
    value = call(k)
    before = counts(memo)
    assert call(twin) is value
    assert counts(memo) == (before[0] + 1, before[1])


@pytest.mark.parametrize("name", CASES)
def test_another_cap_misses(name, monkeypatch):
    memo, call, build = CASES[name]
    k = build(SEED)
    call(k)
    before = counts(memo)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "4096")  # the default, but another raw value
    call(k)
    assert counts(memo) == (before[0], before[1] + 1)


@pytest.mark.parametrize("name", CASES)
def test_an_exception_is_not_cached(name, monkeypatch):
    memo, call, build = CASES[name]
    k = build(SEED)
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "1")
    for _ in range(2):
        with pytest.raises(ValidationError, match="SPECTRA_DR_MAX_DIM=1$"):
            call(k)
    assert currsize(memo) == 0
    monkeypatch.delenv("SPECTRA_DR_MAX_DIM")
    misses = counts(memo)[1]
    call(k)
    assert counts(memo)[1] == misses + 1 and currsize(memo) >= 1


@pytest.mark.parametrize("memo", [window_barcode, truncated_total], ids=lambda f: f.__name__)
def test_a_float_bound_misses_the_integer_entry(memo):
    k = double(SEED)
    memo(k, 1, 2)
    before = counts(memo)
    with pytest.raises(ValidationError, match=re.escape("window bounds must be integers, got (1.0, 2)")):
        memo(k, 1.0, 2)
    assert counts(memo) == (before[0], before[1] + 1) and currsize(memo) == 1


@pytest.mark.parametrize("name", CASES)
def test_a_first_argument_that_cannot_be_weakly_referenced_reaches_the_function(name):
    memo = CASES[name][0]
    rest = (1, 2)[:memo.__wrapped__.__code__.co_argcount - 1]
    with pytest.raises(Exception) as own:
        memo.__wrapped__(None, *rest)
    with pytest.raises(type(own.value), match=re.escape(str(own.value))):
        memo(None, *rest)
    assert currsize(memo) == 0


def test_a_later_complex_argument_is_held_weakly():
    # the entry is filed under k and goes with k; it does not keep l alive
    k, l = double(SEED), double(SEED + 1)
    quad_tensor(k, l)
    probe = ref(l)
    del l
    gc.collect()
    assert probe() is None and currsize(quad_tensor) == 1
    del k
    gc.collect()
    assert currsize(quad_tensor) == 0


def test_the_memos_are_empty_once_the_suites_return():
    for suite in ("spectral", "truncation", "tensor"):
        assert run_suite(suite, SEED, 50).ok
    gc.collect()
    assert {memo.__name__: currsize(memo) for memo in MEMOS} == dict.fromkeys(CASES, 0)
