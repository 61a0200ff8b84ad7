"""The model ladder and the index ranges the tests sweep, in one place.

The ladder is built once per session and shared: a model is immutable, so
no test can see another's use of it.  A test that counts builds (Kronecker
calls, memo misses) builds its own models instead."""

from functools import cache

from dense import windows

from spectra_dr.models import iwasawa_spec, lie_model, point_model, product_model, torus_model


@cache
def ladder():
    """Name -> model: the point, the tori T1 and T2, T1 at twist rank 2,
    Iwasawa (IW) and IW at twist rank 2, and the products T1xT1, T1xIW,
    T2xIW and IWxIW."""
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    return {
        "pt": point_model(), "T1": t1, "T2": t2, "T1:2": torus_model(1, 2),
        "IW": iw, "IW:2": lie_model(iwasawa_spec(2)),
        "T1xT1": product_model(t1, t1), "T1xIW": product_model(t1, iw),
        "T2xIW": product_model(t2, iw), "IWxIW": product_model(iw, iw),
    }


@cache
def ladder_windows(name):
    """dense.windows of the ladder model name, shared by the tests that read
    it."""
    return windows(ladder()[name].complex)


def padded(lo, hi):
    """lo .. hi and one more index on each side, or -1 .. 1 for an empty
    support (lo > hi)."""
    return range(lo - 1, hi + 2) if lo <= hi else range(-1, 2)


def every_window(lo, hi):
    """Every (s, t) with s and t in padded(lo, hi), empty windows included."""
    return [(s, t) for s in padded(lo, hi) for t in padded(lo, hi)]


def inner_windows(lo, hi):
    """Every nonempty window (s, t), lo <= s <= t <= hi."""
    return [(s, t) for s in range(lo, hi + 1) for t in range(s, hi + 1)]
