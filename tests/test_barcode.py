"""The filtered reduction of the total differential (spectral.barcode)
against the rank and subquotient machinery it replaces as a read path.

Window hypercohomology is checked against the dense Fraction ranks of
dense.window_dims, which share no elimination with it, filtration_dims and
the Hodge filtration against the images that exactness fixes from those
dense window ranks (dense.filtration), the pairing against the dense
cohomology of the total and the ranks that rank-nullity gives from it, and
the page read of the pairing against the subquotient pages, on seeded
complexes and on the model ladder."""

import hashlib
import json
import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from dense import filtration, window_dims, windows
from ladder import every_window, ladder, ladder_windows

from spectra_dr import bicomplex, cli, cochain, linalg, spectral, tensorops, truncation
from spectra_dr.bicomplex import DoubleComplex, total
from spectra_dr.errors import ValidationError
from spectra_dr.models import iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_double_complex
from spectra_dr.spectral import (
    barcode,
    convergence_check,
    filtration_dims,
    page,
    stabilization_bound,
    window_barcode,
)
from spectra_dr.truncation import (
    hodge_filtration_dims,
    hyper_dims,
    hypercohomology,
    truncated_total,
)

T2IW_CAP_MESSAGE = "total degree 4 has dim 150 > SPECTRA_DR_MAX_DIM=120"


def dense_filtration(dims, deg, s, t, ps):
    """For each p in ps, the image of H^deg of the window (p, t) in H^deg
    of the window (s, t), by exactness on the dense window ranks dims."""
    return [filtration(dims, s, t, deg, p) for p in ps]


def interval_dims(bars, s, t):
    """Window hypercohomology read off the barcode of the whole complex: the
    window (s, t) is F^s T / F^{t+1} T, so in degree d it keeps the unpaired
    elements at columns in [s, t], the sources there whose target lies past
    t, and the targets there whose source lies before s."""
    dims = Counter()
    for key, n in bars.unpaired.items():
        if s <= key[0] <= t:
            dims[sum(key)] += n
    for (src, tgt), n in bars.pairs.items():
        if s <= src[0] <= t < tgt[0]:
            dims[sum(src)] += n
        if src[0] < s <= tgt[0] <= t:
            dims[sum(tgt)] += n
    return {d: n for d, n in sorted(dims.items()) if n}


def page_reads(bars, r):
    """(dims, d_r ranks) of page r read off a barcode: an unpaired element
    lives on every page; a pair of length L lives at both ends on pages
    1 .. L and is one rank of d_L at its source."""
    dims, ranks = {}, {}
    for key, n in bars.unpaired.items():
        dims[key] = dims.get(key, 0) + n
    for (src, tgt), n in bars.pairs.items():
        length = tgt[0] - src[0]
        if length >= r:
            dims[src] = dims.get(src, 0) + n
            dims[tgt] = dims.get(tgt, 0) + n
        if length == r:
            ranks[src] = ranks.get(src, 0) + n
    return dims, ranks


def seeded_complexes(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))


def columns(k):
    """every_window of k's columns."""
    return every_window(k.p_lo, k.p_hi)


# -- window hypercohomology -------------------------------------------------


def test_window_dims_match_the_ranks_on_seeded_complexes():
    swept = empty = 0
    for k in seeded_complexes(2101, 1000):
        dims = windows(k)
        for s, t in columns(k):
            want = dims(s, t)
            assert hyper_dims(k, (s, t)) == want
            for j in range(k.p_lo + k.q_lo - 1, k.p_hi + k.q_hi + 2):
                assert hypercohomology(k, (s, t), j) == want.get(j, 0)
            swept += 1
            empty += s > t
    truncation.clear_truncation_cache()
    assert swept > 10_000 and empty > 3_000


def test_window_dims_match_the_ranks_with_fractional_entries():
    # d1 / 2 and d2 * 2/3 is again a double complex, with non-integral entries
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    for k in seeded_complexes(2105, 150):
        k = DoubleComplex(k.dims(), {key: m.scale(half) for key, m in k._d1.items()},
                          {key: m.scale(two_thirds) for key, m in k._d2.items()})
        dims = windows(k)
        for s, t in columns(k):
            assert hyper_dims(k, (s, t)) == dims(s, t)
    truncation.clear_truncation_cache()


@pytest.mark.parametrize("name", ["T1", "T2", "IW", "T1xIW", "T2xIW", "IWxIW"])
def test_window_dims_match_the_ranks_on_the_ladder(name):
    k, dims = ladder()[name].complex, ladder_windows(name)
    for s, t in columns(k):
        assert hyper_dims(k, (s, t)) == dims(s, t)
    truncation.clear_truncation_cache()


def test_window_dims_match_dense_ranks_on_seeded_complexes():
    swept = nonzero = 0
    for k in seeded_complexes(2111, 200):
        for s, t in columns(k):
            got = hyper_dims(k, (s, t))
            assert got == window_dims(k, s, t)
            swept += 1
            nonzero += bool(got)
    truncation.clear_truncation_cache()
    assert swept > 2_000 and nonzero > 1_000


@pytest.mark.parametrize("name", ["T1", "T2", "IW", "T1xIW"])
def test_window_dims_match_dense_ranks_on_the_ladder(name):
    k = ladder()[name].complex
    for s, t in columns(k):
        assert hyper_dims(k, (s, t)) == window_dims(k, s, t)
    truncation.clear_truncation_cache()


def test_windows_are_interval_arithmetic_on_the_whole_barcode():
    swept = crossing = 0
    for k in seeded_complexes(2106, 1000):
        bars = barcode(k)
        for s, t in columns(k):
            assert hyper_dims(k, (s, t)) == interval_dims(bars, s, t)
            swept += 1
            crossing += any(s <= src[0] <= t < tgt[0] or src[0] < s <= tgt[0] <= t
                            for src, tgt in bars.pairs)
    truncation.clear_truncation_cache()
    assert swept > 10_000 and crossing > 1_000


@pytest.mark.parametrize("name", ["T2", "IW", "T1xIW", "T2xIW", "IWxIW"])
def test_windows_are_interval_arithmetic_on_the_ladder(name):
    k = ladder()[name].complex
    bars = barcode(k)
    for s, t in columns(k):
        assert hyper_dims(k, (s, t)) == interval_dims(bars, s, t)
    truncation.clear_truncation_cache()


# -- filtration dims ----------------------------------------------------------


def test_filtration_dims_match_the_former_body():
    checked = nontrivial = 0
    for k in seeded_complexes(2102, 300):
        dims = windows(k)
        for deg in range(k.p_lo + k.q_lo - 1, k.p_hi + k.q_hi + 2):
            got = filtration_dims(k, deg)
            assert got == dense_filtration(dims, deg, k.p_lo, k.p_hi, range(k.p_lo, k.p_hi + 2))
            checked += 1
            nontrivial += any(0 < n < got[0] for n in got)
    assert checked > 1_500 and nontrivial >= 20


@pytest.mark.parametrize("name", ["IW", "T1xIW"])
def test_filtration_dims_match_the_former_body_on_the_ladder(name):
    k, dims = ladder()[name].complex, ladder_windows(name)
    for deg in range(0, 2 * (k.p_hi + 1) + 1):
        want = dense_filtration(dims, deg, k.p_lo, k.p_hi, range(k.p_lo, k.p_hi + 2))
        assert filtration_dims(k, deg) == want


# -- the pairing ----------------------------------------------------------------


def _pairing_invariants(k, dims):
    """The pairs of k's barcode and its unpaired elements against the dense
    cohomology of the total (the window of all columns, read by dims) and
    the ranks of the total differential that rank-nullity gives from it."""
    bars = barcode(k)
    t = total(k)
    for (src, tgt), n in bars.pairs.items():
        assert n > 0
        assert sum(tgt) == sum(src) + 1
        assert tgt[0] >= src[0]
    betti = dims(k.p_lo, k.p_hi)
    sizes = {}
    for key, n in k.dims().items():
        sizes[sum(key)] = sizes.get(sum(key), 0) + n
    ranks = {}
    for deg in range(t.lo - 1, t.hi + 2):
        ranks[deg] = sizes.get(deg, 0) - betti.get(deg, 0) - ranks.get(deg - 1, 0)
        paired = sum(n for (src, _tgt), n in bars.pairs.items() if sum(src) == deg)
        unpaired = sum(n for key, n in bars.unpaired.items() if sum(key) == deg)
        assert paired == ranks[deg]
        assert unpaired == betti.get(deg, 0) == bars.betti.get(deg, 0)
    assert sorted(bars.betti) == sorted(sizes)


def test_pairing_invariants_on_seeded_complexes():
    for k in seeded_complexes(2103, 300):
        _pairing_invariants(k, windows(k))


@pytest.mark.parametrize("name", ["IW", "T1xIW", "T2xIW", "IWxIW"])
def test_pairing_invariants_on_the_ladder(name):
    _pairing_invariants(ladder()[name].complex, ladder_windows(name))


# sha256 over (pairs, unpaired, betti) of every window_barcode below, in
# their insertion order, taken when window_barcode counted per basis
# position: the per-cell count keeps the pairing and the order that
# stabilization_index, filtration and the printers read
WINDOW_BARCODE_DIGEST = "b28251416e0e6ed9af3285eb732db9bcc083716d21f19d16dd0a93156303435e"


def _pinned_complexes():
    """The ladder rungs IW, T1xIW, T2xIW and IWxIW, then 240 seeded complexes
    of column and row spans 1-4, every other one with fractional entries
    (d1 / 2 and d2 * 2/3)."""
    yield from (ladder()[name].complex for name in ("IW", "T1xIW", "T2xIW", "IWxIW"))
    rng = random.Random(2113)
    half, two_thirds = Fraction(1, 2), Fraction(2, 3)
    for n in range(240):
        k = random_double_complex(rng, p_span=rng.randint(1, 4), q_span=rng.randint(1, 4))
        if n % 2:
            k = DoubleComplex(k.dims(), {key: m.scale(half) for key, m in k._d1.items()},
                              {key: m.scale(two_thirds) for key, m in k._d2.items()})
        yield k


def test_window_barcodes_keep_their_pinned_pairing_and_order():
    h = hashlib.sha256()
    swept = 0
    for k in _pinned_complexes():
        for s, t in columns(k):
            bars = window_barcode(k, s, t)
            h.update(repr((list(bars.pairs.items()), list(bars.unpaired.items()),
                           bars.betti)).encode())
            swept += 1
    truncation.clear_truncation_cache()
    assert swept > 3_000
    assert h.hexdigest() == WINDOW_BARCODE_DIGEST


def test_zero_complex_has_an_empty_barcode():
    bars = barcode(DoubleComplex({}))
    assert (bars.pairs, bars.unpaired, bars.betti) == ({}, {}, {})
    assert filtration_dims(DoubleComplex({}), 0) == [0]


def test_hodge_filtration_dims_match_the_former_body():
    named = [(ladder()[name].complex, ladder_windows(name)) for name in ("T2", "IW", "T2xIW")]
    checked = nontrivial = 0
    for k, dims in [*((k, windows(k)) for k in seeded_complexes(2107, 300)), *named]:
        for n in range(-2, k.p_hi + 3):
            for deg in range(k.p_lo + k.q_lo - 1, k.p_hi + k.q_hi + 2):
                got = hodge_filtration_dims(k, deg, n)
                assert got == dense_filtration(dims, deg, 0, n, range(n + 2))
                checked += 1
                nontrivial += any(0 < m < got[0] for m in got)
        for deg in range(k.p_lo + k.q_lo - 1, k.p_hi + k.q_hi + 2):
            want = dense_filtration(dims, deg, 0, k.p_hi, range(k.p_hi + 2))
            assert hodge_filtration_dims(k, deg) == want
    truncation.clear_truncation_cache()
    assert checked > 10_000 and nontrivial >= 20


# -- pages --------------------------------------------------------------------


def _pages_match(k):
    bars = barcode(k)
    for r in range(1, stabilization_bound(k) + 2):
        pg = page(k, r)
        assert page_reads(bars, r) == (pg.dims(), pg.diff_ranks())


def test_page_reads_match_the_subquotient_pages_on_seeded_complexes():
    longest = 0
    for k in seeded_complexes(2104, 1000):
        _pages_match(k)
        lengths = [tgt[0] - src[0] for src, tgt in barcode(k).pairs]
        longest = max([longest, *lengths])
    spectral.clear_page_cache()
    assert longest >= 3


@pytest.mark.parametrize("name", ["IW", "T1xIW"])
def test_page_reads_match_the_subquotient_pages_on_the_ladder(name):
    _pages_match(ladder()[name].complex)
    spectral.clear_page_cache()


# -- the size cap -----------------------------------------------------------------


def test_the_cap_reduces_the_window_not_the_model(monkeypatch, tmp_path, capsys):
    # the memo is keyed by value: drop windows an earlier test computed
    # under the default cap
    truncation.clear_truncation_cache()
    monkeypatch.setenv("SPECTRA_DR_MAX_DIM", "120")
    k = product_model(torus_model(2), lie_model(iwasawa_spec())).complex
    assert hyper_dims(k, (0, 0)) == {0: 1, 1: 4, 2: 7, 3: 7, 4: 4, 5: 1}
    with pytest.raises(ValidationError, match=re.escape(T2IW_CAP_MESSAGE)):
        hyper_dims(k, (1, 2))
    with pytest.raises(ValidationError,
                       match=re.escape("total degree 4 has dim 210 > SPECTRA_DR_MAX_DIM=120")):
        filtration_dims(k, 3)
    path = tmp_path / "t2xiw.json"
    path.write_text(json.dumps(k.to_json()))
    assert cli.main(["truncate", str(path), "--window", "0,0", "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out)["hyper"] == {"0": 1, "1": 4, "2": 7, "3": 7, "4": 4, "5": 1}
    assert cli.main(["truncate", str(path), "--window", "1,2"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {T2IW_CAP_MESSAGE}\n")
    truncation.clear_truncation_cache()


# -- the memo -----------------------------------------------------------------------


def test_the_clear_functions_empty_the_window_memo():
    k = ladder()["IW"].complex
    hyper_dims(k, (0, 1))
    assert truncation.window_barcode.cache_info().currsize > 0
    linalg.clear_caches()
    cochain.clear_cohomology_cache()
    bicomplex.clear_total_cache()
    spectral.clear_page_cache()
    truncation.clear_truncation_cache()
    assert truncation.window_barcode.cache_info().currsize == 0
    # no memo rides on the complex itself, so no job can see another's: the
    # memos hold it only through the weak-reference slot
    assert DoubleComplex.__slots__ == ("p_lo", "p_hi", "q_lo", "q_hi")
    assert cochain.GradedComplex.__slots__ == ("_dims", "_diffs", "_hash", "_cells",
                                               "__weakref__")


CLEAR_NAMES = [
    (linalg, "clear_caches"),
    (cochain, "clear_cohomology_cache"),
    (bicomplex, "clear_total_cache"),
    (spectral, "clear_page_cache"),
    (truncation, "clear_truncation_cache"),
]


def test_the_registry_holds_the_ten_memos():
    memos = [linalg.rank, linalg.kernel_basis, linalg.pivot_columns, cochain.cohomology,
             bicomplex.total, spectral.page, spectral.window_barcode,
             truncation.truncated_total, tensorops.quad_tensor, tensorops.ss_collapse]
    assert len(linalg._MEMOS) == 10
    assert {id(f) for f in linalg._MEMOS} == {id(f) for f in memos}
    assert all(f is not cli._parser for f in linalg._MEMOS)
    for module, name in CLEAR_NAMES:
        assert getattr(module, name) is linalg.clear_caches


@pytest.mark.parametrize("module, name", CLEAR_NAMES,
                         ids=[name for _module, name in CLEAR_NAMES])
def test_each_clear_name_empties_every_memo(module, name):
    k = ladder()["IW"].complex
    convergence_check(k)
    hyper_dims(k, (1, 2))
    cochain.cohomology(truncated_total(k, 0, 1), 1)
    linalg.pivot_columns(total(k).diff(2))
    tensorops.ss_collapse(tensorops.quad_tensor(k, k))
    assert all(f.cache_info().currsize > 0 for f in linalg._MEMOS)
    getattr(module, name)()
    assert [f.cache_info().currsize for f in linalg._MEMOS] == [0] * 10


@pytest.mark.parametrize("name", ["T1xIW", "IWxIW"])
def test_the_spectral_command_reduces_each_complex_once(name, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(ladder()[name].complex.to_json()))
    linalg.clear_caches()
    assert cli.main(["spectral", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    info = window_barcode.cache_info()
    # the entry went with the command's complex
    assert (info.misses, info.currsize) == (1, 0)
    assert info.hits >= 1  # stable_at and the limit page read the same reduction
    linalg.clear_caches()


def test_convergence_and_filtration_reads_share_one_reduction():
    for k in [*seeded_complexes(2108, 20), ladder()["IW"].complex, ladder()["T1xIW"].complex]:
        linalg.clear_caches()
        assert convergence_check(k).ok
        for deg in range(k.p_lo + k.q_lo - 1, k.p_hi + k.q_hi + 2):
            filtration_dims(k, deg)
        assert window_barcode.cache_info().misses == 1
    linalg.clear_caches()
