"""Every total, induced map of totals and quad collapse against the
hand-written bodies it replaced: total, total_map and ss_collapse are single
calls into GradedComplex._collapse / GradedMap._collapse, block_offsets
reads GradedComplex._layout, as do total_blocks and collapse_summands (kept
here: the engine no longer calls them), and the
spectral and truncation filtration cuts read one offset.  Each must give
results equal, of the same type and in the same key order, to the ones the
per-operation loops built."""

import random
from itertools import combinations_with_replacement

from spectra_dr.bicomplex import (
    BicomplexMap,
    DoubleComplex,
    block_offsets,
    direct_sum2,
    filtration_cut,
    identity_bicomplex_map,
    total,
    total_map,
)
from spectra_dr.cochain import ChainMap, CochainComplex, cohomology
from spectra_dr.errors import WitnessFailure
from spectra_dr.linalg import RatMatrix
from spectra_dr.models import iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import parity_iso, quad_tensor, ss_collapse
from spectra_dr.truncation import connecting_matrix, truncate, window_map

# -- two reads of GradedComplex._layout, checked against the old bodies ----


def total_blocks(k, deg):
    """Nonzero bidegrees (p, deg-p) in total degree deg, p ascending."""
    return [key for key, _off, _n in k._layout().get(deg, ())]


def collapse_summands(a, k, l):
    """Nonzero cells (p, q, r, s) with p+q = k, r+s = l in (p, r) lex order,
    with their offsets: (p, q, r, s, offset, size)."""
    return [(*key, off, n) for key, off, n in a._layout().get((k, l), ())]


# -- the hand-written bodies, kept as oracles -------------------------------


def old_total_blocks(k, deg):
    return [(p, deg - p) for p in k.p_range() if k.dim(p, deg - p)]


def old_block_offsets(k, deg):
    out = []
    off = 0
    for (p, q) in old_total_blocks(k, deg):
        n = k.dim(p, q)
        out.append((p, q, off, n))
        off += n
    return out


def old_total(k):
    if k.is_zero():
        return CochainComplex({})
    lo = k.p_lo + k.q_lo
    hi = k.p_hi + k.q_hi
    dims = {}
    for deg in range(lo, hi + 1):
        n = sum(k.dim(p, deg - p) for p in k.p_range())
        if n:
            dims[deg] = n
    d1, d2 = k._diffs
    diffs = {}
    for deg in range(lo, hi):
        if deg not in dims or deg + 1 not in dims:
            continue
        tpos = {(p, q): off for (p, q, off, _n) in old_block_offsets(k, deg + 1)}
        blocks = []
        for (p, q, coff, _n) in old_block_offsets(k, deg):
            if (p, q) in d1:
                blocks.append((tpos[(p + 1, q)], coff, d1[(p, q)]))
            if (p, q) in d2:
                blocks.append((tpos[(p, q + 1)], coff, d2[(p, q)]))
        diffs[deg] = RatMatrix.from_blocks(dims[deg + 1], dims[deg], blocks)
    return CochainComplex(dims, diffs)


def old_total_map(f):
    src_t = old_total(f.source)
    tgt_t = old_total(f.target)
    mats = {}
    for deg in range(min(src_t.lo, tgt_t.lo), max(src_t.hi, tgt_t.hi) + 1):
        rows = tgt_t.dim(deg)
        cols = src_t.dim(deg)
        if rows == 0 or cols == 0:
            continue
        tpos = {(p, q): off for (p, q, off, _n) in old_block_offsets(f.target, deg)}
        blocks = [
            (tpos[(p, q)], coff, f._mats[(p, q)])
            for (p, q, coff, _n) in old_block_offsets(f.source, deg)
            if (p, q) in f._mats
        ]
        mats[deg] = RatMatrix.from_blocks(rows, cols, blocks)
    return ChainMap(src_t, tgt_t, mats)


def old_collapse_summands(a, k, l):
    cells = sorted(
        (key for key in a.keys() if key[0] + key[1] == k and key[2] + key[3] == l),
        key=lambda key: (key[0], key[2]),
    )
    out = []
    off = 0
    for key in cells:
        n = a.dim(key)
        out.append((*key, off, n))
        off += n
    return out


def old_ss_collapse(a):
    if a.is_zero():
        return DoubleComplex({})
    ks = sorted({key[0] + key[1] for key in a.keys()})
    ls = sorted({key[2] + key[3] for key in a.keys()})
    dims = {}
    layout = {}
    for k in ks:
        for l in ls:
            cells = old_collapse_summands(a, k, l)
            n = sum(c[5] for c in cells)
            if n:
                dims[(k, l)] = n
                layout[(k, l)] = cells
    d1_out = {}
    d2_out = {}
    for (k, l), cells in layout.items():
        for tdeg, directions, out in (
            ((k + 1, l), (0, 1), d1_out),
            ((k, l + 1), (2, 3), d2_out),
        ):
            tgt = layout.get(tdeg)
            if tgt is None:
                continue
            tpos = {cell[:4]: cell[4] for cell in tgt}
            blocks = [
                (tpos[a._STEPS[i](cell[:4])], cell[4], a._diffs[i][cell[:4]])
                for cell in cells
                for i in directions
                if cell[:4] in a._diffs[i]
            ]
            if blocks:
                out[(k, l)] = RatMatrix.from_blocks(dims[tdeg], dims[(k, l)], blocks)
    return DoubleComplex(dims, d1_out, d2_out)


def old_suffix_columns(k, p, deg):
    idx = []
    for (bp, _bq, off, n) in old_block_offsets(k, deg):
        if bp >= p:
            idx.extend(range(off, off + n))
    return idx


def old_prefix_rows(k, p, deg):
    idx = []
    for (bp, _bq, off, n) in old_block_offsets(k, deg):
        if bp < p:
            idx.extend(range(off, off + n))
    return idx


def old_connecting_matrix(s_cx, r, s, t, k):
    a = truncate(s_cx, (s, t))
    b = truncate(s_cx, (r, t))
    c = truncate(s_cx, (r, s - 1))
    tb, ta, tc = old_total(b), old_total(a), old_total(c)
    h_c = cohomology(tc, k)
    h_a = cohomology(ta, k + 1)
    if h_c.dim == 0 or ta.dim(k + 1) == 0:
        return RatMatrix.zeros(h_a.dim, h_c.dim)
    apos = {(p, q): off for (p, q, off, _n) in old_block_offsets(b, k)}
    sec = RatMatrix.from_blocks(
        tb.dim(k), tc.dim(k),
        [(apos[(p, q)], soff, RatMatrix.identity(n))
         for (p, q, soff, n) in old_block_offsets(c, k)],
    )
    lifted = tb.diff(k) @ (sec @ h_c.representative_basis)
    quotient, keep = [], []
    for (p, _q, off, n) in old_block_offsets(b, k + 1):
        (quotient if p < s else keep).extend(range(off, off + n))
    if not lifted.submatrix(quotient, range(lifted.cols)).is_zero():
        raise WitnessFailure("connecting map left a component in the quotient window")
    return h_a.reduce(lifted.submatrix(keep, range(lifted.cols)))


# -- equality on seeded inputs ----------------------------------------------


def _same(got, want):
    assert type(got) is type(want)
    assert got == want


def _same_complex(got, want):
    """Equal, of one type, and with the pieces and blocks in one key order."""
    _same(got, want)
    assert list(got._dims) == list(want._dims)
    assert [list(d) for d in got._diffs] == [list(d) for d in want._diffs]


def _padded(lo, hi):
    return range(lo - 1, hi + 2) if lo <= hi else range(-1, 2)


def test_totals_and_layouts_match_the_old_bodies():
    rng = random.Random(1900)
    for _ in range(500):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))
        t = total(k)
        _same_complex(t, old_total(k))
        for deg in _padded(t.lo, t.hi):
            assert total_blocks(k, deg) == old_total_blocks(k, deg)
            assert block_offsets(k, deg) == old_block_offsets(k, deg)
            for p in _padded(k.p_lo, k.p_hi):
                cut = filtration_cut(k, p, deg)
                assert list(range(cut, t.dim(deg))) == old_suffix_columns(k, p, deg)
                assert list(range(cut)) == old_prefix_rows(k, p, deg)


def _seeded_bicomplex_maps(rng):
    """Identities, window inclusions and projections, diagonals into a
    doubled complex, and parity isomorphisms of tensor products."""
    k = random_double_complex(rng, p_span=rng.randint(1, 4), q_span=rng.randint(1, 4))
    yield identity_bicomplex_map(k)
    lo, hi = k.p_lo, k.p_hi
    a, b = sorted(rng.randint(lo - 1, hi + 1) for _ in range(2))
    c = rng.randint(b, hi + 1)
    yield window_map(k, (b, c), (a, c))
    yield window_map(k, (a, c), (a, b))
    kk = direct_sum2([k, k])
    yield BicomplexMap(k, kk, {key: RatMatrix.vstack([RatMatrix.identity(n)] * 2)
                               for key, n in k.dims().items()})
    yield parity_iso(random_complex(rng, max_dim=3, span=3),
                     random_complex(rng, max_dim=3, span=3))


def test_total_maps_match_the_old_body():
    rng = random.Random(1901)
    checked = 0
    for _ in range(100):
        for f in _seeded_bicomplex_maps(rng):
            got, want = total_map(f), old_total_map(f)
            _same(got, want)
            assert list(got._mats) == list(want._mats)
            checked += 1
    assert checked == 500


def test_quad_collapses_match_the_old_bodies():
    rng = random.Random(1902)
    for _ in range(16):
        k = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        l = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        a = quad_tensor(k, l)
        ss = ss_collapse(a)
        _same_complex(ss, old_ss_collapse(a))
        for kk in _padded(ss.p_lo, ss.p_hi):
            for ll in _padded(ss.q_lo, ss.q_hi):
                assert collapse_summands(a, kk, ll) == old_collapse_summands(a, kk, ll)


def test_connecting_matrices_match_the_old_body():
    rng = random.Random(1903)
    nonzero = 0
    for _ in range(30):
        k = random_double_complex(rng, p_span=rng.randint(2, 4), q_span=rng.randint(1, 3))
        for r, s, t in combinations_with_replacement(k.p_range(), 3):
            for deg in _padded(k.p_lo + k.q_lo, k.p_hi + k.q_hi):
                got = connecting_matrix(k, r, s, t, deg)
                assert got == old_connecting_matrix(k, r, s, t, deg)
                nonzero += not got.is_zero()
    assert nonzero >= 40


def _old_product_labels(x, y):
    """The labels product_model built, one collapse_summands read per cell."""
    quad = quad_tensor(x.complex, y.complex)
    cx = old_ss_collapse(quad)
    labels = {}
    for (k, l) in cx.dims():
        labs = [None] * cx.dim(k, l)
        for (p, q, r, s, off, _size) in old_collapse_summands(quad, k, l):
            ylabs = y.labels[(q, s)]
            ny = len(ylabs)
            for ix, (cx_copy, sx, i1, j1) in enumerate(x.labels[(p, r)]):
                for iy, (cy_copy, sy, i2, j2) in enumerate(ylabs):
                    sign = sx * sy * (-1 if (r * q) % 2 else 1)
                    labs[off + ix * ny + iy] = (
                        cx_copy * y.twist_rank + cy_copy,
                        sign,
                        i1 + tuple(g + x.n for g in i2),
                        j1 + tuple(g + x.n for g in j2),
                    )
        labels[(k, l)] = tuple(labs)
    return cx, labels


def test_product_model_matches_the_old_labels():
    t2, iw = torus_model(2), lie_model(iwasawa_spec())
    for x, y in ((t2, iw), (iw, iw)):
        got = product_model(x, y)
        cx, labels = _old_product_labels(x, y)
        _same_complex(got.complex, cx)
        assert got.labels == labels
        assert list(got.labels) == list(labels)
