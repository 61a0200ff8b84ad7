"""Every total, induced map of totals and quad collapse against an assembly
that shares no code with the graded core: dense.collapsed places each
stored block at its source and target offsets, summands back to back in
ascending key order, which is the layout contract of GradedComplex._layout.
_layout and the filtration cut are read against the piece
dimensions, connecting maps against the ranks exactness fixes from dense
window dimensions."""

import random
from itertools import combinations_with_replacement

from dense import collapsed, connecting_ranks, dense, quad_collapsed, right, up, window_dims
from dense import rank as dense_rank
from ladder import padded

from spectra_dr.bicomplex import (
    BicomplexMap,
    DoubleComplex,
    direct_sum2,
    filtration_cut,
    identity_bicomplex_map,
    total,
    total_map,
)
from spectra_dr.cochain import ChainMap, CochainComplex
from spectra_dr.linalg import F0, RatMatrix
from spectra_dr.models import iwasawa_spec, lie_model, product_model, torus_model
from spectra_dr.randgen import random_complex, random_double_complex
from spectra_dr.tensorops import parity_iso, quad_tensor, ss_collapse
from spectra_dr.truncation import connecting_matrix, window_map


def _total(k):
    """(degree -> dim, key -> offset, degree -> dense differential) of the
    total of k."""
    sizes, offsets, (diffs,) = collapsed(k.dims(), [[(k._d1, right), (k._d2, up)]], sum)
    return sizes, offsets, diffs


def test_totals_and_layouts_match_the_old_bodies():
    rng = random.Random(1900)
    for _ in range(500):
        k = random_double_complex(rng, p_span=rng.randint(1, 5), q_span=rng.randint(1, 5))
        t = total(k)
        sizes, offsets, diffs = _total(k)
        assert type(t) is CochainComplex and t.dims() == sizes
        for deg in padded(t.lo, t.hi):
            want = diffs.get(deg, [[0] * t.dim(deg)] * t.dim(deg + 1))
            assert dense(t.diff(deg)) == want
            pieces = sorted((p, q) for p, q in k.dims() if p + q == deg)
            assert k._layout().get(deg, []) == [((p, q), offsets[p, q], k.dim(p, q))
                                                for p, q in pieces]
            for p in padded(k.p_lo, k.p_hi):
                assert filtration_cut(k, p, deg) == sum(k.dim(c, deg - c) for c, _q in pieces
                                                        if c < p)


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
    eye = RatMatrix.identity
    yield BicomplexMap(k, kk, {key: RatMatrix.from_blocks(2 * n, n, [(0, 0, eye(n)), (n, 0, eye(n))])
                               for key, n in k.dims().items()})
    yield parity_iso(random_complex(rng, max_dim=3, span=3),
                     random_complex(rng, max_dim=3, span=3))


def test_total_maps_match_the_old_body():
    """The total of f places each block f(p, q) at the offsets of (p, q) in
    the totals of its source and target."""
    rng = random.Random(1901)
    checked = 0
    for _ in range(100):
        for f in _seeded_bicomplex_maps(rng):
            got = total_map(f)
            assert type(got) is ChainMap
            (src, soff, _), (tgt, toff, _) = _total(f.source), _total(f.target)
            assert (got.source, got.target) == (total(f.source), total(f.target))
            for deg in range(min(src | tgt, default=0), max(src | tgt, default=-1) + 1):
                want = [[F0] * src.get(deg, 0) for _ in range(tgt.get(deg, 0))]
                for (p, q), m in f._mats.items():
                    if p + q == deg:
                        for i, row in enumerate(dense(m)):
                            want[toff[p, q] + i][soff[p, q]:soff[p, q] + m.cols] = row
                assert dense(got.mat(deg)) == want
            checked += 1
    assert checked == 500


def test_quad_collapses_match_the_old_bodies():
    """At (k, l) the cells (p, q, r, s) with p + q = k and r + s = l sit in
    ascending key order, which is ascending (p, r); d1 sums the quad's first
    two differentials and d2 its last two."""
    rng = random.Random(1902)
    for _ in range(16):
        k = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        l = random_double_complex(rng, p_span=rng.randint(1, 3), q_span=rng.randint(1, 3),
                                  blocks=2)
        a = quad_tensor(k, l)
        ss = ss_collapse(a)
        sizes, _offsets, (d1, d2) = quad_collapsed(a)
        assert type(ss) is DoubleComplex and ss.dims() == sizes
        for key, n in sizes.items():
            for step, got, want in ((right, ss.d1, d1), (up, ss.d2, d2)):
                if step(key) in sizes:
                    assert dense(got(*key)) == want.get(key, [[0] * n] * sizes[step(key)])


def test_connecting_matrices_match_the_old_body():
    """Exactness of the long sequence of 0 -> S(s,t) -> S(r,t) -> S(r,s-1) -> 0
    fixes the rank of each connecting map from the dense dimensions of the
    three windows (dense.connecting_ranks).  Each matrix has that rank by
    dense elimination."""
    rng = random.Random(1903)
    nonzero = 0
    for _ in range(30):
        k = random_double_complex(rng, p_span=rng.randint(2, 4), q_span=rng.randint(1, 3))
        for r, s, t in combinations_with_replacement(k.p_range(), 3):
            a, b, c = window_dims(k, s, t), window_dims(k, r, t), window_dims(k, r, s - 1)
            ranks = connecting_ranks(a, b, c)
            for deg in padded(k.p_lo + k.q_lo, k.p_hi + k.q_hi):
                got = connecting_matrix(k, r, s, t, deg)
                assert got.shape == (a.get(deg + 1, 0), c.get(deg, 0))
                assert dense_rank(got) == ranks.get(deg, 0)
                nonzero += ranks.get(deg, 0) > 0
    assert nonzero >= 40


def test_product_model_matches_the_old_labels():
    """product_model collapses the quad tensor of its factors' complexes,
    and the label at offset(p, q, r, s) + ix * ny + iy of the cell (k, l) is
    the x label ix of (p, r) times the y label iy of (q, s): copy
    cx * y.twist_rank + cy, sign sx * sy * (-1)^(r q), y generators shifted
    by x.n.  Offsets come from dense.collapsed, not from the graded core.
    Twisted factors on either side and a product factor, whose labels are
    still unread when the product is built, follow the same rule."""
    t1, t2, iw = torus_model(1), torus_model(2), lie_model(iwasawa_spec())
    t1_2 = torus_model(1, 2)
    for x, y in ((t2, iw), (iw, iw), (t1_2, iw), (iw, t1_2), (t1, product_model(t1, iw))):
        got = product_model(x, y)
        a = quad_tensor(x.complex, y.complex)
        sizes, offsets, (d1, d2) = quad_collapsed(a)
        assert got.complex.dims() == sizes
        for key, n in sizes.items():
            for step, d, want in ((right, got.complex.d1, d1), (up, got.complex.d2, d2)):
                if step(key) in sizes:
                    assert dense(d(*key)) == want.get(key, [[0] * n] * sizes[step(key)])
        labels = {key: [None] * n for key, n in sizes.items()}
        for (p, q, r, s), off in offsets.items():
            ylabs = y.labels[(q, s)]
            for ix, (cx, sx, i1, j1) in enumerate(x.labels[(p, r)]):
                for iy, (cy, sy, i2, j2) in enumerate(ylabs):
                    labels[(p + q, r + s)][off + ix * len(ylabs) + iy] = (
                        cx * y.twist_rank + cy,
                        sx * sy * (-1 if (r * q) % 2 else 1),
                        i1 + tuple(g + x.n for g in i2),
                        j1 + tuple(g + x.n for g in j2),
                    )
        assert got.labels == {key: tuple(labs) for key, labs in labels.items()}
        assert list(got.labels) == list(got.complex.dims())
