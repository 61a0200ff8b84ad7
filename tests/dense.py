"""Dense Fraction oracles shared by the tests.

Everything here runs on plain lists of Fractions taken through the public
RatMatrix.row(), or on a complex's stored pieces and blocks, and shares no
elimination, assembly or layout code with the engine: Gauss-Jordan to the
reduced echelon form, and complexes summed into a coarser grading, such as
the total complex of a column window, assembled block by block from the
parent's stored blocks."""

from fractions import Fraction
from functools import cache


def dense(m):
    """The rows of m as lists of Fractions."""
    return [list(m.row(i)) for i in range(m.rows)]


def rref(rows, lead_cols):
    """Reduce rows in place to reduced echelon form on the first lead_cols
    columns; return (pivot columns, rows)."""
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(lead_cols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        inv = Fraction(1) / prow[c]
        if inv != 1:
            rows[r] = prow = [x * inv for x in prow]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, rows


def rank(m):
    """The rank of a RatMatrix."""
    return len(rref(dense(m), m.cols)[0])


def collapsed(dims, sums, group):
    """A complex summed into a coarser grading, assembled here: dims maps
    each key to its piece dimension, group maps a key to its collapsed key,
    and sums lists, for each differential of the result, the (blocks, step)
    pairs of the differentials summed into it.  The summands of a collapsed
    key sit back to back in ascending key order.  Returns (collapsed key ->
    dimension, collapsed key -> offset of each key, [collapsed key -> dense
    rows of each differential out of it, where its target is nonzero])."""
    sizes, offsets = {}, {}
    for key, n in sorted(dims.items()):
        g = group(key)
        offsets[key] = sizes.get(g, 0)
        sizes[g] = sizes.get(g, 0) + n
    out = [{} for _ in sums]
    for mats, pairs in zip(out, sums):
        for blocks, step in pairs:
            for key, m in blocks.items():
                tgt = step(key)
                if key not in offsets or tgt not in offsets:
                    continue
                g, tg = group(key), group(tgt)
                rows = mats.setdefault(g, [[Fraction(0)] * sizes[g] for _ in range(sizes[tg])])
                r0, c0 = offsets[tgt], offsets[key]
                for i, row in enumerate(dense(m)):
                    rows[r0 + i][c0:c0 + m.cols] = row
    return sizes, offsets, out


def quad_collapsed(a):
    """collapsed() of a quad complex into the grading (p + q, r + s): d1
    sums the quad's first two differentials and d2 its last two."""
    pairs = list(zip(a._diffs, a._STEPS))
    return collapsed(a.dims(), [pairs[:2], pairs[2:]], lambda c: (c[0] + c[1], c[2] + c[3]))


def right(key):
    """The step of d1, from (p, q) to (p + 1, q)."""
    return key[0] + 1, key[1]


def up(key):
    """The step of d2, from (p, q) to (p, q + 1)."""
    return key[0], key[1] + 1


def window_dims(k, s, t):
    """Window hypercohomology of (s, t) by dense ranks of the window's total
    complex, assembled by collapsed() from k's stored pieces and d1/d2
    blocks: a piece is kept when its column lies in [s, t], a block when its
    source and target are both kept.  Returns degree -> nonzero dimension,
    degrees ascending."""
    pieces = {key: n for key, n in k.dims().items() if s <= key[0] <= t}
    dims, _offsets, (diffs,) = collapsed(pieces, [[(k._d1, right), (k._d2, up)]], sum)
    ranks = {d: len(rref(diffs.get(d, []), n)[0]) for d, n in dims.items()}
    out = {d: n - ranks[d] - ranks.get(d - 1, 0) for d, n in sorted(dims.items())}
    return {d: n for d, n in out.items() if n}


def windows(k):
    """window_dims of k as a function of (s, t), computed once per window."""
    return cache(lambda s, t: window_dims(k, s, t))


def convolve(a, b):
    """The Künneth convolution of two dimension tables (degree -> dim)."""
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def connecting_ranks(a, b, c):
    """The rank of each connecting map H^d(C) -> H^{d+1}(A) of a short exact
    sequence 0 -> A -> B -> C -> 0, which exactness fixes from the
    cohomology dimensions a, b, c (degree -> dimension): d_d = a_d + c_d -
    b_d - d_{d-1}, zero below the lowest degree and above the highest."""
    degrees = a.keys() | b.keys() | c.keys()
    out, conn = {}, 0
    for d in range(min(degrees, default=0), max(degrees, default=-1) + 1):
        conn = out[d] = a.get(d, 0) + c.get(d, 0) - b.get(d, 0) - conn
        assert conn >= 0
    assert conn == 0
    return out


def filtration(dims, s, t, deg, p):
    """The dimension of the image of H^deg of the window (p, t) in H^deg of
    the window (s, t): the kernel of the connecting map, by exactness of
    0 -> W(p, t) -> W(s, t) -> W(s, p - 1) -> 0.  dims(a, b) gives the
    window dimensions, window_dims or a cache of it."""
    if p <= s:
        return dims(s, t).get(deg, 0)
    if p > t:
        return 0
    a, b, c = dims(p, t), dims(s, t), dims(s, p - 1)
    return a.get(deg, 0) - connecting_ranks(a, b, c).get(deg - 1, 0)
