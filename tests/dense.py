"""Dense Fraction oracles shared by the tests.

Everything here runs on plain lists of Fractions taken through the public
RatMatrix.row(), or on a complex's stored pieces and blocks, and shares no
elimination, assembly, layout or validation code with the engine:
Gauss-Jordan to the reduced echelon form, complexes summed into a coarser
grading, such as the total complex of a column window, assembled block by
block from the parent's stored blocks, and the squares of a double complex
or of a map multiplied out densely over their bounding box.  M is the
one literal matrix constructor of the tests."""

from fractions import Fraction
from functools import cache

from spectra_dr.linalg import RatMatrix


def M(rows):
    """The RatMatrix of a list of rows of rational literals."""
    return RatMatrix.from_rows(rows)


def dense(m):
    """The rows of m as lists of Fractions, each zero the int 0, which rref
    tests for zero much faster than a Fraction."""
    return [[x if x else 0 for x in m.row(i)] for i in range(m.rows)]


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
            rows[r] = prow = [x * inv if x else x for x in prow]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) or 0 if b else a for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots, rows


def rank(m):
    """The rank of a RatMatrix."""
    return len(rref(dense(m), m.cols)[0])


def cohomology(dims, diffs):
    """Degree -> nonzero cohomology dimension, degrees ascending, of the
    complex with degree -> dimension dims and degree -> dense rows of the
    differential out of that degree diffs (absent: zero)."""
    ranks = {d: len(rref(diffs.get(d, []), n)[0]) for d, n in dims.items()}
    out = {d: n - ranks[d] - ranks.get(d - 1, 0) for d, n in sorted(dims.items())}
    return {d: n for d, n in out.items() if n}


def betti(c):
    """The cohomology of a cochain complex c from its stored blocks."""
    dims, _offsets, (diffs,) = collapsed(c.dims(), [[(c._diffs[0], lambda d: d + 1)]],
                                         lambda d: d)
    return cohomology(dims, diffs)


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
                rows = mats.setdefault(g, [[0] * sizes[g] for _ in range(sizes[tg])])
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
    return cohomology(dims, diffs)


def windows(k):
    """window_dims of k as a function of (s, t), computed once per window: a
    window is first clamped to k's columns, which leaves its pieces as they
    are."""
    dims = cache(lambda s, t: window_dims(k, s, t))
    return lambda s, t: dims(max(s, k.p_lo), min(t, k.p_hi))


def sort_sign(seq):
    """(the sign of the permutation that sorts seq, the parity of its
    inversions; the sorted tuple), and (0, ()) when seq repeats an
    element."""
    seq = list(seq)
    if len(set(seq)) < len(seq):
        return 0, ()
    inversions = sum(a > b for x, a in enumerate(seq) for b in seq[x + 1:])
    return (-1) ** inversions, tuple(sorted(seq))


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


# -- squares ------------------------------------------------------------------


def block(blocks, key, rows, cols):
    """The dense rows of blocks[key], or a rows x cols zero matrix."""
    m = blocks.get(key)
    return dense(m) if m is not None else [[0] * cols for _ in range(rows)]


def vanishes(terms, cols):
    """Whether the sum of the dense products a b, (a, b) in terms, is zero;
    every b has cols columns."""
    out = None
    for a, b in terms:
        prod = [[sum(x * b[i][j] for i, x in enumerate(row) if x) for j in range(cols)]
                for row in a]
        out = prod if out is None else [[x + y for x, y in zip(r, q)] for r, q in zip(out, prod)]
    return not any(any(row) for row in out)


def box(keys):
    """Every key of the bounding box of keys, ascending: degrees, or (p, q)
    with p before q."""
    keys = list(keys)
    if not keys:
        return []
    if type(keys[0]) is int:
        return range(min(keys), max(keys) + 1)
    ps, qs = [key[0] for key in keys], [key[1] for key in keys]
    return [(p, q) for p in range(min(ps), max(ps) + 1) for q in range(min(qs), max(qs) + 1)]


def first_violation(dims, d1, d2):
    """The message of the first square of the double complex (dims, d1, d2)
    that does not vanish, scanning its bounding box with p before q: at each
    nonzero piece d1 d1, then d2 d2, then d1 d2 + d2 d1.  None when every
    square vanishes."""
    def d(blocks, step, key):
        return block(blocks, key, dims.get(step(key), 0), dims.get(key, 0))

    for key in box(key for key, n in dims.items() if n):
        n = dims.get(key, 0)
        if not n:
            continue
        for text, terms in (
                ("d1 o d1 != 0", [(d(d1, right, right(key)), d(d1, right, key))]),
                ("d2 o d2 != 0", [(d(d2, up, up(key)), d(d2, up, key))]),
                ("d1 and d2 do not anticommute", [(d(d1, right, up(key)), d(d2, up, key)),
                                                  (d(d2, up, right(key)), d(d1, right, key))])):
            if not vanishes(terms, n):
                return f"{text} from ({key[0]},{key[1]})"
    return None


def first_square_failure(source, target, mats):
    """The message of the first square t f - f s of the map mats (key ->
    block, absent: zero) from source to target, both cochain or both double
    complexes, that does not vanish: the bounding box of both supports is
    scanned ascending, and at each key the differentials in order.  None
    when every square commutes."""
    if type(next(iter(source.dims() or target.dims()), 0)) is int:
        steps = (lambda k: k + 1,)
        message = "chain map square at degree {1} does not commute".format
    else:
        steps = (right, up)
        message = "bicomplex map square (d{0}) at ({1[0]},{1[1]}) does not commute".format
    sd, td = source.dims(), target.dims()

    def f(key):
        return block(mats, key, td.get(key, 0), sd.get(key, 0))

    for key in box(sd.keys() | td.keys()):
        for i, step in enumerate(steps):
            t = block(target._diffs[i], key, td.get(step(key), 0), td.get(key, 0))
            s = block(source._diffs[i], key, sd.get(step(key), 0), sd.get(key, 0))
            minus = [[-x for x in row] for row in f(step(key))]
            if not vanishes([(t, f(key)), (minus, s)], sd.get(key, 0)):
                return message(i + 1, key)
    return None
