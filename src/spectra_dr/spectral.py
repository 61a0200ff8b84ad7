"""Column-filtration spectral sequence of a bounded double complex.

Everything is phrased inside the total complex T with its fixed block order
(p ascending), where the filtration F^p T^k is simply the suffix of blocks
with column index >= p.  The r-th approximate cycles are

    Z_r^{p,q} = { x in F^p T^{p+q} : D x in F^{p+r} T^{p+q+1} }

and the page term is the subquotient

    E_r^{p,q} = Z_r^{p,q} / ( Z_{r-1}^{p+1,q-1} + D Z_{r-1}^{p-r+1,q+r-2} ),

with d_r induced by the total differential.  Both denominator summands are
contained in Z_r^{p,q}, and the subquotient constructor checks that
containment on every call, so a convention error cannot pass silently.

d_r maps E_r^{p,q} to E_r^{p+r,q-r+1}, so it moves the filtration degree by
r.  Once r exceeds the column span p_hi - p_lo, every d_r leaves the column
support on one side or the other and is zero, so page p_hi - p_lo + 1 is
already the limit (McCleary, A User's Guide to Spectral Sequences, 2.2).

The same numbers come from one persistence-style reduction of the total
differential (Edelsbrunner, Letscher and Zomorodian, DCG 2002; Basu and
Parida, arXiv:1308.0801).  Order the basis of T by filtration, F^{p_hi}
first: in the block order that is the highest index first.  window_barcode
reduces the columns of each D^deg in that order, adding to a column only
reduced columns of higher index, until no two nonzero columns share a low,
their least row index (so their leftmost block).  A column at (p, q) whose
low lies at (p', q') pairs the source (p, q) with the target (p', q'), one
total degree up and p' >= p; every other element is unpaired.  The reads:
- a pair of length r = p' - p is one rank of d_r, and it lives at both ends
  on the pages E_1 .. E_r (a pair of length 0 is gone by E_1); the unpaired
  elements are E_inf, and in degree k there are as many as the Betti
  number of T;
- filtration_dims: the unpaired elements of degree deg in the columns >= p;
- window hypercohomology (truncation.hyper_dims): the unpaired elements of
  degree k in window_barcode, one memo per (complex, window).
- stabilization_index: 1 + the longest pair (1 when no pair has positive
  length); degenerates_at compares r with it, and limit_page builds that
  one page.
page still builds the subquotients above, for the pages the CLI prints and
the bases first_page_map needs; the tests check the page read of the
barcode against them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter

from .bicomplex import (
    BicomplexMap,
    DoubleComplex,
    filtration_cut,
    row_complex,
    total,
    total_map,
    truncate,
)
from .cochain import CochainComplex, cohomology_dim
from .linalg import (
    RatMatrix,
    check_piece_dims,
    clear_caches,
    column_lows,
    induced_map,
    kernel_basis,
    memo,
    rank,
    subquotient,
)
from .report import Report


def _z_basis(k: DoubleComplex, t: CochainComplex, p: int, q: int, r: int) -> RatMatrix:
    """Basis of Z_r^{p,q} as columns in the ambient total space T^{p+q}."""
    deg = p + q
    ambient = t.dim(deg)
    cut = filtration_cut(k, p, deg)
    if cut == ambient:
        return RatMatrix.zeros(ambient, 0)
    kill = filtration_cut(k, p + r, deg + 1)
    if kill:
        d_sub = t.diff(deg).submatrix(range(kill), range(cut, ambient))
        ker = kernel_basis(d_sub)
    else:
        ker = RatMatrix.identity(ambient - cut)
    if ker.cols == 0:
        return RatMatrix.zeros(ambient, 0)
    return RatMatrix.from_blocks(ambient, ker.cols, [(cut, 0, ker)])


class Barcode:
    """The pairing of one filtered reduction of a total differential.

    pairs maps (source, target) bidegrees to the number of pairs between
    them: the target is one total degree up, in a column >= the source's.
    unpaired maps a bidegree to its number of unpaired elements, and betti
    maps each total degree with a nonzero space to its number of unpaired
    elements, the Betti number of the total complex there."""

    __slots__ = ("pairs", "unpaired", "betti")

    def __init__(self, pairs: Counter, unpaired: Counter, betti: dict):
        self.pairs = pairs
        self.unpaired = unpaired
        self.betti = betti

    def filtration(self, deg: int, ps) -> list:
        """For each p in ps, the unpaired elements of total degree deg in the
        columns >= p."""
        here = [(p, n) for (p, q), n in self.unpaired.items() if p + q == deg]
        return [sum(n for c, n in here if c >= p) for p in ps]


@memo
def window_barcode(k: DoubleComplex, s: int, t: int) -> Barcode:
    """The pairing of one filtered reduction of the window truncate(k, (s, t)).

    Each D^deg is reduced column by column (linalg.column_lows) straight
    from the stored d1 and d2 blocks at their layout offsets; T^deg is never
    assembled.  The degrees go up, so a position the degree below paired as
    a target is cleared: its column reduces to zero.  The pairing is counted
    per cell of _layout(), not per position: each low and cleared target is
    found in its cell by bisection over the cell offsets, and a cell's
    unpaired count is its size less its sources and targets.  Raises
    ValidationError as truncate does, and naming the least total degree
    larger than SPECTRA_DR_MAX_DIM, as total does, before any column is read.
    """
    k = truncate(k, (s, t))
    lay = k._layout()
    check_piece_dims({deg: sum(n for _key, _off, n in cells) for deg, cells in lay.items()},
                     noun="total degree")
    at = {key: off for cells in lay.values() for key, off, _n in cells}
    offs = {deg: [off for _key, off, _n in cells] for deg, cells in lay.items()}
    steps, ds = k._STEPS, k._diffs
    pairs, unpaired, betti = Counter(), Counter(), {}
    targets = set()  # the positions of this degree paired from the degree below
    for deg, cells in lay.items():
        lows = column_lows([(at[step(key)], off, d[key]) for key, off, _n in cells
                            for step, d in zip(steps, ds) if key in d], targets)
        here = offs[deg]
        left = [n for _key, _off, n in cells]  # per cell, the elements left unpaired
        for i in targets:
            left[bisect_right(here, i) - 1] -= 1
        for j, i in lows.items():
            c = bisect_right(here, j) - 1
            left[c] -= 1
            pairs[cells[c][0], lay[deg + 1][bisect_right(offs[deg + 1], i) - 1][0]] += 1
        for (key, _off, _n), n in zip(cells, left):
            if n:
                unpaired[key] = n
        betti[deg] = sum(left)
        targets = set(lows.values())
    return Barcode(pairs, unpaired, betti)


def barcode(k: DoubleComplex) -> Barcode:
    """The barcode of k: its window over the whole support."""
    return window_barcode(k, k.p_lo, k.p_hi)


class SpectralPage:
    """One page: terms (subquotients of the total spaces) and the induced
    differentials d_r^{p,q}: E_r^{p,q} -> E_r^{p+r,q-r+1}."""

    __slots__ = ("r", "terms", "diffs")

    def __init__(self, r: int, terms: dict, diffs: dict):
        self.r = r
        self.terms = terms
        self.diffs = diffs

    def dim(self, p: int, q: int) -> int:
        term = self.terms.get((p, q))
        return term.dim if term is not None else 0

    def dims(self) -> dict:
        return {key: t.dim for key, t in self.terms.items() if t.dim}

    def diff_ranks(self) -> dict:
        return {key: n for key, m in self.diffs.items() if (n := rank(m))}

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "terms": {f"{p},{q}": n for (p, q), n in sorted(self.dims().items())},
            "d_r_ranks": {
                f"{p},{q}": n for (p, q), n in sorted(self.diff_ranks().items())
            },
        }

    def __repr__(self) -> str:
        return f"SpectralPage(r={self.r}, dims={self.dims()})"


@memo
def page(k: DoubleComplex, r: int) -> SpectralPage:
    """The r-th page (r >= 1) of the column-filtration spectral sequence."""
    if r < 1:
        raise ValueError(f"pages start at r = 1, got {r}")
    t = total(k)
    terms: dict = {}
    diffs: dict = {}
    if k.is_zero():
        return SpectralPage(r, terms, diffs)

    cycles: dict = {}

    def z(p: int, q: int, rr: int) -> RatMatrix:
        key = (p, q, rr)
        if key not in cycles:
            cycles[key] = _z_basis(k, t, p, q, rr)
        return cycles[key]

    for p in k.p_range():
        for q in k.q_range():
            zr = z(p, q, r)
            b1 = z(p + 1, q - 1, r - 1)
            b2 = t.diff(p + q - 1) @ z(p - r + 1, q + r - 2, r - 1)
            terms[(p, q)] = subquotient(zr, (b1, b2))
    for (p, q), term in terms.items():
        if term.dim == 0:
            continue
        tgt = terms.get((p + r, q - r + 1))
        if tgt is None:
            continue
        diffs[(p, q)] = induced_map(t.diff(p + q), term, tgt)
    return SpectralPage(r, terms, diffs)


def first_page_check(k: DoubleComplex) -> Report:
    """dim E_1^{p,q} must equal h^q of column p taken with d2."""
    rep = Report("first_page")
    p1 = page(k, 1)
    for p in k.p_range():
        col = row_complex(k, p)
        for q in k.q_range():
            rep.add("e1_is_column_cohomology", (p, q), p1.dim(p, q),
                    cohomology_dim(col, q))
    return rep


def stabilization_bound(k: DoubleComplex) -> int:
    """A page index from which nothing can move any more: p_hi - p_lo + 1.

    d_r shifts the column index p by r, so for r > p_hi - p_lo its source or
    its target lies outside the columns p_lo..p_hi and d_r is zero; every
    page from r = p_hi - p_lo + 1 on therefore equals the limit.  The q-span
    plays no part.
    """
    if k.is_zero():
        return 1
    return k.p_hi - k.p_lo + 1


def limit_page(k: DoubleComplex) -> SpectralPage:
    """The stable page: the subquotient page at stabilization_index."""
    return page(k, stabilization_index(k))


def stabilization_index(k: DoubleComplex) -> int:
    """Smallest r whose page already has the limit dimensions.

    A pair of length L lives on the pages 1 .. L and every later page holds
    only the unpaired elements, so this is 1 + the longest pair of the
    barcode, and 1 when no pair has positive length.  No page is built.
    """
    return 1 + max((tgt[0] - src[0] for src, tgt in barcode(k).pairs), default=0)


def degenerates_at(k: DoubleComplex, r: int) -> bool:
    """True when page r already carries the limit dimensions."""
    if r < 1:
        raise ValueError(f"pages start at r = 1, got {r}")
    return r >= stabilization_index(k)


def degenerates_at_first_page(k: DoubleComplex) -> bool:
    """Dimension criterion, no page construction: the sequence degenerates at
    E_1 iff for every k the E_1 row sums equal the total cohomology."""
    t = total(k)
    cols = {p: row_complex(k, p) for p in k.p_range()}
    for deg in range(t.lo, t.hi + 1):
        e1 = sum(cohomology_dim(col, deg - p) for p, col in cols.items())
        if e1 != cohomology_dim(t, deg):
            return False
    return True


def convergence_check(k: DoubleComplex) -> Report:
    """Limit page against the filtration on total cohomology:
    - antidiagonal sums of the limit page equal total Betti numbers,
    - page dimensions never grow with r,
    - graded pieces of the filtration, read from the barcode, match the
      subquotient limit page."""
    rep = Report("convergence")
    t = total(k)
    limit = limit_page(k)
    bound = stabilization_bound(k)
    for deg in range(t.lo, t.hi + 1):
        s = sum(
            limit.dim(p, deg - p) for p in k.p_range()
        )
        rep.add("limit_sum_is_total_betti", deg, s, cohomology_dim(t, deg))
    for r in range(1, bound):
        cur = page(k, r)
        nxt = page(k, r + 1)
        ok = all(
            nxt.dim(p, q) <= cur.dim(p, q)
            for p in k.p_range()
            for q in k.q_range()
        )
        rep.add("page_dims_monotone", r, ok, True)
    for deg in range(t.lo, t.hi + 1):
        fd = filtration_dims(k, deg)
        for i, p in enumerate(range(k.p_lo, k.p_hi + 1)):
            graded = fd[i] - fd[i + 1]
            rep.add("filtration_graded_is_limit", (p, deg - p), graded,
                    limit.dim(p, deg - p))
    return rep


def filtration_dims(k: DoubleComplex, deg: int) -> list:
    """[dim im(H^deg(F^p T) -> H^deg(T)) for p = p_lo .. p_hi+1].

    First entry is the full Betti number, last is 0.  The image has one
    basis class per unpaired element of degree deg in the columns >= p
    (barcode).
    """
    return barcode(k).filtration(deg, range(k.p_lo, k.p_hi + 2))


def first_page_map(f: BicomplexMap) -> dict:
    """Matrices induced on E_1 terms by a map of double complexes."""
    src_page = page(f.source, 1)
    tgt_page = page(f.target, 1)
    tm = total_map(f)
    out = {}
    keys = set(src_page.terms) | set(tgt_page.terms)
    for (p, q) in keys:
        s = src_page.terms.get((p, q))
        t_ = tgt_page.terms.get((p, q))
        sdim = s.dim if s else 0
        tdim = t_.dim if t_ else 0
        if sdim == 0 and tdim == 0:
            continue
        if s is None or t_ is None:
            out[(p, q)] = RatMatrix.zeros(tdim, sdim)
            continue
        out[(p, q)] = induced_map(tm.mat(p + q), s, t_)
    return out


def e1_iso_implies_total_iso_check(f: BicomplexMap) -> Report:
    """If the induced E_1 matrices are all bijective, the map must induce
    isomorphisms on total cohomology; report both sides."""
    from .cochain import is_cohomology_iso

    rep = Report("e1_iso")
    maps = first_page_map(f)
    e1_iso = all(
        m.rows == m.cols and (m.rows == 0 or rank(m) == m.rows)
        for m in maps.values()
    )
    rep.add("e1_bijective", "all", e1_iso, e1_iso)
    if e1_iso:
        rep.add("total_cohomology_iso", "all",
                is_cohomology_iso(total_map(f)), True)
    return rep


clear_page_cache = clear_caches
