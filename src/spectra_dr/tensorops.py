"""Tensor products of complexes and of double complexes.

Sign conventions, fixed once:

- tensor(K, L, parity m) is the double complex with (p, q) piece K^p (x) L^q,
  d1 = dK (x) 1 (no sign) and d2 = (-1)^{m+p} 1 (x) dL.  Basis order inside a
  piece is K-major (index i*dimL + j), matching RatMatrix.kron.
- The two parities are isomorphic via (-1)^q * identity at (p, q).
- quad_tensor of double complexes K, L has pieces A^{p,q,r,s} = K^{p,r} (x)
  L^{q,s} with d1 = dK1 (x) 1, d2 = (-1)^{p+r} 1 (x) dL1, d3 = dK2 (x) 1,
  d4 = (-1)^{p+r} 1 (x) dL2.  Each di squares to zero and all six pairs
  anticommute, so the (p+q, r+s) collapse with D1 = d1 + d2, D2 = d3 + d4 is a
  valid double complex.

The collapse is one call into the graded core (GradedComplex._collapse,
grouping (p, q, r, s) by (p+q, r+s)); the summand order at (k, l), (p, r)
lexicographic ascending, is stated once in GradedComplex._layout.  The
comparison witnesses below depend on that order; collapse_total_check states
its block offsets and bicomplex's certification routine does the rest.

Each object is built once: quad_tensor and ss_collapse are linalg memos (so
the witnesses of one pair share one quad tensor and one collapse, and
clear_caches empties them), and a Kronecker leg d (x) 1 or +-1 (x) d depends
on the other factor only through its piece size, so one leg per (block,
size, sign) is shared by every piece that needs it.  tensor is not memoised.
"""

from __future__ import annotations

from typing import Mapping

from .bicomplex import (
    DoubleComplex,
    BicomplexMap,
    _certified_permutation,
    row_complex,
    total,
)
from .cochain import ChainMap, CochainComplex, GradedComplex, cohomology_dim, direct_sum
from .errors import ValidationError, WitnessFailure
from .linalg import RatMatrix, check_piece_dims, memo
from .report import Report


def _left_legs(blocks: Mapping, dims: Mapping) -> dict:
    """d (x) 1 at (a, b) for every stored block d at a of the left factor
    and every piece b of the right one; absent blocks build nothing.  The
    leg depends on b only through dim b, so each (d, dim b) is built once
    and shared (RatMatrix is immutable)."""
    out = {}
    for a, m in blocks.items():
        legs = {}
        for b, n in dims.items():
            leg = legs.get(n)
            if leg is None:
                leg = legs[n] = RatMatrix.kron(m, RatMatrix.identity(n))
            out[(a, b)] = leg
    return out


def _right_legs(dims: Mapping, blocks: Mapping, degree) -> dict:
    """(-1)^degree(a) 1 (x) d at (a, b) for every piece a of the left factor
    and every stored block d at b of the right one, built once per (d,
    dim a, parity of degree(a)) and shared; 1 (x) -d has the canonical rows
    of -(1 (x) d)."""
    out = {}
    for b, m in blocks.items():
        legs = {}
        for a, n in dims.items():
            key = (n, degree(a) % 2)
            leg = legs.get(key)
            if leg is None:
                leg = legs[key] = RatMatrix.kron(RatMatrix.identity(n), -m if key[1] else m)
            out[(a, b)] = leg
    return out


def tensor(k: CochainComplex, l: CochainComplex, parity: int = 0) -> DoubleComplex:
    """Double complex K (x) L with the parity-m sign on the second leg."""
    if parity not in (0, 1):
        raise ValidationError(f"parity must be 0 or 1, got {parity!r}")
    dims = {}
    for p in k.degrees():
        for q in l.degrees():
            n = k.dim(p) * l.dim(q)
            if n:
                dims[(p, q)] = n
    check_piece_dims(dims)
    return DoubleComplex(dims, _left_legs(k._diffs[0], l._dims),
                         _right_legs(k._dims, l._diffs[0], lambda p: p + parity))


def parity_iso(k: CochainComplex, l: CochainComplex) -> BicomplexMap:
    """The isomorphism tensor(K, L, 0) -> tensor(K, L, 1) given by
    (-1)^q * identity in bidegree (p, q)."""
    src = tensor(k, l, 0)
    tgt = tensor(k, l, 1)
    mats = {}
    for (p, q), n in src.dims().items():
        eye = RatMatrix.identity(n)
        mats[(p, q)] = eye if q % 2 == 0 else -eye
    return BicomplexMap(src, tgt, mats)


def kunneth_check(k: CochainComplex, l: CochainComplex) -> Report:
    """Total cohomology of K (x) L (the parity-0 tensor) against the product
    formula sum_{a+b=c} h^a(K) h^b(L), degree by degree."""
    rep = Report("kunneth")
    t = total(tensor(k, l))
    lo = k.lo + l.lo
    hi = k.hi + l.hi
    for c in range(min(lo, t.lo), max(hi, t.hi) + 1):
        rhs = sum(
            cohomology_dim(k, a) * cohomology_dim(l, c - a)
            for a in range(k.lo, k.hi + 1)
        )
        rep.add("kunneth_dim", c, cohomology_dim(t, c), rhs)
    return rep


# -- four-fold complexes --------------------------------------------------


class QuadComplex(GradedComplex):
    """Four commuting gradings with one differential per direction; every
    differential squares to zero and every pair anticommutes."""

    __slots__ = ()
    _STEPS = (
        lambda k: (k[0] + 1, k[1], k[2], k[3]),
        lambda k: (k[0], k[1] + 1, k[2], k[3]),
        lambda k: (k[0], k[1], k[2] + 1, k[3]),
        lambda k: (k[0], k[1], k[2], k[3] + 1),
    )
    _NAMES = _FIELDS = ("d1", "d2", "d3", "d4")
    _NOUN = "quad complex"
    _group = staticmethod(lambda k: (k[0] + k[1], k[2] + k[3]))
    _order = staticmethod(lambda k: (k[0], k[2]))

    def __init__(self, dims: Mapping, d1=None, d2=None, d3=None, d4=None):
        super().__init__(dims, (d1, d2, d3, d4))

    def __repr__(self) -> str:
        return f"QuadComplex(cells={len(self._dims)}, total dim {self.total_dim()})"


@memo
def quad_tensor(k: DoubleComplex, l: DoubleComplex) -> QuadComplex:
    """A^{p,q,r,s} = K^{p,r} (x) L^{q,s} with the four differentials listed in
    the module docstring."""
    dims = {}
    for (p, r), nk in k.dims().items():
        for (q, s), nl in l.dims().items():
            dims[(p, q, r, s)] = nk * nl
    check_piece_dims(dims)
    (kd1, kd2), (ld1, ld2) = k._diffs, l._diffs
    legs = (_left_legs(kd1, l._dims), _right_legs(k._dims, ld1, sum),
            _left_legs(kd2, l._dims), _right_legs(k._dims, ld2, sum))
    return QuadComplex(dims, *({(p, q, r, s): m for ((p, r), (q, s)), m in d.items()}
                               for d in legs))


def quad_slice(a: QuadComplex, p: int, q: int) -> DoubleComplex:
    """Fix the first two gradings: the double complex (r, s) -> A^{p,q,r,s}
    with differentials d3, d4."""
    return a._part(DoubleComplex, lambda key: key[0] == p and key[1] == q,
                   lambda key: (key[2], key[3]), (2, 3))


@memo
def ss_collapse(a: QuadComplex) -> DoubleComplex:
    """Collapse to bidegree (p+q, r+s) with D1 = d1 + d2, D2 = d3 + d4."""
    return a._collapse(DoubleComplex, ((0, 1), (2, 3)), "piece")


# -- comparison witnesses -------------------------------------------------


def slice_check(k: DoubleComplex, l: DoubleComplex) -> Report:
    """Each (p, q) slice of the quad tensor equals the tensor of the row
    complexes with parity p mod 2 — exact equality of double complexes."""
    rep = Report("quad_slice")
    a = quad_tensor(k, l)
    for p in k.p_range():
        for q in l.p_range():
            got = quad_slice(a, p, q)
            want = tensor(row_complex(k, p), row_complex(l, q), parity=p % 2)
            rep.add("slice_equals_row_tensor", (p, q), got == want, True)
    return rep


def collapse_rows_check(k: DoubleComplex, l: DoubleComplex) -> Report:
    """Column k of the collapse (with D2) equals the direct sum over p+q = k
    of the totals of the row tensors, summands in ascending p — on the nose."""
    rep = Report("collapse_rows")
    a = quad_tensor(k, l)
    ss = ss_collapse(a)
    for deg in range(ss.p_lo, ss.p_hi + 1):
        got = row_complex(ss, deg)
        parts = [
            total(tensor(row_complex(k, p), row_complex(l, deg - p), parity=p % 2))
            for p in k.p_range()
        ]
        want = direct_sum(parts)
        rep.add("collapse_row_equals_sum_of_totals", deg, got == want, True)
    return rep


def collapse_total_check(k: DoubleComplex, l: DoubleComplex) -> ChainMap:
    """Certified isomorphism total(collapse(K (x) L)) -> total(tensor(total K,
    total L)).  Both sides are direct sums of the same cells with identical
    component signs, so the witness is a block permutation; raises
    WitnessFailure if it fails to commute or to be bijective."""
    a = quad_tensor(k, l)
    ss = ss_collapse(a)
    src = total(ss)
    big = tensor(total(k), total(l), 0)

    def blocks(n):
        # source index of cell (p,q,r,s): by block k=p+q asc, then (p,r) lex
        src_pos = {cell: (off + coff, size) for kl, off, _sz in ss._layout().get(n, ())
                   for cell, coff, size in a._layout()[kl]}
        # target index: by a = p+r asc; within, (total K)^a (x) (total L)^b is
        # K-major, and each total splits into its own p-asc / q-asc blocks
        for (aa, bb), toff, _sz in big._layout().get(n, ()):
            k_cells = k._layout().get(aa, ())
            l_cells = l._layout().get(bb, ())
            l_total = sum(c[2] for c in l_cells)
            for (p, r), koff, ksz in k_cells:
                for (q, s), loff, lsz in l_cells:
                    base = toff + koff * l_total
                    spos, ssz = src_pos[(p, q, r, s)]
                    if ssz != ksz * lsz:
                        raise WitnessFailure(
                            f"cell ({p},{q},{r},{s}) size mismatch {ssz} vs {ksz * lsz}"
                        )
                    for i in range(ksz):
                        yield base + i * l_total + loff, spos + i * lsz, lsz

    return _certified_permutation(src, total(big), blocks,
                                  ("collapse", "tensor"), "collapse comparison")


def kunneth_double_check(k: DoubleComplex, l: DoubleComplex) -> Report:
    """Dimension identities for the collapse of a quad tensor:
    (1) columnwise: h^l of collapse column k = sum over p+q=k, r+s=l of
        h^r(column p of K) * h^s(column q of L);
    (2) total: h^n(total collapse) = sum over a+b=n of h^a(total K) * h^b(total L).
    """
    rep = Report("kunneth_double")
    a = quad_tensor(k, l)
    ss = ss_collapse(a)
    if ss.is_zero():
        rep.add("total_dim", "all", 0, 0)
        return rep
    rows_k = {p: row_complex(k, p) for p in k.p_range()}
    rows_l = {q: row_complex(l, q) for q in l.p_range()}
    for kk in range(ss.p_lo, ss.p_hi + 1):
        col = row_complex(ss, kk)
        for ll in range(ss.q_lo, ss.q_hi + 1):
            want = 0
            for p, rk in rows_k.items():
                rl = rows_l.get(kk - p)
                if rl is None:
                    continue
                want += sum(
                    cohomology_dim(rk, r) * cohomology_dim(rl, ll - r)
                    for r in range(rk.lo, rk.hi + 1)
                )
            rep.add("column_dim", (kk, ll), cohomology_dim(col, ll), want)
    ts = total(ss)
    tk = total(k)
    tl = total(l)
    for n in range(ts.lo - 1, ts.hi + 2):
        want = sum(
            cohomology_dim(tk, x) * cohomology_dim(tl, n - x)
            for x in range(tk.lo, tk.hi + 1)
        )
        rep.add("total_dim", n, cohomology_dim(ts, n), want)
    return rep
