"""Column-window truncations of a double complex and their exact sequences.

truncate(S, (s, t)) keeps the columns s <= p <= t and, by the graded core's
block rule, the vertical arrows there and the horizontal ones strictly inside.
An empty window (s > t) is the zero complex; windows are clamped to the
support automatically because absent bidegrees simply contribute nothing.

The degreewise dimension of the cohomology of the truncated total complex is
what the geometric layer calls hypercohomology of the window.  It is the
number of unpaired elements in the window's barcode (spectral.window_barcode,
memoised per (complex, s, t) and called directly by the hot reads, because
the predictor formulas evaluate it thousands of times).  truncated_total
assembles a window's total, filed under the parent complex.

Nested windows are compared by the identity on the pieces both truncations
share (a shared piece has one dimension in both).  Two shapes are chain
maps and are used everywhere:
  inclusion   (a, b) -> (c, b) for c <= a   (right edges aligned),
  restriction (a, b) -> (a, d) for d <= b   (left edges aligned).
Chaining them gives the four-term sequence

  0 -> S(t+1,t') -> S(s',t') -> S(s,t) -> S(s,s'-1) -> 0

(for s <= s' <= t <= t') and the short exact sequence

  0 -> S(s,t) -> S(r,t) -> S(r,s-1) -> 0        (r <= s <= t)

whose long exact cohomology sequence is built here with an explicit
connecting map: lift the cycles by the coordinate section, apply the ambient
total differential, certify every cycle lands in the subcomplex, take induced_map.
It reads the three window totals through truncated_total, so a window is
truncated once while its complex lives.  T^k(B) is T^k(C) followed by
T^k(A), and the inclusion and the projection are coordinate chain maps.
"""

from __future__ import annotations

from .bicomplex import BicomplexMap, DoubleComplex, row_complex, total, truncate
from .cochain import ChainMap, CochainComplex, cohomology, cohomology_dim, cohomology_map
from .errors import PreconditionViolation, WitnessFailure
from .linalg import RatMatrix, clear_caches, induced_map, memo, products_vanish, rank
from .report import Report
from .spectral import window_barcode


def window_map(s_cx: DoubleComplex, win_from: tuple, win_to: tuple) -> BicomplexMap:
    """Identity-on-overlap map truncate(win_from) -> truncate(win_to).

    Valid (and validated) when the windows share their right edge with the
    source included, or share their left edge with the target ending earlier;
    construction raises NotChainCompatible for incompatible windows.
    """
    return _overlap_map(truncate(s_cx, win_from), truncate(s_cx, win_to))


def _overlap_map(src: DoubleComplex, tgt: DoubleComplex) -> BicomplexMap:
    """The identity on the pieces two windows of one complex share."""
    return BicomplexMap(src, tgt, {key: RatMatrix.identity(n)
                                   for key, n in src.dims().items() if key in tgt._dims})


@memo
def truncated_total(s_cx: DoubleComplex, s: int, t: int) -> CochainComplex:
    """The total of the window (s, t), memoised under s_cx."""
    return total(truncate(s_cx, (s, t)))


def hypercohomology(s_cx: DoubleComplex, window: tuple, k: int) -> int:
    """dim H^k of the total complex of the window."""
    return window_barcode(s_cx, window[0], window[1]).betti.get(k, 0)


def hyper_dims(s_cx: DoubleComplex, window: tuple) -> dict:
    """All nonzero hypercohomology dimensions of the window, degrees
    ascending."""
    betti = window_barcode(s_cx, window[0], window[1]).betti
    return {k: n for k, n in betti.items() if n}


# -- four-term sequence ---------------------------------------------------


def four_term_check(s_cx: DoubleComplex, s: int, s_prime: int, t: int,
                    t_prime: int) -> Report:
    """Exactness of 0 -> S(t+1,t') -> S(s',t') -> S(s,t) -> S(s,s'-1) -> 0
    at every bidegree, verified by rank identities on the actual matrices."""
    if not (s <= s_prime <= t <= t_prime):
        raise PreconditionViolation(
            f"need s <= s' <= t <= t', got {s}, {s_prime}, {t}, {t_prime}"
        )
    k1 = truncate(s_cx, (t + 1, t_prime))
    k2 = truncate(s_cx, (s_prime, t_prime))
    k3 = truncate(s_cx, (s, t))
    k4 = truncate(s_cx, (s, s_prime - 1))
    f1, f2, f3 = _overlap_map(k1, k2), _overlap_map(k2, k3), _overlap_map(k3, k4)
    rep = Report("four_term")
    # k1 lies inside k2 and k4 inside k3, so their pieces cover all four
    for p, q in sorted(k2.dims().keys() | k3.dims().keys()):
        n1, n2 = k1.dim(p, q), k2.dim(p, q)
        n3, n4 = k3.dim(p, q), k4.dim(p, q)
        m1, m2, m3 = f1.mat(p, q), f2.mat(p, q), f3.mat(p, q)
        r1, r2, r3 = rank(m1), rank(m2), rank(m3)
        rep.add("injective", (p, q), r1, n1)
        rep.add("boundary_composition_zero", (p, q),
                products_vanish((m2, m1)) and products_vanish((m3, m2)), True)
        rep.add("exact_mid_left", (p, q), r1 + r2, n2)
        rep.add("exact_mid_right", (p, q), r2 + r3, n3)
        rep.add("surjective", (p, q), r3, n4)
    return rep


# -- long exact sequence --------------------------------------------------


def _les_totals(s_cx: DoubleComplex, r: int, s: int, t: int) -> tuple:
    """The totals of the windows A = S(s,t), B = S(r,t), C = S(r,s-1), filed
    under s_cx; needs r <= s <= t.  In every degree T(B) holds the blocks of
    T(C) followed by those of T(A), in _layout order."""
    if not (r <= s <= t):
        raise PreconditionViolation(f"need r <= s <= t, got {r}, {s}, {t}")
    return tuple(truncated_total(s_cx, a, b) for a, b in ((s, t), (r, t), (r, s - 1)))


def connecting_matrix(s_cx: DoubleComplex, r: int, s: int, t: int, k: int) -> RatMatrix:
    """Matrix of the connecting map H^k(S(r,s-1)) -> H^{k+1}(S(s,t)) of the
    short exact sequence 0 -> S(s,t) -> S(r,t) -> S(r,s-1) -> 0.

    Construction: lift the cycles through the coordinate section into the
    middle window, apply its total differential, certify no cycle leaves the
    subcomplex (WitnessFailure), and take the map induced_map reads there.
    """
    ta, tb, tc = _les_totals(s_cx, r, s, t)
    h_c = cohomology(tc, k)
    h_a = cohomology(ta, k + 1)
    if h_c.dim == 0 or ta.dim(k + 1) == 0:
        return RatMatrix.zeros(h_a.dim, h_c.dim)
    # the coordinate section: T^k(C) is the prefix of T^k(B), so the lift
    # is the first n columns of the middle differential
    d, n, cut = tb.diff(k), tc.dim(k), tc.dim(k + 1)
    # certify: every cycle's image vanishes on the quotient rows, T^{k+1}(C)
    if not products_vanish((d.submatrix(range(cut), range(n)), h_c.cycle_basis)):
        raise WitnessFailure("connecting map left a component in the quotient window")
    # the rows after the cut are T^{k+1}(A) in its own block layout
    return induced_map(d.submatrix(range(cut, d.rows), range(n)), h_c, h_a)


def les_check(s_cx: DoubleComplex, r: int, s: int, t: int) -> Report:
    """Exactness of ... -> H^k(A) -> H^k(B) -> H^k(C) -> H^{k+1}(A) -> ...
    for A = S(s,t), B = S(r,t), C = S(r,s-1), at every node."""
    ta, tb, tc = _les_totals(s_cx, r, s, t)
    # the coordinate maps of that split: A lands after the T^k(C) rows, B keeps them
    one = RatMatrix.identity
    inc = ChainMap(ta, tb, {k: RatMatrix.from_blocks(tb.dim(k), n, [(tc.dim(k), 0, one(n))])
                            for k, n in ta.dims().items()})
    proj = ChainMap(tb, tc, {k: RatMatrix.from_blocks(n, tb.dim(k), [(0, 0, one(n))])
                             for k, n in tc.dims().items()})
    rep = Report("les")
    d_prev = RatMatrix.zeros(0, 0)  # H^k(A) = 0 in the lowest degree
    for k in range(min(ta.lo, tb.lo, tc.lo) - 1, max(ta.hi, tb.hi, tc.hi) + 2):
        i_k, p_k = cohomology_map(inc, k), cohomology_map(proj, k)
        d_k = connecting_matrix(s_cx, r, s, t, k)
        for node, tk, inc_m, out_m in (("A", ta, d_prev, i_k), ("B", tb, i_k, p_k),
                                       ("C", tc, p_k, d_k)):
            rep.add("les_composition_zero", (node, k), products_vanish((out_m, inc_m)), True)
            rep.add("les_exactness", (node, k), rank(inc_m) + rank(out_m),
                    cohomology_dim(tk, k))
        d_prev = d_k
    return rep


# -- dimension comparisons ------------------------------------------------


def column_cohomology_dim(s_cx: DoubleComplex, p: int, q: int) -> int:
    """h^q of column p taken with the vertical differential."""
    return cohomology_dim(row_complex(s_cx, p), q)


def _frolicher_terms(s_cx: DoubleComplex, window: tuple):
    """Yield (k, window hypercohomology in degree k, sum of the column
    cohomologies on the antidiagonal slice k), degree by degree."""
    s, t = window
    betti = window_barcode(s_cx, s, t).betti
    for k in range(min(betti, default=0), max(betti, default=-1) + 1):
        lhs = betti.get(k, 0)
        rhs = sum(
            column_cohomology_dim(s_cx, p, k - p)
            for p in range(max(s, s_cx.p_lo), min(t, s_cx.p_hi) + 1)
        )
        yield k, lhs, rhs


def frolicher_check(s_cx: DoubleComplex, window: tuple) -> Report:
    """Window hypercohomology never exceeds the sum of column cohomologies
    on the same antidiagonal slice."""
    rep = Report("frolicher")
    for k, lhs, rhs in _frolicher_terms(s_cx, window):
        rep.add("frolicher_inequality", k, lhs <= rhs, True)
    return rep


def frolicher_is_equality(s_cx: DoubleComplex, window: tuple) -> bool:
    """True when hypercohomology equals the column-cohomology sums in every
    degree — the window-degeneration criterion.  Stops at the first degree
    that differs."""
    return all(lhs == rhs for _k, lhs, rhs in _frolicher_terms(s_cx, window))


def hodge_filtration_dims(s_cx: DoubleComplex, k: int, n: int | None = None) -> list:
    """[dim im(H^k(total of columns >= p) -> H^k(total)) for p = 0..n+1]
    computed inside the window (0, n), from that window's barcode."""
    if n is None:
        n = s_cx.p_hi
    return window_barcode(s_cx, 0, n).filtration(k, range(n + 2))


clear_truncation_cache = clear_caches
