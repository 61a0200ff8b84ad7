"""Double complexes: two anticommuting differentials on a bigraded space.

d1 raises the first (column) index, d2 the second (row) index.  The graded
core in cochain validates d1^2 = 0, d2^2 = 0 and d1 d2 + d2 d1 = 0, so the
total differential D = d1 + d2 squares to zero with no extra signs.

Totalization is one collapse on the graded core (GradedComplex._collapse,
grouping (p, q) by p+q), and so is the induced map of totals.  The summand
order inside total degree k, blocks (p, k-p) with p ascending, is stated
once in GradedComplex._layout.  The filtration and spectral-sequence code
depends on that order (column filtration = suffix of blocks), as does the
block-permutation witness comparing dual-of-total with total-of-dual.
"""

from __future__ import annotations

from operator import index
from typing import Mapping, Sequence

from .cochain import ChainMap, CochainComplex, GradedComplex, GradedMap
from .errors import NotChainCompatible, ValidationError, WitnessFailure
from .linalg import RatMatrix, clear_caches, memo, rank


class DoubleComplex(GradedComplex):
    """Immutable bounded double complex.  dims maps (p, q) -> dimension;
    d1[(p, q)] has shape dim(p+1, q) x dim(p, q); d2[(p, q)] has shape
    dim(p, q+1) x dim(p, q)."""

    __slots__ = ("p_lo", "p_hi", "q_lo", "q_hi")
    _STEPS = (lambda k: (k[0] + 1, k[1]), lambda k: (k[0], k[1] + 1))
    _NAMES = _FIELDS = ("d1", "d2")
    _AT = "({0[0]},{0[1]})"
    _NOUN = "double complex"
    _group = staticmethod(sum)
    _order = staticmethod(lambda k: k[0])

    def __init__(self, dims: Mapping, d1=None, d2=None, *, _trusted: bool = False):
        super().__init__(dims, (d1, d2), _trusted=_trusted)
        ps = [p for p, _ in self._dims]
        qs = [q for _, q in self._dims]
        object.__setattr__(self, "p_lo", min(ps, default=0))
        object.__setattr__(self, "p_hi", max(ps, default=-1))
        object.__setattr__(self, "q_lo", min(qs, default=0))
        object.__setattr__(self, "q_hi", max(qs, default=-1))

    @property
    def _d1(self) -> dict:
        return self._diffs[0]

    @property
    def _d2(self) -> dict:
        return self._diffs[1]

    def dim(self, p: int, q: int) -> int:
        return self._dims.get((p, q), 0)

    def d1(self, p: int, q: int) -> RatMatrix:
        return self._block(0, (p, q))

    def d2(self, p: int, q: int) -> RatMatrix:
        return self._block(1, (p, q))

    @property
    def support(self) -> tuple:
        return (self.p_lo, self.p_hi, self.q_lo, self.q_hi)

    def p_range(self) -> range:
        return range(self.p_lo, self.p_hi + 1)

    def q_range(self) -> range:
        return range(self.q_lo, self.q_hi + 1)

    def __repr__(self) -> str:
        if self.is_zero():
            return "DoubleComplex(0)"
        return (
            f"DoubleComplex(p in [{self.p_lo},{self.p_hi}],"
            f" q in [{self.q_lo},{self.q_hi}], total dim {self.total_dim()})"
        )

    def _head(self) -> dict:
        return {"support": list(self.support)}

    # the codec of the graded core, bound on this class itself because
    # benchmarks/tracing.py wraps both halves through DoubleComplex.__dict__
    to_json = GradedComplex.to_json

    @staticmethod
    def from_json(obj) -> "DoubleComplex":
        return GradedComplex.from_json.__func__(DoubleComplex, obj)


ZERO_DOUBLE = DoubleComplex({})


# -- windows, rows and columns -------------------------------------------


def row_complex(k: DoubleComplex, p: int) -> CochainComplex:
    """The column p viewed as a complex in q with differential d2 (one
    Dolbeault column of a model)."""
    return k._part(CochainComplex, lambda key: key[0] == p, lambda key: key[1], (1,))


def column_complex(k: DoubleComplex, q: int) -> CochainComplex:
    """The row q viewed as a complex in p with differential d1."""
    return k._part(CochainComplex, lambda key: key[1] == q, lambda key: key[0], (0,))


def truncate(s_cx: DoubleComplex, window: tuple) -> DoubleComplex:
    """Columns s..t of the double complex, with d1 only strictly inside."""
    try:
        s, t = map(index, window)
    except TypeError:
        raise ValidationError(f"window bounds must be integers, got {window!r}") from None
    return s_cx._part(DoubleComplex, lambda key: s <= key[0] <= t, lambda key: key, (0, 1))


# -- totalization ---------------------------------------------------------


def block_offsets(k: DoubleComplex, deg: int) -> list:
    """(p, q, offset, size) for each block of the total space in degree deg."""
    return [(*key, off, n) for key, off, n in k._layout().get(deg, ())]


def filtration_cut(k: DoubleComplex, p: int, deg: int) -> int:
    """Where column p starts in T^deg: the coordinates from here on span
    F^p T^deg, the blocks with first index >= p."""
    end = 0
    for (bp, _bq), off, n in k._layout().get(deg, ()):
        if bp >= p:
            return off
        end = off + n
    return end


@memo
def total(k: DoubleComplex) -> CochainComplex:
    """Total complex with differential D = d1 + d2.  Raises ValidationError
    naming the least total degree larger than SPECTRA_DR_MAX_DIM before any
    matrix is assembled."""
    return k._collapse(CochainComplex, ((0, 1),), "total degree")


# -- structural operations ------------------------------------------------


def shift2(k: DoubleComplex, m: int, n: int) -> DoubleComplex:
    """Bigraded shift: result dim(p, q) = k.dim(p+m, q+n); differentials are
    reused with no sign."""
    m, n = k._grade((m, n))
    return k._part(DoubleComplex, lambda key: True,
                   lambda key: (key[0] - m, key[1] - n), (0, 1))


def dual2(k: DoubleComplex) -> DoubleComplex:
    """Bigraded dual: dim'(p, q) = dim(-p, -q) with
    d1'^{p,q} = (-1)^{p+q+1} d1^{-p-1,-q}^T and
    d2'^{p,q} = (-1)^{p+q+1} d2^{-p,-q-1}^T."""
    return k._dual()


def transpose2(k: DoubleComplex) -> DoubleComplex:
    """Swap the two gradings (and the two differentials).  Lets callers run
    the row filtration through the same column-filtration machinery."""
    return k._part(DoubleComplex, lambda key: True, lambda key: (key[1], key[0]), (1, 0))


def direct_sum2(parts: Sequence[DoubleComplex]) -> DoubleComplex:
    """Bidegreewise direct sum, summands in input order."""
    return DoubleComplex._summed(parts)


# -- maps of double complexes --------------------------------------------


class BicomplexMap(GradedMap):
    """Bidegreewise map commuting with both differentials; both families of
    squares are checked eagerly."""

    __slots__ = ()
    _SPACE = DoubleComplex
    _NOUN = "bicomplex map"
    _SQUARE = "bicomplex map square ({name}) at {at} does not commute"

    def mat(self, p: int, q: int) -> RatMatrix:
        return self._block((p, q))


def identity_bicomplex_map(k: DoubleComplex) -> BicomplexMap:
    mats = {key: RatMatrix.identity(n) for key, n in k.dims().items()}
    return BicomplexMap(k, k, mats)


def compose2(g: BicomplexMap, f: BicomplexMap) -> BicomplexMap:
    """g o f (apply f first)."""
    return BicomplexMap._composite(g, f)


def total_map(f: BicomplexMap) -> ChainMap:
    """The induced map of total complexes (block assembly in the standard
    block order)."""
    return f._collapse(ChainMap, total(f.source), total(f.target))


# -- dual-of-total vs total-of-dual ---------------------------------------


def verify_total_dual_iso(k: DoubleComplex) -> ChainMap:
    """Build the degreewise block-reversal permutation
    dual(total(K)) -> total(dual2(K)) and certify it is an isomorphism of
    complexes.  Raises WitnessFailure if a square fails or a degree map is
    not bijective (neither should happen for valid input)."""
    from .cochain import dual

    a = dual(total(k))
    b = total(dual2(k))
    mats = {}
    for deg in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        na, nb = a.dim(deg), b.dim(deg)
        if na != nb:
            raise WitnessFailure(
                f"degree {deg}: dual-of-total dim {na} != total-of-dual dim {nb}"
            )
        if na == 0:
            continue
        # A^deg blocks mirror T^{-deg} (p ascending); B^deg blocks are the
        # same K-bidegrees visited in the reverse order.
        blocks = []
        roff = 0
        for (_p, _q, aoff, n) in reversed(block_offsets(k, -deg)):
            blocks.append((roff, aoff, RatMatrix.identity(n)))
            roff += n
        mats[deg] = RatMatrix.from_blocks(nb, na, blocks)
    try:
        witness = ChainMap(a, b, mats)
    except NotChainCompatible as exc:
        raise WitnessFailure(f"comparison map is not a chain map: {exc}") from None
    for deg in range(min(a.lo, b.lo), max(a.hi, b.hi) + 1):
        n = a.dim(deg)
        if n and rank(witness.mat(deg)) != n:
            raise WitnessFailure(f"comparison map not bijective in degree {deg}")
    return witness


clear_total_cache = clear_caches
