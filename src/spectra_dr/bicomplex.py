"""Double complexes: two anticommuting differentials on a bigraded space.

d1 raises the first (column) index, d2 the second (row) index.  Construction
enforces d1^2 = 0, d2^2 = 0 and d1 d2 + d2 d1 = 0 on the whole support, so the
total differential D = d1 + d2 squares to zero with no extra signs; only the
stored (nonzero) differentials are multiplied to check it.

Totalization fixes the summand order inside total degree k once and for all:
blocks (p, k-p) with p ascending.  The filtration and spectral-sequence code
depends on that order (column filtration = suffix of blocks), as does the
block-permutation witness comparing dual-of-total with total-of-dual.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Sequence

from .cochain import ChainMap, CochainComplex
from .errors import NotChainCompatible, ParseError, ValidationError, WitnessFailure
from .linalg import RatMatrix, check_piece_dims, rank


def _pq_key(s: str) -> tuple:
    try:
        p, q = s.split(",")
        return (int(p), int(q))
    except (ValueError, AttributeError) as exc:
        raise ParseError(f"bad bidegree key {s!r}: {exc}") from None


def products_vanish(*pairs) -> bool:
    """True when the sum of f @ g over the pairs (f, g) is zero.  A pair with
    an absent (None) factor is skipped; the rest form one product
    [f1 | f2 ...] @ [g1; g2 ...], which adds only nonzero terms."""
    pairs = [(f, g) for f, g in pairs if f is not None and g is not None]
    return not pairs or (RatMatrix.hstack([f for f, _ in pairs])
                         @ RatMatrix.vstack([g for _, g in pairs])).is_zero()


class DoubleComplex:
    """Immutable bounded double complex.  dims maps (p, q) -> dimension;
    d1[(p, q)] has shape dim(p+1, q) x dim(p, q); d2[(p, q)] has shape
    dim(p, q+1) x dim(p, q)."""

    __slots__ = ("_dims", "_d1", "_d2", "p_lo", "p_hi", "q_lo", "q_hi", "_hash")

    def __init__(self, dims: Mapping, d1: Mapping | None = None, d2: Mapping | None = None):
        clean = {}
        for key, n in dims.items():
            p, q = key
            if not isinstance(n, int) or n < 0:
                raise ValidationError(f"bad dimension at {key}: {n!r}")
            if n > 0:
                clean[(p, q)] = n
        object.__setattr__(self, "_dims", clean)
        if clean:
            ps = [p for p, _ in clean]
            qs = [q for _, q in clean]
            object.__setattr__(self, "p_lo", min(ps))
            object.__setattr__(self, "p_hi", max(ps))
            object.__setattr__(self, "q_lo", min(qs))
            object.__setattr__(self, "q_hi", max(qs))
        else:
            object.__setattr__(self, "p_lo", 0)
            object.__setattr__(self, "p_hi", -1)
            object.__setattr__(self, "q_lo", 0)
            object.__setattr__(self, "q_hi", -1)
        check_piece_dims(clean)

        def keep(diffs, step):
            kept = {}
            for key, m in (diffs or {}).items():
                p, q = key
                if not isinstance(m, RatMatrix):
                    raise ValidationError(f"differential at {key} is not a RatMatrix")
                tgt = (p + step[0], q + step[1])
                want = (clean.get(tgt, 0), clean.get((p, q), 0))
                if m.shape != want:
                    raise ValidationError(
                        f"differential at {key} has shape {m.shape}, expected {want}"
                    )
                if m.rows and m.cols and not m.is_zero():
                    kept[(p, q)] = m
            return kept

        object.__setattr__(self, "_d1", keep(d1, (1, 0)))
        object.__setattr__(self, "_d2", keep(d2, (0, 1)))
        object.__setattr__(self, "_hash", None)
        self._validate()

    def _validate(self):
        d1, d2 = self._d1, self._d2
        for p, q in sorted(d1.keys() | d2.keys()):
            a, b = d1.get((p, q)), d2.get((p, q))
            if not products_vanish((d1.get((p + 1, q)), a)):
                raise ValidationError(f"d1 o d1 != 0 from ({p},{q})")
            if not products_vanish((d2.get((p, q + 1)), b)):
                raise ValidationError(f"d2 o d2 != 0 from ({p},{q})")
            if not products_vanish((d1.get((p, q + 1)), b), (d2.get((p + 1, q)), a)):
                raise ValidationError(
                    f"d1 and d2 do not anticommute from ({p},{q})"
                )

    def __setattr__(self, name, value):
        raise AttributeError("DoubleComplex is immutable")

    def dim(self, p: int, q: int) -> int:
        return self._dims.get((p, q), 0)

    def d1(self, p: int, q: int) -> RatMatrix:
        m = self._d1.get((p, q))
        if m is None:
            return RatMatrix.zeros(self.dim(p + 1, q), self.dim(p, q))
        return m

    def d2(self, p: int, q: int) -> RatMatrix:
        m = self._d2.get((p, q))
        if m is None:
            return RatMatrix.zeros(self.dim(p, q + 1), self.dim(p, q))
        return m

    @property
    def support(self) -> tuple:
        return (self.p_lo, self.p_hi, self.q_lo, self.q_hi)

    def dims(self) -> dict:
        return dict(self._dims)

    def is_zero(self) -> bool:
        return not self._dims

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def p_range(self) -> range:
        return range(self.p_lo, self.p_hi + 1)

    def q_range(self) -> range:
        return range(self.q_lo, self.q_hi + 1)

    def _key(self):
        return (
            tuple(sorted(self._dims.items())),
            tuple(sorted(self._d1.items())),
            tuple(sorted(self._d2.items())),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, DoubleComplex):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.is_zero():
            return "DoubleComplex(0)"
        return (
            f"DoubleComplex(p in [{self.p_lo},{self.p_hi}],"
            f" q in [{self.q_lo},{self.q_hi}], total dim {self.total_dim()})"
        )

    def to_json(self) -> dict:
        return {
            "support": [self.p_lo, self.p_hi, self.q_lo, self.q_hi],
            "dims": {f"{p},{q}": n for (p, q), n in sorted(self._dims.items())},
            "d1": {f"{p},{q}": m.to_json() for (p, q), m in sorted(self._d1.items())},
            "d2": {f"{p},{q}": m.to_json() for (p, q), m in sorted(self._d2.items())},
        }

    @staticmethod
    def from_json(obj) -> "DoubleComplex":
        if not isinstance(obj, dict) or "dims" not in obj:
            raise ParseError("double complex JSON must be an object with 'dims'")
        try:
            dims = {_pq_key(k): v for k, v in obj["dims"].items()}
            d1 = {_pq_key(k): RatMatrix.from_json(v) for k, v in obj.get("d1", {}).items()}
            d2 = {_pq_key(k): RatMatrix.from_json(v) for k, v in obj.get("d2", {}).items()}
        except AttributeError as exc:
            raise ParseError(f"bad double complex JSON: {exc}") from None
        return DoubleComplex(dims, d1, d2)


ZERO_DOUBLE = DoubleComplex({})


# -- rows and columns -----------------------------------------------------


def row_complex(k: DoubleComplex, p: int) -> CochainComplex:
    """The column p viewed as a complex in q with differential d2 (one
    Dolbeault column of a model)."""
    dims = {q: k.dim(p, q) for q in k.q_range()}
    diffs = {q: k.d2(p, q) for q in k.q_range() if k.dim(p, q) and k.dim(p, q + 1)}
    return CochainComplex(dims, diffs)


def column_complex(k: DoubleComplex, q: int) -> CochainComplex:
    """The row q viewed as a complex in p with differential d1."""
    dims = {p: k.dim(p, q) for p in k.p_range()}
    diffs = {p: k.d1(p, q) for p in k.p_range() if k.dim(p, q) and k.dim(p + 1, q)}
    return CochainComplex(dims, diffs)


# -- totalization ---------------------------------------------------------


def total_blocks(k: DoubleComplex, deg: int) -> list:
    """Nonzero bidegrees (p, deg-p) in total degree deg, p ascending.  This
    order is the contract: the column filtration F^p is the suffix of blocks
    with first index >= p."""
    out = []
    for p in k.p_range():
        if k.dim(p, deg - p):
            out.append((p, deg - p))
    return out


def block_offsets(k: DoubleComplex, deg: int) -> list:
    """(p, q, offset, size) for each block of the total space in degree deg."""
    out = []
    off = 0
    for (p, q) in total_blocks(k, deg):
        n = k.dim(p, q)
        out.append((p, q, off, n))
        off += n
    return out


@lru_cache(maxsize=None)
def total(k: DoubleComplex) -> CochainComplex:
    """Total complex with differential D = d1 + d2.  Raises ValidationError
    naming the least total degree larger than SPECTRA_DR_MAX_DIM before any
    matrix is assembled."""
    if k.is_zero():
        return CochainComplex({})
    lo = k.p_lo + k.q_lo
    hi = k.p_hi + k.q_hi
    dims = {}
    for deg in range(lo, hi + 1):
        n = sum(k.dim(p, deg - p) for p in k.p_range())
        if n:
            dims[deg] = n
    check_piece_dims(dims, noun="total degree")
    diffs = {}
    for deg in range(lo, hi):
        if deg not in dims or deg + 1 not in dims:
            continue
        tpos = {(p, q): off for (p, q, off, _n) in block_offsets(k, deg + 1)}
        blocks = []
        for (p, q, coff, _n) in block_offsets(k, deg):
            # a stored differential has a nonzero target block
            if (p, q) in k._d1:
                blocks.append((tpos[(p + 1, q)], coff, k._d1[(p, q)]))
            if (p, q) in k._d2:
                blocks.append((tpos[(p, q + 1)], coff, k._d2[(p, q)]))
        diffs[deg] = RatMatrix.from_blocks(dims[deg + 1], dims[deg], blocks)
    return CochainComplex(dims, diffs)


# -- structural operations ------------------------------------------------


def shift2(k: DoubleComplex, m: int, n: int) -> DoubleComplex:
    """Bigraded shift: result dim(p, q) = k.dim(p+m, q+n); differentials are
    reused with no sign."""
    dims = {(p - m, q - n): d for (p, q), d in k.dims().items()}
    d1 = {(p - m, q - n): mat for (p, q), mat in k._d1.items()}
    d2 = {(p - m, q - n): mat for (p, q), mat in k._d2.items()}
    return DoubleComplex(dims, d1, d2)


def dual2(k: DoubleComplex) -> DoubleComplex:
    """Bigraded dual: dim'(p, q) = dim(-p, -q) with
    d1'^{p,q} = (-1)^{p+q+1} d1^{-p-1,-q}^T and
    d2'^{p,q} = (-1)^{p+q+1} d2^{-p,-q-1}^T."""
    dims = {(-p, -q): n for (p, q), n in k.dims().items()}
    d1 = {}
    for (a, b), m in k._d1.items():
        t = m.transpose()
        d1[(-a - 1, -b)] = t if (a + b) % 2 == 0 else -t
    d2 = {}
    for (a, b), m in k._d2.items():
        t = m.transpose()
        d2[(-a, -b - 1)] = t if (a + b) % 2 == 0 else -t
    return DoubleComplex(dims, d1, d2)


def transpose2(k: DoubleComplex) -> DoubleComplex:
    """Swap the two gradings (and the two differentials).  Lets callers run
    the row filtration through the same column-filtration machinery."""
    dims = {(q, p): n for (p, q), n in k.dims().items()}
    d1 = {(q, p): m for (p, q), m in k._d2.items()}
    d2 = {(q, p): m for (p, q), m in k._d1.items()}
    return DoubleComplex(dims, d1, d2)


def direct_sum2(parts: Sequence[DoubleComplex]) -> DoubleComplex:
    """Bidegreewise direct sum, summands in input order."""
    parts = list(parts)
    keys = set()
    for part in parts:
        keys.update(part.dims())
    dims = {key: sum(part.dim(*key) for part in parts) for key in keys}
    d1 = {}
    d2 = {}
    for (p, q) in keys:
        if dims.get((p, q)):
            if dims.get((p + 1, q)):
                d1[(p, q)] = RatMatrix.block_diag([part.d1(p, q) for part in parts])
            if dims.get((p, q + 1)):
                d2[(p, q)] = RatMatrix.block_diag([part.d2(p, q) for part in parts])
    return DoubleComplex(dims, d1, d2)


# -- maps of double complexes --------------------------------------------


class BicomplexMap:
    """Bidegreewise map commuting with both differentials; both families of
    squares are checked eagerly."""

    __slots__ = ("source", "target", "_mats")

    def __init__(self, source: DoubleComplex, target: DoubleComplex, mats: Mapping):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        kept = {}
        for key, m in mats.items():
            p, q = key
            want = (target.dim(p, q), source.dim(p, q))
            if m.shape != want:
                raise ValidationError(
                    f"bicomplex map at {key} has shape {m.shape}, expected {want}"
                )
            if m.rows and m.cols and not m.is_zero():
                kept[(p, q)] = m
        object.__setattr__(self, "_mats", kept)
        p_lo = min(source.p_lo, target.p_lo)
        p_hi = max(source.p_hi, target.p_hi)
        q_lo = min(source.q_lo, target.q_lo)
        q_hi = max(source.q_hi, target.q_hi)
        for p in range(p_lo, p_hi + 1):
            for q in range(q_lo, q_hi + 1):
                f = self.mat(p, q)
                if target.d1(p, q) @ f != self.mat(p + 1, q) @ source.d1(p, q):
                    raise NotChainCompatible(
                        f"bicomplex map square (d1) at ({p},{q}) does not commute"
                    )
                if target.d2(p, q) @ f != self.mat(p, q + 1) @ source.d2(p, q):
                    raise NotChainCompatible(
                        f"bicomplex map square (d2) at ({p},{q}) does not commute"
                    )

    def __setattr__(self, name, value):
        raise AttributeError("BicomplexMap is immutable")

    def mat(self, p: int, q: int) -> RatMatrix:
        m = self._mats.get((p, q))
        if m is None:
            return RatMatrix.zeros(self.target.dim(p, q), self.source.dim(p, q))
        return m

    def __eq__(self, other) -> bool:
        if not isinstance(other, BicomplexMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._mats == other._mats
        )

    def __repr__(self) -> str:
        return f"BicomplexMap({self.source!r} -> {self.target!r})"

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "mats": {f"{p},{q}": m.to_json() for (p, q), m in sorted(self._mats.items())},
        }

    @staticmethod
    def from_json(obj) -> "BicomplexMap":
        try:
            src = DoubleComplex.from_json(obj["source"])
            tgt = DoubleComplex.from_json(obj["target"])
            mats = {_pq_key(k): RatMatrix.from_json(v) for k, v in obj.get("mats", {}).items()}
        except (KeyError, AttributeError, TypeError) as exc:
            raise ParseError(f"bad bicomplex map JSON: {exc}") from None
        return BicomplexMap(src, tgt, mats)


def identity_bicomplex_map(k: DoubleComplex) -> BicomplexMap:
    mats = {key: RatMatrix.identity(n) for key, n in k.dims().items()}
    return BicomplexMap(k, k, mats)


def compose2(g: BicomplexMap, f: BicomplexMap) -> BicomplexMap:
    if f.target != g.source:
        raise ValidationError("bicomplex maps not composable")
    keys = set(f.source.dims()) | set(g.target.dims())
    mats = {key: g.mat(*key) @ f.mat(*key) for key in keys}
    return BicomplexMap(f.source, g.target, mats)


def total_map(f: BicomplexMap) -> ChainMap:
    """The induced map of total complexes (block assembly in the standard
    block order)."""
    src_t = total(f.source)
    tgt_t = total(f.target)
    lo = min(src_t.lo, tgt_t.lo)
    hi = max(src_t.hi, tgt_t.hi)
    mats = {}
    for deg in range(lo, hi + 1):
        rows = tgt_t.dim(deg)
        cols = src_t.dim(deg)
        if rows == 0 or cols == 0:
            continue
        tpos = {(p, q): off for (p, q, off, _n) in block_offsets(f.target, deg)}
        blocks = [
            (tpos[(p, q)], coff, f._mats[(p, q)])
            for (p, q, coff, _n) in block_offsets(f.source, deg)
            if (p, q) in f._mats
        ]
        mats[deg] = RatMatrix.from_blocks(rows, cols, blocks)
    return ChainMap(src_t, tgt_t, mats)


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


def clear_total_cache():
    total.cache_clear()
