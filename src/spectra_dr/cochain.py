"""Bounded graded complexes, cochain complexes and the maps between them.

GradedComplex is the one container behind CochainComplex (here),
DoubleComplex (bicomplex) and QuadComplex (tensorops): a finite multigraded
space with one differential per grading step.  It stores only nonzero pieces
and nonzero blocks; an absent block reads as a zero matrix, so arithmetic
never special-cases the boundary.  Construction normalises the keys, checks
every block's shape, refuses a piece larger than SPECTRA_DR_MAX_DIM by name,
and checks that each differential squares to zero and each pair
anticommutes, multiplying only stored blocks; what is placed from a valid
complex's own blocks gets the cap check alone (the rule is in GradedComplex).
GradedMap is the one map behind ChainMap and BicomplexMap; its squares are
checked only where a stored block can make them nonzero.

Every restriction and regrading (truncations, slices, shifts, transposition)
is one call to GradedComplex._part, both duals are one call to
GradedComplex._dual, and every collapse of gradings (totals, the quad
collapse and the maps between them) is one call to GradedComplex._collapse
or GradedMap._collapse on the summand layout of GradedComplex._layout; the
block rule, the dual sign rule and the summand order are stated there.  The
JSON codec of every kind of complex is GradedComplex.to_json/from_json.

Conventions pinned here and relied on everywhere else:
- diff(k) maps degree k to degree k+1,
- shift(K, m)^k = K^{k+m} with the SAME differentials (no sign),
- dual(K)^k = (K^{-k})* with diff (-1)^{k+1} * transpose(diff_K(-k-1)).
"""

from __future__ import annotations

from itertools import combinations
from operator import index, neg
from typing import Mapping, Sequence

from .errors import NotChainCompatible, ParseError, ValidationError
from .linalg import (
    RatMatrix,
    Subquotient,
    check_piece_dims,
    clear_caches,
    induced_map,
    kernel_basis,
    memo,
    products_vanish,
    rank,
    subquotient,
)


class GradedComplex:
    """Immutable bounded graded space with one differential per grading step.

    Keys are tuples of one integer per grading.  A subclass fixes the steps
    (`_STEPS`: for differential i, the function key -> the key it maps to)
    and how messages name the differentials (`_NAMES`), a key (`_AT`, a
    format of the key) and a piece (`_PIECE`).  `_diffs` holds one dict
    key -> block per step.  Its JSON names the kind in parse errors
    (`_NOUN`), stores differential i under `_FIELDS[i]` and leads with the
    fields of `_head`.  `_neg` and `_total` negate a key and take its
    total degree.  A subclass that collapses states it with `_group` (key ->
    the collapsed key it is summed into) and `_order` (the sort key of the
    summands inside one collapsed key).

    A complex made only by placing a valid complex's own blocks is valid, so
    `_part`, `_collapse` and `_summed` admit theirs with `_trusted=True`, the
    size cap checked alone: a part keeps a box, so its squares and
    anticommutators pass only through its own pieces and equal the parent's;
    summed differentials square to zero and anticommute, and a collapsed
    map commutes with each summand.
    """

    __slots__ = ("_dims", "_diffs", "_hash", "_cells")
    _AT = "{0}"
    _PIECE = "piece"
    _neg = staticmethod(lambda key: tuple(-x for x in key))
    _total = staticmethod(sum)

    def __init__(self, dims: Mapping, diffs: Sequence, *, _trusted: bool = False):
        if _trusted:  # internal: placed from a valid complex's own blocks
            check_piece_dims(dims, noun=self._PIECE)
            clean, stored = dims, diffs
        else:
            grade = self._grade
            clean = {}
            for key, n in dims.items():
                key = grade(key)
                if type(n) is not int or n < 0:  # a bool is no dimension
                    raise ValidationError(f"bad dimension at {self._AT.format(key)}: {n!r}")
                if n:
                    clean[key] = n
            check_piece_dims(clean, noun=self._PIECE)
            stored = []
            for i, (step, given) in enumerate(zip(self._STEPS, diffs)):
                kept = {}
                for key, m in (given or {}).items():
                    key = grade(key)
                    if not isinstance(m, RatMatrix):
                        raise ValidationError(f"{self._name(i, key)} is not a RatMatrix")
                    want = (clean.get(step(key), 0), clean.get(key, 0))
                    if m.shape != want:
                        raise ValidationError(
                            f"{self._name(i, key)} has shape {m.shape}, expected {want}"
                        )
                    if not m.is_zero():
                        kept[key] = m
                stored.append(kept)
        object.__setattr__(self, "_dims", clean)
        object.__setattr__(self, "_diffs", tuple(stored))
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cells", None)
        if not _trusted:
            self._validate()

    def _grade(self, key) -> tuple:
        """key as a tuple of one integer per grading, or ValidationError."""
        try:
            graded = tuple(map(index, key))
        except TypeError:
            graded = ()
        if len(graded) != len(self._STEPS):
            raise ValidationError(f"key must be {len(self._STEPS)} integers, got {key!r}")
        return graded

    def _validate(self):
        """Each differential squares to zero and each pair anticommutes.
        Only stored blocks are multiplied, and a check none of whose terms
        has both factors stored is not run; keys ascend, and at each key the
        squares are checked before the pairs (i, j), i < j."""
        ds, steps = self._diffs, self._STEPS
        pairs = list(combinations(range(len(ds)), 2))
        for key in sorted(set().union(*ds)):
            ups = [step(key) for step in steps]
            here = [d.get(key) for d in ds]
            for i, d in enumerate(ds):
                f = d.get(ups[i]) if here[i] is not None else None
                if f is not None and not products_vanish((f, here[i])):
                    raise ValidationError(self._violation(i, i, key))
            for i, j in pairs:
                terms = [(f, g) for f, g in ((ds[j].get(ups[i]), here[i]),
                                             (ds[i].get(ups[j]), here[j]))
                         if f is not None and g is not None]
                if terms and not products_vanish(*terms):
                    raise ValidationError(self._violation(i, j, key))

    def _name(self, i: int, key) -> str:
        return f"{self._NAMES[i]} at {self._AT.format(key)}"

    def _violation(self, i: int, j: int, key) -> str:
        a, b, at = self._NAMES[i], self._NAMES[j], self._AT.format(key)
        if i == j:
            return f"{a} o {a} != 0 from {at}"
        return f"{a} and {b} do not anticommute from {at}"

    @staticmethod
    def _key_str(key) -> str:
        return ",".join(map(str, key))

    @classmethod
    def _parse_key(cls, s):
        """The inverse of _key_str: one integer per grading, or ParseError.
        A complex with one grading keys by the bare integer."""
        try:
            key = tuple(map(int, s.split(",")))
        except (AttributeError, ValueError) as exc:
            raise ParseError(f"bad {cls._NOUN} key {s!r}: {exc}") from None
        if len(key) != len(cls._STEPS):
            raise ParseError(f"{cls._NOUN} key {s!r} has {len(key)} components,"
                             f" expected {len(cls._STEPS)}")
        return key if len(key) > 1 else key[0]

    def _blocks_json(self, blocks: Mapping) -> dict:
        """key string -> matrix JSON, keys ascending."""
        return {self._key_str(k): m.to_json() for k, m in sorted(blocks.items())}

    def _head(self) -> dict:
        """The fields the JSON of this kind puts before its pieces."""
        return {}

    def to_json(self) -> dict:
        """The `_head` fields, then "dims" and one field per differential,
        keys ascending."""
        out = self._head()
        out["dims"] = {self._key_str(k): n for k, n in sorted(self._dims.items())}
        for field, d in zip(self._FIELDS, self._diffs):
            out[field] = self._blocks_json(d)
        return out

    @classmethod
    def from_json(cls, obj) -> "GradedComplex":
        """The inverse of to_json: ParseError on malformed JSON, and the
        constructor's ValidationError on a well-formed invalid complex."""
        if not isinstance(obj, dict) or "dims" not in obj:
            raise ParseError(f"{cls._NOUN} JSON must be an object with a 'dims' key")
        parse = cls._parse_key
        try:
            dims = {parse(k): n for k, n in obj["dims"].items()}
            diffs = [{parse(k): RatMatrix.from_json(m) for k, m in obj.get(field, {}).items()}
                     for field in cls._FIELDS]
        except (AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {cls._NOUN} JSON: {exc}") from None
        return cls(dims, *diffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _summed(cls, parts: Sequence) -> "GradedComplex":
        """The direct sum of parts, admitted trusted, summands in input order
        inside each piece.  Only stored blocks are placed."""
        parts = list(parts)
        dims = {key: sum(part._dims.get(key, 0) for part in parts)
                for key in set().union(*(part._dims for part in parts))}
        diffs = []
        for i, step in enumerate(cls._STEPS):
            d = {}
            for key in dims:
                blocks = []
                r0 = c0 = 0
                for part in parts:
                    m = part._diffs[i].get(key)
                    if m is not None:
                        blocks.append((r0, c0, m))
                    r0 += part._dims.get(step(key), 0)
                    c0 += part._dims.get(key, 0)
                if blocks:
                    d[key] = RatMatrix.from_blocks(r0, c0, blocks)
            diffs.append(d)
        return cls(dims, *diffs, _trusted=True)

    def _part(self, cls, keep, key, order: Sequence[int]) -> "GradedComplex":
        """The complex of type cls on the pieces whose key satisfies keep,
        each regraded by key, whose differential i comes from differential
        order[i] of self.  A block is kept exactly when its source and its
        target are both kept (a stored block joins two nonzero pieces).  The
        part is admitted trusted: keep is a box (a column, a row, a column
        window, a quad (p, q) slice, or everything) and key regrades ints."""
        new = {k: key(k) for k in self._dims if keep(k)}
        diffs = ({new[k]: m for k, m in self._diffs[i].items()
                  if k in new and self._STEPS[i](k) in new} for i in order)
        return cls({new[k]: self._dims[k] for k in new}, *diffs, _trusted=True)

    def _dual(self) -> "GradedComplex":
        """The linear dual: piece k moves to -k, and the block m of
        differential i at k becomes m^T at -step_i(k), negated when the
        total degree of k is odd."""
        neg, total = self._neg, self._total
        diffs = ({neg(step(k)): -m.transpose() if total(k) % 2 else m.transpose()
                  for k, m in d.items()} for step, d in zip(self._STEPS, self._diffs))
        return type(self)({neg(k): n for k, n in self._dims.items()}, *diffs)

    def _layout(self) -> dict:
        """Collapsed key -> [(key, offset, size)]: the summands of each
        collapsed piece, collapsed keys ascending.  Summands ascend in
        `_order` and sit back to back from offset 0.  This order is the
        contract every total and collapse is built on: in a total the
        column filtration F^p is the suffix of blocks with first index >= p,
        and at (k, l) of the quad collapse the cells (p, q, r, s) ascend in
        (p, r).  Computed once per complex."""
        cells = self._cells
        if cells is None:
            cells = {}
            for key in sorted(self._dims, key=self._order):
                summands = cells.setdefault(self._group(key), [])
                off = summands[-1][1] + summands[-1][2] if summands else 0
                summands.append((key, off, self._dims[key]))
            cells = dict(sorted(cells.items()))
            object.__setattr__(self, "_cells", cells)
        return cells

    def _collapse(self, cls, sums: Sequence, noun: str) -> "GradedComplex":
        """The complex of type cls on the collapsed keys of `_layout`, whose
        differential j is the sum of the differentials sums[j] of self.  Each
        stored block is placed at the offsets of its source and its target,
        and the result is admitted trusted; a collapsed piece over the cap is
        refused, named by noun, before any block is placed."""
        lay = self._layout()
        dims = {g: sum(n for _key, _off, n in cells) for g, cells in lay.items()}
        check_piece_dims(dims, noun=noun)
        at = {key: off for cells in lay.values() for key, off, _n in cells}
        group, steps, ds = self._group, self._STEPS, self._diffs
        diffs = []
        for summed in sums:
            out = {}
            for g, cells in lay.items():
                # a stored block has a nonzero target, so its target has an offset
                blocks = [(at[steps[i](key)], off, ds[i][key])
                          for key, off, _n in cells for i in summed if key in ds[i]]
                if blocks:
                    # every step of one sum moves g to the same collapsed key
                    up = group(steps[summed[0]](cells[0][0]))
                    out[g] = RatMatrix.from_blocks(dims[up], dims[g], blocks)
            diffs.append(out)
        return cls(dims, *diffs, _trusted=True)

    def _block(self, i: int, key) -> RatMatrix:
        """Differential i at key: the stored block, or a zero matrix."""
        m = self._diffs[i].get(key)
        if m is None:
            dims = self._dims
            return RatMatrix.zeros(dims.get(self._STEPS[i](key), 0), dims.get(key, 0))
        return m

    def dims(self) -> dict:
        return dict(self._dims)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def is_zero(self) -> bool:
        return not self._dims

    def _key(self):
        return (
            tuple(sorted(self._dims.items())),
            tuple(tuple(sorted(d.items())) for d in self._diffs),
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self._key())
            object.__setattr__(self, "_hash", h)
        return h


class CochainComplex(GradedComplex):
    """Immutable bounded complex.  dims maps degree -> dimension, diffs maps
    degree k -> matrix of d^k (shape dim(k+1) x dim(k)); zero data is dropped."""

    __slots__ = ("lo", "hi")
    _STEPS = (lambda k: k + 1,)
    _NAMES = ("d",)
    _AT = "degree {0}"
    _PIECE = "degree"
    _NOUN = "cochain"
    _FIELDS = ("diffs",)
    _key_str = staticmethod(str)
    _neg = staticmethod(neg)
    _total = staticmethod(int)

    def __init__(self, dims: Mapping, diffs: Mapping | None = None, *, _trusted: bool = False):
        super().__init__(dims, (diffs,), _trusted=_trusted)
        object.__setattr__(self, "lo", min(self._dims, default=0))
        object.__setattr__(self, "hi", max(self._dims, default=-1))

    @staticmethod
    def _grade(k) -> int:
        try:
            return index(k)
        except TypeError:
            raise ValidationError(f"degree must be an integer, got {k!r}") from None

    def dim(self, k: int) -> int:
        return self._dims.get(k, 0)

    def diff(self, k: int) -> RatMatrix:
        return self._block(0, k)

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def __repr__(self) -> str:
        if self.is_zero():
            return "CochainComplex(0)"
        body = ", ".join(f"{k}:{n}" for k, n in sorted(self._dims.items()))
        return f"CochainComplex({body})"

    def _head(self) -> dict:
        return {"lo": self.lo, "hi": self.hi}


ZERO_COMPLEX = CochainComplex({})


# -- cohomology -----------------------------------------------------------


@memo
def cohomology(k_complex: CochainComplex, k: int) -> Subquotient:
    """H^k as a subquotient of the degree-k space."""
    cycles = kernel_basis(k_complex.diff(k))
    return subquotient(cycles, k_complex.diff(k - 1))


def cohomology_dim(k_complex: CochainComplex, k: int) -> int:
    """dim H^k by rank arithmetic only — no basis extraction, so this is the
    hot path for dimension tables."""
    n = k_complex.dim(k)
    if n == 0:
        return 0
    return n - rank(k_complex.diff(k)) - rank(k_complex.diff(k - 1))


def betti_numbers(k_complex: CochainComplex) -> dict:
    return {k: cohomology_dim(k_complex, k) for k in k_complex.degrees()}


def euler_characteristic(k_complex: CochainComplex) -> int:
    return sum((-1) ** k * n for k, n in k_complex.dims().items())


# -- constructions --------------------------------------------------------


def shift(k_complex: CochainComplex, m: int) -> CochainComplex:
    """Degree shift: shift(K, m)^k = K^{k+m}.  Differentials are reused
    without any sign."""
    m = k_complex._grade(m)
    return k_complex._part(CochainComplex, lambda k: True, lambda k: k - m, (0,))


def dual(k_complex: CochainComplex) -> CochainComplex:
    """Linear dual: dual(K)^k = (K^{-k})* with d^k = (-1)^{k+1} d_K^{-k-1}^T."""
    return k_complex._dual()


def direct_sum(parts: Sequence[CochainComplex]) -> CochainComplex:
    """Degreewise direct sum; summands keep their input order inside each
    degree."""
    return CochainComplex._summed(parts)


# -- maps -----------------------------------------------------------------


class GradedMap:
    """Immutable map between two graded complexes of one kind, one block per
    key, commuting with every differential; the squares are checked at
    construction.

    A subclass names the kind of complex it maps (`_SPACE`), itself
    (`_NOUN`) and a failed square (`_SQUARE`, formatted with the name of
    the differential and the key).
    """

    __slots__ = ("source", "target", "_mats")

    def __init__(self, source: GradedComplex, target: GradedComplex, mats: Mapping,
                 _trusted: bool = False):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        if _trusted:  # internal: a collapse of a valid map's own blocks
            object.__setattr__(self, "_mats", mats)
            return
        grade, sd, td = source._grade, source._dims, target._dims
        kept = {}
        for key, m in mats.items():
            key = grade(key)
            want = (td.get(key, 0), sd.get(key, 0))
            if m.shape != want:
                raise ValidationError(
                    f"{self._NOUN} at {source._AT.format(key)} has shape {m.shape},"
                    f" expected {want}"
                )
            if not m.is_zero():
                kept[key] = m
        object.__setattr__(self, "_mats", kept)
        self._check_squares()

    def _check_squares(self):
        """t_i(key) @ f(key) == f(key + e_i) @ s_i(key) for every
        differential i.  A square can be nonzero only at a key with a stored
        map block or a stored source block, so only those keys are visited,
        ascending, with d1 before d2 at each."""
        src, tgt, mats = self.source, self.target, self._mats
        for key in sorted(set(mats).union(*src._diffs)):
            f = mats.get(key)
            for i, step in enumerate(src._STEPS):
                t, s = tgt._diffs[i].get(key), src._diffs[i].get(key)
                g = mats.get(step(key)) if s is not None else None
                lhs = t @ f if t is not None and f is not None else None
                rhs = g @ s if g is not None else None
                if lhs is None:
                    ok = rhs is None or rhs.is_zero()
                else:
                    ok = lhs.is_zero() if rhs is None else lhs == rhs
                if not ok:
                    raise NotChainCompatible(self._SQUARE.format(
                        name=src._NAMES[i], at=src._AT.format(key)))

    def _collapse(self, cls, source: GradedComplex, target: GradedComplex) -> "GradedMap":
        """The map of type cls from source to target, the collapses of
        self.source and self.target: each stored block is placed at its
        key's offsets in the two summand layouts, and admitted trusted."""
        mats = self._mats
        at = {key: off for cells in self.target._layout().values()
              for key, off, _n in cells}
        out = {}
        for g, cells in self.source._layout().items():
            blocks = [(at[key], off, mats[key]) for key, off, _n in cells if key in mats]
            if blocks:
                out[g] = RatMatrix.from_blocks(target._dims[g], source._dims[g], blocks)
        return cls(source, target, out, True)  # _trusted

    @classmethod
    def _composite(cls, g: "GradedMap", f: "GradedMap") -> "GradedMap":
        """g o f (apply f first), multiplying only keys stored in both."""
        if f.target != g.source:
            raise ValidationError(f"{cls._NOUN}s not composable")
        gm = g._mats
        return cls(f.source, g.target, {k: gm[k] @ m for k, m in f._mats.items() if k in gm})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _block(self, key) -> RatMatrix:
        """The map at key: the stored block, or a zero matrix."""
        m = self._mats.get(key)
        if m is None:
            return RatMatrix.zeros(self.target._dims.get(key, 0), self.source._dims.get(key, 0))
        return m

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self._mats == other._mats
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.source!r} -> {self.target!r})"

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target": self.target.to_json(),
            "mats": self.source._blocks_json(self._mats),
        }

    @classmethod
    def from_json(cls, obj) -> "GradedMap":
        space = cls._SPACE
        try:
            src = space.from_json(obj["source"])
            tgt = space.from_json(obj["target"])
            mats = {space._parse_key(k): RatMatrix.from_json(v)
                    for k, v in obj.get("mats", {}).items()}
        except (KeyError, AttributeError, TypeError, ValueError) as exc:
            raise ParseError(f"bad {cls._NOUN} JSON: {exc}") from None
        return cls(src, tgt, mats)


class ChainMap(GradedMap):
    """Degreewise map commuting with the differentials; squares are checked
    eagerly at construction."""

    __slots__ = ()
    _SPACE = CochainComplex
    _NOUN = "chain map"
    _SQUARE = "chain map square at {at} does not commute"

    def mat(self, k: int) -> RatMatrix:
        return self._block(k)


def identity_chain_map(k_complex: CochainComplex) -> ChainMap:
    mats = {k: RatMatrix.identity(n) for k, n in k_complex.dims().items()}
    return ChainMap(k_complex, k_complex, mats)


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g o f (apply f first)."""
    return ChainMap._composite(g, f)


def cohomology_map(f: ChainMap, k: int) -> RatMatrix:
    """Matrix of H^k(f) in representative coordinates."""
    return induced_map(f.mat(k), cohomology(f.source, k), cohomology(f.target, k))


def is_cohomology_iso(f: ChainMap, degrees: Sequence[int] | None = None) -> bool:
    """True when H^k(f) is bijective for every k (degrees default: the union
    of both supports, padded by one)."""
    if degrees is None:
        lo = min(f.source.lo, f.target.lo) - 1
        hi = max(f.source.hi, f.target.hi) + 1
        degrees = range(lo, hi + 1)
    for k in degrees:
        a = cohomology_dim(f.source, k)
        b = cohomology_dim(f.target, k)
        if a != b:
            return False
        if a and rank(cohomology_map(f, k)) != a:
            return False
    return True


clear_cohomology_cache = clear_caches
