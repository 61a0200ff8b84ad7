"""Exact rational matrices and the elimination routines everything else rides on.

Scalars are rationals, exact throughout; no floats anywhere.

Storage.  A RatMatrix keeps, for each row, one flat tuple
``(c0, v0, c1, v1, ...)`` of its nonzero entries with the columns ascending;
a zero row is ``()``.  A stored value is an ``int`` when it is integral and a
``fractions.Fraction`` (denominator > 1) only when it is not, so products,
sums and Kronecker products of integral matrices run in int arithmetic.  The
form is canonical, so equality is tuple equality and the hash is the hash of
the rows, and every operation (products, sums, stacking, block placement,
Kronecker products, transposes, zero tests, hashing) walks the nonzeros
only.  Every producer keeps the form: a value that may be an integral
Fraction is stored as ``_canon`` gives it.
The public boundary is Fraction: ``row``, ``m[i, j]`` and
``rat_from`` hand out Fractions, and ``repr`` and ``to_json`` the same
strings as for Fractions.  Matrices built by RatMatrix's own operations and
by the eliminations already hold canonical sparse rows, so they are
constructed with the private keyword ``_trusted=True``.  That branch, the
first after the negative-shape and cap checks, only stores the row tuple,
each slot through its own descriptor, so an internal matrix costs little
more than its data; zeros (no entries) is as lean.  Every matrix is still
built through __init__, and each construction reads SPECTRA_DR_MAX_DIM
once, with one lookup in os.environ's backing dict; a value that is not a
non-negative integer raises at every construction.

Elimination.  There is one: the persistence column reduction (_reduce),
with one pivot rule.  It chooses no pivot: it takes the columns in a fixed
order, from the highest key down, and adds to a column only multiples of
reduced columns of higher key, until no two nonzero columns share a low
(least row).  So the reduced matrix is R = M V with V upper triangular in
that order and positive on its diagonal (a column is only ever scaled by a
positive integer), and the nonzero columns of R are the columns of M that
are independent of all columns taken before them.  Columns are read from the
blocks of M in place, never glued, and kept as {row: int} dicts cleared of
denominators; a step that scales a column then divides out the gcd of
its entries, so the values stay small.
Taken from the highest column down it is the filtered reduction behind
spectral.window_barcode (column_lows) and rank.  Taken from the left (the
columns keyed by negated index) it gives the rest, V recorded where asked:
pivot_columns and image_basis keep the nonzero columns, which are the pivot
columns of the reduced echelon form; kernel_basis reads the V columns of the
columns that reduce to zero; solve_matrix reduces each right-hand column
against the columns of the matrix and reads the solution off its V column,
held only at pivot columns, so free variables are zero; subquotient keeps
the nonzero columns of one reduction of [boundaries | Z].

Memos.  Every memo of the package is unbounded, keyed on the raw cap and on
its arguments' types, and recorded in one registry; clear_caches, which
every clear_* name is, empties them all.  A memo keyed by a complex is
declared with memo and lives as long as its complex: each entry is filed
under a weak reference to the first argument and goes when it goes.  The
three matrix memos (rank, kernel_basis, pivot_columns) are lru_caches keyed
by value, because their hits come from equal matrices built again.

A Subquotient packages (cycles mod boundaries) inside a fixed ambient space;
every cohomology group, spectral-sequence term and Bott-Chern group in the
package is one of these, and every map between two of them (the connecting
maps of truncation too) is induced_map.  Its representatives are the
columns of Z that stay nonzero in that reduction: exactly the cycles a
greedy left-to-right scan would add to the boundaries.  The count of
nonzero columns certifies that the boundaries lie in the cycle span.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import accumulate
from math import gcd
from operator import neg
from typing import Iterable, Mapping, Sequence
from weakref import ref

from .errors import ContainmentViolation, NotChainCompatible, ParseError, ValidationError

F0 = Fraction(0)

_DEFAULT_MAX_DIM = 4096


# os.environ's backing store and its key for the cap: one dict lookup per
# read, and os.environ[...] = and del os.environ[...] update the same
# dict
_ENVIRON = os.environ._data
_MAX_DIM_KEY = os.environ.encodekey("SPECTRA_DR_MAX_DIM")


def _max_dim() -> int:
    """The size cap, read afresh on every call; a value that does not parse
    as a non-negative int raises each time it is read."""
    raw = _ENVIRON.get(_MAX_DIM_KEY)
    if raw is None:
        return _DEFAULT_MAX_DIM
    raw = os.environ.decodevalue(raw)
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"SPECTRA_DR_MAX_DIM must be an integer, got {raw!r}")
    if cap < 0:
        raise ValidationError(
            f"SPECTRA_DR_MAX_DIM must be a non-negative integer, got {raw!r}")
    return cap


def check_piece_dims(dims: Mapping, context: str = "", noun: str = "piece") -> None:
    """Refuse a graded piece (grading key -> dim) larger than
    SPECTRA_DR_MAX_DIM before any matrix on it is built, naming the least
    such key after context and noun.  The cap is read only when there are
    pieces."""
    cap = _max_dim() if dims else 0
    key = min((key for key, n in dims.items() if n > cap), default=None)
    if key is not None:
        name = f"({','.join(map(str, key))})" if isinstance(key, tuple) else key
        raise ValidationError(f"{context}{noun} {name} has dim"
                              f" {dims[key]} > SPECTRA_DR_MAX_DIM={cap}")


_MEMOS: list = []

_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _Held:
    """An argument as a memo key holds it: weakly.  It hashes as the
    argument and equals it while the argument lives, so a lookup by the
    argument itself finds the entry."""

    __slots__ = ("ref", "hash")

    def __init__(self, obj):
        self.ref, self.hash = ref(obj), hash(obj)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        obj = self.ref()
        return obj is other or obj == other


def memo(fn):
    """An unbounded memo of fn, a function of one to three positional
    arguments whose first is a complex, that lives as long as its complex:
    every entry is filed under a weak reference to the first argument and
    goes when that argument goes; later arguments that can be weakly
    referenced are held weakly too.  An entry is found by value, so an equal
    complex built while the first is alive hits it.  The key also holds the
    raw SPECTRA_DR_MAX_DIM value and the types of the later arguments (the
    first argument's type is part of a complex's own equality): a call with
    1.0 for 1, or under another cap, misses, and meets the checks of the cold
    path.  An exception is not cached, and a first argument that cannot be
    weakly referenced reaches fn uncached.  cache_info and cache_clear read
    and empty it as they do an lru_cache's; recorded so that clear_caches
    empties it."""
    entries: dict = {}  # ref(first argument) -> {cap or (cap, *rest, *their types): value}
    watchers: dict = {}  # the same key -> a ref whose callback drops its entries
    get, cap, kind = _ENVIRON.get, _MAX_DIM_KEY, type
    hits = misses = 0

    def miss(a, *rest):
        nonlocal misses
        try:
            key = ref(a)
        except TypeError:  # nothing to file an entry under
            misses += 1
            return fn(a, *rest)
        held = (_Held(x) if kind(x).__weakrefoffset__ else x for x in rest)
        inner = (get(cap), *held, *map(kind, rest)) if rest else get(cap)
        hash((key, inner))  # an unhashable argument raises before fn runs
        misses += 1
        value = fn(a, *rest)
        filed = entries.get(key)  # read after fn, which may have filed entries under a
        if filed is None:
            entries[key] = filed = {}
            watchers[key] = ref(a, lambda _, key=key: (entries.pop(key, None),
                                                       watchers.pop(key, None)))
        filed[inner] = value
        return value

    # a hit path of fn's own arity: a starred call costs more than the hit
    def one(a):
        nonlocal hits
        try:
            value = entries[ref(a)][get(cap)]
        except (KeyError, TypeError):
            return miss(a)
        hits += 1
        return value

    def two(a, b):
        nonlocal hits
        try:
            value = entries[ref(a)][get(cap), b, kind(b)]
        except (KeyError, TypeError):
            return miss(a, b)
        hits += 1
        return value

    def three(a, b, c):
        nonlocal hits
        try:
            value = entries[ref(a)][get(cap), b, c, kind(b), kind(c)]
        except (KeyError, TypeError):
            return miss(a, b, c)
        hits += 1
        return value

    def cache_info():
        return _CacheInfo(hits, misses, None, sum(map(len, entries.values())))

    def cache_clear():
        nonlocal hits, misses
        entries.clear()
        watchers.clear()
        hits = misses = 0

    memoised = wraps(fn)({1: one, 2: two, 3: three}[fn.__code__.co_argcount])
    memoised.cache_info, memoised.cache_clear = cache_info, cache_clear
    _MEMOS.append(memoised)
    return memoised


def _matrix_memo(fn):
    """The memo of a function of one matrix: an unbounded, typed lru_cache
    keyed by value and on the raw SPECTRA_DR_MAX_DIM value, so an equal
    matrix built again hits; recorded so that clear_caches empties it."""
    cached = lru_cache(maxsize=None, typed=True)(lambda _cap, m: fn(m))
    get, cap = _ENVIRON.get, _MAX_DIM_KEY
    memoised = wraps(fn)(lambda m: cached(get(cap), m))
    memoised.cache_info, memoised.cache_clear = cached.cache_info, cached.cache_clear
    _MEMOS.append(memoised)
    return memoised


def clear_caches():
    """Empty every memo of the package."""
    for cached in _MEMOS:
        cached.cache_clear()


def rat_from(value) -> Fraction:
    """Coerce an int, Fraction, or "a/b" / "a" string to Fraction.

    Floats are rejected: they have no place in an exact engine and a float in
    serialized input is almost certainly an upstream bug.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ParseError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {value!r}: {exc}") from None
    if isinstance(value, float):
        raise ParseError(f"not a rational: {value!r} (floats are not accepted)")
    raise ParseError(f"not a rational: {value!r}")


# -- sparse rows ------------------------------------------------------------
# A sparse row is a flat tuple (c0, v0, c1, v1, ...), columns ascending,
# values nonzero and canonical (int when integral, else Fraction).
# zip(it, it) over one iterator walks its (column, value) pairs without
# slicing.


def _canon(v):
    """The stored form of a rational: an int when it is integral."""
    return v if type(v) is int or v.denominator != 1 else v.numerator


def _public(v) -> Fraction:
    """A stored value as handed out: always a Fraction."""
    return Fraction(v) if type(v) is int else v


def _pairs(row):
    it = iter(row)
    return zip(it, it)


def _pack(d: dict) -> tuple:
    """The sparse row of a {column: value} dict, dropping zero values and
    storing integral values as ints."""
    out = []
    for c in sorted(d):
        v = d[c]
        if v:
            out += (c, v if type(v) is int or v.denominator != 1 else v.numerator)
    return tuple(out)


def _shift(row: tuple, off: int) -> tuple:
    """The row with every column moved right by off."""
    if not off or not row:
        return row
    out = list(row)
    out[0::2] = [c + off for c in row[0::2]]
    return tuple(out)


def _map_values(row: tuple, f) -> tuple:
    out = list(row)
    out[1::2] = [f(v) for v in row[1::2]]
    return tuple(out)


def _literal_row(entries) -> tuple:
    """The sparse row of an untrusted dense literal.  Ints are stored as
    they are and the zero literal "0" is skipped, neither building a
    Fraction (False is not an int here, so it still reaches rat_from and
    raises)."""
    out = []
    for c, x in enumerate(entries):
        t = type(x)
        if t is int:
            if x:
                out += (c, x)
            continue
        if t is str and x == "0":
            continue
        v = rat_from(x)
        if v:
            out += (c, _canon(v))
    return tuple(out)


def _merge(ra: tuple, rb: tuple, sign: int) -> tuple:
    """The sparse row ra + sign * rb."""
    if not rb:
        return ra
    if not ra:
        return rb if sign > 0 else _map_values(rb, neg)
    d = dict(_pairs(ra))
    for c, v in _pairs(rb):
        if sign < 0:
            v = -v
        d[c] = d[c] + v if c in d else v
    return _pack(d)


class RatMatrix:
    """Immutable matrix over Fraction, stored as sparse rows (see the module
    docstring).  Zero-row and zero-column shapes are first-class:
    eliminations, products and stacking all accept them."""

    __slots__ = ("rows", "cols", "_rows", "_hash")

    def __init__(self, rows: int, cols: int, entries=None, *, _trusted=False):
        if rows < 0 or cols < 0:
            raise ValidationError(f"negative matrix shape {rows}x{cols}")
        cap = _max_dim()
        if rows > cap or cols > cap:
            raise ValidationError(
                f"matrix shape {rows}x{cols} exceeds SPECTRA_DR_MAX_DIM={cap}"
            )
        if _trusted:
            # internal: exactly `rows` sparse row tuples
            data = tuple(entries)
        elif entries is None:
            data = ((),) * rows
        else:
            entries = list(entries)
            if len(entries) != rows or not all(
                isinstance(r, (list, tuple)) for r in entries
            ):
                raise ValidationError(
                    f"matrix literal must be {rows} rows of {cols} entries"
                )
            if any(len(r) != cols for r in entries):
                raise ValidationError("ragged rows in matrix literal")
            data = tuple(map(_literal_row, entries))
        _set_rows(self, rows)
        _set_cols(self, cols)
        _set_data(self, data)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    # -- constructors -----------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix(rows, cols)

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, [(i, 1) for i in range(n)], _trusted=True)

    @staticmethod
    def from_rows(rows: Sequence[Sequence], cols: int | None = None) -> "RatMatrix":
        rows = list(rows)
        if cols is None:
            if not rows:
                raise ValidationError("from_rows with no rows needs explicit cols")
            cols = len(rows[0])
        return RatMatrix(len(rows), cols, rows)

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "RatMatrix":
        """The rows x cols matrix of the (row, column, value) triples in
        entries, int or Fraction values: repeats are summed, a zero sum is not
        stored, an integral value is stored as an int.  Raises
        ValidationError naming an entry outside the shape."""

        def packed():  # a generator: __init__ checks the cap before allocation
            acc = [{} for _ in range(rows)]
            for i, j, v in entries:
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ValidationError(f"entry ({i},{j}) outside {rows}x{cols}")
                row = acc[i]
                row[j] = row[j] + v if j in row else v
            yield from map(_pack, acc)

        return RatMatrix(rows, cols, packed(), _trusted=True)

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return _public(self._entry(self._rows[i], j))

    def _entry(self, row: tuple, j: int):
        """The stored value at column j of a sparse row, or 0."""
        j = range(self.cols)[j]  # tuple-style bounds check and negative index
        for c, v in _pairs(row):
            if c >= j:
                return v if c == j else 0
        return 0

    def _dense(self, i: int) -> list:
        """Row i with stored values, 0 where nothing is stored."""
        out = [0] * self.cols
        for c, v in _pairs(self._rows[i]):
            out[c] = v
        return out

    def row(self, i: int) -> tuple:
        out = [F0] * self.cols
        for c, v in _pairs(self._rows[i]):
            out[c] = _public(v)
        return tuple(out)

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return not any(self._rows)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows, self.cols,
            [_merge(ra, rb, 1) for ra, rb in zip(self._rows, other._rows)],
            _trusted=True,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows, self.cols,
            [_merge(ra, rb, -1) for ra, rb in zip(self._rows, other._rows)],
            _trusted=True,
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(
            self.rows, self.cols,
            [_map_values(r, neg) for r in self._rows],
            _trusted=True,
        )

    def scale(self, c) -> "RatMatrix":
        c = _canon(rat_from(c))
        if c == 1:
            return self
        if not c:  # stored values must stay nonzero
            return RatMatrix(self.rows, self.cols)
        return RatMatrix(
            self.rows, self.cols,
            [_map_values(r, lambda v: _canon(v * c)) for r in self._rows],
            _trusted=True,
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        orows = other._rows
        out = []
        for arow in self._rows:
            acc = {}
            for k, a in _pairs(arow):
                for j, b in _pairs(orows[k]):
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(_pack(acc) if acc else ())
        return RatMatrix(self.rows, other.cols, out, _trusted=True)

    def transpose(self) -> "RatMatrix":
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self._rows):
            for c, v in _pairs(r):
                out[c] += (i, v)
        return RatMatrix(self.cols, self.rows, map(tuple, out), _trusted=True)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        """The rows row_idx, in their order, and the columns col_idx, which
        must be ints (TypeError), in range (IndexError) and strictly
        ascending (ValidationError): each row's picks keep their order, so
        nothing is sorted, and a contiguous run of columns is one slice of
        each row."""
        ri = list(row_idx)
        ci = list(col_idx)
        if ci:
            if set(map(type, ci)) != {int}:  # a bool is no index
                bad = next(c for c in ci if type(c) is not int)
                raise TypeError(f"column index {bad!r} is not an int")
            picks = sorted(set(ci))
            if picks[0] < 0 or picks[-1] >= self.cols:
                bad = picks[0] if picks[0] < 0 else picks[-1]
                raise IndexError(f"column index {bad} out of range for {self.cols} columns")
            if ci != picks:
                raise ValidationError("column indices must ascend without repeats")
        rows = self._rows
        if not ci or ci[-1] - ci[0] == len(ci) - 1:
            lo, hi = (ci[0], ci[-1] + 1) if ci else (0, 0)
            if lo == 0 and hi == self.cols:
                data = [rows[i] for i in ri]
            else:
                data = []
                for i in ri:
                    row = rows[i]
                    held = row[0::2]
                    data.append(_shift(row[2 * bisect_left(held, lo):
                                           2 * bisect_left(held, hi)], -lo))
        else:
            new = {c: k for k, c in enumerate(ci)}
            data = [tuple(x for c, v in _pairs(rows[i]) if c in new for x in (new[c], v))
                    for i in ri]
        return RatMatrix(len(ri), len(ci), data, _trusted=True)

    def select_columns(self, col_idx: Iterable[int]) -> "RatMatrix":
        return self.submatrix(range(self.rows), col_idx)

    # -- combination ------------------------------------------------------

    @staticmethod
    def hstack(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        mats = [m for m in mats]
        if not mats:
            raise ValidationError("hstack of nothing")
        rows = mats[0].rows
        if any(m.rows != rows for m in mats):
            raise ValidationError("hstack row mismatch")
        out = [()] * rows
        off = 0
        for m in mats:
            for i, r in enumerate(m._rows):
                if r:
                    out[i] += _shift(r, off)
            off += m.cols
        return RatMatrix(rows, off, out, _trusted=True)

    @staticmethod
    def from_blocks(rows: int, cols: int, blocks) -> "RatMatrix":
        """The rows x cols matrix that is zero outside the given blocks, each a
        (row offset, column offset, RatMatrix) triple copied into place; a
        later block overwrites the columns it spans.  Raises ValidationError
        for a block that does not fit."""

        def placed():  # a generator: __init__ checks the cap before allocation
            out = [()] * rows
            for r0, c0, m in blocks:
                c1 = c0 + m.cols
                if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c1 > cols:
                    raise ValidationError(
                        f"block {m.rows}x{m.cols} at ({r0},{c0}) does not fit"
                        f" in {rows}x{cols}"
                    )
                for i, mrow in enumerate(m._rows, r0):
                    row = out[i]
                    if row:
                        held = row[0::2]
                        lo = 2 * bisect_left(held, c0)
                        hi = 2 * bisect_left(held, c1)
                        out[i] = row[:lo] + _shift(mrow, c0) + row[hi:]
                    elif mrow:
                        out[i] = _shift(mrow, c0)
            yield from out

        return RatMatrix(rows, cols, placed(), _trusted=True)

    @staticmethod
    def kron(a: "RatMatrix", b: "RatMatrix") -> "RatMatrix":
        bcols = b.cols
        bpairs = [list(_pairs(r)) for r in b._rows]
        out = []
        for arow in a._rows:
            apairs = [(j * bcols, x) for j, x in _pairs(arow)]
            for bp in bpairs:
                row = []
                for base, x in apairs:
                    for l, y in bp:
                        v = x * y
                        row += (base + l, v if type(v) is int or v.denominator != 1
                                else v.numerator)
                out.append(tuple(row))
        return RatMatrix(a.rows * b.rows, a.cols * bcols, out, _trusted=True)

    # -- plumbing ---------------------------------------------------------

    def _same_shape(self, other: "RatMatrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValidationError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        # the rows are canonical, so equal matrices have equal rows; only
        # the few non-integral entries pay for Fraction.__hash__
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, self._rows))
            _set_hash(self, h)
        return h

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"RatMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(map(str, self._dense(i))) for i in range(self.rows)
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        # str of a stored int is str of the same Fraction
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(map(str, self._dense(i))) for i in range(self.rows)],
        }

    @staticmethod
    def from_json(obj) -> "RatMatrix":
        if not isinstance(obj, dict):
            raise ParseError(f"matrix JSON must be an object, got {type(obj).__name__}")
        try:
            rows = obj["rows"]
            cols = obj["cols"]
            entries = obj["entries"]
        except KeyError as exc:
            raise ParseError(f"matrix JSON missing key {exc}") from None
        if type(rows) is not int or type(cols) is not int:  # a bool is no size
            raise ParseError("matrix rows/cols must be integers")
        if (not isinstance(entries, list) or len(entries) != rows
                or not all(isinstance(r, list) for r in entries)):
            raise ParseError("matrix entries must be a list of rows")
        return RatMatrix(rows, cols, entries)


# the slots' own descriptors: __setattr__ refuses every write, and a
# descriptor's __set__ is cheaper than object.__setattr__ by name
_set_rows = RatMatrix.rows.__set__
_set_cols = RatMatrix.cols.__set__
_set_data = RatMatrix._rows.__set__
_set_hash = RatMatrix._hash.__set__


def products_vanish(*pairs) -> bool:
    """True when the sum of f @ g over the pairs (f, g) is zero; a pair with
    an absent (None) factor is skipped.  Raises ValidationError, with the
    messages of @ and of +, for a pair that does not conform or for
    products of different shapes.  Each row of the sum is accumulated in
    one dict, so no matrix is built, in int arithmetic where both factors'
    entries are integral."""
    pairs = [(f, g) for f, g in pairs if f is not None and g is not None]
    for f, g in pairs:
        if f.cols != g.rows:
            raise ValidationError(
                f"cannot multiply {f.rows}x{f.cols} by {g.rows}x{g.cols}")
        if (f.rows, g.cols) != (pairs[0][0].rows, pairs[0][1].cols):
            raise ValidationError(
                f"shape mismatch {pairs[0][0].rows}x{pairs[0][1].cols}"
                f" vs {f.rows}x{g.cols}")
    pairs = [(f._rows, g._rows) for f, g in pairs]
    for i in range(len(pairs[0][0]) if pairs else 0):
        acc = {}
        for frows, grows in pairs:
            for k, a in _pairs(frows[i]):
                for j, b in _pairs(grows[k]):
                    acc[j] = acc[j] + a * b if j in acc else a * b
        if any(acc.values()):
            return False
    return True


# -- the column reduction ----------------------------------------------------


def _columns(blocks, cleared=()) -> dict:
    """The nonzero columns, {column: {row: value}}, of the matrix that
    from_blocks would glue from blocks, (row offset, column offset,
    RatMatrix) triples that do not overlap; the blocks are read in place and
    the matrix itself is never built.  A column in cleared is left out
    unread."""
    cols = {}
    for r0, c0, m in blocks:
        for i, row in enumerate(m._rows, r0):
            for c, v in _pairs(row):
                c += c0
                if c in cols:
                    cols[c][i] = v
                elif c not in cleared:
                    cols[c] = {i: v}
    return cols


def _leftmost(*mats: RatMatrix) -> dict:
    """The columns of [m0 | m1 | ...], never glued, keyed by negated column
    index, so that _reduce takes them from the left."""
    offs = accumulate((m.cols for m in mats), initial=0)
    return {-c: col for c, col in _columns([(0, o, m) for o, m in zip(offs, mats)]).items()}


def _step(col: dict, b: int, a: int, other: dict) -> dict:
    """The sparse integer vector b * col - a * other; col is updated in place
    when b is 1."""
    if b != 1:
        col = {i: v * b for i, v in col.items()}
    for i, v in other.items():
        x = col.get(i, 0) - a * v
        if x:
            col[i] = x
        else:
            del col[i]
    return col


def _reduce(cols: dict, track: bool = False):
    """The persistence reduction of cols, {key: {row: value}}, from the
    highest key down (see the module docstring); the column dicts may be
    updated in place.

    A column is cleared of denominators first; a step scales it by the
    integer that cancels its low and then divides it by the gcd of its
    entries.  Returns (lows, zeros): lows maps the key of each column that
    stays nonzero to its low.  With track, V is recorded alongside (the gcd
    is then taken over a column and its V column together), and zeros maps
    the key of each column that reduces to zero to its V column {key: int}:
    a vanishing integer combination of the input columns, positive at its
    own key and otherwise held only at keys in lows.  Without track, zeros
    is empty.
    """
    reduced = {}  # low -> the reduced column that holds it
    ops = {}  # low -> that column's V column, when tracked
    lows, zeros = {}, {}
    for j in sorted(cols, reverse=True):
        col = cols[j]
        lcm = 1
        for v in col.values():
            if type(v) is not int:
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        if lcm != 1:
            col = {i: int(v * lcm) for i, v in col.items()}
        op = {j: lcm} if track else None
        low = min(col)
        while low in reduced:
            other = reduced[low]
            a, b = col[low], other[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b < 0:
                a, b = -a, -b
            col = _step(col, b, a, other)
            if track:
                op = _step(op, b, a, ops[low])
            if not col:
                break
            if b != 1:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if track:
                    for v in op.values():
                        g = gcd(g, v)
                if g != 1:
                    col = {i: v // g for i, v in col.items()}
                    if track:
                        op = {i: v // g for i, v in op.items()}
            low = min(col)
        else:
            reduced[low] = col
            if track:
                ops[low] = op
            lows[j] = low
            continue
        if track:
            zeros[j] = op
    return lows, zeros


def column_lows(blocks, cleared=()) -> dict:
    """The persistence reduction (_reduce) of the matrix that from_blocks
    would glue from blocks, read from the blocks in place, from the highest
    column down: {column: low} for the columns that stay nonzero.  A column
    in cleared is taken as zero unread: the caller knows it reduces to zero
    (it is the low of a reduced column of the previous differential)."""
    return _reduce(_columns(blocks, cleared))[0]


@_matrix_memo
def rank(m: RatMatrix) -> int:
    return len(column_lows([(0, 0, m)]))


@_matrix_memo
def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Basis of {x : m @ x = 0} as columns, shape (cols x nullity).

    The free columns are those that are not pivot_columns.  Each basis
    column is the primitive integer solution, positive at "its" free column
    and 0 at the other free columns; columns are ordered by ascending
    free-column index.  Deterministic.
    """
    lows, zeros = _reduce(_leftmost(m), track=True)
    free = [c for c in range(m.cols) if -c not in lows]
    out = [()] * m.cols
    for t, f in enumerate(free):
        op = zeros.get(-f) or {-f: 1}  # a zero column of m is read as no column
        g = 0
        for v in op.values():
            g = gcd(g, v)
        for c, v in op.items():
            out[-c] += (t, v // g)
    return RatMatrix(m.cols, len(free), out, _trusted=True)


@_matrix_memo
def pivot_columns(m: RatMatrix) -> tuple:
    """The leftmost maximal independent set of columns (the pivot columns of
    the reduced echelon form), ascending."""
    return tuple(sorted(-c for c in _reduce(_leftmost(m))[0]))


def image_basis(m: RatMatrix) -> RatMatrix:
    """The pivot columns of m itself (original entries), a basis of the
    column span; m itself when its columns are independent."""
    cols = pivot_columns(m)
    return m if len(cols) == m.cols else m.select_columns(cols)


def solve_matrix(a: RatMatrix, b: RatMatrix) -> RatMatrix | None:
    """One X with a @ X = b (free variables zero), or None if inconsistent."""
    if a.rows != b.rows:
        raise ValidationError(
            f"solve shape mismatch: {a.rows}x{a.cols} vs rhs {b.rows}x{b.cols}"
        )
    n, k = a.cols, b.cols
    # a column of b reduces to zero against the reduced columns of a exactly
    # when it lies in their span, and its V column is then held only at the
    # pivot columns of a and at its own key: (x, t) with a @ x + t * b_j = 0
    lows, zeros = _reduce(_leftmost(a, b), track=True)
    if any(c <= -n for c in lows):
        return None
    out = [()] * n
    for j in range(k):
        op = zeros.get(-n - j)
        if op:
            t = op.pop(-n - j)
            for c, v in op.items():
                q, r = divmod(-v, t)
                out[-c] += (j, Fraction(-v, t) if r else q)
    return RatMatrix(n, k, out, _trusted=True)


# -- subquotients ---------------------------------------------------------


class Subquotient:
    """cycles/boundaries inside a fixed ambient coordinate space.

    cycle_basis and boundary_basis are honest bases (columns independent);
    representative_basis columns are cycles whose classes form a basis of the
    quotient.  dim = cycles rank - boundaries rank.
    """

    __slots__ = ("ambient_dim", "cycle_basis", "boundary_basis", "representative_basis")

    def __init__(self, ambient_dim, cycle_basis, boundary_basis, representative_basis):
        self.ambient_dim = ambient_dim
        self.cycle_basis = cycle_basis
        self.boundary_basis = boundary_basis
        self.representative_basis = representative_basis

    @property
    def dim(self) -> int:
        return self.representative_basis.cols

    def _basis(self) -> RatMatrix:
        """[B | R]: boundaries, then representatives, a basis of the cycles."""
        return RatMatrix.hstack([self.boundary_basis, self.representative_basis])

    def __repr__(self) -> str:
        return (
            f"Subquotient(ambient={self.ambient_dim}, cycles={self.cycle_basis.cols},"
            f" boundaries={self.boundary_basis.cols}, dim={self.dim})"
        )


def subquotient(cycles: RatMatrix, boundaries) -> Subquotient:
    """Build Z/B from a spanning set of cycles and of boundaries.

    boundaries is a RatMatrix or a sequence of parts that together span them;
    B is the image_basis of [b0 | b1 | ...], taken from the parts unglued.
    Raises ContainmentViolation unless span(boundaries) <= span(cycles).
    The representatives are the columns of the cycle basis Z that stay
    nonzero in the same reduction of [b0 | b1 | ... | Z], from the left:
    each is independent of the boundaries and of the cycles before it.
    """
    parts = (boundaries,) if isinstance(boundaries, RatMatrix) else tuple(boundaries)
    if not parts:
        raise ValidationError("subquotient of no boundary parts")
    for m in parts:
        if m.rows != cycles.rows:
            raise ValidationError(
                f"ambient mismatch: cycles in dim {cycles.rows}, boundaries in {m.rows}"
            )
    z = image_basis(cycles)
    offs = list(accumulate((m.cols for m in parts), initial=0))
    # one reduction of [b0 | b1 | ... | Z], from the left; the glued matrix
    # may exceed the size cap, so it is never a RatMatrix
    kept = sorted(-c for c in _reduce(_leftmost(*parts, z))[0])
    b = RatMatrix.hstack([m.select_columns([c - o for c in kept if o <= c < o + m.cols])
                          for o, m in zip(offs, parts)])
    reps = [c - offs[-1] for c in kept if c >= offs[-1]]
    # rank [B | Z] = dim(span B + span Z), which equals rank Z = z.cols
    # exactly when span B <= span Z
    if b.cols + len(reps) != z.cols:
        raise ContainmentViolation("boundaries not contained in cycles")
    return Subquotient(cycles.rows, z, b, z.select_columns(reps))


def induced_map(mat: RatMatrix, source: Subquotient, target: Subquotient) -> RatMatrix:
    """Matrix of the map source -> target induced by an ambient matrix.

    Checks that mat carries cycles into cycles and boundaries into boundaries;
    raises NotChainCompatible otherwise.  Result has shape
    (target.dim x source.dim) in representative coordinates.  One solve of
    mat @ [B_s | R_s] in the basis [B_t | R_t] of the target cycles is
    consistent iff cycles go to cycles; boundaries go to boundaries iff the
    R_t-coordinates of the B_s columns vanish, and those of R_s are the map.
    """
    if mat.cols != source.ambient_dim or mat.rows != target.ambient_dim:
        raise ValidationError(
            f"ambient shape mismatch: map is {mat.rows}x{mat.cols}, "
            f"source ambient {source.ambient_dim}, target ambient {target.ambient_dim}"
        )
    x = solve_matrix(target._basis(), mat @ source._basis())
    if x is None:
        raise NotChainCompatible("map does not send cycles to cycles")
    nb, ns = target.boundary_basis.cols, source.boundary_basis.cols
    if not x.submatrix(range(nb, x.rows), range(ns)).is_zero():
        raise NotChainCompatible("map does not send boundaries to boundaries")
    return x.submatrix(range(nb, x.rows), range(ns, x.cols))

