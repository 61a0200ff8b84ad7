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
The public boundary is Fraction: ``row``, ``col``, ``m[i, j]`` and
``rat_from`` hand out Fractions, and ``repr`` and ``to_json`` the same
strings as for Fractions.  Matrices built by RatMatrix's own operations and
by the eliminations already hold canonical sparse rows, so they are
constructed with the private keyword ``_trusted=True``, which skips the
per-entry coercion but not the size cap.

Elimination.  There is one: fraction-free (Bareiss) elimination on
integer-cleared {column: int} rows keyed by original column, which keeps
intermediate entries polynomial in the input instead of exploding the way
Fraction pivoting does.  It has two pivot rules.  Full pivoting, behind
rank, pivot_columns, kernel_basis and the boundary basis of a subquotient,
takes the nonzero of least
``(|v|, row position, column position)``, a position permutation standing
in for column swaps: what a dense row-major scan for the smallest magnitude
picks (including its stop at the first 1), so pivot columns and kernel
bases do not depend on the storage.  Leftmost pivoting, behind solve_matrix
and subquotient, walks the columns once in ascending order and pivots on the
least-magnitude entry, ties to the topmost row, of the first column a
remaining row holds; its pivot columns are those of the reduced echelon
form, so solutions (free variables zero) and representatives do not depend
on the row picked.  A map from each column to the remaining rows that hold
it gives leftmost pivoting its candidates and both rules the rows a step
eliminates, so a step touches only the rows that hold its pivot column.
Every other remaining row owes Bareiss's scaling by piv / prev; it is
applied lazily.  Each row is stamped with the prev of its last update and
is brought up to date as v * prev // stamp when next read: the factors
telescope to prev / stamp, and the division is exact because the true
entries are integers (minors of the input), so the integers are those of
eager scaling.  Kernels and solutions then come from one
back-substitution, bottom-up over the pivot rows, carrying every free or
right-hand column at once in integers scaled by the last pivot.

Filtered reduction.  column_lows, behind spectral.window_barcode, is the
persistence reduction: it chooses no pivot, takes the columns in a fixed
order, from the highest index down, and adds to a column only reduced
columns of higher index, so the reduced matrix is M V with V unit upper
triangular in that order.  It reads the blocks of M in place, unglued, and
keeps integer columns.

Memos.  Every memo of the package is declared with memo (an unbounded,
typed lru_cache); clear_caches, which every clear_* name is, empties them all.

A Subquotient packages (cycles mod boundaries) inside a fixed ambient space;
every cohomology group, spectral-sequence term and Bott-Chern group in the
package is one of these.  Its representatives are the leftmost pivot
columns of [B | Z] inside Z: exactly the cycles a greedy left-to-right scan
would add to the boundaries.  The pivot count certifies that the boundaries
lie in the cycle span.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import gcd
from operator import neg
from typing import Iterable, Mapping, Sequence

from .errors import ContainmentViolation, NotChainCompatible, ParseError, ValidationError

F0 = Fraction(0)

_DEFAULT_MAX_DIM = 4096


def _max_dim() -> int:
    raw = os.environ.get("SPECTRA_DR_MAX_DIM")
    if raw is None:
        return _DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"SPECTRA_DR_MAX_DIM must be an integer, got {raw!r}")


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


def memo(fn):
    """lru_cache(maxsize=None, typed=True), recorded so that clear_caches
    empties it.  Typed keys keep 1.0 from hitting the entry of 1, so a
    malformed argument reaches the checks of the cold path."""
    _MEMOS.append(lru_cache(maxsize=None, typed=True)(fn))
    return _MEMOS[-1]


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
    raise ParseError(f"not a rational: {value!r} (floats are not accepted)")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as "a/b", or "a" when the denominator is 1."""
    return str(value)


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
            if len(entries) == rows and all(
                isinstance(r, (list, tuple)) for r in entries
            ):
                if any(len(r) != cols for r in entries):
                    raise ValidationError("ragged rows in matrix literal")
                data = tuple(map(_literal_row, entries))
            elif len(entries) == rows * cols:
                data = tuple(
                    _literal_row(entries[i * cols : (i + 1) * cols]) for i in range(rows)
                )
            else:
                raise ValidationError(
                    f"entry count {len(entries)} does not fit shape {rows}x{cols}"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_rows", data)
        object.__setattr__(self, "_hash", None)

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
    def column(values: Sequence) -> "RatMatrix":
        vals = list(values)
        return RatMatrix(len(vals), 1, [[v] for v in vals])

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

    def col(self, j: int) -> tuple:
        return tuple(self[i, j] for i in range(self.rows))

    def col_matrix(self, j: int) -> "RatMatrix":
        col = [self._entry(r, j) for r in self._rows]
        return RatMatrix(self.rows, 1, [(0, x) if x else () for x in col], _trusted=True)

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
        ri = list(row_idx)
        ci = list(col_idx)
        if (set(map(type, ci)) <= {int} and ci == sorted(set(ci))
                and (not ci or (ci[0] >= 0 and ci[-1] < self.cols))):
            return self._ascending(ri, ci)
        return self._any_columns(ri, ci)

    def _ascending(self, ri: list, ci: list) -> "RatMatrix":
        """submatrix for in-range column indices that ascend without
        repeats: each row's picks keep their order, so nothing is sorted, and
        a contiguous run of columns is one slice of each row."""
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

    def _any_columns(self, ri: list, ci: list) -> "RatMatrix":
        """submatrix for any column indices: repeats, any order, negative."""
        where = {}  # original column -> its positions in ci (repeats allowed)
        for new, c in enumerate(ci):
            where.setdefault(range(self.cols)[c], []).append(new)
        rows = self._rows
        data = []
        for i in ri:
            picked = sorted((new, v) for c, v in _pairs(rows[i]) for new in where.get(c, ()))
            data.append(tuple(x for t in picked for x in t))
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
    def vstack(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        mats = [m for m in mats]
        if not mats:
            raise ValidationError("vstack of nothing")
        cols = mats[0].cols
        if any(m.cols != cols for m in mats):
            raise ValidationError("vstack column mismatch")
        out = []
        for m in mats:
            out.extend(m._rows)
        return RatMatrix(sum(m.rows for m in mats), cols, out, _trusted=True)

    @staticmethod
    def block_diag(mats: Sequence["RatMatrix"]) -> "RatMatrix":
        blocks = []
        r0 = c0 = 0
        for m in mats:
            blocks.append((r0, c0, m))
            r0 += m.rows
            c0 += m.cols
        return RatMatrix.from_blocks(r0, c0, blocks)

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
            object.__setattr__(self, "_hash", h)
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
        # str of a stored int is rat_str of the same Fraction
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
        if not isinstance(entries, list) or len(entries) != rows:
            raise ParseError("matrix entries must be a list of rows")
        return RatMatrix(rows, cols, entries)


def products_vanish(*pairs) -> bool:
    """True when the sum of f @ g over the pairs (f, g) of conforming shapes
    is zero; a pair with an absent (None) factor is skipped.  Each row of the
    sum is accumulated in one dict, so no matrix is built, in int arithmetic
    where both factors' entries are integral."""
    pairs = [(f._rows, g._rows) for f, g in pairs if f is not None and g is not None]
    for i in range(len(pairs[0][0]) if pairs else 0):
        acc = {}
        for frows, grows in pairs:
            for k, a in _pairs(frows[i]):
                for j, b in _pairs(grows[k]):
                    acc[j] = acc[j] + a * b if j in acc else a * b
        if any(acc.values()):
            return False
    return True


def column_lows(blocks, cleared=()) -> dict:
    """The persistence reduction of the matrix that from_blocks would glue
    from blocks, (row offset, column offset, RatMatrix) triples that do not
    overlap; the matrix itself is never built.

    A column's low is its least row index.  The columns are reduced from the
    highest index down, each by adding multiples of reduced columns of
    higher index, until no two nonzero columns share a low.  Returns
    {column: low} for the columns that stay nonzero.  A column in cleared
    is taken as zero unread: the caller knows it reduces to zero (it is the
    low of a reduced column of the previous differential).  Exact: each
    column is cleared of denominators, a step scales it by the integer that
    cancels its low and then divides it by the gcd of its entries, so the
    values stay small integers.
    """
    cols = {}
    for r0, c0, m in blocks:
        for i, row in enumerate(m._rows, r0):
            for c, v in _pairs(row):
                c += c0
                if c in cols:
                    cols[c][i] = v
                elif c not in cleared:
                    cols[c] = {i: v}
    reduced = {}  # low -> the reduced column that holds it
    out = {}
    for j in sorted(cols, reverse=True):
        col = cols[j]
        lcm = 1
        for v in col.values():
            if type(v) is not int:
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        if lcm != 1:
            col = {i: int(v * lcm) for i, v in col.items()}
        low = min(col)
        while low in reduced:
            other = reduced[low]
            a, b = col[low], other[low]
            g = gcd(a, b)
            a, b = a // g, b // g
            if b < 0:
                a, b = -a, -b
            if b != 1:
                col = {i: v * b for i, v in col.items()}
            for i, v in other.items():
                x = col.get(i, 0) - a * v
                if x:
                    col[i] = x
                else:
                    del col[i]
            if not col:
                break
            if b != 1:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if g != 1:
                    col = {i: v // g for i, v in col.items()}
            low = min(col)
        else:
            reduced[low] = col
            out[j] = low
    return out


# -- fraction-free elimination -------------------------------------------


def _integer_rows(*mats: RatMatrix) -> list:
    """The rows of [m0 | m1 | ...], each cleared of denominators (row
    scaling preserves rank, kernel, solutions and pivot-column structure).
    One {column: int} dict per row; a row of ints is copied as it is."""
    offs = list(accumulate((m.cols for m in mats[:-1]), initial=0))
    out = []
    for parts in zip(*(m._rows for m in mats)):
        lcm = 1
        for r in parts:
            for x in r[1::2]:
                if type(x) is not int:
                    d = x.denominator
                    lcm = lcm * d // gcd(lcm, d)
        if lcm == 1:
            out.append({c + off: x for off, r in zip(offs, parts) for c, x in _pairs(r)})
        else:
            out.append({c + off: x.numerator * (lcm // x.denominator)
                        for off, r in zip(offs, parts) for c, x in _pairs(r)})
    return out


def _bareiss(a: list, nrows: int, ncols: int, lead: int | None = None):
    """In-place fraction-free echelon of {column: int} rows keyed by original
    column, with full pivoting, or leftmost pivoting in the columns below
    lead (see the module docstring).

    Returns (rank, pivots, a): rows a[i], i < rank, are the pivot rows, a[i]
    holding its pivot at column pivots[i] and otherwise only columns that
    are not pivots of the rows above it; the rows from rank on are up to
    date and hold no column a pivot could have been taken from.
    """
    full = lead is None
    if full:
        colperm = list(range(ncols))
        pos = list(range(ncols))  # pos[c]: position of original column c
    # where[c]: the positions >= r of the rows that hold column c
    where = {}
    for i, row in enumerate(a):
        for c in row:
            if c in where:
                where[c].add(i)
            else:
                where[c] = {i}
    if not full:
        # elimination never brings in a column that no row held to begin with
        held = iter(sorted(c for c in where if c < lead))
    # a[i] holds its true entries times stamp[i] / prev: a row that no step
    # eliminates owes the scaling by piv / prev of every step since its
    # stamp, and the factors telescope to prev / stamp
    stamp = [1] * nrows
    pivots = []
    prev = 1
    r = 0
    while r < nrows:
        if full:
            best = None
            bi = bc = bp = -1
            for i in range(r, nrows):
                row = a[i]
                if not row:
                    continue
                if stamp[i] != prev:
                    a[i] = row = _rescaled(row, prev, stamp[i])
                    stamp[i] = prev
                for c, v in row.items():
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, bi, bc, bp = av, i, c, pos[c]
                    elif av == best and i == bi and pos[c] < bp:
                        bc, bp = c, pos[c]
                if best == 1:
                    break
            if best is None:
                break
            if bp != r:
                moved = colperm[r]
                colperm[r], colperm[bp] = bc, moved
                pos[bc], pos[moved] = r, bp
        else:
            for bc in held:
                if where[bc]:
                    bi = min((abs(a[i][bc] * prev // stamp[i]), i) for i in where[bc])[1]
                    break
            else:
                break
        prow = a[bi]
        if stamp[bi] != prev:
            prow = _rescaled(prow, prev, stamp[bi])
        # the pivot row leaves the index; then the row it displaces moves
        for c in prow:
            where[c].discard(bi)
        if bi != r:
            for c in a[r]:
                s = where[c]
                s.discard(r)
                s.add(bi)
            a[bi], stamp[bi] = a[r], stamp[r]
        a[r] = prow
        piv = prow[bc]
        for i in where.pop(bc):
            # the row brought up to date (times prev / its stamp) and times piv
            row, st = a[i], stamp[i]
            head = row.pop(bc) * prev // st
            f = piv * prev
            row = {c: v * f // st for c, v in row.items()}
            for c, p in prow.items():
                if c == bc:
                    continue
                if c in row:
                    x = row[c] - head * p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
                        where[c].discard(i)
                else:
                    row[c] = -head * p
                    where[c].add(i)
            a[i] = {c: x // prev for c, x in row.items()} if prev != 1 else row
            stamp[i] = piv
        prev = piv
        pivots.append(bc)
        r += 1
    for i in range(r, nrows):
        if a[i] and stamp[i] != prev:
            a[i] = _rescaled(a[i], prev, stamp[i])
    return r, pivots, a


def _rescaled(row: dict, prev: int, stamp: int) -> dict:
    """A row stamped at stamp brought up to date at prev.  Exact: the true
    entries are integers (minors of the input) and equal v * prev / stamp."""
    return {c: v * prev // stamp for c, v in row.items()}


def _back_substitute(a: list, pivots: list, seeds: dict):
    """Each pivot row of a Bareiss echelon, bottom-up, fixes its pivot
    column's value, a sparse {output index: int} dict, so that the row
    vanishes; seeds holds the other columns' values (absent ones are zero).
    Returns (d, x), x holding all values times d, the last pivot: d is the
    determinant of the pivot block, so by Cramer's rule every division is
    exact."""
    d = a[len(pivots) - 1][pivots[-1]] if pivots else 1
    x = {c: {t: v * d for t, v in vals.items()} for c, vals in seeds.items()}
    for i in range(len(pivots) - 1, -1, -1):
        row = a[i]
        acc = {}
        for c, v in row.items():
            vals = x.get(c)
            if vals:
                for t, y in vals.items():
                    acc[t] = acc[t] + v * y if t in acc else v * y
        p = -row[pivots[i]]
        vals = {t: s // p for t, s in acc.items() if s}
        if vals:
            x[pivots[i]] = vals
    return d, x


def _from_values(x: dict, rows: int, cols: int, value) -> RatMatrix:
    """The rows x cols matrix whose entry (c, t) is value(t, x[c][t])."""
    out = [()] * rows
    for c, vals in x.items():
        if c < rows:
            out[c] = tuple(z for t in sorted(vals) for z in (t, value(t, vals[t])))
    return RatMatrix(rows, cols, out, _trusted=True)


@memo
def rank(m: RatMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    return _bareiss(_integer_rows(m), m.rows, m.cols)[0]


@memo
def kernel_basis(m: RatMatrix) -> RatMatrix:
    """Basis of {x : m @ x = 0} as columns, shape (cols x nullity).

    Each column is the primitive integer solution with value 1 at "its" free
    column (positive after scaling) and 0 at the other free columns; columns
    are ordered by ascending free-column index.  Deterministic.
    """
    n = m.cols
    if n == 0:
        return RatMatrix.zeros(0, 0)
    if m.rows == 0:
        return RatMatrix.identity(n)
    _, pivots, a = _bareiss(_integer_rows(m), m.rows, n)
    free = sorted(set(range(n)).difference(pivots))
    d, x = _back_substitute(a, pivots, {f: {t: 1} for t, f in enumerate(free)})
    # column t is d times the solution: divide by the gcd of its entries,
    # taken with the sign of d
    g = {}
    for vals in x.values():
        for t, v in vals.items():
            g[t] = gcd(g.get(t, 0), v)
    sign = 1 if d > 0 else -1
    return _from_values(x, n, len(free), lambda t, v: sign * v // g[t])


@memo
def pivot_columns(m: RatMatrix) -> tuple:
    """Original indices of a maximal independent set of columns, ascending."""
    if m.rows == 0 or m.cols == 0:
        return ()
    return tuple(sorted(_bareiss(_integer_rows(m), m.rows, m.cols)[1]))


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
    if k == 0:
        return RatMatrix.zeros(n, 0)
    if a.rows == 0:
        return RatMatrix.zeros(n, k)
    # a @ X = b says that [a | b] vanishes on [X; -1]
    r, pivots, rows = _bareiss(_integer_rows(a, b), a.rows, n + k, lead=n)
    if any(rows[r:]):
        return None
    d, x = _back_substitute(rows, pivots, {n + j: {j: -1} for j in range(k)})
    return _from_values(x, n, k, lambda _t, v: v // d if v % d == 0 else Fraction(v, d))


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

    def reduce(self, vectors: RatMatrix) -> RatMatrix:
        """Coordinates of cycle columns in the representative basis mod
        boundaries; raises ContainmentViolation when a column is not a cycle."""
        if vectors.rows != self.ambient_dim:
            raise ValidationError(
                f"reduce expects ambient dim {self.ambient_dim}, got {vectors.rows}"
            )
        combined = self._basis()
        if combined.cols == 0:
            if not vectors.is_zero():
                raise ContainmentViolation("vector outside the zero subquotient")
            return RatMatrix.zeros(0, vectors.cols)
        x = solve_matrix(combined, vectors)
        if x is None:
            raise ContainmentViolation("vector not in the cycle span")
        nb = self.boundary_basis.cols
        return x.submatrix(range(nb, x.rows), range(x.cols))

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
    The representatives are the columns of the cycle basis that are leftmost
    pivots of [B | Z]: each is independent of B and of the cycles before it.
    """
    parts = (boundaries,) if isinstance(boundaries, RatMatrix) else tuple(boundaries)
    if not parts:
        raise ValidationError("subquotient of no boundary parts")
    for m in parts:
        if m.rows != cycles.rows:
            raise ValidationError(
                f"ambient mismatch: cycles in dim {cycles.rows}, boundaries in {m.rows}"
            )
    ambient = cycles.rows
    z = image_basis(cycles)
    width = sum(m.cols for m in parts)
    pivots = sorted(_bareiss(_integer_rows(*parts), ambient, width)[1])
    offs = accumulate((m.cols for m in parts), initial=0)
    b = RatMatrix.hstack([m.select_columns([c - o for c in pivots if o <= c < o + m.cols])
                          for o, m in zip(offs, parts)])
    nb = b.cols
    width = nb + z.cols  # may exceed the size cap: [B | Z] is never a RatMatrix
    r, pivots, _ = _bareiss(_integer_rows(b, z), ambient, width, lead=width)
    # rank [B | Z] = dim(span B + span Z), which equals rank Z = z.cols
    # exactly when span B <= span Z
    if r != z.cols:
        raise ContainmentViolation("boundaries not contained in cycles")
    reps = [c - nb for c in pivots if c >= nb]
    return Subquotient(ambient, z, b, z.select_columns(reps))


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

