"""Exact rational matrices and the elimination routines everything else rides on.

Scalars are fractions.Fraction throughout; no floats anywhere.  Rank, kernel
and image go through fraction-free (Bareiss) elimination on integer-cleared
rows with full pivoting, which keeps intermediate entries polynomial in the
input instead of exploding the way naive Fraction pivoting does.  Solving and
span membership use a plain Gauss-Jordan over Fraction with no column swaps so
pivot columns refer to the original matrix.

A Subquotient packages (cycles mod boundaries) inside a fixed ambient space;
every cohomology group, spectral-sequence term and Bott-Chern group in the
package is one of these.  Its representatives come from one leftmost-pivot
Gauss-Jordan pass over [B | Z]: the pivot columns inside Z are exactly the
cycles a greedy left-to-right scan would add to the boundaries, and the
pivot count certifies that the boundaries lie in the cycle span.

Matrices built by RatMatrix's own operations and by the eliminations already
hold Fractions, so they are constructed with the private keyword
``_trusted=True``, which skips the per-entry coercion but not the size cap.
"""

from __future__ import annotations

import os
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Mapping, Sequence

from .errors import ContainmentViolation, NotChainCompatible, ParseError, ValidationError

F0 = Fraction(0)
F1 = Fraction(1)

_DEFAULT_MAX_DIM = 4096


def _max_dim() -> int:
    raw = os.environ.get("SPECTRA_DR_MAX_DIM")
    if raw is None:
        return _DEFAULT_MAX_DIM
    try:
        return int(raw)
    except ValueError:
        raise ValidationError(f"SPECTRA_DR_MAX_DIM must be an integer, got {raw!r}")


def check_piece_dims(dims: Mapping, context: str = "") -> None:
    """Refuse a graded piece (grading tuple -> dim) larger than
    SPECTRA_DR_MAX_DIM before any matrix on it is built, naming the least
    such key after context.  The cap is read only when there are pieces."""
    cap = _max_dim() if dims else 0
    key = min((key for key, n in dims.items() if n > cap), default=None)
    if key is not None:
        raise ValidationError(f"{context}piece ({','.join(map(str, key))}) has dim"
                              f" {dims[key]} > SPECTRA_DR_MAX_DIM={cap}")


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


class RatMatrix:
    """Immutable matrix over Fraction.  Zero-row and zero-column shapes are
    first-class: eliminations, products and stacking all accept them."""

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
            # internal: exactly `rows` row sequences of `cols` Fractions each
            data = tuple(map(tuple, entries))
        elif entries is None:
            row = (F0,) * cols
            data = tuple(row for _ in range(rows))
        else:
            entries = list(entries)
            if len(entries) == rows and all(
                isinstance(r, (list, tuple)) for r in entries
            ):
                if any(len(r) != cols for r in entries):
                    raise ValidationError("ragged rows in matrix literal")
                data = tuple(tuple(rat_from(x) for x in r) for r in entries)
            elif len(entries) == rows * cols:
                flat = [rat_from(x) for x in entries]
                data = tuple(
                    tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)
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
        return RatMatrix(
            n, n, [[F1 if i == j else F0 for j in range(n)] for i in range(n)],
            _trusted=True,
        )

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

    @staticmethod
    def diag(values: Sequence) -> "RatMatrix":
        vals = [rat_from(v) for v in values]
        n = len(vals)
        return RatMatrix(
            n, n, [[vals[i] if i == j else F0 for j in range(n)] for i in range(n)]
        )

    # -- access -----------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple:
        return self._rows[i]

    def col(self, j: int) -> tuple:
        return tuple(r[j] for r in self._rows)

    def col_matrix(self, j: int) -> "RatMatrix":
        return RatMatrix(self.rows, 1, [[r[j]] for r in self._rows], _trusted=True)

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def row_lists(self) -> list:
        return [list(r) for r in self._rows]

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    # -- algebra ----------------------------------------------------------

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            _trusted=True,
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._same_shape(other)
        return RatMatrix(
            self.rows,
            self.cols,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
            _trusted=True,
        )

    def __neg__(self) -> "RatMatrix":
        return RatMatrix(
            self.rows, self.cols, [[-a for a in r] for r in self._rows],
            _trusted=True,
        )

    def scale(self, c) -> "RatMatrix":
        c = rat_from(c)
        if c == 1:
            return self
        return RatMatrix(
            self.rows, self.cols, [[c * a for a in r] for r in self._rows],
            _trusted=True,
        )

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValidationError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ocols = other.cols
        orows = other._rows
        out = []
        for arow in self._rows:
            acc = [F0] * ocols
            for k, a in enumerate(arow):
                if a:
                    brow = orows[k]
                    for j, b in enumerate(brow):
                        if b:
                            acc[j] = acc[j] + a * b
            out.append(acc)
        return RatMatrix(self.rows, ocols, out, _trusted=True)

    def transpose(self) -> "RatMatrix":
        cols = zip(*self._rows) if self.rows else [()] * self.cols
        return RatMatrix(self.cols, self.rows, cols, _trusted=True)

    def submatrix(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> "RatMatrix":
        ri = list(row_idx)
        ci = list(col_idx)
        return RatMatrix(
            len(ri), len(ci), [[self._rows[i][j] for j in ci] for i in ri],
            _trusted=True,
        )

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
        out = [[] for _ in range(rows)]
        for m in mats:
            for i in range(rows):
                out[i].extend(m._rows[i])
        return RatMatrix(rows, sum(m.cols for m in mats), out, _trusted=True)

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
        (row offset, column offset, RatMatrix) triple copied into place.
        Raises ValidationError for a block that does not fit."""

        def placed():  # a generator: __init__ checks the cap before allocation
            out = [(F0,) * cols] * rows
            for r0, c0, m in blocks:
                c1 = c0 + m.cols
                if r0 < 0 or c0 < 0 or r0 + m.rows > rows or c1 > cols:
                    raise ValidationError(
                        f"block {m.rows}x{m.cols} at ({r0},{c0}) does not fit"
                        f" in {rows}x{cols}"
                    )
                for i, mrow in enumerate(m._rows, r0):
                    row = out[i]
                    out[i] = row[:c0] + mrow + row[c1:]
            yield from out

        return RatMatrix(rows, cols, placed(), _trusted=True)

    @staticmethod
    def kron(a: "RatMatrix", b: "RatMatrix") -> "RatMatrix":
        rows = a.rows * b.rows
        cols = a.cols * b.cols
        out = [[F0] * cols for _ in range(rows)]
        for i in range(a.rows):
            arow = a._rows[i]
            for j in range(a.cols):
                x = arow[j]
                if not x:
                    continue
                for k in range(b.rows):
                    brow = b._rows[k]
                    orow = out[i * b.rows + k]
                    for l in range(b.cols):
                        if brow[l]:
                            orow[j * b.cols + l] = x * brow[l]
        return RatMatrix(rows, cols, out, _trusted=True)

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
        # Fractions are normalized, so equal matrices have equal nonzero
        # (position, numerator, denominator) lists; hashing those avoids
        # Fraction.__hash__ and its modular inverse on every entry
        h = self._hash
        if h is None:
            h = hash((self.rows, self.cols, tuple(
                (i, j, x.numerator, x.denominator)
                for i, r in enumerate(self._rows)
                for j, x in enumerate(r)
                if x
            )))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"RatMatrix({self.rows}x{self.cols})"
        body = "; ".join(
            " ".join(rat_str(x) for x in r) for r in self._rows
        )
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[rat_str(x) for x in r] for r in self._rows],
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
        if not isinstance(rows, int) or not isinstance(cols, int):
            raise ParseError("matrix rows/cols must be integers")
        if not isinstance(entries, list) or len(entries) != rows:
            raise ParseError("matrix entries must be a list of rows")
        return RatMatrix(rows, cols, entries)


# -- fraction-free elimination -------------------------------------------


def _integer_rows(m: RatMatrix) -> list:
    """Clear denominators row by row (row scaling preserves rank, kernel and
    pivot-column structure)."""
    out = []
    for r in m._rows:
        lcm = 1
        for x in r:
            d = x.denominator
            if d != 1:
                lcm = lcm * d // gcd(lcm, d)
        out.append([int(x * lcm) if lcm != 1 else x.numerator for x in r])
    return out


def _bareiss(a: list, nrows: int, ncols: int):
    """In-place fraction-free echelon with full pivoting.

    Returns (rank, colperm, a).  After return, a[i][j] for j >= i (in
    permuted coordinates) is upper triangular with nonzero a[i][i] for
    i < rank.  Pivot choice: nonzero entry of smallest magnitude, which keeps
    integer growth down.
    """
    colperm = list(range(ncols))
    prev = 1
    rank = 0
    limit = min(nrows, ncols)
    for r in range(limit):
        best = None
        bi = bj = -1
        for i in range(r, nrows):
            ai = a[i]
            for j in range(r, ncols):
                v = ai[j]
                if v:
                    av = -v if v < 0 else v
                    if best is None or av < best:
                        best, bi, bj = av, i, j
                        if av == 1:
                            break
            if best == 1:
                break
        if best is None:
            break
        if bi != r:
            a[r], a[bi] = a[bi], a[r]
        if bj != r:
            for row in a:
                row[r], row[bj] = row[bj], row[r]
            colperm[r], colperm[bj] = colperm[bj], colperm[r]
        piv = a[r][r]
        for i in range(r + 1, nrows):
            ai = a[i]
            head = ai[r]
            if head:
                ar = a[r]
                for j in range(r + 1, ncols):
                    ai[j] = (piv * ai[j] - head * ar[j]) // prev
                ai[r] = 0
            elif prev != 1 or piv != 1:
                for j in range(r + 1, ncols):
                    if ai[j]:
                        ai[j] = piv * ai[j] // prev
        prev = piv
        rank = r + 1
    return rank, colperm, a


@lru_cache(maxsize=None)
def rank(m: RatMatrix) -> int:
    if m.rows == 0 or m.cols == 0:
        return 0
    r, _, _ = _bareiss(_integer_rows(m), m.rows, m.cols)
    return r


def _primitive(vec: list) -> list:
    """Scale a Fraction vector to a primitive integer vector (positive scale
    factor, so signs of entries are preserved)."""
    lcm = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            lcm = lcm * d // gcd(lcm, d)
    ints = [int(x * lcm) for x in vec]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return [Fraction(v) for v in ints]


@lru_cache(maxsize=None)
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
    r, colperm, a = _bareiss(_integer_rows(m), m.rows, n)
    if r == n:
        return RatMatrix.zeros(n, 0)
    free = sorted(range(r, n), key=lambda f: colperm[f])
    cols = []
    for f in free:
        y = [F0] * n
        y[f] = F1
        for i in range(r - 1, -1, -1):
            s = F0
            ai = a[i]
            for j in range(i + 1, n):
                if ai[j] and y[j]:
                    s += ai[j] * y[j]
            y[i] = -s / a[i][i]
        x = [F0] * n
        for j in range(n):
            x[colperm[j]] = y[j]
        cols.append(_primitive(x))
    return RatMatrix(n, len(cols), zip(*cols), _trusted=True)


@lru_cache(maxsize=None)
def pivot_columns(m: RatMatrix) -> tuple:
    """Original indices of a maximal independent set of columns, ascending."""
    if m.rows == 0 or m.cols == 0:
        return ()
    r, colperm, _ = _bareiss(_integer_rows(m), m.rows, m.cols)
    return tuple(sorted(colperm[:r]))


def image_basis(m: RatMatrix) -> RatMatrix:
    """The pivot columns of m itself (original entries), a basis of the
    column span."""
    return m.select_columns(pivot_columns(m))


# -- Fraction Gauss-Jordan (no column swaps) ------------------------------


def _rref(rows: list, lead_cols: int):
    """Reduced row echelon of a Fraction row-list; pivots restricted to the
    first lead_cols columns.  Returns (pivot column list, rows)."""
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
        inv = F1 / prow[c]
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
    aug = [list(ra) + list(rb) for ra, rb in zip(a._rows, b._rows)]
    pivots, rows = _rref(aug, n)
    npiv = len(pivots)
    for i in range(npiv, a.rows):
        tail = rows[i][n:]
        if any(tail):
            return None
    out = [[F0] * k for _ in range(n)]
    for i, c in enumerate(pivots):
        out[c] = rows[i][n:]
    return RatMatrix(n, k, out, _trusted=True)


def in_span(basis: RatMatrix, vectors: RatMatrix) -> bool:
    """True when every column of vectors lies in the column span of basis."""
    return solve_matrix(basis, vectors) is not None


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
        combined = RatMatrix.hstack([self.boundary_basis, self.representative_basis])
        if combined.cols == 0:
            if not vectors.is_zero():
                raise ContainmentViolation("vector outside the zero subquotient")
            return RatMatrix.zeros(0, vectors.cols)
        x = solve_matrix(combined, vectors)
        if x is None:
            raise ContainmentViolation("vector not in the cycle span")
        nb = self.boundary_basis.cols
        return x.submatrix(range(nb, x.rows), range(x.cols))

    def contains(self, vectors: RatMatrix) -> bool:
        return in_span(self.cycle_basis, vectors)

    def __repr__(self) -> str:
        return (
            f"Subquotient(ambient={self.ambient_dim}, cycles={self.cycle_basis.cols},"
            f" boundaries={self.boundary_basis.cols}, dim={self.dim})"
        )


def subquotient(cycles: RatMatrix, boundaries: RatMatrix) -> Subquotient:
    """Build Z/B from a spanning set of cycles and of boundaries.

    Raises ContainmentViolation unless span(boundaries) <= span(cycles).
    The representatives are the columns of the cycle basis that are leftmost
    pivots of [B | Z]: each is independent of B and of the cycles before it.
    """
    if cycles.rows != boundaries.rows:
        raise ValidationError(
            f"ambient mismatch: cycles in dim {cycles.rows}, boundaries in {boundaries.rows}"
        )
    ambient = cycles.rows
    z = image_basis(cycles)
    b = image_basis(boundaries)
    nb = b.cols
    aug = [list(rb) + list(rz) for rb, rz in zip(b._rows, z._rows)]
    pivots, _ = _rref(aug, nb + z.cols)
    # rank [B | Z] = dim(span B + span Z), which equals rank Z = z.cols
    # exactly when span B <= span Z
    if len(pivots) != z.cols:
        raise ContainmentViolation("boundaries not contained in cycles")
    reps = [c - nb for c in pivots if c >= nb]
    return Subquotient(ambient, z, b, z.select_columns(reps))


def induced_map(mat: RatMatrix, source: Subquotient, target: Subquotient) -> RatMatrix:
    """Matrix of the map source -> target induced by an ambient matrix.

    Checks that mat carries cycles into cycles and boundaries into boundaries;
    raises NotChainCompatible otherwise.  Result has shape
    (target.dim x source.dim) in representative coordinates.
    """
    if mat.cols != source.ambient_dim or mat.rows != target.ambient_dim:
        raise ValidationError(
            f"ambient shape mismatch: map is {mat.rows}x{mat.cols}, "
            f"source ambient {source.ambient_dim}, target ambient {target.ambient_dim}"
        )
    if not in_span(target.cycle_basis, mat @ source.cycle_basis):
        raise NotChainCompatible("map does not send cycles to cycles")
    if not in_span(target.boundary_basis, mat @ source.boundary_basis):
        raise NotChainCompatible("map does not send boundaries to boundaries")
    return target.reduce(mat @ source.representative_basis)


def clear_caches():
    """Drop elimination memos (mostly for tests that fiddle with the env cap)."""
    rank.cache_clear()
    kernel_basis.cache_clear()
    pivot_columns.cache_clear()
