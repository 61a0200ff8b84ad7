"""Finite exterior-algebra Dolbeault models and closed-form predictors.

A model is the bigraded exterior algebra on n holomorphic generators w^1..w^n
and their conjugates wb^1..wb^n, with a differential determined by structure
constants: d(w^i) is a rational combination of two-generator wedges with no
wb-wb component, d(wb^i) is its conjugate, and d^2 = 0 on generators (the
Jacobi identity) makes the bidegree pieces of d a valid double complex with
d1 raising the holomorphic degree and d2 the antiholomorphic one.  A twist of
rank m is the direct sum of m copies of the model.

Concrete builders: torus_model (all structure constants zero), lie_model
(from a LieModelSpec, e.g. the built-in Iwasawa one with d w^3 = -w^1 w^2),
point_model, and product_model, which assembles the model of a product by
collapsing the fourfold tensor grading and keeping track of how the sorted
product monomials differ by sign from the tensor basis.

Each basis vector carries a label (copy, sign, I, J): the vector equals
sign * (copy, w^I wb^J).  Labels drive the multiplicative structure — the
matrix of a right wedge (behind both wedge and the cup maps), integration
against the top monomial, and the duality pairing into the shifted bigraded
dual of the complementary window.
The duality map is handed to the double-complex machinery unmodified; that
its squares anticommute correctly is re-verified on every construction.

The predictors at the bottom turn window hypercohomology of small models
into the dimension formulas for fibrations, projective bundles and blowups.
The bundle formulas are Leray-Hirsch sums: a projective bundle is the sum
over the powers of the hyperplane class, and a blowup is the ambient model
plus that sum over the center.  They are pure arithmetic and are tested
against actual product models.
"""

from __future__ import annotations

import warnings
from itertools import combinations
from math import comb

from .bicomplex import BicomplexMap, DoubleComplex, direct_sum2, dual2, shift2
from .errors import (
    IntegralNotClosed,
    JacobiViolation,
    NotClosed,
    ParseError,
    PreconditionViolation,
    ValidationError,
)
from .linalg import (
    F0,
    RatMatrix,
    check_piece_dims,
    kernel_basis,
    rat_from,
    rat_str,
    subquotient,
)
from .spectral import window_barcode
from .tensorops import quad_tensor, ss_collapse
from .truncation import (
    column_cohomology_dim,
    frolicher_is_equality,
    hodge_filtration_dims,
    truncate,
)


# -- monomial combinatorics ----------------------------------------------


def _sort_sign(seq):
    """(sign of the sorting permutation, sorted tuple); sign 0 on repeats."""
    seq = list(seq)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return 0, ()
    return sign, tuple(seq)


def wedge_monomials(i1, j1, i2, j2):
    """(sign, I, J) of (w^I1 wb^J1) ^ (w^I2 wb^J2); sign 0 if it vanishes."""
    s1, ii = _sort_sign((*i1, *i2))
    if not s1:
        return 0, (), ()
    s2, jj = _sort_sign((*j1, *j2))
    if not s2:
        return 0, (), ()
    sign = s1 * s2
    if (len(j1) * len(i2)) % 2:
        sign = -sign
    return sign, ii, jj


# -- structure constants --------------------------------------------------


def _token_index(tok: int, n: int) -> int:
    """Generator token to internal index: k > 0 is w^k, k < 0 is wb^{-k}."""
    if not isinstance(tok, int) or tok == 0 or abs(tok) > n:
        raise ValidationError(f"generator token {tok!r} out of range for n={n}")
    return tok - 1 if tok > 0 else n - tok - 1


class LieModelSpec:
    """Structure constants of a model: n generators plus, for each
    holomorphic generator g, the terms of d(w^g) as (token, token, coeff)
    wedges.  Conjugate images are implied and never written down."""

    __slots__ = ("n", "twist_rank", "images")

    def __init__(self, n: int, d=None, twist_rank: int = 1):
        if not isinstance(n, int) or n < 0:
            raise ValidationError(f"bad generator count {n!r}")
        if not isinstance(twist_rank, int) or twist_rank < 1:
            raise ValidationError(f"bad twist rank {twist_rank!r}")
        images = {}
        for g, terms in (d or {}).items():
            g = int(g)
            if not 1 <= g <= n:
                raise ValidationError(f"no holomorphic generator {g} for n={n}")
            norm = []
            for ta, tb, coeff in terms:
                _token_index(ta, n)
                _token_index(tb, n)
                if ta == tb:
                    raise ValidationError(f"repeated factor {ta} in d(w^{g})")
                if ta < 0 and tb < 0:
                    raise ValidationError(
                        f"d(w^{g}) has a wb-wb component; not a valid model"
                    )
                c = rat_from(coeff)
                if c:
                    norm.append((ta, tb, c))
            if norm:
                images[g] = tuple(norm)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "twist_rank", twist_rank)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise AttributeError("LieModelSpec is immutable")

    def to_json(self):
        return {
            "n": self.n,
            "twist_rank": self.twist_rank,
            "d": {
                str(g): [
                    {"wedge": [ta, tb], "coeff": rat_str(c)}
                    for ta, tb, c in terms
                ]
                for g, terms in sorted(self.images.items())
            },
        }

    @staticmethod
    def from_json(obj) -> "LieModelSpec":
        if not isinstance(obj, dict) or "n" not in obj:
            raise ParseError("model spec must be an object with an 'n' field")
        n, twist = obj["n"], obj.get("twist_rank", 1)
        for field, value in (("n", n), ("twist_rank", twist)):
            if type(value) is not int:  # not a float, not a bool
                raise ParseError(f"model spec field {field!r} must be an integer, got {value!r}")
        d = {}
        for g, terms in (obj.get("d") or {}).items():
            try:
                gi = int(g)
            except (TypeError, ValueError):
                raise ParseError(f"bad generator key {g!r}") from None
            parsed = []
            for term in terms:
                if not isinstance(term, dict) or "wedge" not in term:
                    raise ParseError(f"bad term {term!r} in d({g})")
                wedge_toks = term["wedge"]
                if not isinstance(wedge_toks, (list, tuple)) or len(wedge_toks) != 2:
                    raise ParseError(f"wedge of d({g}) must list two generators")
                if any(type(tok) is not int for tok in wedge_toks):
                    raise ParseError(
                        f"wedge of d({g}) must list integer generators, got {wedge_toks!r}")
                parsed.append((*wedge_toks, term.get("coeff", 1)))
            d[gi] = parsed
        return LieModelSpec(n, d, twist)


def iwasawa_spec(twist_rank: int = 1) -> LieModelSpec:
    """n = 3 with d w^3 = -w^1 w^2: the standard nilmanifold example whose
    window hypercohomology is not what the column cohomology predicts."""
    return LieModelSpec(3, {3: [(1, 2, "-1")]}, twist_rank)


BUILTIN_SPECS = {"iwasawa": iwasawa_spec}


# -- the model container --------------------------------------------------


class ModelDoubleComplex:
    """A double complex together with monomial labels for its basis.

    labels[(p, q)][i] = (copy, sign, I, J) meaning basis vector i equals
    sign * w^I wb^J in copy `copy` of the twist.  base is the rank-1 sibling
    used to rebuild the model at a different twist rank.
    """

    __slots__ = ("n", "twist_rank", "complex", "labels", "_base", "_lookup")

    def __init__(self, n, twist_rank, cx, labels, base=None):
        self.n = n
        self.twist_rank = twist_rank
        self.complex = cx
        self.labels = labels
        # None stands for self, so a rank-1 model holds no reference cycle
        # and is freed by reference counting alone
        self._base = base
        self._lookup = {}
        for (p, q), labs in labels.items():
            if len(labs) != cx.dim(p, q):
                raise ValidationError(f"label count mismatch at ({p},{q})")

    @property
    def base(self) -> "ModelDoubleComplex":
        return self if self._base is None else self._base

    def dim(self, p: int, q: int) -> int:
        return self.complex.dim(p, q)

    def lookup(self, p: int, q: int) -> dict:
        """(copy, I, J) -> (position, sign) for bidegree (p, q)."""
        key = (p, q)
        if key not in self._lookup:
            self._lookup[key] = {
                (c, i, j): (pos, s)
                for pos, (c, s, i, j) in enumerate(self.labels.get(key, ()))
            }
        return self._lookup[key]

    def with_twist_rank(self, m: int) -> "ModelDoubleComplex":
        return _twist(self.base, m)

    def label_str(self, p: int, q: int, pos: int) -> str:
        c, s, i, j = self.labels[(p, q)][pos]
        word = "".join(f"w{k + 1}" for k in i) + "".join(f"wb{k + 1}" for k in j)
        word = word or "1"
        if s < 0:
            word = "-" + word
        if self.twist_rank > 1:
            word = f"e{c}|" + word
        return word


def _check_model_size(what: str, n: int, m: int) -> None:
    """Refuse a model on n generators with twist rank m whose largest piece,
    (n//2, n//2) of dim C(n, n//2)^2 * m, exceeds the matrix cap, before any
    label or matrix is built.  what names the input in the error."""
    if m != 1:
        what = f"{what} twist_rank={m}"
    h = n // 2
    check_piece_dims({(h, h): comb(n, h) ** 2 * m}, f"{what}: ")


def _exterior_labels(n: int) -> dict:
    labels = {}
    for p in range(n + 1):
        for q in range(n + 1):
            labels[(p, q)] = tuple(
                (0, 1, i, j)
                for i in combinations(range(n), p)
                for j in combinations(range(n), q)
            )
    return labels


def _twist(base: ModelDoubleComplex, m: int) -> ModelDoubleComplex:
    if not isinstance(m, int) or m < 1:
        raise ValidationError(f"bad twist rank {m!r}")
    if m == 1:
        return base
    _check_model_size(f"twist n={base.n}", base.n, m)
    labels = {
        key: tuple(
            (c, s, i, j) for c in range(m) for (_c, s, i, j) in labs
        )
        for key, labs in base.labels.items()
    }
    return ModelDoubleComplex(base.n, m, direct_sum2([base.complex] * m), labels, base)


# -- builders -------------------------------------------------------------


def torus_model(n: int, twist_rank: int = 1) -> ModelDoubleComplex:
    """All structure constants zero: dims C(n,p)C(n,q), no differentials."""
    if not isinstance(n, int) or n < 0:
        raise ValidationError(f"bad generator count {n!r}")
    _check_model_size(f"torus n={n}", n, twist_rank)
    labels = _exterior_labels(n)
    dims = {key: len(labs) for key, labs in labels.items()}
    base = ModelDoubleComplex(n, 1, DoubleComplex(dims), labels)
    return _twist(base, twist_rank)


def point_model(twist_rank: int = 1) -> ModelDoubleComplex:
    return torus_model(0, twist_rank)


def _generator_images(spec: LieModelSpec) -> dict:
    """Full-index images: gen index -> ((sorted pair, coeff), ...), with the
    conjugate generators filled in by negating every token."""
    n = spec.n
    gen_d = {}
    for g, terms in spec.images.items():
        for hol, conj in ((0, False), (n, True)):
            out = gen_d.setdefault(hol + g - 1, [])
            for ta, tb, c in terms:
                if conj:
                    ta, tb = -ta, -tb
                sg, pair = _sort_sign((_token_index(ta, n), _token_index(tb, n)))
                out.append((pair, c * sg))
    return gen_d


def _d_monomial(gen_d: dict, mono: tuple) -> dict:
    """Derivation on a sorted monomial: d(x_1...x_k) expanded, as a map
    sorted-monomial -> coefficient.  The inserted two-form commutes past
    everything, so only the Leibniz sign (-1)^pos appears."""
    out = {}
    for pos, g in enumerate(mono):
        rest = mono[:pos] + mono[pos + 1:]
        for pair, c in gen_d.get(g, ()):
            sg, merged = _sort_sign(pair + rest)
            if not sg:
                continue
            val = out.get(merged, F0) + (c if pos % 2 == 0 else -c) * sg
            if val:
                out[merged] = val
            elif merged in out:
                del out[merged]
    return out


def lie_model(spec: LieModelSpec) -> ModelDoubleComplex:
    """Model of a rational homotopy / nilmanifold type spec.  Raises
    JacobiViolation when d^2 fails on a generator."""
    n = spec.n
    gen_d = _generator_images(spec)
    for g in range(2 * n):
        dd = {}
        for pair, c in gen_d.get(g, ()):
            for mono, cc in _d_monomial(gen_d, pair).items():
                val = dd.get(mono, F0) + c * cc
                if val:
                    dd[mono] = val
                elif mono in dd:
                    del dd[mono]
        if dd:
            name = f"w^{g + 1}" if g < n else f"wb^{g - n + 1}"
            raise JacobiViolation(f"d^2 != 0 on generator {name}")

    _check_model_size(f"lie n={n}", n, spec.twist_rank)
    labels = _exterior_labels(n)
    index = {
        key: {lab[2:]: pos for pos, lab in enumerate(labs)}
        for key, labs in labels.items()
    }
    d1 = {}
    d2 = {}
    for (p, q), labs in labels.items():
        rows1 = len(labels.get((p + 1, q), ()))
        rows2 = len(labels.get((p, q + 1), ()))
        m1 = [[F0] * len(labs) for _ in range(rows1)]
        m2 = [[F0] * len(labs) for _ in range(rows2)]
        hit1 = hit2 = False
        for col, (_c, _s, i, j) in enumerate(labs):
            mono = i + tuple(n + b for b in j)
            for tm, coeff in _d_monomial(gen_d, mono).items():
                ti = tuple(g for g in tm if g < n)
                tj = tuple(g - n for g in tm if g >= n)
                if len(ti) == p + 1:
                    m1[index[(p + 1, q)][(ti, tj)]][col] += coeff
                    hit1 = True
                else:
                    m2[index[(p, q + 1)][(ti, tj)]][col] += coeff
                    hit2 = True
        if hit1:
            d1[(p, q)] = RatMatrix(rows1, len(labs), m1)
        if hit2:
            d2[(p, q)] = RatMatrix(rows2, len(labs), m2)
    dims = {key: len(labs) for key, labs in labels.items()}
    base = ModelDoubleComplex(n, 1, DoubleComplex(dims, d1, d2), labels)
    return _twist(base, spec.twist_rank)


def product_model(x: ModelDoubleComplex, y: ModelDoubleComplex) -> ModelDoubleComplex:
    """Model of the product: collapse the fourfold grading of the tensor
    product and relabel by sorted product monomials.

    Product generators: w^1..w^{nx} from x, then w^{nx+1}..w^n from y.  A
    collapsed basis vector at cell (p, q, r, s) is (x part) tensor (y part);
    as a sorted monomial it picks up (-1)^{r q} from moving the y
    holomorphic factors past the x antiholomorphic ones.
    """
    n = x.n + y.n
    m = x.twist_rank * y.twist_rank
    _check_model_size(f"product n={x.n}+{y.n}", n, m)
    quad = quad_tensor(x.complex, y.complex)
    cx = ss_collapse(quad)
    labels = {}
    for (k, l), cells in quad._layout().items():
        labs = [None] * cx.dim(k, l)
        for (p, q, r, s), off, _size in cells:
            ylabs = y.labels[(q, s)]
            ny = len(ylabs)
            for ix, (cx_copy, sx, i1, j1) in enumerate(x.labels[(p, r)]):
                for iy, (cy_copy, sy, i2, j2) in enumerate(ylabs):
                    sign = sx * sy * (-1 if (r * q) % 2 else 1)
                    labs[off + ix * ny + iy] = (
                        cx_copy * y.twist_rank + cy_copy,
                        sign,
                        i1 + tuple(g + x.n for g in i2),
                        j1 + tuple(g + x.n for g in j2),
                    )
        labels[(k, l)] = tuple(labs)
    base = None
    if m > 1:
        base = product_model(x.base, y.base)
    return ModelDoubleComplex(n, m, cx, labels, base)


# -- calculus on labels ---------------------------------------------------


def _right_wedge(model: ModelDoubleComplex, bideg, alpha_bideg,
                 alpha: RatMatrix) -> RatMatrix:
    """The matrix of x |-> x ^ alpha from bidegree bideg to bideg +
    alpha_bideg, copy by copy of the twist, for an untwisted alpha."""
    (a, b), (u, v) = bideg, alpha_bideg
    terms = [(alpha[pos, 0], s2, i2, j2)
             for pos, (_c, s2, i2, j2) in enumerate(model.base.labels.get((u, v), ()))
             if alpha[pos, 0]]
    labs = model.labels.get((a, b), ())
    look = model.lookup(a + u, b + v)
    out = [[F0] * len(labs) for _ in range(model.dim(a + u, b + v))]
    for col, (c1, s1, i1, j1) in enumerate(labs):
        for coeff, s2, i2, j2 in terms:
            ws, ii, jj = wedge_monomials(i1, j1, i2, j2)
            if ws:
                pos, ts = look[(c1, ii, jj)]
                out[pos][col] += coeff * (s1 * s2 * ws * ts)
    return RatMatrix(len(out), len(labs), out)


def wedge(model: ModelDoubleComplex, bideg1, v1: RatMatrix, bideg2,
          v2: RatMatrix) -> RatMatrix:
    """Coordinate vector of the wedge of two untwisted elements."""
    if model.twist_rank != 1:
        raise PreconditionViolation("wedge of two twisted elements is undefined")
    return _right_wedge(model, bideg1, bideg2, v2) @ v1


def integral(model: ModelDoubleComplex, v: RatMatrix):
    """Pairing of a top-bidegree element against the fundamental monomial,
    summed over twist copies."""
    n = model.n
    if v.rows != model.dim(n, n):
        raise ValidationError("integral needs an (n, n) coordinate vector")
    total = F0
    for pos, (_c, s, _i, _j) in enumerate(model.labels[(n, n)]):
        if v[pos, 0]:
            total += v[pos, 0] * s
    return total


def cup_map(model: ModelDoubleComplex, window: tuple, alpha_bidegree,
            alpha: RatMatrix) -> BicomplexMap:
    """Right wedge by a closed untwisted form of bidegree (u, v), as a map
    of truncations from window (s, t) to window (s+u, t+u) regraded back.
    Raises NotClosed unless d1 alpha = d2 alpha = 0."""
    u, v = alpha_bidegree
    base = model.base
    if alpha.shape != (base.dim(u, v), 1):
        raise ValidationError("cup class has the wrong shape")
    if not (base.complex.d1(u, v) @ alpha).is_zero():
        raise NotClosed("cup class is not d1-closed")
    if not (base.complex.d2(u, v) @ alpha).is_zero():
        raise NotClosed("cup class is not d2-closed")
    s, t = window
    src = truncate(model.complex, (s, t))
    tgt = shift2(truncate(model.complex, (s + u, t + u)), u, v)
    mats = {(a, b): _right_wedge(model, (a, b), (u, v), alpha)
            for a, b in src.dims() if model.dim(a + u, b + v)}
    return BicomplexMap(src, tgt, mats)


def duality_map(model: ModelDoubleComplex, window: tuple) -> BicomplexMap:
    """x |-> integral(x ^ -) from the window (s, t) into the regraded
    bigraded dual of the complementary window (n-t, n-s).

    Requires the top-degree Stokes identities (IntegralNotClosed otherwise);
    given those, the pairing matrices commute with the stored dual
    differentials exactly, which the map constructor re-checks.
    """
    n = model.n
    s, t = window
    for (a, b) in ((n - 1, n), (n, n - 1)):
        dmat = model.complex.d1(a, b) if a == n - 1 else model.complex.d2(a, b)
        for col in range(model.dim(a, b)):
            if integral(model, dmat.col_matrix(col)):
                raise IntegralNotClosed(
                    f"top-degree form with nonzero d-integral at ({a},{b})"
                )
    src = truncate(model.complex, (s, t))
    tgt = shift2(dual2(truncate(model.complex, (n - t, n - s))), -n, -n)
    mats = {}
    for (a, b), cols in src.dims().items():
        rows = model.dim(n - a, n - b)
        comp_look = model.lookup(n - a, n - b)
        out = [[F0] * cols for _ in range(rows)]
        for col, (c, s1, i1, j1) in enumerate(model.labels[(a, b)]):
            ic = tuple(g for g in range(n) if g not in i1)
            jc = tuple(g for g in range(n) if g not in j1)
            ws, _ii, _jj = wedge_monomials(i1, j1, ic, jc)
            pos, s2 = comp_look[(c, ic, jc)]
            out[pos][col] = rat_from(s1 * s2 * ws)
        mats[(a, b)] = RatMatrix(rows, cols, out)
    return BicomplexMap(src, tgt, mats)


def bott_chern_dim(k: DoubleComplex, p: int, q: int) -> int:
    """dim (ker d1 cap ker d2) / im d1 d2 at (p, q)."""
    if k.dim(p, q) == 0:
        return 0
    z1 = kernel_basis(k.d1(p, q))  # ker d2 on ker d1: no stacked [d1; d2]
    cycles = z1 @ kernel_basis(k.d2(p, q) @ z1)
    boundaries = k.d1(p - 1, q) @ k.d2(p - 1, q - 1)
    return subquotient(cycles, boundaries).dim


# -- dimension predictors -------------------------------------------------


def hyper(model: ModelDoubleComplex, window: tuple, k: int) -> int:
    """Window hypercohomology dimension of the model."""
    return window_barcode(model.complex, window[0], window[1]).betti.get(k, 0)


def column_dims(model: ModelDoubleComplex, p: int) -> dict:
    """Nonzero column cohomology dimensions h^{p,q} of one column."""
    out = {}
    for q in range(model.n + 1):
        h = column_cohomology_dim(model.complex, p, q)
        if h:
            out[q] = h
    return out


def kunneth_predict(x: ModelDoubleComplex, y: ModelDoubleComplex,
                    window: tuple, c: int) -> int:
    """Predicted dim H^c of the product in the window: the first factor
    enters through its single-column windows, the second through the
    correspondingly shifted windows.  This is Leray-Hirsch over y, with
    the class (w, a - w) counted hyper(x, (w, w), a) times; the loop reads
    each multiplicity once, where a class list with repeats would read
    hyper(y, ...) once per copy.

    The identity with the actual product holds when the first factor's
    window spectral sequences degenerate (its differential splits off), as
    for a torus; the second factor is unconstrained.
    """
    s, t = window
    total = 0
    for w in range(0, x.n + 1):
        for a in range(0, 2 * x.n + 1):
            hx = hyper(x, (w, w), a)
            if hx:
                total += hx * hyper(y, (s - w, t - w), c - a)
    return total


def leray_hirsch_predict(x: ModelDoubleComplex, window: tuple, k: int,
                         classes) -> int:
    """Free-module prediction for a fiber bundle whose fiber cohomology is
    spanned by global classes of bidegrees (u_i, v_i)."""
    s, t = window
    return sum(hyper(x, (s - u, t - u), k - u - v) for (u, v) in classes)


def projective_bundle_predict(x: ModelDoubleComplex, window: tuple, k: int,
                              r: int) -> int:
    """Projectivized rank-r bundle: Leray-Hirsch over the powers h^i,
    i < r, of the hyperplane class, of bidegree (i, i)."""
    if r < 1:
        raise PreconditionViolation(f"bundle rank must be positive, got {r}")
    return leray_hirsch_predict(x, window, k, [(i, i) for i in range(r)])


def blowup_predict(x: ModelDoubleComplex, y: ModelDoubleComplex,
                   window: tuple, k: int, r: int) -> int:
    """Blowup of x along a center modeled by y of codimension r >= 2: x
    plus Leray-Hirsch over y with the classes (i, i), 0 < i < r."""
    if r < 2:
        raise PreconditionViolation(f"codimension must be at least 2, got {r}")
    if y.n + r != x.n:
        warnings.warn(
            f"center dimension {y.n} + codimension {r} != ambient {x.n}",
            stacklevel=2,
        )
    return hyper(x, window, k) + leray_hirsch_predict(y, window, k,
                                                      [(i, i) for i in range(1, r)])


def degeneration_equivalence(x: ModelDoubleComplex, r: int) -> dict:
    """Window degeneration of a projectivized rank-r bundle versus its base.

    The bundle flag of window (s, t) is the conjunction of the base flags of
    the windows (s-i, t-i), i < r, clamped to the base range; the aggregates
    over all windows agree, and the returned dict shows both sides.
    """
    if r < 1:
        raise PreconditionViolation(f"bundle rank must be positive, got {r}")
    n = x.n
    base = {}
    for s in range(n + 1):
        for t in range(s, n + 1):
            base[(s, t)] = frolicher_is_equality(x.complex, (s, t))

    def base_flag(s, t):
        s, t = max(s, 0), min(t, n)
        return base[(s, t)] if s <= t else True

    nb = n + r - 1
    bundle = {}
    for s in range(nb + 1):
        for t in range(s, nb + 1):
            bundle[(s, t)] = all(base_flag(s - i, t - i) for i in range(r))
    base_all = all(base.values())
    bundle_all = all(bundle.values())
    return {
        "base_windows": base,
        "bundle_windows": bundle,
        "base_all": base_all,
        "bundle_all": bundle_all,
        "equivalent": base_all == bundle_all,
    }


def hodge_filtration_projective_predict(x: ModelDoubleComplex, k: int,
                                        r: int) -> list:
    """Filtration image dimensions of a projectivized rank-r bundle, from
    the base filtration with clamped index shifts."""
    if r < 1:
        raise PreconditionViolation(f"bundle rank must be positive, got {r}")
    n = x.n
    nb = n + r - 1
    layers = [hodge_filtration_dims(x.complex, k - 2 * i, n) for i in range(r)]
    out = []
    for p in range(nb + 2):
        out.append(
            sum(layers[i][min(max(p - i, 0), n + 1)] for i in range(r))
        )
    return out
