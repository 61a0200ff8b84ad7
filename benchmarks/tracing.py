"""Spans around spectra-dr's public functions, recorded from outside the engine.

A Tracer wraps each function named in TARGETS.  For a module-level function
it patches the defining module's attribute and every `from .x import f`
binding of the same object in the other spectra_dr modules, so calls made
inside the engine are seen too.  For a method it patches the class attribute.
`uninstall` puts every original object back and checks it by identity.

Each wrapped call appends one span (name, parent, start, end) to flat arrays
kept in memory for the whole run; at the end they are written out and folded
into per-layer totals.  A span's self time is its duration minus the
durations of its direct children (children nest and never overlap: the
engine runs on one thread).
Cache hit ratios come from the lru caches' own `cache_info()`.
"""

from __future__ import annotations

import gzip
import time
from array import array

# (module, attribute path, span name); a method's span is named after its class
# and an `__init__` span counts constructions.
TARGETS = [
    ("linalg", "RatMatrix.__init__", "linalg.RatMatrix"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "pivot_columns", "linalg.pivot_columns"),
    ("linalg", "solve_matrix", "linalg.solve_matrix"),
    ("linalg", "subquotient", "linalg.subquotient"),
    ("linalg", "induced_map", "linalg.induced_map"),
    ("cochain", "cohomology", "cochain.cohomology"),
    ("cochain", "cohomology_dim", "cochain.cohomology_dim"),
    ("bicomplex", "DoubleComplex.__init__", "bicomplex.DoubleComplex"),
    ("bicomplex", "DoubleComplex.from_json", "bicomplex.DoubleComplex.from_json"),
    ("bicomplex", "DoubleComplex.to_json", "bicomplex.DoubleComplex.to_json"),
    ("bicomplex", "total", "bicomplex.total"),
    ("tensorops", "quad_tensor", "tensorops.quad_tensor"),
    ("tensorops", "ss_collapse", "tensorops.ss_collapse"),
    ("spectral", "page", "spectral.page"),
    ("spectral", "limit_page", "spectral.limit_page"),
    ("spectral", "stabilization_index", "spectral.stabilization_index"),
    ("truncation", "truncated_total", "truncation.truncated_total"),
    ("truncation", "hyper_dims", "truncation.hyper_dims"),
    ("models", "lie_model", "models.lie_model"),
    ("models", "product_model", "models.product_model"),
    ("models", "kunneth_predict", "models.kunneth_predict"),
    ("suites", "run_suite", "suites.run_suite"),
    ("cli", "main", "cli.main"),
]

# The seven lru caches of the engine, by span name.
CACHED = [
    ("linalg", "rank"),
    ("linalg", "kernel_basis"),
    ("linalg", "pivot_columns"),
    ("cochain", "cohomology"),
    ("bicomplex", "total"),
    ("spectral", "page"),
    ("truncation", "truncated_total"),
]

# Cached functions whose misses run an elimination on their matrix argument.
ELIMINATING = ("linalg.rank", "linalg.kernel_basis", "linalg.pivot_columns")

# Per-layer metrics: (metric name, unit); the stat is the last dotted part.
PER_LAYER = [
    ("linalg.subquotient.calls", "count"),
    ("linalg.subquotient.self_s", "s"),
    ("linalg.solve_matrix.calls", "count"),
    ("linalg.solve_matrix.self_s", "s"),
    ("linalg.induced_map.self_s", "s"),
    ("spectral.page.calls", "count"),
    ("spectral.page.self_s", "s"),
    ("spectral.page.hit_ratio", "ratio"),
    ("spectral.limit_page.total_s", "s"),
    ("spectral.stabilization_index.total_s", "s"),
    ("linalg.kernel_basis.calls", "count"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.kernel_basis.hit_ratio", "ratio"),
    ("linalg.pivot_columns.calls", "count"),
    ("linalg.pivot_columns.self_s", "s"),
    ("linalg.pivot_columns.hit_ratio", "ratio"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.rank.hit_ratio", "ratio"),
    ("linalg.elim.max_cells", "count"),
    ("linalg.elim.density", "ratio"),
    ("tensorops.quad_tensor.self_s", "s"),
    ("tensorops.ss_collapse.self_s", "s"),
    ("bicomplex.DoubleComplex.constructed", "count"),
    ("bicomplex.DoubleComplex.init_s", "s"),
    ("models.product_model.total_s", "s"),
    ("models.lie_model.total_s", "s"),
    ("bicomplex.total.calls", "count"),
    ("bicomplex.total.self_s", "s"),
    ("bicomplex.total.hit_ratio", "ratio"),
    ("truncation.truncated_total.calls", "count"),
    ("truncation.truncated_total.self_s", "s"),
    ("truncation.truncated_total.hit_ratio", "ratio"),
    ("truncation.hyper_dims.self_s", "s"),
    ("cochain.cohomology_dim.calls", "count"),
    ("cochain.cohomology_dim.self_s", "s"),
    ("models.kunneth_predict.calls", "count"),
    ("models.kunneth_predict.total_s", "s"),
    ("linalg.RatMatrix.constructed", "count"),
    ("linalg.RatMatrix.init_s", "s"),
    ("cochain.cohomology.calls", "count"),
    ("cochain.cohomology.hit_ratio", "ratio"),
    ("suites.run_suite.total_s", "s"),
    ("cache.entries", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.total_s", "s"),
    ("bicomplex.DoubleComplex.from_json.self_s", "s"),
    ("bicomplex.DoubleComplex.to_json.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Layers reported by inclusive time, which needs an ancestor walk per span.
INCLUSIVE = {m.rsplit(".", 1)[0] for m, _ in PER_LAYER if m.endswith(("total_s", "init_s"))}


def cached_functions(engine) -> dict:
    """The seven lru-cached functions, read from their defining modules."""
    return {
        f"{mod}.{name}": getattr(getattr(engine, mod), name) for mod, name in CACHED
    }


def engine_modules(engine) -> list:
    """The package and every submodule, i.e. every place a binding can live."""
    mods = [engine]
    for name in dir(engine):
        obj = getattr(engine, name)
        if type(obj) is type(engine) and obj.__name__.startswith(engine.__name__ + "."):
            mods.append(obj)
    return mods


class Tracer:
    def __init__(self, engine):
        self.engine = engine
        self.cached = cached_functions(engine)
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.passes = 0
        self._patches: list = []  # (owner, attribute, original object)
        self.cache_stats = {key: [0, 0] for key in self.cached}  # hits, misses
        self.cache_entries = 0
        self.eliminated: list = []  # matrices an elimination ran on (cache misses)
        self.elim_cells = 0
        self.elim_nonzeros = 0
        self.elim_max_cells = 0

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_start.append(clock())
            span_end.append(0.0)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                stack.pop()

        if name in ELIMINATING:
            info = fn.cache_info
            eliminated = self.eliminated
            inner = wrapper

            def wrapper(m):
                before = info().misses
                out = inner(m)
                if info().misses != before:
                    eliminated.append(m)
                return out

        if hasattr(fn, "cache_info"):
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = fn.cache_clear
        return wrapper

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; one install/uninstall pair is one traced pass."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.passes += 1
        mods = engine_modules(self.engine)
        for mod_name, path, span in TARGETS:
            owner = getattr(self.engine, mod_name)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, staticmethod):
                    patched = staticmethod(self._wrap(span, original.__func__))
                else:
                    patched = self._wrap(span, original)
                self._patches.append((cls, attr, original))
                setattr(cls, attr, patched)
                continue
            original = getattr(owner, path)
            patched = self._wrap(span, original)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, patched)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"could not restore {owner.__name__}.{attr}")
        self._patches = []

    # -- per-job hooks ----------------------------------------------------

    def job_start(self, label: str) -> int:
        """Open the root span of one job; every span of the job descends
        from it."""
        self._cache_before = {k: f.cache_info() for k, f in self.cached.items()}
        idx = len(self.span_name)
        self.span_name.append(self._name_id(f"job {label}"))
        self.span_parent.append(-1)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self.stack.append(idx)
        return idx

    def job_end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()
        entries = 0
        for key, fn in self.cached.items():
            info, before = fn.cache_info(), self._cache_before[key]
            stats = self.cache_stats[key]
            stats[0] += info.hits - before.hits
            stats[1] += info.misses - before.misses
            entries += info.currsize
        self.cache_entries = entries
        for m in self.eliminated:
            cells = m.rows * m.cols
            self.elim_cells += cells
            self.elim_nonzeros += sum(1 for i in range(m.rows) for x in m.row(i) if x)
            self.elim_max_cells = max(self.elim_max_cells, cells)
        self.eliminated.clear()

    # -- output -----------------------------------------------------------

    def write_spans(self, path) -> None:
        """All spans as gzipped TSV: index, parent index, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.names[self.span_name[i]]}"
                    f"\t{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

    def _fold(self) -> dict:
        """name -> [calls, self_s, total_s].  total_s sums only the outermost
        span of a name, so recursion is not counted twice."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        inclusive = {self.name_ids[name] for name in INCLUSIVE if name in self.name_ids}
        totals = {}
        for i in range(n):
            nid = names[i]
            t = totals.get(nid)
            if t is None:
                t = totals[nid] = [0, 0.0, 0.0]
            t[0] += 1
            t[1] += dur[i] - child[i]
            if nid in inclusive:
                p = parents[i]
                while p >= 0 and names[p] != nid:
                    p = parents[p]
                if p < 0:
                    t[2] += dur[i]
        return {self.names[nid]: t for nid, t in totals.items()}

    def metrics(self, overhead_s: float) -> dict:
        """Every PER_LAYER metric, per traced pass."""
        totals = self._fold()
        passes = max(self.passes, 1)
        out = {}
        for metric, unit in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            calls, self_s, total_s = totals.get(layer, (0, 0.0, 0.0))
            if stat in ("calls", "constructed"):
                value = calls / passes
            elif stat == "self_s":
                value = self_s / passes
            elif stat in ("total_s", "init_s"):
                value = total_s / passes
            elif stat == "hit_ratio":
                hits, misses = self.cache_stats[layer]
                value = hits / (hits + misses) if hits + misses else 0.0
            elif metric == "linalg.elim.max_cells":
                value = self.elim_max_cells
            elif metric == "linalg.elim.density":
                value = self.elim_nonzeros / self.elim_cells if self.elim_cells else 0.0
            elif metric == "cache.entries":
                value = self.cache_entries
            elif metric == "trace.overhead_s":
                value = overhead_s
            else:
                raise KeyError(metric)
            out[metric] = {"value": value, "unit": unit}
        return out
