"""The three benchmark workloads.

A workload builds its inputs when constructed (this is part of set-up), then
offers `jobs()`: (label, job) pairs run in order by the harness.  A job takes
the raw results of the jobs before it and returns its own raw result.  After
the timed pass, `canonical` turns each raw result into JSON data (pinned by
digest) and `check` cross-checks the canonical results against the engine by
a route that does not share the layer under test.

Every engine call goes through the module attribute at call time
(`self.sd.models.product_model`, never a name bound at set-up), so the
tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from math import comb


def _swap_stdio(fn, stdin_text: str):
    """Run fn with stdin fed from stdin_text and stdout captured."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        rc = fn()
        return {"rc": rc, "stdout": sys.stdout.getvalue()}
    finally:
        sys.stdin, sys.stdout = saved


class SpectralLadder:
    """`model ... | spectral -` through cli.main for Iwasawa (n=3) and
    T1xIW (n=4).  Nearly all the time is in subquotient / solve_matrix /
    kernel_basis under spectral.page; tensorops is nearly idle."""

    cold_jobs = True
    PIPELINES = [
        ("iwasawa", ["model", "lie", "--builtin", "iwasawa"]),
        ("t1xiw", ["model", "product", "--left", "torus:1", "--right", "lie:iwasawa"]),
    ]

    def __init__(self, sd, seed: int, reduced: bool):
        self.sd = sd
        self.pipelines = self.PIPELINES[:1] if reduced else self.PIPELINES

    def jobs(self):
        for name, argv in self.pipelines:
            yield f"model:{name}", self._cli(argv, None)
            yield f"spectral:{name}", self._cli(
                ["spectral", "-", "--format", "json"], f"model:{name}")

    def _cli(self, argv, stdin_from):
        def job(results):
            text = results[stdin_from]["stdout"] if stdin_from else ""
            return _swap_stdio(lambda: self.sd.cli.main(argv), text)
        return job

    def canonical(self, label, value):
        return value

    def check(self, results) -> list:
        sd = self.sd
        out = []
        for label, res in results.items():
            out.append((f"{label} exit code", res["rc"] == 0))
        for name, _ in self.pipelines:
            k = sd.DoubleComplex.from_json(json.loads(results[f"model:{name}"]["stdout"]))
            spec = json.loads(results[f"spectral:{name}"]["stdout"])
            limit = {tuple(map(int, key.split(","))): d for key, d in spec["limit"].items()}
            t = sd.total(k)
            betti = sd.betti_numbers(t)
            for deg in range(t.lo - 1, t.hi + 2):
                diag = sum(d for (p, q), d in limit.items() if p + q == deg)
                out.append((f"{name} limit antidiagonal {deg} = betti", diag == betti.get(deg, 0)))
            e1 = spec["pages"][0]["terms"]
            for p in k.p_range():
                col = sd.bicomplex.row_complex(k, p)
                for q in k.q_range():
                    out.append((f"{name} E1({p},{q}) = column cohomology",
                                e1.get(f"{p},{q}", 0) == sd.cohomology_dim(col, q)))
            out.append((f"{name} last page = limit",
                        spec["pages"][-1]["terms"] == spec["limit"]
                        and len(spec["pages"]) == spec["stable_at"]))
        return out


class WindowLadder:
    """The factor models T2 and Iwasawa, then T2xIW (n=5) and IWxIW (n=6)
    built with product_model, Betti numbers of total(T2xIW), hyper_dims on
    all 21 windows of T2xIW, and the Kunneth predictor on every window and
    degree.  The work is in quad_tensor /
    ss_collapse, DoubleComplex validation, total, truncated_total and
    Bareiss rank; subquotient is never called.  The predictor job re-reads
    the factor models' window caches over and over."""

    cold_jobs = True

    def __init__(self, sd, seed: int, reduced: bool):
        self.sd = sd
        self.torus_n = 1 if reduced else 2
        self.spec = sd.iwasawa_spec()
        self.reduced = reduced
        self.n = self.torus_n + self.spec.n
        self.windows = [(s, t) for s in range(self.n + 1) for t in range(s, self.n + 1)]
        self.degrees = range(0, 2 * self.n + 1)

    def jobs(self):
        models = self.sd.models
        tor, iw = f"build:T{self.torus_n}", "build:IW"
        prod = f"build:T{self.torus_n}xIW"
        yield tor, lambda r: models.torus_model(self.torus_n)
        yield iw, lambda r: models.lie_model(self.spec)
        yield prod, lambda r: models.product_model(r[tor], r[iw])
        if not self.reduced:
            yield "build:IWxIW", lambda r: models.product_model(r[iw], r[iw])
        yield "betti", lambda r: self.sd.cochain.betti_numbers(
            self.sd.bicomplex.total(r[prod].complex))
        for w in self.windows:
            yield f"hyper:{w[0]},{w[1]}", lambda r, w=w: self.sd.truncation.hyper_dims(
                r[prod].complex, w)
        yield "predict", lambda r: {
            w: [models.kunneth_predict(r[tor], r[iw], w, c) for c in self.degrees]
            for w in self.windows
        }

    def canonical(self, label, value):
        if label.startswith("build:"):
            return _model_summary(value)
        if label == "predict":
            return {f"{s},{t}": v for (s, t), v in value.items()}
        return {str(k): v for k, v in value.items()}

    def check(self, results) -> list:
        out = []
        for label, res in results.items():
            if label.startswith("build:"):
                n = res["n"]
                want = {f"{p},{q}": comb(n, p) * comb(n, q)
                        for p in range(n + 1) for q in range(n + 1)}
                out.append((f"{label} dims = C(n,p)C(n,q)", res["dims"] == want))
        predict = results["predict"]
        for s, t in self.windows:
            hyper = results[f"hyper:{s},{t}"]
            for c in self.degrees:
                out.append((f"window {s},{t} degree {c} = Kunneth",
                            hyper.get(str(c), 0) == predict[f"{s},{t}"][c]))
        full = results[f"hyper:0,{self.n}"]
        for deg, b in results["betti"].items():
            out.append((f"betti {deg} = full window", full.get(deg, 0) == b))
        return out


def _model_summary(model) -> dict:
    """Dimensions plus one digest over every nonzero differential entry and
    every basis label of a model."""
    cx = model.complex
    h = hashlib.sha256()
    for p, q in sorted(cx.dims()):
        for which in ("d1", "d2"):
            m = getattr(cx, which)(p, q)
            for i in range(m.rows):
                for j, x in enumerate(m.row(i)):
                    if x:
                        h.update(f"{which}({p},{q})[{i},{j}]={x};".encode())
    for key in sorted(model.labels):
        h.update(repr((key, model.labels[key])).encode())
    return {
        "n": model.n,
        "twist_rank": model.twist_rank,
        "dims": {f"{p},{q}": d for (p, q), d in sorted(cx.dims().items())},
        "digest": h.hexdigest(),
    }


class VerifyRandom:
    """Randomized suites, one (suite, seed_i) job at a time with runs=1,
    caches kept across jobs as in one `spectra-dr verify` process.  Many tiny
    distinct matrices: per-call overhead and cache growth dominate."""

    cold_jobs = False
    SUITES = ["cochain", "bicomplex", "tensor", "spectral", "truncation"]
    JOBS = 500
    REDUCED_JOBS = 25

    def __init__(self, sd, seed: int, reduced: bool):
        self.sd = sd
        rng = random.Random(seed)
        count = self.REDUCED_JOBS if reduced else self.JOBS
        self.plan = [(self.SUITES[i % len(self.SUITES)], rng.randrange(2**31))
                     for i in range(count)]

    def jobs(self):
        for i, (name, s) in enumerate(self.plan):
            yield f"{i}:{name}:{s}", lambda r, name=name, s=s: self.sd.suites.run_suite(name, s, 1)

    def canonical(self, label, value):
        return value.to_json()

    def check(self, results) -> list:
        out = []
        for label, rep in results.items():
            for line in rep["lines"]:
                out.append((f"{label} {line['check']} @ {line['degree']}", line["pass"]))
            out.append((f"{label} ok", rep["ok"] and rep["checks"] > 0))
        return out


WORKLOADS = {
    "spectral-ladder": SpectralLadder,
    "window-ladder": WindowLadder,
    "verify-random": VerifyRandom,
}
