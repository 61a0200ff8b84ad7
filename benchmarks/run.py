"""spectra-dr benchmark: one workload, measured for a fixed time, outputs checked.

    python3 benchmarks/run.py --workload spectral-ladder --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the engine is imported from the
checkout's own `src/`.  Set-up (fresh import of spectra_dr, inputs, cache
reset) is repeated SETUPS times and its median reported as setup_s.  Times
are reported rescaled to the reference speed of calibration.py.  Then
cold passes over the workload's jobs repeat until the next pass would end
after --seconds (at least one pass; with --trace 1, untraced and traced
passes alternate and at least one of each runs).  Every pass is checked.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1).  The line before it records the machine, the seed and the
failure ratio.  See benchmarks/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 15


# -- set-up -----------------------------------------------------------------


def import_engine():
    """A fresh import of spectra_dr from this checkout, every cache empty."""
    if not (SRC / "spectra_dr" / "__init__.py").is_file():
        raise FileNotFoundError(f"no spectra_dr sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "spectra_dr" or m.startswith("spectra_dr.")]:
        del sys.modules[name]
    sd = importlib.import_module("spectra_dr")
    importlib.import_module("spectra_dr.cli")
    if Path(sd.__file__).resolve().parent != (SRC / "spectra_dr").resolve():
        raise ImportError(f"spectra_dr imported from {sd.__file__}, not {SRC}")
    return sd


def reset_caches(sd) -> None:
    """Clear all seven lru caches and check through cache_info that they are
    empty; linalg.clear_caches alone covers only three of them."""
    sd.linalg.clear_caches()
    sd.cochain.clear_cohomology_cache()
    sd.bicomplex.clear_total_cache()
    sd.spectral.clear_page_cache()
    sd.truncation.clear_truncation_cache()
    left = {k: f.cache_info().currsize for k, f in tracing.cached_functions(sd).items()}
    left = {k: n for k, n in left.items() if n}
    if left:
        raise RuntimeError(f"caches not empty after reset: {left}")


def setup(name: str, seed: int, reduced: bool):
    sd = import_engine()
    wl = workloads.WORKLOADS[name](sd, seed, reduced)
    reset_caches(sd)
    return sd, wl


def setups(name: str, seed: int, reduced: bool):
    """Set up SETUPS times under the yardstick.  Returns the last engine and
    workload, and each set-up's own and rescaled seconds."""
    times = []
    with calibration.Yardstick() as yardstick:
        for _ in range(SETUPS):
            t0 = time.perf_counter()
            sd, wl = setup(name, seed, reduced)
            times.append((t0, time.perf_counter()))
    return sd, wl, [yardstick.rescale(*t) for t in times]


# -- passes -------------------------------------------------------------------


def run_pass(sd, wl, tracer=None):
    """One pass over the jobs from cold caches.  Returns each job's own
    time, the same rescaled to the reference speed of calibration.py (both
    in seconds), and each job's canonical result.  Traced passes run
    without the yardstick, which would land inside their spans."""
    reset_caches(sd)
    raw, spans = {}, []
    yardstick = calibration.Yardstick()
    try:
        if tracer:
            tracer.install()
        with contextlib.nullcontext() if tracer else yardstick:
            for label, job in wl.jobs():
                if wl.cold_jobs:
                    reset_caches(sd)
                span = tracer.job_start(label) if tracer else None
                t0 = time.perf_counter()
                raw[label] = job(raw)
                spans.append((t0, time.perf_counter()))
                if tracer:
                    tracer.job_end(span)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        times = ref_times = [end - start for start, end in spans]
    else:
        times, ref_times = zip(*(yardstick.rescale(*s) for s in spans))
    return list(times), list(ref_times), {
        label: wl.canonical(label, value) for label, value in raw.items()
    }


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def pin_key(name: str, seed: int, reduced: bool) -> str:
    """Ladder outputs do not depend on the seed; verify-random's do."""
    form = "reduced" if reduced else "full"
    return f"{form}-seed{seed}" if name == "verify-random" else form


def run_passes(sd, wl, seconds: float, trace: bool, pinned: dict) -> dict:
    """Repeat passes for about `seconds`; check every pass."""
    tracer = tracing.Tracer(sd) if trace else None
    walls = {False: [], True: []}
    ref_walls, job_times, ref_job_times = [], [], []
    checks, first, unpinned = [], None, {}
    longest = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        traced = trace and len(walls[True]) < len(walls[False])
        times, ref_times, results = run_pass(sd, wl, tracer if traced else None)
        walls[traced].append(sum(times))
        if not traced:
            ref_walls.append(sum(ref_times))
            job_times.extend(times)
            ref_job_times.extend(ref_times)
        checks.extend(wl.check(results))
        digests = {label: digest(v) for label, v in results.items()}
        for label, d in digests.items():
            if label in pinned:
                checks.append((f"{label} matches pinned digest", d == pinned[label]))
            else:
                unpinned[label] = d
        if first is None:
            first = digests
        else:
            kind = "traced" if traced else "untraced"
            checks.append((f"{kind} pass output = first pass output", digests == first))
        longest = max(longest, time.perf_counter() - t0)
        have_all = walls[False] and (walls[True] or not trace)
        if have_all and time.perf_counter() - start + longest > seconds:
            break
    return {"walls": walls, "ref_walls": ref_walls, "job_times": job_times,
            "ref_job_times": ref_job_times, "checks": checks, "unpinned": unpinned,
            "tracer": tracer, "jobs": len(first)}


# -- reporting ------------------------------------------------------------------


def git_sha():
    """HEAD of the checkout if it is a git work tree (read without running git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def timings(walls: list, job_times: list) -> tuple:
    """Median pass time (s), median and 90th percentile job time (ms)."""
    return (
        statistics.median(walls),
        statistics.median(job_times) * 1000,
        statistics.quantiles(job_times, n=10, method="inclusive")[8] * 1000,
    )


def end_to_end(run: dict, setup_times: list) -> dict:
    wall, p50, p90 = timings(run["ref_walls"], run["ref_job_times"])
    return {
        "wall_ref_s": (wall, "s"),
        "setup_s": (statistics.median(ref for _, ref in setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "job_p50_ref_ms": (p50, "ms"),
        "job_p90_ref_ms": (p90, "ms"),
    }


def measure(name: str, seed: int, seconds: float, trace: bool, reduced: bool = False):
    """Set up, run and check one workload.  Returns (result line, info)."""
    sd, wl, setup_times = setups(name, seed, reduced)
    pinned_all = json.loads((HERE / "pinned.json").read_text())
    key = pin_key(name, seed, reduced)
    run = run_passes(sd, wl, seconds, trace, pinned_all.get(name, {}).get(key, {}))
    failed = [label for label, ok in run["checks"] if not ok]
    attempted = len(run["checks"])
    if trace:
        walls = run["walls"]
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics = run["tracer"].metrics(overhead)
        OUT.mkdir(exist_ok=True)
        run["tracer"].write_spans(OUT / f"spans-{name}.tsv.gz")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(run, setup_times).items()}
    info = {
        "workload": name,
        "seed": seed,
        "reduced": reduced,
        "trace": trace,
        "machine": machine(),
        "passes": {"untraced": len(run["walls"][False]), "traced": len(run["walls"][True])},
        "jobs_per_pass": run["jobs"],
        "job_time_samples": len(run["job_times"]),
        "measured": dict(
            zip(("wall_s", "job_p50_ms", "job_p90_ms"),
                timings(run["walls"][False], run["job_times"])),
            setup_s=statistics.median(own for own, _ in setup_times),
        ),
        "fail_ratio": len(failed) / attempted,
        "failures": failed[:20],
        "unpinned_digests": {key: run["unpinned"]} if run["unpinned"] else {},
    }
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    return result, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for metric, m in result["metrics"].items():
        print(f"{metric} = {m['value']:.6g} {m['unit']}")
    print(f"checks: {result['attempted']} attempted, {result['failed']} failed")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
