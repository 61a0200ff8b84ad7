"""Self-test of the benchmark harness; runs in a few seconds.

    python3 benchmarks/selftest/selftest.py

For each workload, in its reduced form: one untraced and one traced pass,
every output check passing, the traced pass giving the same outputs as the
untraced one, the outputs matching their pinned digests, every tracer
wrapper removed afterwards (each module and class attribute restored by
identity, also when a job raises), and the metric names equal to those in
BENCHMARK.json.  Then verify-random on a second seed must have fail ratio 0.
Exits 1 on the first failed expectation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED, SECOND_SEED = 1, 2


def expect(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL: {what}")
        sys.exit(1)
    print(f"ok: {what}")


def snapshot(sd) -> dict:
    """Every binding a tracer may touch: module globals and the dicts of the
    classes with wrapped methods."""
    owners = tracing.engine_modules(sd) + [sd.linalg.RatMatrix, sd.bicomplex.DoubleComplex]
    return {(o.__name__, k): v for o in owners for k, v in vars(o).items()}


def same_objects(before: dict, after: dict) -> bool:
    return before.keys() == after.keys() and all(after[k] is v for k, v in before.items())


class Raising:
    """A workload whose only job fails inside a traced call."""

    cold_jobs = True

    def __init__(self, sd):
        self.sd = sd

    def jobs(self):
        yield "raise", lambda r: self.sd.linalg.rank("not a matrix")


def main() -> int:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    pinned = json.loads((BENCH / "pinned.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS),
           "BENCHMARK.json names every workload")

    for name in workloads.WORKLOADS:
        sd, wl = run.setup(name, SEED, reduced=True)
        before = snapshot(sd)
        pins = pinned[name][run.pin_key(name, SEED, True)]
        out = run.run_passes(sd, wl, 0, True, pins)
        expect(same_objects(before, snapshot(sd)), f"{name}: every wrapper removed")
        expect(len(out["walls"][False]) == 1 and len(out["walls"][True]) == 1,
               f"{name}: one untraced and one traced pass")
        failed = [label for label, ok in out["checks"] if not ok]
        expect(not failed, f"{name}: {len(out['checks'])} checks pass {failed[:5]}")
        expect(("traced pass output = first pass output", True) in out["checks"],
               f"{name}: traced outputs identical to untraced outputs")
        pinned_checks = sum("pinned digest" in c for c, _ in out["checks"])
        expect(not out["unpinned"] and pinned_checks == 2 * out["jobs"],
               f"{name}: every job output matches its pinned digest")
        metrics = out["tracer"].metrics(0.0)
        expect({k: m["unit"] for k, m in metrics.items()} == per_layer,
               f"{name}: traced metrics are BENCHMARK.json's per_layer metrics")

        tracer = tracing.Tracer(sd)
        try:
            run.run_pass(sd, Raising(sd), tracer)
        except AttributeError:
            pass
        expect(same_objects(before, snapshot(sd)), f"{name}: wrappers removed after a job raised")

    result, info = run.measure("verify-random", SECOND_SEED, 0, False, reduced=True)
    expect(result["attempted"] > 0 and result["failed"] == 0 and info["fail_ratio"] == 0,
           f"verify-random seed {SECOND_SEED}: fail ratio 0 over {result['attempted']} checks")
    expect({k: m["unit"] for k, m in result["metrics"].items()} == end_to_end,
           "untraced metrics are BENCHMARK.json's end_to_end metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
