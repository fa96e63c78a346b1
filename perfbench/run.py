#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of flipcheck, from cold caches.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; flipcheck is imported from its ``src``.
Every pass runs in a fresh interpreter (worker.py), so every cache is cold
as it is for a ``flipcheck verify`` user.  Passes repeat while another one
fits in ``--seconds`` (at least one), and each metric is the median over
passes.  ``setup_s`` is the time from spawning an interpreter to having
imported flipcheck and flipcheck.cli; interpreters that only import them
add to its samples.
``--seed`` permutes the order of the workload's units; it changes no input.

Every report a pass emits is checked against its sha256 in digests.json
(see pin.py).  The last line of output is one JSON object with ``correct``,
``attempted`` and ``failed`` (claims) and ``metrics``: the ``end_to_end``
metrics of BENCHMARK.json with ``--trace 0``, and its ``per_layer``
metrics with ``--trace 1``.  A traced run alternates untraced and traced
passes; ``trace.overhead_s`` is the difference of their median wall times,
and the spans of the last traced pass are written to .perfbench/.
The exit code is 0 only when every report matched its digest.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name: (lemma set, (n, parity) units, jobs).  suite_n7 is verify_all(7, 7):
# K-classes, the move engine and every replay.  suite_n7_jobs2 differs only
# in the in-suite thread fan-out.  van_sweep is large-N Ext and BWB work
# that never reaches K-classes or the engine, and rarely repeats a key.
WORKLOADS = {
    "suite_n7": ("all", ((7, "odd"), (7, "even")), 1),
    "suite_n7_jobs2": ("all", ((7, "odd"), (7, "even")), 2),
    "van_sweep": ("van", tuple((n, p) for n in range(2, 17) for p in ("odd", "even")), 1),
}
SETUP_PROBES = 3  # interpreters that only import flipcheck, before each pass
RUN_BUDGET_S = 170.0  # a run never outlives this


def spawn(job: dict, timeout: float) -> dict:
    """Run worker.py on ``job`` in a fresh interpreter; return its JSON line."""
    job = dict(job, t0=time.monotonic())
    proc = subprocess.run(
        [sys.executable, "-I", str(HERE / "worker.py"), json.dumps(job)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(timeout, 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def job_for(workload: str, seed: int | None = None) -> dict:
    """The worker job of one untraced pass; ``seed`` permutes the units."""
    lemma, units, jobs = WORKLOADS[workload]
    units = list(units)
    if seed is not None:
        random.Random(seed).shuffle(units)
    return {
        "mode": "pass",
        "lemma": lemma,
        "units": units,
        "jobs": jobs,
        "trace": 0,
        "spans": str(ROOT / ".perfbench" / f"{workload}.spans"),
    }


def gate(result: dict, pinned: dict, job: dict) -> tuple[int, int, list[str]]:
    """Claims attempted, claims failed and digest mismatches of one pass.

    A unit that raised counts all of its pinned claims as failed.
    """
    attempted = failed = 0
    problems = []
    for n, parity in job["units"]:
        key = f"{job['lemma']}/n{n}/{parity}"
        pin = pinned[key]
        got = result["units"].get(key, {"error": "no report"})
        if "error" in got:
            attempted += pin["claims"]
            failed += pin["claims"]
            problems.append(f"{key}: {got['error']}")
            continue
        attempted += got["claims"]
        failed += got["failed"]
        if got["sha256"] != pin["sha256"]:
            problems.append(f"{key}: sha256 {got['sha256']} != pinned {pin['sha256']}")
    return attempted, failed, problems


def main(argv: list[str] | None = None, pinned: dict | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flipcheck" / "__init__.py").is_file():
        print(f"run.py: no flipcheck package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if pinned is None:
        pinned = json.loads((HERE / "digests.json").read_text())
    job = job_for(args.workload, args.seed)
    give_up = time.monotonic() + RUN_BUDGET_S

    def run(**change) -> dict:
        return spawn(dict(job, **change), give_up - time.monotonic())

    # A pass starts only if one as long as the longest so far still fits in
    # --seconds, so a run lasts about --seconds however fast the machine is.
    stop = time.monotonic() + args.seconds
    longest = 0.0
    setups: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    while not plain or time.monotonic() + longest <= stop:
        began = time.monotonic()
        if not args.trace:
            setups += [run(mode="setup")["setup_s"] for _ in range(SETUP_PROBES)]
        plain.append(run())
        if args.trace:
            traced.append(run(trace=1))
        longest = max(longest, time.monotonic() - began)

    plain_gates = [gate(r, pinned, job) for r in plain]
    gates = plain_gates + [gate(r, pinned, job) for r in traced]
    attempted = sum(g[0] for g in gates)
    failed = sum(g[1] for g in gates)
    problems = [p for g in gates for p in g[2]]
    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)

    median = statistics.median
    if args.trace:
        values = {name: median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
        values["trace.overhead_s"] = median(r["wall_s"] for r in traced) - median(
            r["wall_s"] for r in plain
        )
        wanted = spec["per_layer"]
    else:
        plain_attempted = sum(g[0] for g in plain_gates)
        values = {
            "setup_s": median(setups + [r["setup_s"] for r in plain]),
            "wall_s": median(r["wall_s"] for r in plain),
            "cpu_s": median(r["cpu_s"] for r in plain),
            "claims_per_s": median(g[0] / r["wall_s"] for g, r in zip(plain_gates, plain)),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
            "ok_ratio": 1 - sum(g[1] for g in plain_gates) / plain_attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(
        json.dumps(
            {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
