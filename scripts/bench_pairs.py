#!/usr/bin/env python3
"""Benchmark two commits against each other in alternating pairs.

    python3 scripts/bench_pairs.py --parent REV --change REV --label NAME \\
        [--seed 41] [--trace-seed 1] [--claim suite_n7:wall_s] [--what TEXT]

Run it inside a git checkout.  Each commit's committed files are extracted
with ``git archive`` into a fresh temporary directory, so the working tree,
the index and untracked files play no part.  For every workload of the
change's BENCHMARK.json, pair i of 10 runs
``perfbench/run.py --workload W --seed S --seconds T --trace 0`` once in
each directory, with T its ``run_seconds`` and the same seed
S = --seed + running pair number; the parent runs first in even pairs and
the change in odd ones.  With --trace-seed, one traced run
(``--trace 1 --seconds 1``) per side and workload follows.

The result goes to BENCH_<label>.json in the current directory: both
SHAs, the commands, the machine, the exit code and last JSON line of every
run, and per end-to-end metric of BENCHMARK.json the median and quartiles
of each side and the number of pairs the change won.  A pair enters these
figures only if both of its runs exited 0 with ``correct`` true; the number
of pairs left out is recorded.  The exit code is 1 if any run did not exit
0 (a digest mismatch or a timeout, for one).
Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

PAIRS = 10
RUN_TIMEOUT_S = 600


def git(*args: str) -> bytes:
    return subprocess.run(("git",) + args, check=True, stdout=subprocess.PIPE).stdout


def extract(sha: str, dest: Path) -> None:
    """The files of commit ``sha``, as committed, under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run in ``tree``: its exit code and last JSON line.

    A run that outlives RUN_TIMEOUT_S is killed and recorded with exit
    code None and no last line.
    """
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=tree, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"exit": None, "last_line": None}
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines else None
    return {"exit": proc.returncode, "last_line": last}


def good_pairs(runs: list[dict]) -> dict[int, dict[str, dict]]:
    """pair -> side -> run, for the pairs whose two runs both exited 0 with
    every digest correct."""
    sides: dict[int, dict[str, dict]] = {}
    for r in runs:
        sides.setdefault(r["pair"], {})[r["side"]] = r
    return {
        p: s for p, s in sides.items()
        if all(r["exit"] == 0 and r["last_line"] and r["last_line"]["correct"]
               for r in s.values())
    }


def summarize(pairs: dict[int, dict[str, dict]], metrics: list[dict]) -> dict:
    """Medians, quartiles and change wins per end-to-end metric."""
    out = {}
    for m in metrics if pairs else ():
        name = m["name"]
        value = {
            (p, side): run["last_line"]["metrics"][name]["value"]
            for p, runs in pairs.items()
            for side, run in runs.items()
        }
        sign = 1 if m["better"] == "lower" else -1
        entry = {"pairs": len(pairs)}
        for side in ("parent", "change"):
            vals = [value[p, side] for p in pairs]
            q = [vals[0]] * 3
            if len(vals) > 1:
                q = statistics.quantiles(vals, n=4, method="inclusive")
            entry[f"{side}_median"] = round(statistics.median(vals), 6)
            entry[f"{side}_quartiles"] = [round(q[0], 6), round(q[2], 6)]
        entry["change_wins"] = sum(
            sign * (value[p, "change"] - value[p, "parent"]) < 0 for p in pairs
        )
        out[name] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--label", required=True)
    ap.add_argument("--seed", type=int, default=41)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--what", default="")
    args = ap.parse_args(argv)

    shas = {
        side: git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    root = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: root / side for side in shas}
    ok = True
    try:
        for side, sha in shas.items():
            extract(sha, trees[side])
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        workloads = [w["name"] for w in spec["workloads"]]
        seconds = spec["run_seconds"]
        result = {
            "label": args.label,
            "what": args.what,
            "parent": shas["parent"],
            "change": shas["change"],
            "command": "python3 perfbench/run.py --workload WORKLOAD --seed SEED "
            "--seconds SECONDS --trace 0|1",
            "run_seconds": seconds,
            "conditions": f"{platform.platform()}, Python {platform.python_version()}, "
            f"{os.cpu_count()} CPUs; each side from `git archive` of its commit; "
            f"{PAIRS} pairs per workload of {seconds} s runs, parent first in "
            f"even pairs; seeds {args.seed}..{args.seed + PAIRS * len(workloads) - 1}",
            "claim": None,
            "workloads": {},
            "traced": {},
        }
        if args.claim:
            w, _, metric = args.claim.partition(":")
            result["claim"] = {"workload": w, "metric": metric}
        seed = args.seed
        for name in workloads:
            runs = []
            for pair in range(PAIRS):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    r = run_once(trees[side], name, seed, seconds, 0)
                    ok &= r["exit"] == 0
                    runs.append({"pair": pair, "seed": seed, "side": side, **r})
                    print(f"{name} pair {pair} {side}: exit {r['exit']}", file=sys.stderr)
                seed += 1
            pairs = good_pairs(runs)
            result["workloads"][name] = {
                "pairs_left_out": PAIRS - len(pairs),
                "summary": summarize(pairs, spec["end_to_end"]),
                "runs": runs,
            }
            if args.trace_seed is not None:
                traced = {}
                for side in ("parent", "change"):
                    r = run_once(trees[side], name, args.trace_seed, 1, 1)
                    ok &= r["exit"] == 0
                    traced[side] = {"seed": args.trace_seed, "seconds": 1, **r}
                result["traced"][name] = traced
        out = Path(f"BENCH_{args.label}.json")
        out.write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
