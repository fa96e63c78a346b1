#!/usr/bin/env python3
"""Pin the report digests the benchmark checks: python3 perfbench/pin.py

Runs suite_n7 and van_sweep once each, untraced and in their listed unit
order, and writes the sha256 of emit_report(report, "json") and the claim
count of every (lemma set, n, parity) to digests.json.  It refuses to pin a
report with a failed or indeterminate claim, and requires suite_n7_jobs2 to
reproduce the suite_n7 digests byte for byte.
"""

from __future__ import annotations

import json
import sys

from run import HERE, job_for, spawn


def units_of(workload: str) -> dict:
    return spawn(job_for(workload), timeout=600)["units"]


def main() -> int:
    pinned = {}
    for workload in ("suite_n7", "van_sweep"):
        for key, got in units_of(workload).items():
            if got.get("failed", 1):
                print(f"pin.py: {key} has failed claims or raised: {got}", file=sys.stderr)
                return 1
            pinned[key] = {"sha256": got["sha256"], "claims": got["claims"]}
    for key, got in units_of("suite_n7_jobs2").items():
        if got.get("sha256") != pinned[key]["sha256"]:
            print(f"pin.py: {key} differs between jobs=1 and jobs=2", file=sys.stderr)
            return 1
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
