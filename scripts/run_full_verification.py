#!/usr/bin/env python3
"""Run every verifier over the default range n = 2..5, both parities.

Prints one summary line per (n, parity) run and writes the combined JSON
reports to verification_reports.json (next to this script) unless --stdout.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from flipcheck.cli import _exit_code, report_to_dict  # noqa: E402
from flipcheck.verify import verify_all  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-min", type=int, default=2)
    ap.add_argument("--n-max", type=int, default=5)
    ap.add_argument("--stdout", action="store_true")
    args = ap.parse_args()

    t0 = time.time()
    reports = verify_all(args.n_min, args.n_max)
    codes = set()
    for r in reports:
        s = r.summary()
        status = "OK" if not (s["fail"] or s["indeterminate"]) else "PROBLEM"
        print(
            f"n={r.n} {r.parity:<4} (N={r.n_amb:>2}): {s['pass']:>4} pass, "
            f"{s['fail']} fail, {s['indeterminate']} indeterminate, "
            f"{s['skipped']} skipped  {status}"
        )
        codes.add(_exit_code(r))
    payload = {"runs": [report_to_dict(r) for r in reports]}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.stdout:
        print(text)
    else:
        out = pathlib.Path(__file__).resolve().parent / "verification_reports.json"
        out.write_text(text)
        print(f"wrote {out}")
    print(f"elapsed {time.time() - t0:.1f}s")
    # Any failing run exits 1, as in the CLI; else any indeterminate run 2.
    return 1 if 1 in codes else max(codes, default=0)


if __name__ == "__main__":
    sys.exit(main())
