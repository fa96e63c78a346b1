#!/usr/bin/env python3
"""Check that the JSON report bytes of every full suite are unchanged.

    python3 scripts/check_reports.py            # check the working tree
    python3 scripts/check_reports.py --write    # re-pin report_digests.json

For n = 2..16 and both parities, computes the sha256 of
``emit_report(verify_suite(n, parity, "all"), "json")`` with flipcheck
imported from this checkout's ``src`` and compares it with the committed
``report_digests.json`` next to this script.  The first mismatch is printed
and the exit code is 1; a full pass exits 0.  It takes about 2.5 s (2.1 to
2.7 s over four runs on a 2-vCPU VM, Python 3.11.7); the test suite checks
the pins for n = 2..12 only.  Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
DIGESTS = HERE / "report_digests.json"
N_RANGE = range(2, 17)
PARITIES = ("odd", "even")


def digest(n: int, parity: str) -> str:
    from flipcheck.cli import emit_report
    from flipcheck.verify import verify_suite

    text = emit_report(verify_suite(n, parity, "all"), "json")
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--write", action="store_true", help="pin the current tree's digests")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    import flipcheck

    if not flipcheck.__file__.startswith(str(SRC)):
        print(f"imported flipcheck from {flipcheck.__file__}, not {SRC}", file=sys.stderr)
        return 1
    pinned = {} if args.write else json.loads(DIGESTS.read_text())
    t0 = time.perf_counter()
    for n in N_RANGE:
        for parity in PARITIES:
            key = f"n{n}/{parity}"
            got = digest(n, parity)
            if args.write:
                pinned[key] = got
            elif got != pinned.get(key):
                print(f"{key}: sha256 {got} != pinned {pinned.get(key)}")
                return 1
    if args.write:
        DIGESTS.write_text(json.dumps(pinned, indent=2) + "\n")
        print(f"wrote {len(pinned)} digests to {DIGESTS.name}")
    else:
        print(f"all {len(pinned)} report digests match")
    print(f"elapsed {time.perf_counter() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
