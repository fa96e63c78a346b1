"""One benchmark pass of flipcheck in a fresh interpreter, so every cache is cold.

Run by run.py as ``python3 -I perfbench/worker.py JOB``, where JOB is a JSON
object: ``t0`` (the parent's time.monotonic() just before the spawn),
``mode`` ("setup" or "pass"), and for a pass ``lemma`` ("all" or "van"),
``units`` ([n, parity] pairs, in run order), ``jobs``, ``trace`` and
``spans`` (where a traced pass writes its spans).  Prints one JSON line.
"""

import json
import os
import sys
import time


def _terms(obj) -> tuple:
    """Sorted (a, b, dh, shift, mult) terms of an object on E."""
    return tuple(sorted((w.a, w.b, dh, s, m) for w, dh, s, m in obj))


def _twist_normal(key: tuple) -> tuple:
    """Twist both objects of an Ext key by the O(cH+dh) that puts the least
    term of the first nonzero one at weight (a, 0), h-twist 0."""
    n_amb, a, b = key
    ref = (a or b or ((0, 0, 0, 0, 0),))[0]
    c, d = ref[1], ref[2]

    def move(ts: tuple) -> tuple:
        return tuple((wa - c, wb - c, dh - d, s, m) for wa, wb, dh, s, m in ts)

    return n_amb, move(a), move(b)


# (module, function, span name, note on (args, result)).  All calls in the
# package are positional, which the notes rely on.
TARGETS = [
    ("flipcheck.weights", "cg_tensor", "weights.cg_tensor", None),
    ("flipcheck.bwb", "cohomology", "bwb.cohomology", lambda a, r: (a[1], a[0].a, a[0].b)),
    ("flipcheck.bwb", "gr_ext", "bwb.gr_ext", None),
    ("flipcheck.flagx", "e_ext", "flagx.e_ext", lambda a, r: (a[2], _terms(a[0]), _terms(a[1]))),
    ("flipcheck.flagx", "e_euler", "flagx.e_euler", None),
    ("flipcheck.flagx", "x_ext", "flagx.x_ext", lambda a, r: r.kind),
    ("flipcheck.flagx", "k_class", "flagx.k_class", lambda a, r: (a[1], _terms(a[0]))),
    ("flipcheck.flagx", "euler_basis", "flagx.euler_basis", lambda a, r: a[0]),
    ("flipcheck.collections", "load_script", "collections.load_script", None),
    ("flipcheck.collections", "replay", "collections.replay", lambda a, r: r.moves_applied),
    ("flipcheck.collections", "check_semiorthogonal", "collections.check_semiorthogonal", lambda a, r: len(r)),
    ("flipcheck.verify", "verify_van", "verify.van", lambda a, r: len(r.claims)),
    ("flipcheck.verify", "verify_mut", "verify.mut", lambda a, r: len(r.claims)),
    ("flipcheck.verify", "verify_inductive_steps", "verify.steps", lambda a, r: len(r.claims)),
    ("flipcheck.verify", "verify_sod_odd", "verify.sod", lambda a, r: len(r.claims)),
    ("flipcheck.verify", "verify_chessboard", "verify.chessboard", lambda a, r: len(r.claims)),
    ("flipcheck.verify", "verify_even", "verify.even", lambda a, r: len(r.claims)),
    ("flipcheck.cli", "emit_report", "cli.emit_report", lambda a, r: len(r.encode())),
]


def layer_metrics(tracer) -> dict:
    """Per-layer counts and seconds of one traced pass, by metric name."""
    t = tracer.totals()
    notes = tracer.notes
    m = {}

    def span(name: str, *fields: str) -> None:
        for f in fields:
            m[f"{name}.{f}"] = t[name][f] if name in t else 0

    span("weights.cg_tensor", "calls", "self_s")
    span("bwb.cohomology", "calls", "self_s")
    m["bwb.cohomology.keys"] = len(set(notes.get("bwb.cohomology", ())))
    span("bwb.gr_ext", "calls")
    span("flagx.e_ext", "calls", "self_s")
    e_keys = set(notes.get("flagx.e_ext", ()))
    m["flagx.e_ext.keys"] = len(e_keys)
    m["flagx.e_ext.twist_keys"] = len({_twist_normal(k) for k in e_keys})
    span("flagx.x_ext", "calls", "self_s")
    kinds = notes.get("flagx.x_ext", [])
    for kind in ("zero", "exact", "bounded"):
        m[f"flagx.x_ext.{kind}"] = kinds.count(kind)
    span("flagx.k_class", "calls", "self_s")
    m["flagx.k_class.keys"] = len(set(notes.get("flagx.k_class", ())))
    span("flagx.euler_basis", "calls")
    builds, pairings = tracer.children("flagx.euler_basis", "flagx.e_euler")
    m["flagx.euler_basis.builds"] = builds
    m["flagx.euler_basis.pairings"] = pairings
    basis_ns = set(notes.get("flagx.euler_basis", ()))
    m["verify.euler_basis.builds_per_N"] = builds / len(basis_ns) if basis_ns else 0
    span("collections.load_script", "s")
    span("collections.replay", "calls", "self_s")
    m["collections.replay.moves"] = sum(notes.get("collections.replay", ()))
    span("collections.check_semiorthogonal", "calls", "self_s")
    m["collections.check_semiorthogonal.pairs"] = sum(notes.get("collections.check_semiorthogonal", ()))
    for suite in ("van", "mut", "steps", "sod", "chessboard", "even"):
        name = f"verify.{suite}"
        span(name, "s")
        m[f"{name}.claims"] = sum(notes.get(name, ()))
    span("cli.emit_report", "s")
    m["cli.emit_report.bytes"] = sum(notes.get("cli.emit_report", ()))
    return m


def main() -> None:
    job = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    sys.path[:0] = [src, here]
    import flipcheck  # noqa: F401
    from flipcheck import cli, verify

    setup_s = time.monotonic() - job["t0"]
    if not flipcheck.__file__.startswith(src + os.sep):
        raise SystemExit(f"imported flipcheck from {flipcheck.__file__}, not {src}")
    if job["mode"] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    import hashlib
    import resource

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        for module, attr, name, note in TARGETS:
            if not tracer.patch("flipcheck", module, attr, name, note):
                print(f"worker: {module}.{attr} not found; its layer metrics read 0", file=sys.stderr)

    units = {}
    t = time.perf_counter()
    c = time.process_time()
    for n, parity in job["units"]:
        key = f"{job['lemma']}/n{n}/{parity}"
        try:
            if job["lemma"] == "van":
                report = verify.Report(n, parity)
                for part in range(1, 7):
                    report.extend(verify.verify_suite(n, parity, f"van.{part}"))
            else:
                report = verify.verify_suite(n, parity, "all", job["jobs"])
            text = cli.emit_report(report, "json")
        except Exception as exc:  # the parent counts this unit's claims as failed
            units[key] = {"error": f"{type(exc).__name__}: {exc}"}
            continue
        s = report.summary()
        units[key] = {
            "sha256": hashlib.sha256(text.encode()).hexdigest(),
            "claims": len(report.claims),
            "failed": s["fail"] + s["indeterminate"],
        }
    wall_s = time.perf_counter() - t
    cpu_s = time.process_time() - c
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "units": units,
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        os.makedirs(os.path.dirname(job["spans"]), exist_ok=True)
        tracer.write(job["spans"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
