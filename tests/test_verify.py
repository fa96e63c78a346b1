import hashlib
import json
import pathlib
import re

from hypothesis import given, strategies as st

import pytest

import flipcheck.verify as fv
from flipcheck.bwb import ZERO, GradedDims
from flipcheck.cli import emit_report
from flipcheck.collections import run_script
from flipcheck.collections.scriptgen import _O, _S
from flipcheck.flagx import EObject, ExtResult, e_ext, gr_collection, x_ext, x_vanishes
from flipcheck.verify import (
    FAIL,
    INDET,
    PASS,
    SKIP,
    Claim,
    Report,
    verify_all,
    verify_chessboard,
    verify_even,
    verify_inductive_steps,
    verify_mut,
    verify_sod_odd,
    verify_suite,
    verify_van,
)
from flipcheck.weights import Weight

from reference import dim_at, gr_ext, shifted


# sha256 of emit_report(verify_suite(n, parity, "all"), "json"), pinned by
# scripts/check_reports.py for n = 2..16; the test suite checks n = 2..12.
REPORT_PINS = json.loads(
    (pathlib.Path(__file__).parents[1] / "scripts" / "report_digests.json").read_text()
)


def claims_by_id(report):
    return {c.id: c for c in report.claims}


@pytest.mark.parametrize("n,parity", [(n, p) for n in range(2, 13) for p in ("odd", "even")])
def test_report_bytes_pinned(n, parity):
    # The report is the product: a refactor must not move one byte of it.
    text = emit_report(verify_suite(n, parity, "all"), "json")
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == REPORT_PINS[f"n{n}/{parity}"], (
        f"report (n={n}, {parity}) changed; new sha256 {digest}"
    )


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_claim_ids_unique(parity):
    r = verify_suite(3, parity, "all")
    ids = [c.id for c in r.claims]
    assert len(ids) == len(set(ids))


def test_van_part1_boundary_case_included():
    r = verify_van(1, 3, "odd")
    c = claims_by_id(r)["van.1/k=0/a=2"]  # the k=0, a=n-1 LR boundary case
    assert c.status == "pass"


def test_van_part5_vacuous_for_n2():
    r = verify_van(5, 2, "odd")
    assert [c.status for c in r.claims] == ["pass"]
    assert "vacuous" in (r.claims[0].detail or {}).get("note", "")


def test_van_part5_even_skipped():
    r = verify_van(5, 3, "even")
    assert [c.status for c in r.claims] == ["skipped-opaque"]


def test_van_part6_audit_documents_counterexamples():
    r = verify_van(6, 2, "odd")
    audit = claims_by_id(r)["van.6/reading-audit"]
    assert audit.status == "pass"
    assert audit.detail["literal_tail_nonvanishing"] > 0
    assert audit.detail["sample"] is not None


def test_van_part4_audit_refutes_capital_H():
    r = verify_van(4, 3, "odd")
    audit = claims_by_id(r)["van.4/reading-audit"]
    assert audit.detail["display_reading_nonvanishing"] > 0


_BOUNDED_A = EObject.of_weight(Weight(-3, -6), -2)
_BOUNDED_B = EObject.of_weight(Weight(-2, -6), 0)


def test_bounded_pairs_are_indeterminate_not_pass():
    # A bounded pair has nonzero front and back, so the predicate says "not
    # zero" and _vanish reports the x_ext outcome as indeterminate.  Ext on X
    # is invariant under a common twist, so every twist of a pair is bounded.
    pairs = [
        (_BOUNDED_A, _BOUNDED_B),
        (_BOUNDED_A + shifted(_BOUNDED_B, 1), _BOUNDED_B + _BOUNDED_A.twisted(0, 1)),
    ]
    for a, b in pairs:
        for c, d in [(0, 0), (2, -1), (-3, 4)]:
            a1, b1 = a.twisted(c, d), b.twisted(c, d)
            assert x_ext(a1, b1, 4).kind == "bounded"
            assert not x_vanishes(a1, b1, 4)
            status, detail = fv._vanish(a1, b1, 4)
            assert status == INDET and detail["kind"] == "bounded"


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_report_bytes_same_with_x_ext_zero_test(monkeypatch, n, parity):
    # The predicate is a fast path for x_ext(...).is_zero(): routing every
    # van question through the slow test must not move one byte.
    base = emit_report(verify_suite(n, parity, "all"), "json")

    def slow(a, b, n_amb):
        return x_ext(a, b, n_amb).is_zero()

    monkeypatch.setattr(fv, "x_vanishes", slow)
    assert emit_report(verify_suite(n, parity, "all"), "json") == base


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_van_runs_x_ext_only_for_recorded_pairs(monkeypatch, n, parity):
    # Claims and audits count with x_vanishes; x_ext runs once for each Ext
    # outcome a report records: a non-passing claim, an audit's bad entry,
    # an audit's sample.
    calls = []

    def counting(a, b, n_amb):
        calls.append((a, b))
        return x_ext(a, b, n_amb)

    monkeypatch.setattr(fv, "x_ext", counting)
    for part in range(1, 7):
        del calls[:]
        recorded = 0
        for c in verify_van(part, n, parity).claims:
            detail = c.detail or {}
            recorded += c.status in (FAIL, INDET) and "kind" in detail
            for key in ("k0_nonvanishing_instances", "extension_nonvanishing"):
                recorded += len(detail.get(key, ()))
            recorded += detail.get("sample") is not None
        assert len(calls) == recorded, (part, n, parity)


def test_mut_rule3_reading_audit():
    r = verify_mut(3)
    audit = claims_by_id(r)["mut.3/reading-audit"]
    assert audit.detail["display_mutator_rhom_zero"] == 2
    assert audit.detail["display_mutator_rhom_nonzero"] == 0


def test_mut_euler_display_reading_fails_at_k2():
    r = verify_mut(3)
    audit = claims_by_id(r)["mut.euler/k-classes"]
    assert audit.status == "pass"
    assert audit.detail["display_kh_reading_by_k"] == [True, False]


def test_steps_final_layouts():
    for n in (2, 3):
        r = verify_inductive_steps(n)
        s = r.summary()
        assert s["fail"] == 0 and s["indeterminate"] == 0


def test_sod_readings():
    r = verify_sod_odd(2)
    by = claims_by_id(r)
    assert by["sod/reading-Olh"].status == "pass"
    assert not by["sod/reading-Olh"].detail["O(lH)_run_present"]
    assert by["sod/reading-Sdual"].status == "pass"
    assert by["sod/count-final"].detail["count"] == 10


def test_replay_count_sees_the_first_counted_move(monkeypatch):
    # A serre that drops the first twisted entry changes the count on the
    # first counted move of the odd full script (its only serre) and on a
    # later one of the even script; both count claims must see it.
    import flipcheck.collections.engine as engine

    serre, text = engine._MOVES["serre"]

    def lossy(col, i, j):
        old, new = serre(col, i, j)
        del col.entries[0]
        return old, new[1:]

    monkeypatch.setitem(engine._MOVES, "serre", (lossy, text))
    for n in (2, 3):
        for prefix, report in (("sod", verify_sod_odd(n)), ("even", verify_even(n))):
            by = claims_by_id(report)
            assert by[f"{prefix}/replay"].status == PASS, (prefix, n)
            count = by[f"{prefix}/count"]
            assert count.status == FAIL, (prefix, n)
            assert count.detail == by[f"{prefix}/count-final"].detail, (prefix, n)


def test_chessboard_region_assignment_swap():
    r = verify_chessboard(3)
    audit = claims_by_id(r)["chess/region/assignment-audit"]
    assert audit.status == "pass"
    assert audit.detail["group1_in_region_ii"]
    assert audit.detail["group2_in_region_i"]
    assert not audit.detail["group1_in_region_i"]
    assert not audit.detail["group2_in_region_ii"]


def test_chessboard_cones_have_blocking_rhoms():
    r = verify_chessboard(3)
    cones = [c for c in r.claims if c.id.startswith("chess/cone/")]
    assert len(cones) == 1  # n - 2
    assert cones[0].status == "pass"
    assert cones[0].detail["nonvanishing_rhoms"]


def test_chessboard_proposition_coefficients():
    r = verify_chessboard(4)
    for k in range(4):
        c = claims_by_id(r)[f"chess/prop/k={k}"]
        assert c.status == "pass"
        assert c.detail["coefficients"] == [1] * (k + 1)


def test_chessboard_proposition_fails_with_solver_message(monkeypatch):
    # The Proposition uses the engine's Gram solver; a Gram that is not
    # unitriangular is a FAIL carrying the solver's message.
    import flipcheck.verify as verify
    from flipcheck.collections import KClassMismatch

    def broken(block, target, n_amb, chi):
        raise KClassMismatch("Gram not unitriangular at (1,0)")

    monkeypatch.setattr(verify, "gram_solve", broken)
    c = claims_by_id(verify_chessboard(2))["chess/prop/k=1"]
    assert c.status == "fail"
    assert c.detail == {"error": "KClassMismatch: Gram not unitriangular at (1,0)"}


def test_even_collection_reading_audit():
    r = verify_even(3)
    audit = claims_by_id(r)["even/gr-collection/reading-audit"]
    assert audit.status == "pass"
    assert audit.detail["corrected_count"] == 15
    assert audit.detail["display_count"] != audit.detail["rank_K0"]


def _all_pairs_reading(n, ext):
    """Exceptionality of gr_collection(2n) checked on every pair in order,
    as the formal-sum route did it; the shape table must reproduce it."""
    n_amb = 2 * n
    coll = gr_collection(n_amb)
    for j in range(len(coll)):
        if ext(coll[j], coll[j], n_amb).dims != ((0, 1),):
            return FAIL, {"not_exceptional_at": j}
        for i in range(j):
            if ext(coll[j], coll[i], n_amb):
                return FAIL, {"backward_ext_at": [j, i]}
    return PASS, None


def _corrupt_shape(ext, n, j0, i0, value):
    """``ext``, but ``value`` on every pair (A(cH), B(cH)) for the pair
    (A, B) = (coll[j0], coll[i0]) of gr_collection(2n)."""
    coll = gr_collection(2 * n)
    base = coll[j0].single_term()[0].b

    def corrupted(a, b, n_amb):
        c = a.single_term()[0].b - base
        if a == coll[j0].twisted(c) and b == coll[i0].twisted(c):
            return value
        return ext(a, b, n_amb)

    return corrupted


@pytest.mark.parametrize("n", range(2, 9))
def test_gr_reading_shape_table_matches_all_pairs(n):
    # Even N = 4..16: one e_ext per shape (i, j, l-k) gives the outcome of
    # the formal-sum gr_ext route on all pairs.
    status, detail = fv._gr_collection_reading(n)
    assert (status, None) == _all_pairs_reading(n, gr_ext) == (PASS, None)
    assert detail["corrected_count"] == n * (2 * n - 1)


@pytest.mark.parametrize(
    "n, pairs",
    [
        (2, [(3, 1)]),
        (3, [(5, 2)]),
        (3, [(14, 0)]),
        (3, [(9, 8)]),
        (4, [(20, 3)]),
        (4, [(7, 7)]),
        (3, [(12, 12)]),
        (3, [(2, 2), (2, 1)]),
    ],
)
def test_injected_ext_on_a_shape_matches_all_pairs(monkeypatch, n, pairs):
    # A nonzero backward Ext (or a wrong diagonal) on a shape must give the
    # FAIL detail of the full route: the first failing pair in the all-pairs
    # order, with the diagonal of a row read before its backward pairs.
    # The audit asks e_ext of the diagonal and e_vanishes of the backward
    # pairs, so each shape is injected into both.
    full, table, vanishes = gr_ext, e_ext, fv.e_vanishes
    for j0, i0 in pairs:
        value = ZERO if i0 == j0 else GradedDims(((1, 1),))
        full = _corrupt_shape(full, n, j0, i0, value)
        table = _corrupt_shape(table, n, j0, i0, value)
        vanishes = _corrupt_shape(vanishes, n, j0, i0, not value)
    expected = _all_pairs_reading(n, full)
    monkeypatch.setattr(fv, "e_ext", table)
    monkeypatch.setattr(fv, "e_vanishes", vanishes)
    got = fv._gr_collection_reading(n)
    assert got[0] == FAIL
    assert got == expected


@pytest.mark.parametrize("n", [2, 3, 5])
def test_gr_reading_asks_each_shape_once(monkeypatch, n):
    # One e_ext per p for the diagonal; one e_vanishes per distinct
    # backward shape (p, q, l-k), never per pair.
    coll = gr_collection(2 * n)
    shapes = fv._shapes(coll)
    backward = {
        (p, q, l - k)
        for j, (p, k, _) in enumerate(shapes)
        for q, l, _ in shapes[:j]
    }
    calls = {"e_ext": [], "e_vanishes": []}

    def logged(orig, log):
        def run(a, b, n_amb):
            log.append((a, b))
            return orig(a, b, n_amb)

        return run

    for name, log in calls.items():
        monkeypatch.setattr(fv, name, logged(getattr(fv, name), log))
    assert fv._gr_collection_reading(n)[0] == PASS
    assert len(calls["e_ext"]) == n
    asked = [(a.single_term(), b.single_term()) for a, b in calls["e_vanishes"]]
    got = {(wa.a - wa.b, wb.a - wb.b, wb.b - wa.b) for (wa, _), (wb, _) in asked}
    assert len(asked) == len(got) and got == backward


def _per_object_exceptional(pures, n_amb):
    """_exceptional by the obvious route: x_ext(T, T) for every object."""
    for t in pures:
        r = fv.x_ext(t, t, n_amb)
        if r.kind != "exact" or r.total().dims != ((0, 1),):
            return FAIL, {"object": fv.notation(t), "ext": fv._ext_detail(r)}
    return PASS, {"objects": len(pures)}


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_exceptional_matches_the_per_object_route(monkeypatch, parity):
    # A wrong Ext(T, T) on every object of one class (p, multiplicity),
    # whichever twist and shift: the same first failing object and detail.
    n_amb = 9 if parity == "odd" else 8
    final = run_script(parity, "full", 4).final.pure_objects()
    assert fv._exceptional(final, n_amb) == (PASS, {"objects": len(final)})
    # A shifted twist of a class that passes, a two-term object and a
    # multiple, which fail.
    two_term, multiple = _S(1) + _O(0, 1), EObject(((Weight(2, 1), 3, 0, 2),))
    final += [shifted(_S(1, 2, 3), 1), two_term, multiple]
    assert fv._exceptional(final, n_amb) == _per_object_exceptional(final, n_amb)

    def key(t):
        ((w, _, _, m),) = t.terms
        return w.a - w.b, m

    classes = list(dict.fromkeys(key(t) for t in final if len(t.terms) == 1))
    assert len(classes) >= 4
    for cls in classes + [two_term]:
        def faulty(a, b, n_amb, cls=cls):
            if isinstance(cls, EObject):
                hit = a == cls
            else:
                hit = len(a.terms) == 1 and key(a) == cls
            return _NONZERO if hit else x_ext(a, b, n_amb)

        monkeypatch.setattr(fv, "x_ext", faulty)
        got = fv._exceptional(final, n_amb)
        assert got[0] == FAIL
        assert got == _per_object_exceptional(final, n_amb)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_report_bytes_same_with_e_ext_zero_test(monkeypatch, n):
    # e_vanishes is a fast path for not e_ext(...): routing the even audit's
    # questions through the slow test must not move one byte.
    base = emit_report(verify_suite(n, "even", "all"), "json")
    monkeypatch.setattr(fv, "e_vanishes", lambda a, b, n_amb: not e_ext(a, b, n_amb))
    assert emit_report(verify_suite(n, "even", "all"), "json") == base


def test_even_n2_remark():
    r = verify_even(2)
    by = claims_by_id(r)
    assert by["even/remark/pairs"].status == "pass"
    assert by["even/exceptional"].status == "pass"
    assert by["even/count-final"].detail["count"] == 6


_NONZERO = ExtResult("exact", GradedDims(), GradedDims(((0, 1),)))
_BOUNDED = ExtResult("bounded", GradedDims(((0, 1),)), GradedDims(((1, 1),)))


def _pair_only_the_final_check_asks(parity, n):
    """(j, e_j, i, e_i), j > i: the first pure pair of the full replay's final
    collection whose ordered objects no move of the replay asked about."""
    import flipcheck.collections.engine as fe

    asked = set()

    def recording(orig):
        def run(a, b, n_amb):
            asked.add((a, b))
            return orig(a, b, n_amb)

        return run

    with pytest.MonkeyPatch.context() as m:
        for name in ("x_vanishes", "x_ext"):
            m.setattr(fe, name, recording(getattr(fe, name)))
        final = run_script(parity, "full", n).final
    pure = [(j, e) for j, e in enumerate(final.entries) if e.kind == "pure"]
    return next(
        (j, ej, i, ei)
        for t, (j, ej) in enumerate(pure)
        for i, ei in pure[:t]
        if (ej.obj, ei.obj) not in asked
    )


def _final_claims_with(monkeypatch, verifier, parity, n, result):
    """The claims of ``verifier(n)`` with Hom(e_j, e_i) = ``result`` on the
    pair of ``_pair_only_the_final_check_asks``, injected into the engine's
    x_vanishes and x_ext alike, and that pair."""
    import flipcheck.collections.engine as fe

    j, ej, i, ei = _pair_only_the_final_check_asks(parity, n)
    vanishes, ext = fe.x_vanishes, fe.x_ext

    def hit(a, b):
        return (a, b) == (ej.obj, ei.obj)

    with monkeypatch.context() as m:
        m.setattr(fe, "x_vanishes", lambda a, b, n_amb: not hit(a, b) and vanishes(a, b, n_amb))
        m.setattr(fe, "x_ext", lambda a, b, n_amb: result if hit(a, b) else ext(a, b, n_amb))
        by = claims_by_id(verifier(n))
    return by, (j, ej, i, ei)


def test_sod_semiorthogonal_can_fail(monkeypatch):
    claim = claims_by_id(verify_sod_odd(3))["sod/semiorthogonal"]
    assert (claim.status, claim.detail) == (PASS, None)

    by, (j, ej, i, ei) = _final_claims_with(monkeypatch, verify_sod_odd, "odd", 3, _NONZERO)
    assert by["sod/replay"].status == PASS
    claim = by["sod/semiorthogonal"]
    assert claim.status == FAIL
    assert claim.detail == {
        "failing_pairs": [
            {"later": j, "earlier": i, "detail": f"Hom({ej.label()}, {ei.label()}) = ((0, 1),)"}
        ]
    }

    by, _ = _final_claims_with(monkeypatch, verify_sod_odd, "odd", 3, _BOUNDED)
    assert by["sod/replay"].status == PASS
    claim = by["sod/semiorthogonal"]
    assert (claim.status, claim.detail) == (INDET, {"indeterminate_pairs": 1})


def test_even_remark_pairs_can_fail(monkeypatch):
    # P = 6 pure objects: P(P-1)/2 = 15 pairs.
    claim = claims_by_id(verify_even(2))["even/remark/pairs"]
    assert (claim.status, claim.detail) == (PASS, {"pure_pairs": 15})

    by, (j, ej, i, ei) = _final_claims_with(monkeypatch, verify_even, "even", 2, _NONZERO)
    assert by["even/replay"].status == PASS
    claim = by["even/remark/pairs"]
    assert claim.status == FAIL
    assert claim.detail == {"failing_pairs": [f"Hom({ej.label()}, {ei.label()}) = ((0, 1),)"]}

    by, _ = _final_claims_with(monkeypatch, verify_even, "even", 2, _BOUNDED)
    assert by["even/replay"].status == PASS
    claim = by["even/remark/pairs"]
    assert (claim.status, claim.detail) == (INDET, {"indeterminate_pairs": 1})


def test_replay_claims_fail_and_vacuous_paths(monkeypatch):
    from flipcheck.collections.scriptgen import GENERATORS

    def refused(sim, n):
        sim.note("c")
        sim.do("exchange", 0)

    monkeypatch.setitem(GENERATORS, ("odd", "step1"), refused)
    by = claims_by_id(verify_inductive_steps(2))
    assert by["steps.step1/replay"].status == "fail"
    assert by["steps.step1/replay"].detail == {
        "failed_move": "exchange 0",
        "error": "exchange: index 0 out of range",
    }
    assert "steps.step1/final" not in by

    monkeypatch.setitem(GENERATORS, ("odd", "step1"), lambda sim, n: sim.note("c"))
    by = claims_by_id(verify_inductive_steps(2))
    assert by["steps.step1/replay"].status == "pass"
    assert by["steps.step1/replay"].detail == {"moves": 0}
    assert by["steps.step1/final"].detail == {
        "note": "vacuous for this n (empty blocks elided)"
    }


def test_a_generator_script_error_is_a_failed_replay(monkeypatch, capsys):
    # A lookup that finds no copy raises ScriptError inside the generator,
    # not inside a move: the replay claim is FAIL with that error, the other
    # claims keep their bytes, and the CLI prints the report and exits 1.
    from flipcheck.cli import run
    from flipcheck.collections.scriptgen import GENERATORS

    base = verify_suite(3, "odd", "steps")

    def lost(sim, n):
        sim.expand(fv.Block("A"))
        sim.move_right(_S(n, 5), 1)

    monkeypatch.setitem(GENERATORS, ("odd", "step3b"), lost)
    res = run_script("odd", "step3b", 3)
    assert (res.ok, res.moves_applied, res.failed_line) == (False, 1, None)
    assert res.error == "object lookup found 0 copies"
    report = verify_suite(3, "odd", "steps")
    by = claims_by_id(report)
    assert by["steps.step3b/replay"].status == FAIL
    assert by["steps.step3b/replay"].detail == {
        "failed_move": None,
        "error": "object lookup found 0 copies",
    }
    assert "steps.step3b/final" not in by
    kept = [c for c in base.claims if not c.id.startswith("steps.step3b/")]
    assert [c for c in report.claims if c.id != "steps.step3b/replay"] == kept
    assert run(["verify", "--n", "3", "--lemma", "steps", "--format", "json"]) == 1
    out = capsys.readouterr()
    assert json.loads(out.out)["summary"]["fail"] == 1 and out.err == ""


@pytest.mark.parametrize("parity", ["odd", "even"])
def test_each_script_is_applied_once(monkeypatch, parity):
    # The generator certifies every move as it applies it, so no move is
    # applied a second time by a separate replay.
    import flipcheck.collections.engine as engine

    calls = 0

    def counting(move):
        def call(col, *args):
            nonlocal calls
            calls += 1
            return move(col, *args)

        return call

    for verb, (move, text) in list(engine._MOVES.items()):
        monkeypatch.setitem(engine._MOVES, verb, (counting(move), text))
    report = verify_suite(4, parity, "all")
    moves = sum(c.detail["moves"] for c in report.claims if c.id.endswith("/replay"))
    assert moves > 0
    assert calls == moves


def test_parity_guards():
    assert [c.status for c in verify_suite(2, "even", "sod").claims] == [
        "skipped-opaque"
    ]
    assert [c.status for c in verify_suite(2, "odd", "even").claims] == [
        "skipped-opaque"
    ]
    skips = {
        ("steps", "even"): "inductive steps 1-4 are the odd-case replay",
        ("sod", "even"): "the Gr-side SOD replay is the odd case",
        ("chessboard", "even"): "the chessboard suite is the odd case",
        ("even", "odd"): "the even-case replay needs --parity even",
    }
    for (item, parity), why in skips.items():
        assert verify_suite(3, parity, item).claims == [
            Claim(f"{item}/parity", why, "skipped-opaque")
        ]
    # A whole suite skips nothing for parity but van.5, an odd-only part.
    for parity, expected in (("odd", []), ("even", ["van.5/parity"])):
        claims = verify_suite(3, parity, "all").claims
        assert [c.id for c in claims if c.id.endswith("/parity")] == expected


def test_lemmas_are_the_suites_then_all():
    assert fv.LEMMAS == (
        "van.1", "van.2", "van.3", "van.4", "van.5", "van.6",
        "mut", "steps", "sod", "chessboard", "even", "all",
    )


_VERIFIERS = (
    "verify_van",
    "verify_mut",
    "verify_inductive_steps",
    "verify_sod_odd",
    "verify_chessboard",
    "verify_even",
)


@pytest.mark.parametrize(
    "parity, expected",
    [
        ("odd", {"verify_van": 6, "verify_mut": 1, "verify_inductive_steps": 1,
                 "verify_sod_odd": 1, "verify_chessboard": 1, "verify_even": 0}),
        ("even", {"verify_van": 6, "verify_mut": 1, "verify_inductive_steps": 0,
                  "verify_sod_odd": 0, "verify_chessboard": 0, "verify_even": 1}),
    ],
)
def test_suite_looks_verifiers_up_when_called(monkeypatch, parity, expected):
    # The benchmark tracer and the tests rebind the module's verify_*
    # attributes; a suite must reach the rebound function.
    calls = dict.fromkeys(_VERIFIERS, 0)

    def counting(name):
        orig = getattr(fv, name)

        def call(*args):
            calls[name] += 1
            return orig(*args)

        return call

    for name in _VERIFIERS:
        monkeypatch.setattr(fv, name, counting(name))
    verify_suite(3, parity, "all")
    assert calls == expected


@pytest.mark.parametrize("jobs", [1, 4])
def test_jobs_do_not_change_output(jobs):
    base = emit_report(verify_suite(2, "odd", "van.6", jobs=1), "json")
    assert emit_report(verify_suite(2, "odd", "van.6", jobs=jobs), "json") == base


def test_statuses_independent_of_les_orientation(monkeypatch):
    # Exact-vs-Bounded only matters when both LES contributions are nonzero
    # in interacting degrees.  Reclassifying every such case as Bounded
    # (conservative under either orientation of the connecting maps) must
    # not change any claim status: the suites' verdicts never rest on it.
    import flipcheck.flagx as fx
    import flipcheck.verify as fv
    import flipcheck.collections.engine as fe
    from flipcheck.flagx import ExtResult

    orig = fx.x_ext

    def conservative(a, b, n_amb):
        r = orig(a, b, n_amb)
        if r.kind == "exact" and r.front and r.back:
            fwd = all(dim_at(r.back, k + 1) == 0 for k, _ in r.front.dims)
            bwd = all(dim_at(r.front, k + 1) == 0 for k, _ in r.back.dims)
            if not (fwd and bwd):
                return ExtResult("bounded", r.front, r.back)
        return r

    baseline = {
        (n, p): verify_suite(n, p, "all").summary()
        for n in (2, 3)
        for p in ("odd", "even")
    }
    monkeypatch.setattr(fx, "x_ext", conservative)
    monkeypatch.setattr(fv, "x_ext", conservative)
    monkeypatch.setattr(fe, "x_ext", conservative)
    for (n, p), expected in baseline.items():
        assert verify_suite(n, p, "all").summary() == expected


def test_claims_run_on_the_calling_thread(monkeypatch):
    # jobs is accepted but ignored: every Ext query of a suite, x_vanishes
    # and x_ext alike, runs on the caller's thread, even with several CPUs,
    # and the report is unchanged.
    import os
    import threading

    import flipcheck.collections.engine as fe
    import flipcheck.flagx as fx
    import flipcheck.verify as fv

    base = emit_report(verify_suite(3, "odd", "all", jobs=1), "json")
    threads = set()

    def recording(orig):
        def run(a, b, n_amb):
            threads.add(threading.get_ident())
            return orig(a, b, n_amb)

        return run

    ext, vanishes = recording(fx.x_ext), recording(fx.x_vanishes)
    for module in (fx, fv, fe):
        monkeypatch.setattr(module, "x_ext", ext)
    for module in (fx, fv, fe):
        monkeypatch.setattr(module, "x_vanishes", vanishes)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    got = emit_report(verify_suite(3, "odd", "all", jobs=4), "json")
    assert threads == {threading.get_ident()}
    assert got == base


@pytest.mark.parametrize("n", [1, 0, -1])
def test_out_of_range_n_is_rejected(n):
    # An n below 2 is a usage error, never a refuted or passed claim: every
    # verifier raises before it checks anything.
    parities = ("odd", "even")
    calls = [(verify_van, (part, n, p)) for part in range(1, 7) for p in parities]
    calls += [(verify_mut, (n, p)) for p in parities]
    calls += [(verify_suite, (n, p, lemma)) for p in parities for lemma in fv.LEMMAS]
    calls += [
        (verify_inductive_steps, (n,)),
        (verify_sod_odd, (n,)),
        (verify_chessboard, (n,)),
        (verify_even, (n,)),
        (verify_all, (n, n)),
    ]
    for fn, args in calls:
        with pytest.raises(ValueError, match=r"^need n >= 2$"):
            fn(*args)


def test_summary_rejects_unknown_status():
    # The error names the first claim with an unknown status, also when
    # valid claims and other unknown statuses follow it.
    claims = [Claim("x", "a claim", "pass"), Claim("y", "a claim", "passed")]
    claims += [Claim("z", "a claim", "oops"), Claim("w", "a claim", FAIL)]
    with pytest.raises(ValueError, match=r"^claim y: unknown status 'passed'$"):
        Report(2, "odd", claims).summary()


_SUMMARY_NAMES = {PASS: "pass", FAIL: "fail", INDET: "indeterminate", SKIP: "skipped"}


@given(st.lists(st.sampled_from([*_SUMMARY_NAMES, "passed", ""]), max_size=30))
def test_summary_matches_the_per_claim_loop(statuses):
    # The one-pass count gives what a plain per-claim loop gives, keys in
    # report order; a status outside the four is a ValueError naming the
    # first claim that has one.
    r = Report(2, "odd", [Claim(f"c{i}", "s", status) for i, status in enumerate(statuses)])
    expected = dict.fromkeys(_SUMMARY_NAMES.values(), 0)
    for c in r.claims:
        if c.status not in _SUMMARY_NAMES:
            with pytest.raises(ValueError, match=f"^claim {c.id}: unknown status "):
                r.summary()
            return
        expected[_SUMMARY_NAMES[c.status]] += 1
    got = r.summary()
    assert got == expected and list(got) == list(expected)


def test_claim_is_immutable_and_detail_defaults_to_none():
    c = Claim("a", "s", "pass")
    assert c.detail is None
    for name in ("id", "statement", "status", "detail"):
        with pytest.raises(AttributeError):
            setattr(c, name, "x")
    assert Claim("a", "s", "pass", {"k": 1}).detail == {"k": 1}


def test_report_extend_rejects_another_n_or_parity():
    r = Report(3, "odd", [Claim("x", "a claim", "pass")])
    for other in (Report(4, "odd"), Report(3, "even"), Report(2, "even")):
        with pytest.raises(ValueError, match="cannot extend"):
            r.extend(other)
    assert [c.id for c in r.claims] == ["x"]
    r.extend(Report(3, "odd", [Claim("y", "a claim", "fail")]))
    assert [c.id for c in r.claims] == ["x", "y"]


# The first instance of each primary van family, at an odd n where the
# family has one: (claim id, n, its pair (A, B) for RHom_X(A, B) = 0, the
# claims of other families that state the same pair).  Every van.4a pair is
# also a van.2b pair, and van.2b/k=0/b=0 is van.1/k=n-1/a=0.
_FIRST_VAN_INSTANCES = [
    ("van.1/k=0/a=0", 3, (_S(2, 1, -1), _S(0)), ()),
    ("van.2a/k=0/a=2", 3, (_S(2, 0, -1), _O(0, 0)), ()),
    ("van.2b/k=0/b=0", 2, (_S(0, 1, -1), _O(0, 0)), ("van.1/k=1/a=0",)),
    ("van.3/k=1/l=2/line", 4, (_O(0, 2), _S(0, 1, -1)), ()),
    ("van.3/k=1/l=2/schur", 4, (_S(2, 1, -2), _S(0, 1, -1)), ()),
    ("van.4a/k=1/l=2", 3, (_S(0, 1, -1), _O(0, 2)), ("van.2b/k=2/b=0",)),
    ("van.4b/k=1/a=0", 3, (_S(2, 1, -1), _S(0, 1)), ()),
    ("van.4c/k=1/b=0", 4, (_O(3, -4), _S(0, 1)), ()),
    ("van.5/l=0/k=1/a=3/b=0", 4, (_S(3, 4), _S(0, 5)), ()),
    ("van.6i/a=3/b=1", 3, (_O(0, 3), _O(1, 0)), ()),
    ("van.6ii/a=-6/b=-2", 2, (_O(0, -6), _O(-2, 0)), ()),
]


def _family(cid):
    return "/".join(part for part in cid.split("/") if "=" not in part)


@pytest.mark.parametrize("fault", ["raises", "does-not-vanish"])
@pytest.mark.parametrize(
    "cid, n, pair, twins",
    _FIRST_VAN_INSTANCES,
    ids=[_family(case[0]) for case in _FIRST_VAN_INSTANCES],
)
def test_raising_check_fails_in_place(monkeypatch, cid, n, pair, twins, fault):
    # A check that raises something other than an EngineError is recorded as
    # FAIL naming the error, in its declared position; a pair that does not
    # vanish is FAIL or INDET with its x_ext detail.  No claim of another
    # pair moves.
    base = verify_suite(n, "odd", "all").claims
    [i] = [i for i, c in enumerate(base) if c.id == cid]
    assert i == min(j for j, c in enumerate(base) if _family(c.id) == _family(cid))
    moved = sorted(j for j, c in enumerate(base) if c.id == cid or c.id in twins)
    assert len(moved) == 1 + len(twins)
    orig = fv.x_vanishes
    n_amb = 2 * n + 1

    def faulty(a, b, m):
        if (a, b, m) == (*pair, n_amb):
            if fault == "raises":
                raise TypeError("injected fault")
            return False
        return orig(a, b, m)

    # x_vanishes is the first call _vanish makes; a vanishing pair never
    # reaches x_ext.
    monkeypatch.setattr(fv, "x_vanishes", faulty)
    got = verify_suite(n, "odd", "all").claims
    if fault == "raises":
        expected = (FAIL, {"error": "TypeError: injected fault"})
    else:
        r = x_ext(*pair, n_amb)
        expected = (INDET if r.kind == "bounded" else FAIL, fv._ext_detail(r))
    assert len(got) == len(base)
    for j, (g, c) in enumerate(zip(got, base)):
        assert g == (Claim(c.id, c.statement, *expected) if j in moved else c)


def _van_by_check(part, n, parity):
    """``verify_van``'s claims by the plain route: every instance through
    ``_check`` and ``_vanish``, then the vacuous claim or the audit."""
    report, odd = Report(n, parity), parity == "odd"
    n_amb = report.n_amb
    span = range(-3 * n, 3 * n + 1) if part == 6 else ()
    lh = {a: _O(0, a) for a in span}
    lH = {b: _O(b, 0) for b in span}
    for cid, statement, a, b in fv._van_instances(part, n, odd, n_amb, lh, lH):
        fv._check(report, cid, statement, fv._vanish, a, b, n_amb)
    if not report.claims and part in (3, 4, 5):
        why = "empty range 0 <= l < k <= r" if part == 5 else "no instances for this n"
        note = {"note": "vacuous (empty index range)"}
        report.claims.append(Claim(f"van.{part}/vacuous", why, PASS, note))
    elif part in fv._VAN_AUDITS and (part > 2 or not odd):
        fv._check(report, *fv._VAN_AUDITS[part][:2], fv._van_audit, part, n, n_amb, lh, lH)
    return report.claims


def _van_matches_check_route(n, parity):
    for part in range(1, 7):
        got = verify_van(part, n, parity).claims
        if part == 5 and parity == "even":
            assert [(c.id, c.status) for c in got] == [("van.5/parity", SKIP)]
        else:
            assert got == _van_by_check(part, n, parity), (part, n, parity)
        assert all(type(c) is Claim for c in got)


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", range(2, 9))
def test_van_fast_path_matches_check_route(n, parity):
    # A vanishing instance is appended as PASS without _check; the claims
    # must be those of routing every instance through _check and _vanish.
    _van_matches_check_route(n, parity)


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_van_fast_path_matches_check_route_with_faults(monkeypatch, n, parity):
    # The same with a predicate that raises on some pairs and denies others:
    # the fast path and the _check route record the same FAIL / INDET
    # details and errors, in the same places.  Ints and tuples of ints hash
    # the same in every run, so the faulty pairs are fixed.
    orig = fv.x_vanishes

    def faulty(a, b, m):
        h = hash((a, b, m)) % 11
        if h == 0:
            raise TypeError("injected fault")
        return h != 1 and orig(a, b, m)

    monkeypatch.setattr(fv, "x_vanishes", faulty)
    _van_matches_check_route(n, parity)
    statuses = {c.status for part in range(1, 7) for c in verify_van(part, n, parity).claims}
    assert FAIL in statuses


def test_mut_guard_fails_without_the_range_test(monkeypatch):
    # mut.guard/k=0 names the 1 <= k range test of _match_rule.  With that
    # test bypassed, (O, O) at k = 0 reaches the rules and the claim is FAIL.
    import inspect

    from flipcheck.collections import engine

    test = "if 1 <= k <= n_amb // 2 - 1:"
    source = inspect.getsource(engine._match_rule)
    assert source.count(test) == 1
    namespace = dict(vars(engine))
    exec(source.replace(test, "if True:"), namespace)
    base = verify_mut(3).claims
    [i] = [i for i, c in enumerate(base) if c.id == "mut.guard/k=0"]
    assert base[i].status == PASS
    monkeypatch.setattr(engine, "_match_rule", namespace["_match_rule"])
    got = verify_mut(3).claims
    assert got[i].status == FAIL
    assert got[:i] + got[i + 1 :] == base[:i] + base[i + 1 :]


@pytest.mark.parametrize("part", [0, 7, "x", ""])
def test_van_part_outside_1_to_6_is_a_value_error(part):
    with pytest.raises(ValueError, match=r"^part must be 1\.\.6$"):
        verify_van(part, 3)
    # The suite route names a lemma: van.0, van.7, van.x, and the empty name.
    lemma = f"van.{part}" if part != "" else ""
    with pytest.raises(ValueError, match=rf"^unknown lemma '{re.escape(lemma)}'$"):
        verify_suite(3, "odd", lemma)
