import pytest

from flipcheck.cli import emit_report
from flipcheck.verify import (
    Claim,
    Report,
    verify_chessboard,
    verify_even,
    verify_inductive_steps,
    verify_mut,
    verify_sod_odd,
    verify_suite,
    verify_van,
)


def claims_by_id(report):
    return {c.id: c for c in report.claims}


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

    def broken(block, target, n_amb):
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


def test_even_n2_remark():
    r = verify_even(2)
    by = claims_by_id(r)
    assert by["even/remark/pairs"].status == "pass"
    assert by["even/exceptional"].status == "pass"
    assert by["even/count-final"].detail["count"] == 6


def test_replay_claims_fail_and_vacuous_paths(monkeypatch):
    import flipcheck.verify as fv

    monkeypatch.setattr(fv, "load_script", lambda parity, step, n: ["# c", "exchange 0"])
    by = claims_by_id(verify_inductive_steps(2))
    assert by["steps.step1/replay"].status == "fail"
    assert by["steps.step1/replay"].detail == {
        "failed_move": "exchange 0",
        "error": "exchange: index 0 out of range",
    }
    assert "steps.step1/final" not in by

    monkeypatch.setattr(fv, "load_script", lambda parity, step, n: ["# c", "  "])
    by = claims_by_id(verify_inductive_steps(2))
    assert by["steps.step1/replay"].status == "pass"
    assert by["steps.step1/replay"].detail == {"moves": 0}
    assert by["steps.step1/final"].detail == {
        "note": "vacuous for this n (empty blocks elided)"
    }


def test_parity_guards():
    assert [c.status for c in verify_suite(2, "even", "sod").claims] == [
        "skipped-opaque"
    ]
    assert [c.status for c in verify_suite(2, "odd", "even").claims] == [
        "skipped-opaque"
    ]


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
            fwd = all(r.back[k + 1] == 0 for k, _ in r.front.dims)
            bwd = all(r.front[k + 1] == 0 for k, _ in r.back.dims)
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


def test_euler_basis_built_once_per_n(monkeypatch):
    # The K-theory basis is shared per-N state: a suite whose claims reach
    # k_class builds and validates it once, not once per claim.
    import flipcheck.flagx as fx

    builds = []
    gr_collection = fx.gr_collection

    def counted(n_amb):
        builds.append(n_amb)
        return gr_collection(n_amb)

    monkeypatch.setattr(fx, "_basis_cache", {})
    monkeypatch.setattr(fx, "_kclass_cache", {})
    monkeypatch.setattr(fx, "gr_collection", counted)
    verify_mut(3, "odd")
    assert builds == [7]


def test_basis_fault_propagates(monkeypatch):
    # A K-theory basis that fails validation is a program fault: it must
    # raise out of the suite, not be recorded as a FAIL per claim.
    import flipcheck.flagx as fx
    from flipcheck.flagx import BasisValidationError

    gr_collection = fx.gr_collection
    monkeypatch.setattr(fx, "_basis_cache", {})
    monkeypatch.setattr(fx, "_kclass_cache", {})
    monkeypatch.setattr(fx, "gr_collection", lambda n_amb: gr_collection(n_amb)[::-1])
    with pytest.raises(BasisValidationError):
        verify_mut(3)
    with pytest.raises(BasisValidationError):
        verify_chessboard(2)


def test_van_suites_do_not_build_euler_basis(monkeypatch):
    import flipcheck.flagx as fx

    monkeypatch.setattr(fx, "_basis_cache", {})
    for part in range(1, 7):
        verify_van(part, 3, "odd")
    assert fx._basis_cache == {}


def test_claims_run_on_the_calling_thread(monkeypatch):
    # jobs is accepted but ignored: every Ext query of a suite runs on the
    # caller's thread, even with several CPUs, and the report is unchanged.
    import os
    import threading

    import flipcheck.collections.engine as fe
    import flipcheck.flagx as fx
    import flipcheck.verify as fv

    base = emit_report(verify_suite(3, "odd", "all", jobs=1), "json")
    threads = set()
    orig = fx.x_ext

    def recording(a, b, n_amb):
        threads.add(threading.get_ident())
        return orig(a, b, n_amb)

    for module in (fx, fv, fe):
        monkeypatch.setattr(module, "x_ext", recording)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    got = emit_report(verify_suite(3, "odd", "all", jobs=4), "json")
    assert threads == {threading.get_ident()}
    assert got == base


def test_summary_rejects_unknown_status():
    r = Report(2, "odd", [Claim("x", "a claim", "pass"), Claim("y", "a claim", "passed")])
    with pytest.raises(ValueError, match="passed"):
        r.summary()
