"""Acceptance suite: one test per criterion, one printed line per criterion.

Everything is exact (integer) arithmetic; the stated time budgets are
asserted as hard caps.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time

import pytest

from flipcheck.bwb import cohomology
from flipcheck.cli import emit_report
from flipcheck.flagx import EObject, e_ext
from flipcheck.verify import (
    verify_chessboard,
    verify_even,
    verify_inductive_steps,
    verify_mut,
    verify_sod_odd,
    verify_suite,
    verify_van,
)
from flipcheck.weights import Weight

from reference import dim_at, gr_ext, omega_e


def _report_line(name: str, ok: bool, elapsed: float, budget: float) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[acceptance] {mark} {name} ({elapsed:.2f}s / budget {budget:.0f}s)")


class _Timer:
    def __init__(self, name: str, budget: float):
        self.name, self.budget = name, budget

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        _report_line(self.name, exc_type is None, elapsed, self.budget)
        assert elapsed < self.budget, f"{self.name} exceeded {self.budget}s"
        return False


_SUITE_CACHE: dict = {}


def _suites(n: int, parity: str) -> dict:
    key = (n, parity)
    if key not in _SUITE_CACHE:
        reports = {f"van.{p}": verify_van(p, n, parity) for p in range(1, 7)}
        reports["mut"] = verify_mut(n, parity)
        if parity == "odd":
            reports["steps"] = verify_inductive_steps(n)
            reports["sod"] = verify_sod_odd(n)
            reports["chessboard"] = verify_chessboard(n)
        else:
            reports["even"] = verify_even(n)
        _SUITE_CACHE[key] = reports
    return _SUITE_CACHE[key]


def test_criterion_01_bwb_special_case():
    """BWB vanishing bands, exhaustive over N = 3..12, |a|,|b| <= 2N."""
    with _Timer("1: BWB special case", 5.0):
        for n_amb in range(3, 13):
            for a in range(-2 * n_amb, 2 * n_amb + 1):
                for b in range(-2 * n_amb, a + 1):
                    if 1 - n_amb <= a <= -2 or 2 - n_amb <= b <= -1:
                        assert not cohomology(Weight(a, b), n_amb), (n_amb, a, b)


def test_criterion_02_serre_duality():
    """Degreewise Serre duality on Gr and on E, 500 random pairs per N."""
    with _Timer("2: Serre duality on Gr and E", 10.0):
        rng = random.Random(20260810)
        for n_amb in range(3, 9):
            top_gr = 2 * (n_amb - 2)
            top_e = 2 * n_amb - 3
            c, dh = omega_e(n_amb)
            for _ in range(500):
                a1, b1 = sorted(rng.sample(range(-n_amb, n_amb + 1), 2))
                a2, b2 = sorted(rng.sample(range(-n_amb, n_amb + 1), 2))
                wa, wb = Weight(b1, a1), Weight(b2, a2)
                lhs = gr_ext(EObject.of_weight(wa), EObject.of_weight(wb), n_amb)
                rhs = gr_ext(
                    EObject.of_weight(wb),
                    EObject.of_weight(wa.twist(-n_amb)),
                    n_amb,
                )
                for deg in range(top_gr + 1):
                    assert dim_at(lhs, deg) == dim_at(rhs, top_gr - deg)
                da, db = rng.randint(-3, 3), rng.randint(-3, 3)
                ea, eb = EObject.of_weight(wa, da), EObject.of_weight(wb, db)
                lhs = e_ext(ea, eb, n_amb)
                rhs = e_ext(eb, ea.twisted(c, dh), n_amb)
                for deg in range(-6, top_e + 7):
                    assert dim_at(lhs, deg) == dim_at(rhs, top_e - deg)


def test_criterion_03_pushforward():
    """push_p2 against the direct Gr computation and the Serre-dual route."""
    with _Timer("3: pushforward trichotomy", 1.0):
        for n_amb in (5, 6, 7, 8):
            o = EObject.line()
            top = 2 * n_amb - 3
            c, dh = omega_e(n_amb)
            for d in range(-6, 7):
                lhs = e_ext(o, EObject.line(0, d), n_amb)
                if d >= 0:
                    assert lhs == gr_ext(
                        EObject.of_weight(Weight(0, 0)),
                        EObject.of_weight(Weight(d, 0)),
                        n_amb,
                    )
                elif d == -1:
                    assert not lhs
                else:
                    rhs = e_ext(
                        EObject.line(0, d), EObject.line(c, dh), n_amb
                    )
                    for deg in range(top + 1):
                        assert dim_at(lhs, deg) == dim_at(rhs, top - deg)


def test_criterion_04_mutation_rules():
    """Mutation rules (1)-(3): RHom = C[0], execution, K-class identity."""
    with _Timer("4: mutation rule table", 5.0):
        for n in range(2, 6):
            for parity in ("odd", "even"):
                s = _suites(n, parity)["mut"].summary()
                assert s["fail"] == 0 and s["indeterminate"] == 0, (n, parity)


def test_criterion_05_vanishing_lemmas():
    """Vanishing lemmas (1)-(6), exhaustive stated ranges, both parities."""
    with _Timer("5: vanishing lemma sweeps", 60.0):
        for n in range(2, 6):
            for parity in ("odd", "even"):
                for part in range(1, 7):
                    s = _suites(n, parity)[f"van.{part}"].summary()
                    assert s["fail"] == 0, (n, parity, part)
                    assert s["indeterminate"] == 0, (n, parity, part)


def test_criterion_06_inductive_steps_and_sod():
    """Odd steps 1-4 replay; final collections and count n(2n+1)."""
    with _Timer("6: inductive steps + odd SOD replay", 60.0):
        for n in range(2, 6):
            steps, sod = _suites(n, "odd")["steps"], _suites(n, "odd")["sod"]
            for r in (steps, sod):
                s = r.summary()
                assert s["fail"] == 0 and s["indeterminate"] == 0, (n, s)
            count = {c.id: c for c in sod.claims}["sod/count-final"]
            assert count.detail["count"] == n * (2 * n + 1)


def test_criterion_07_chessboard():
    """Staircase proposition, displaced pairs, region membership + swap."""
    with _Timer("7: chessboard suite", 30.0):
        for n in range(2, 6):
            r = _suites(n, "odd")["chessboard"]
            s = r.summary()
            assert s["fail"] == 0 and s["indeterminate"] == 0, (n, s)
            by = {c.id: c for c in r.claims}
            for k in range(n):
                assert by[f"chess/prop/k={k}"].detail["coefficients"] == [1] * (k + 1)
            swap = by["chess/region/assignment-audit"].detail
            assert swap["group1_in_region_ii"] and swap["group2_in_region_i"]


def test_criterion_08_even_case():
    """Even replay, count n(2n-1), N=4 Remark semiorthogonal + exceptional."""
    with _Timer("8: even case", 30.0):
        for n in range(2, 6):
            r = _suites(n, "even")["even"]
            s = r.summary()
            assert s["fail"] == 0 and s["indeterminate"] == 0, (n, s)
            by = {c.id: c for c in r.claims}
            assert by["even/count-final"].detail["count"] == n * (2 * n - 1)
        by = {c.id: c for c in _suites(2, "even")["even"].claims}
        assert by["even/remark/pairs"].status == "pass"
        assert by["even/exceptional"].status == "pass"


def test_criterion_09_soundness_guard():
    """No pass from a Bounded Ext; no KClassMismatch anywhere."""
    with _Timer("9: soundness guard", 30.0):
        for n in range(2, 6):
            for parity in ("odd", "even"):
                for report in _suites(n, parity).values():
                    for c in report.claims:
                        detail = str(c.detail)
                        if c.status == "pass" and c.detail:
                            assert "'kind': 'bounded'" not in detail or (
                                "audit" in c.id or "cone" in c.id
                            ), c.id
                        assert "KClassMismatch" not in detail, c.id


def test_criterion_10_determinism():
    """verify --lemma all output is byte-identical across --jobs 1 and 8."""
    with _Timer("10: determinism across jobs", 60.0):
        for parity in ("odd", "even"):
            a = emit_report(verify_suite(3, parity, "all", jobs=1), "json")
            b = emit_report(verify_suite(3, parity, "all", jobs=8), "json")
            assert a == b


if __name__ == "__main__":
    pytest.main([__file__, "-v", "-s"])
