import importlib.util
import json
import pathlib
import sys

from hypothesis import HealthCheck, given, settings, strategies as st

import pytest

from flipcheck.cli import (
    ParseError,
    _report_json,
    emit_report,
    parse_object,
    render_chessboard,
    report_to_dict,
    run,
)
from flipcheck.flagx import EObject
from flipcheck.verify import Claim, Report
from flipcheck.weights import Weight

from reference import gr_ext, parse_report, print_object, sum_cohomology


def test_parse_folding_rule():
    # S{2}Uv(1H-1h) lowers to Sigma^{3,1}Uv (x) O(-h)
    assert parse_object("S{2}Uv(1H-1h)") == EObject.of([(Weight(3, 1), -1, 0, 1)])


def test_parse_line_bundle_h():
    assert parse_object("O(-1h)") == EObject.line(0, -1)


def test_parse_weight_violation():
    with pytest.raises(ParseError):
        parse_object("Sigma{0,1}Uv")


def test_parse_su_and_sums_and_shifts():
    obj = parse_object("S{2}U(1H)[1]+O")
    assert obj == EObject.of([(Weight(1, -1), 0, 1, 1), (Weight(0, 0), 0, 0, 1)])


def test_parse_bare_coefficient_twists():
    assert parse_object("O(H-h)") == parse_object("O(1H-1h)")


def test_parse_error_positions():
    with pytest.raises(ParseError):
        parse_object("O(2x)")
    with pytest.raises(ParseError):
        parse_object("O O")


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
            st.integers(-4, 4),
            st.integers(-2, 2),
        ),
        min_size=0,
        max_size=3,
    )
)
def test_print_parse_roundtrip(raw):
    obj = EObject.of(
        (Weight(max(ab), min(ab)), dh, s, 1) for ab, dh, s in raw
    )
    if obj:
        assert parse_object(print_object(obj)) == obj


def test_cli_ext_on_e(capsys):
    code = run(["ext", "--N", "5", "--space", "e", "S{1}Uv(1H-1h)", "S{2}Uv"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Ext^0 = 1"


def test_cli_ext_on_gr(capsys):
    code = run(["ext", "--N", "5", "--space", "gr", "S{1}Uv(1H)", "S{2}Uv+S{1}Uv(1H)"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Ext^0 = 1"
    assert run(["ext", "--N", "5", "--space", "gr", "O", "S{1}Uv"]) == 0
    assert capsys.readouterr().out.strip() == "Ext^0 = 5"


@pytest.mark.parametrize(
    "argv",
    [
        ["cohom", "--N", "5", "O(1h)"],
        ["ext", "--N", "5", "--space", "gr", "O", "O(1h)"],
        ["ext", "--N", "5", "--space", "gr", "S{1}Uv(-1h)+O", "O"],
    ],
)
def test_cli_gr_rejects_h_twists(argv, capsys):
    assert run(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "h-twists" in captured.err


def test_cli_cohom_band(capsys):
    code = run(["cohom", "--N", "4", "Sigma{-2,-2}Uv"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"


def test_cli_parse_error_exit_code(capsys):
    assert run(["cohom", "--N", "4", "Sigma{0,1}Uv"]) == 3


def test_cli_usage_error_exit_code():
    assert run(["cohom"]) == 3


def test_cli_large_n_cap():
    assert run(["cohom", "--N", "20", "O"]) == 3
    assert run(["--allow-large", "cohom", "--N", "20", "O"]) == 0


def test_cli_cohom_huge_n_is_fast_in_process(capsys, monkeypatch):
    # The closed form takes binomials, not (N-1)!(N-2)!, so N = 100000 is
    # quick.  Runs in this interpreter and may start no other process.
    import os
    import subprocess
    import time

    def refuse(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)
    t0 = time.perf_counter()
    assert run(["cohom", "--N", "100000", "--allow-large", "O"]) == 0
    assert time.perf_counter() - t0 < 2.0
    assert capsys.readouterr().out.strip() == "H^0 = 1"


@pytest.mark.parametrize(
    "argv",
    [
        ["ext", "--N", "5", "--space", "e", "S{3000000}Uv", "S{3000000}Uv"],
        ["ext", "--N", "5", "--space", "x", "S{3000000}Uv", "S{3000000}Uv(1h)"],
        ["ext", "--N", "5", "--space", "gr", "S{3000000}Uv", "S{3000000}Uv"],
    ],
    ids=["e", "x", "gr"],
)
def test_cli_huge_clebsch_gordan_count_is_refused_at_once(argv, capsys, monkeypatch):
    # The term count is estimated from the weights before anything is
    # computed; over the budget the query needs --allow-large.  Runs in this
    # interpreter and may start no other process.  Every Ext route of the
    # CLI runs the one kernel ``flagx._degrees``, which e_ext and x_ext look
    # up as a module global, so a refused query that computed anything on
    # any route fails here.
    import os
    import subprocess
    import time

    from flipcheck import flagx

    def refuse(*args, **kwargs):
        raise AssertionError("started a process or computed")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)
    monkeypatch.setattr(flagx, "_degrees", refuse)
    t0 = time.perf_counter()
    assert run(argv) == 3
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert "Clebsch-Gordan terms" in line and "--allow-large" in line


def test_cli_cohom_counts_one_term_per_summand(capsys, monkeypatch):
    # H*(Gr, F) = Ext(O, F) splits one term per summand of F, so only a sum
    # with more summands than the budget is refused.
    from flipcheck import cli

    monkeypatch.setattr(cli, "CG_BUDGET", 2)
    assert run(["cohom", "--N", "5", "O+O(1H)"]) == 0
    capsys.readouterr()
    assert run(["cohom", "--N", "5", "O+O(1H)+O(2H)"]) == 3
    assert "Clebsch-Gordan" in capsys.readouterr().err
    assert run(["--allow-large", "cohom", "--N", "5", "O+O(1H)+O(2H)"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["cohom", "--N", "5", "S{2}Uv(1H)"],
        ["cohom", "--N", "4", "Sigma{-2,-2}Uv"],
        ["ext", "--N", "5", "--space", "e", "S{1}Uv(1H-1h)", "S{2}Uv"],
        ["ext", "--N", "5", "--space", "x", "O(2h)", "S{1}Uv(1H-1h)"],
        ["ext", "--N", "5", "--space", "gr", "S{1}Uv(1H)", "S{2}Uv+S{1}Uv(1H)"],
        ["ext", "--N", "5", "--space", "e", "S{100}Uv", "S{100}Uv(100h)"],
    ],
)
def test_cli_budget_admits_everyday_queries(argv):
    # The README examples, and a pair that splits into 10,201 terms, stay
    # under the budget.
    assert run(argv) in (0, 2)


def test_cli_chessboard_huge_n_is_refused_at_once(capsys, monkeypatch):
    # n > 7 needs --allow-large, as for verify; the board is never built.
    import os

    from flipcheck import cli
    import subprocess
    import threading
    import time

    def refuse(*args, **kwargs):
        raise AssertionError("started a process or thread")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(cli, "chessboard_cells", refuse)
    t0 = time.perf_counter()
    assert run(["chessboard", "--n", "1000000000"]) == 3
    assert time.perf_counter() - t0 < 1.0
    out = capsys.readouterr()
    assert out.out == "" and out.err == "n > 7 needs --allow-large\n"


@pytest.mark.parametrize("jobs", ["2", "1", "0", "-1", "-100"])
def test_cli_verify_rejects_jobs(jobs, capsys):
    # Claims run in order on one thread; --jobs is an unknown option.
    assert run(["verify", "--n", "2", "--lemma", "mut", "--jobs", jobs]) == 3
    assert run(["--jobs", jobs, "verify", "--n", "2", "--lemma", "mut"]) == 3
    assert capsys.readouterr().out == ""


def test_cli_verify_json_exit_zero(capsys):
    code = run(["--format", "json", "verify", "--n", "2", "--parity", "odd", "--lemma", "mut"])
    out = capsys.readouterr().out
    assert code == 0
    data = json.loads(out)
    assert data["run"] == {"N": 5, "parity": "odd"}
    assert data["summary"]["fail"] == 0


def test_full_verification_script_exits_1_on_any_failure(capsys, monkeypatch):
    # a failing run followed by an indeterminate one: failure wins, as in the CLI
    path = pathlib.Path(__file__).parents[1] / "scripts" / "run_full_verification.py"
    spec = importlib.util.spec_from_file_location("run_full_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    failing = Report(2, "odd", [Claim("x", "x", "fail")])
    indeterminate = Report(2, "even", [Claim("y", "y", "indeterminate")])
    monkeypatch.setattr(script, "verify_all", lambda lo, hi: [failing, indeterminate])
    monkeypatch.setattr(sys, "argv", ["run_full_verification.py", "--stdout"])
    assert script.main() == 1
    monkeypatch.setattr(script, "verify_all", lambda lo, hi: [indeterminate])
    assert script.main() == 2
    capsys.readouterr()


def test_cli_global_flags_after_subcommand(capsys):
    # the documented call shape puts --format after the subcommand
    code = run(["verify", "--n", "2", "--parity", "odd", "--lemma", "mut", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["run"]["parity"] == "odd"
    assert run(["cohom", "--N", "20", "O", "--allow-large"]) == 0


def test_cli_verify_even_lemma(capsys):
    code = run(["verify", "--n", "2", "--parity", "even", "--lemma", "even"])
    assert code == 0


def test_report_json_roundtrip():
    r = Report(3, "odd")
    r.claims.append(Claim("a/b", "statement", "pass", {"k": [1, 2]}))
    r.claims.append(Claim("c", "other", "fail"))
    back = parse_report(emit_report(r, "json"))
    assert report_to_dict(back) == report_to_dict(r)


_JSON_LEAVES = st.none() | st.booleans() | st.integers() | st.floats() | st.text()
_JSON = st.recursive(
    _JSON_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=8,
)
_CLAIMS = st.lists(
    st.builds(
        Claim,
        st.text(),
        st.text(),
        st.sampled_from(["pass", "fail", "indeterminate", "skipped-opaque"]),
        st.none() | st.dictionaries(st.text(max_size=6), _JSON, max_size=4),
    ),
    max_size=4,
)


@given(_CLAIMS, st.integers(2, 9), st.sampled_from(["odd", "even"]))
def test_report_json_matches_indented_dumps(claims, n, parity):
    # The claim-by-claim emitter must give the bytes of the one-call dump,
    # also for details with nested containers and strings with newlines,
    # quotes and non-ASCII characters.
    r = Report(n, parity, list(claims))
    expected = json.dumps(report_to_dict(r), indent=2, sort_keys=True)
    assert emit_report(r, "json") == expected


def test_report_json_with_and_without_details():
    # Claim is a named tuple; both emitters read it by field name, with a
    # detail left out of the entry when it is None.
    plain = [Claim("a", "s", "pass"), Claim("b", "t", "skipped-opaque")]
    detailed = [Claim("c", "u", "fail", {"ext": [[0, 1]], "note": "x"})]
    for claims in (plain, detailed, plain + detailed):
        r = Report(3, "odd", claims)
        expected = json.dumps(report_to_dict(r), indent=2, sort_keys=True)
        assert _report_json(r) == expected
    entries = report_to_dict(Report(3, "odd", plain + detailed))["claims"]
    assert ["detail" in e for e in entries] == [False, False, True]


def test_report_json_rejects_unknown_status():
    r = Report(2, "odd", [Claim("a", "s", "passed")])
    with pytest.raises(ValueError, match="passed"):
        emit_report(r, "json")


def test_empty_report_schema():
    data = report_to_dict(Report(2, "odd"))
    assert data["claims"] == []
    assert data["summary"] == {
        "pass": 0,
        "fail": 0,
        "indeterminate": 0,
        "skipped": 0,
    }


def test_chessboard_render_staircase_upper_right():
    art = render_chessboard(4, "ascii")
    rows = [l for l in art.splitlines() if "|" in l]
    assert rows[0].rstrip().endswith("S S S S S")  # y = 2n-2 top row
    assert "R" in rows[0] and "R" in rows[1]
    data = json.loads(render_chessboard(4, "json"))
    kinds = {(c["x"], c["y"]): c["kind"] for c in data["cells"]}
    assert kinds[(3, 4)] == "stair"  # corner O(n-1, n)
    assert kinds[(-5, 5)] == "red"
    assert kinds[(0, 0)] == "plain"


def _chessboard_reference(n, fmt):
    # The staircase cells stated by hand: row y = n + j holds x = n-1-2j..n-1.
    stair = {(x, n + j) for j in range(n - 1) for x in range(n - 1 - 2 * j, n)}
    cells = []
    for y in range(2 * n - 1):
        for x in range(-1 - n, n):
            if (x, y) in stair:
                kind = "stair"
            elif x == -1 - n and n + 1 <= y <= 2 * n - 2:
                kind = "red"
            else:
                kind = "plain"
            cells.append({"x": x, "y": y, "kind": kind})
    if fmt == "json":
        return json.dumps({"n": n, "cells": cells}, indent=2, sort_keys=True)
    by_pos = {(c["x"], c["y"]): c["kind"] for c in cells}
    mark = {"plain": "o", "stair": "S", "red": "R"}
    lines = ["horizontal: O(h) twist, vertical: O(H) twist; S staircase, R mutated"]
    for y in range(2 * n - 2, -1, -1):
        row = " ".join(mark[by_pos[(x, y)]] for x in range(-1 - n, n))
        lines.append(f"{y:>3} | {row}")
    lines.append("      " + " ".join("-" for _ in range(-1 - n, n)))
    lines.append("      " + " ".join(f"{x}"[-1] for x in range(-1 - n, n)))
    lines.append(f"columns x = {-1-n}..{n-1}")
    return "\n".join(lines)


@pytest.mark.parametrize("fmt", ["ascii", "json"])
@pytest.mark.parametrize("n", range(2, 9))
def test_chessboard_render_matches_the_staircase_formula(n, fmt):
    assert render_chessboard(n, fmt) == _chessboard_reference(n, fmt)


def test_cli_chessboard_runs(capsys):
    assert run(["chessboard", "--n", "3", "--render", "ascii"]) == 0
    assert run(["chessboard", "--n", "3", "--render", "json"]) == 0


@pytest.fixture
def no_processes(monkeypatch):
    """Starting a process from the test fails it."""
    import os
    import subprocess

    def refuse(*args, **kwargs):
        raise AssertionError("started a process")

    monkeypatch.setattr(subprocess, "Popen", refuse)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(os, "posix_spawn", refuse)


_LONG = "9" * 5000  # past Python's 4,300-digit int-to-str limit


@pytest.mark.parametrize(
    "expr",
    [f"S{{{_LONG}}}Uv", f"Sigma{{{_LONG},0}}Uv", f"O({_LONG}H)", f"O[{_LONG}]"],
    ids=["symmetric-power", "weight", "twist", "shift"],
)
def test_cli_overlong_numeral_is_a_parse_error(expr, capsys, no_processes):
    with pytest.raises(ParseError, match="5000-character numeral"):
        parse_object(expr)
    assert run(["ext", "--N", "5", "--space", "e", expr, "O"]) == 3
    out = capsys.readouterr()
    assert out.out == ""
    [line] = out.err.splitlines()
    assert line.startswith("parse error: 5000-character numeral is too long")


def test_cli_prints_a_dimension_past_the_int_digit_limit(capsys, no_processes):
    # An 800-digit twist gives a dimension of about 4,800 digits at N = 5;
    # it is printed in full.
    from decimal import Decimal

    from flipcheck.flagx import e_ext

    twist = "9" * 800
    assert run(["ext", "--N", "5", "--space", "e", f"O({twist}H)", "O"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    head, _, digits = line.partition(" = ")
    [(deg, dim)] = e_ext(parse_object(f"O({twist}H)"), EObject.line(), 5).dims
    assert head == f"Ext^{deg}"
    assert len(digits) > 4300 and Decimal(digits) == Decimal(dim)


_NUMERALS = (
    st.integers(-(10**6), 10**6).map(str)
    | st.integers(4290, 4400).map(lambda k: "9" * k)
    | st.text("0123456789", min_size=1, max_size=12)
)
_PIECES = st.sampled_from(["O", "S{", "Sigma{", "}", "Uv", *"U,()[]Hh+- "])
_TERMS = st.tuples(
    st.just("O")
    | _NUMERALS.map("S{{{}}}Uv".format)
    | st.tuples(_NUMERALS, _NUMERALS).map(lambda ab: "Sigma{{{},{}}}Uv".format(*ab)),
    st.just("")
    | st.tuples(_NUMERALS, _NUMERALS).map(lambda cd: "({}H{}h)".format(*cd)),
    st.just("") | _NUMERALS.map("[{}]".format),
).map("".join)
_EXPRS = st.lists(_PIECES | _NUMERALS, max_size=12).map("".join) | st.lists(
    _TERMS, min_size=1, max_size=3
).map("+".join)


@given(_EXPRS, _EXPRS, st.integers(3, 7), st.sampled_from(["gr", "e", "x"]))
@settings(
    max_examples=120,
    deadline=2000,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_fuzz_parse_and_run_in_process(no_processes, a, b, n_amb, space):
    # Strings from the grammar's alphabet, with huge numerals: parsing gives
    # an object or a ParseError, and the CLI answers 0, 2 or 3 without a
    # traceback, within 2 s per example.  The slowest of 7,200 examples took
    # 0.48 s, and a query at the Clebsch-Gordan budget takes at most 0.8 s
    # (2-vCPU VM, Python 3.11).
    import contextlib
    import io

    for expr in (a, b):
        try:
            assert isinstance(parse_object(expr), EObject)
        except ParseError:
            pass
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        codes = [
            run(["ext", "--N", str(n_amb), "--space", space, a, b]),
            run(["cohom", "--N", str(n_amb), a]),
        ]
    assert set(codes) <= {0, 2, 3}, (codes, err.getvalue()[:300])
    assert "Traceback" not in err.getvalue()


# Objects on Gr(2, N), and objects on E with h-twists; the last two on E
# give a pair that is bounded on X at N = 4.
_GRID_GR = [
    "O",
    "S{2}U(1H)[1]",
    "Sigma{2,-1}Uv(-3H)",
    "O(-2H)+S{1}Uv(1H)[-1]",
    "S{3}Uv(-4H)+O[2]+O",
]
_GRID_E = [
    "O",
    "S{2}U(1H)[1]",
    "O(-2H)+S{1}Uv(1H)[-1]",
    "S{1}Uv(1H-1h)+O(2h)[1]",
    "Sigma{-3,-6}Uv(-2h)",
    "Sigma{-2,-6}Uv",
]


def _grid_argvs():
    for n_amb in map(str, range(3, 10)):
        for a in _GRID_GR + ["O(1h)"]:
            yield ["cohom", "--N", n_amb, a]
        pairs = {
            "gr": [(a, b) for a in _GRID_GR for b in _GRID_GR]
            + [("O", "O(1h)"), (_GRID_E[3], "O")],
            "e": [(a, b) for a in _GRID_E for b in _GRID_E],
        }
        pairs["x"] = pairs["e"]
        for space, ab in pairs.items():
            for a, b in ab:
                yield ["ext", "--N", n_amb, "--space", space, a, b]
    for space in ("gr", "e", "x"):  # over the Clebsch-Gordan budget
        yield ["ext", "--N", "5", "--space", space, "S{3000000}Uv", "S{3000000}Uv"]


def test_cli_output_bytes_match_pinned_grid(no_processes):
    # cohom and ext on Gr, E and X for N = 3..9, h-twisted refusals and
    # refusals over the budget included.  The sha256 covers every argv, exit
    # code, stdout and stderr; it was pinned when cohom and ext --space gr
    # still took the formal-sum route, which the Ext kernel must reproduce.
    import contextlib
    import hashlib
    import io

    h = hashlib.sha256()
    for argv in _grid_argvs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        h.update(f"{' '.join(argv)}\n{code}\n{out.getvalue()}\x00{err.getvalue()}\x00".encode())
    assert h.hexdigest() == "6faca2ceefec6aa86c0df0892a8d0b74e8ffe38b139622eeb0eb30b1917998a3"


_GR_TERMS = st.tuples(
    st.integers(-6, 6), st.integers(-6, 6), st.integers(-2, 2), st.integers(1, 3)
).map(lambda t: (Weight(max(t[0], t[1]), min(t[0], t[1])), 0, t[2], t[3]))
_GR_OBJECTS = st.lists(_GR_TERMS, min_size=1, max_size=3).map(EObject.of)


@given(st.integers(3, 11), _GR_OBJECTS, _GR_OBJECTS)
@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_gr_answers_match_formal_sum_reference(capsys, n_amb, a, b):
    # cohom and ext --space gr run the Ext kernel on E; the formal-sum route
    # of tests/reference.py (Hom object, then cohomology term by term) is the
    # independent check of their printed answers.
    from flipcheck.cli import _render

    pa, pb, n = print_object(a), print_object(b), str(n_amb)
    assert run(["ext", "--N", n, "--space", "gr", pa, pb]) == 0
    assert capsys.readouterr().out == _render(gr_ext(a, b, n_amb)) + "\n"
    assert run(["cohom", "--N", n, pb]) == 0
    assert capsys.readouterr().out == _render(sum_cohomology(b, n_amb), "H") + "\n"
