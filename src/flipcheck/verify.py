"""Lemma- and theorem-level verifiers.

Each verifier enumerates the instances of one of the proof's claims for a
given n and parity (N = 2n+1 or 2n), checks every instance against the exact
Ext oracle, and aggregates the outcomes into a machine-readable report.

Statuses: ``pass`` / ``fail`` / ``indeterminate`` (a Bounded Ext outcome --
never silently promoted to pass) / ``skipped-opaque`` (the check touches an
opaque or cone entry, or is inapplicable for the parity).

Where the source displays conflict (rule (3)'s mutator twist, O(lh) vs O(lH)
runs, the even-case collection ranges, the region label swap), the verifier
runs all readings and records which one the oracle certifies in an ``audit``
claim rather than hardcoding a correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional

from .bwb import GradedDims
from .flagx import (
    EObject,
    ExtResult,
    _kclass_zero,
    _shapes,
    e_ext,
    gr_collection,
    x_ext,
    x_vanishes,
)
from .collections import (
    Block,
    Collection,
    EngineError,
    NoRuleMatch,
    count_objects,
    count_tracked,
    check_semiorthogonal,
    make_block,
    mutate_left,
    mutate_right,
    notation,
    run_script,
    serre_twist,
)
from .collections.engine import Entry, _tracked, gram_solve
from .collections.scriptgen import _O, _S, mutated_gr_sod

PASS = "pass"
FAIL = "fail"
INDET = "indeterminate"
SKIP = "skipped-opaque"
_SUMMARY_KEYS = {PASS: "pass", FAIL: "fail", INDET: "indeterminate", SKIP: "skipped"}


class Claim(NamedTuple):
    """One checked instance of a claim.  A named tuple, immutable as a frozen
    dataclass would be: the van sweep builds one per instance (53,224 for
    n = 2..16, both parities), and a tuple is quicker to build."""

    id: str
    statement: str
    status: str
    detail: Optional[dict] = None


@dataclass
class Report:
    n: int
    parity: str
    claims: list[Claim] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.parity not in ("odd", "even"):
            raise ValueError(f"parity must be 'odd' or 'even', not {self.parity!r}")

    @property
    def n_amb(self) -> int:
        return 2 * self.n + (1 if self.parity == "odd" else 0)

    def summary(self) -> dict[str, int]:
        """Claim counts by status; a status outside the four is a ValueError."""
        out = dict.fromkeys(_SUMMARY_KEYS.values(), 0)
        for c in self.claims:
            if c.status not in _SUMMARY_KEYS:
                raise ValueError(f"claim {c.id}: unknown status {c.status!r}")
            out[_SUMMARY_KEYS[c.status]] += 1
        return out

    def extend(self, other: "Report") -> None:
        """Append the claims of ``other``, a report of the same n and parity."""
        if (other.n, other.parity) != (self.n, self.parity):
            raise ValueError(
                f"cannot extend a report of n={self.n} {self.parity} with one "
                f"of n={other.n} {other.parity}"
            )
        self.claims.extend(other.claims)


Outcome = tuple[str, Optional[dict]]


def _check(
    report: Report, cid: str, statement: str, fn: Callable[..., Outcome], *args
) -> None:
    """Evaluate ``fn(*args)`` and append its claim to the report.

    A check that raises is recorded as a FAIL whose detail names the error.
    """
    try:
        status, detail = fn(*args)
    except Exception as exc:  # honest failure, never a crash
        status, detail = FAIL, {"error": f"{type(exc).__name__}: {exc}"}
    report.claims.append(Claim(cid, statement, status, detail))


def _dims(g: GradedDims) -> list[list[int]]:
    return [list(p) for p in g.dims]


def _ext_detail(r: ExtResult) -> dict:
    return {"kind": r.kind, "front": _dims(r.front), "back": _dims(r.back)}


def _vanish(a: EObject, b: EObject, n_amb: int) -> Outcome:
    """PASS iff Ext on X vanishes; ``x_ext`` runs only for the detail of a
    pair that does not."""
    if x_vanishes(a, b, n_amb):
        return PASS, None
    r = x_ext(a, b, n_amb)
    if r.kind == "bounded":
        return INDET, _ext_detail(r)
    return FAIL, _ext_detail(r)


def _exceptional(pures: list[EObject], n_amb: int) -> Outcome:
    """Every pure object T has Ext_X(T, T) = C[0]."""
    for t in pures:
        r = x_ext(t, t, n_amb)
        if r.kind != "exact" or r.total().dims != ((0, 1),):
            return FAIL, {"object": notation(t), "ext": _ext_detail(r)}
    return PASS, {"objects": len(pures)}


# --------------------------------------------------------------------- van


def _van_instances(
    part: int, n: int, odd: bool, n_amb: int, lh: dict, lH: dict
) -> Iterator[tuple[str, str, EObject, EObject]]:
    """Part ``part`` stated once: (id, statement, A, B) for each instance
    RHom_X(A, B) = 0 of its index ranges, in report order.  ``lh[a]`` and
    ``lH[b]`` are part (6)'s line bundles O(ah) and O(bH)."""
    if part == 1:
        for k in range(n) if odd else range(1, n):
            for a in range(n - k):
                yield (
                    f"van.1/k={k}/a={a}", f"RHom(S^{n-k-1}Uv(H-h), S^{a}Uv) = 0",
                    _S(n - k - 1, 1, -1), _S(a),
                )
    elif part == 2:
        # Even parity: line 2 targets the even-collection analogue
        # A^{n-k+1}(H-h) = <O..S^{k-2}Uv>(H-h); the stated b <= k range is an
        # odd-case statement and its b = k boundary genuinely fails at N = 4.
        for k in range(n):
            for a in range(k + 2, n):
                yield (
                    f"van.2a/k={k}/a={a}", f"RHom(S^{a}Uv(-h), O({k}h)) = 0",
                    _S(a, 0, -1), _O(0, k),
                )
            for b in range(k + 1 if odd else k - 1):
                yield (
                    f"van.2b/k={k}/b={b}", f"RHom(S^{b}Uv(H-h), O({k}h)) = 0",
                    _S(b, 1, -1), _O(0, k),
                )
    elif part == 3:
        for k in range(1, n - 1):
            for l in range(k + 1, n - 1):
                yield (
                    f"van.3/k={k}/l={l}/line", f"RHom(O({l}h), S^{k-1}Uv(H-h)) = 0",
                    _O(0, l), _S(k - 1, 1, -1),
                )
                yield (
                    f"van.3/k={k}/l={l}/schur",
                    f"RHom(S^{l}Uv(H-2h), S^{k-1}Uv(H-h)) = 0",
                    _S(l, 1, -2), _S(k - 1, 1, -1),
                )
    elif part == 4:
        for k in range(1, n - 1):
            for l in range(n - k, n):
                yield (
                    f"van.4a/k={k}/l={l}",
                    f"RHom(S^{n-2-k}Uv(H-h), O({l}h)) = 0 (certified reading)",
                    _S(n - 2 - k, 1, -1), _O(0, l),
                )
            for a in range(n - k - 1):
                yield (
                    f"van.4b/k={k}/a={a}", f"RHom(S^{n-k}Uv(H-h), S^{a}Uv(H)) = 0",
                    _S(n - k, 1, -1), _S(a, 1),
                )
            for b in range(n - k - 2):
                yield (
                    f"van.4c/k={k}/b={b}", f"RHom(O(({n-k})(H-h)-h), S^{b}Uv(H)) = 0",
                    _O(n - k, -(n - k + 1)), _S(b, 1),
                )
    elif part == 5:
        r_max = (n - 1) // 2
        for l in range(r_max + 1):
            for k in range(l + 1, r_max + 1):
                for a in range(n - 2 * l - 1, n):
                    for b in range(n - 2 * k - 1):
                        yield (
                            f"van.5/l={l}/k={k}/a={a}/b={b}",
                            f"RHom(S^{a}Uv(({n+l})H), S^{b}Uv(({n+k})H)) = 0",
                            _S(a, n + l), _S(b, n + k),
                        )
    else:
        box = 3 * n
        for b in range(1, box + 1):
            for a in range(b + 2, min(b + 2 * n - 3, box) + 1):
                yield (
                    f"van.6i/a={a}/b={b}", f"Ext(O({a}h), O({b}H)) = 0 [condition (i)]",
                    lh[a], lH[b],
                )
        for b in range(max(3 - n_amb, -box), 0):
            for a in range(-box, box + 1):
                yield (
                    f"van.6ii/a={a}/b={b}",
                    f"Ext(O({a}h), O({b}H)) = 0 [condition (ii), b >= 3-N]",
                    lh[a], lH[b],
                )


# The four audits: part -> (id, statement, note, labels, key, pairs).
# ``pairs(n, n_amb, lh, lH)`` yields (values, A, B) for each pair the audit
# reads, and ``labels`` names the values.  The scope audits (parts 1 and 2,
# even parity only) list every pair that does not vanish under ``key``; the
# reading audits (parts 4 and 6) count both kinds under ``key``_vanishing
# and ``key``_nonvanishing and sample the first pair that does not vanish.
_VAN_AUDITS = {
    1: (
        "van.1/scope-audit", "even-parity scope of part (1)",
        "k=0 excluded for even parity: S^{n-1}Uv(H-h) lies outside the even Gr "
        "collection and the even replay never moves it",
        ("a",), "k0_nonvanishing_instances",
        lambda n, n_amb, lh, lH: (((a,), _S(n - 1, 1, -1), _S(a)) for a in range(n)),
    ),
    2: (
        "van.2/scope-audit", "even-parity scope of part (2) line 2",
        "even-parity line 2 is scoped to the analogue range b <= k-2 (the "
        "A^{n-k+1}(H-h) run the even replay moves); the odd statement's b <= k "
        "extension is audited",
        ("k", "b"), "extension_nonvanishing",
        lambda n, n_amb, lh, lH: (
            ((k, b), _S(b, 1, -1), _O(0, k))
            for k in range(n) for b in (k - 1, k) if b >= 0
        ),
    ),
    4: (
        "van.4/reading-audit", "O(lH) vs O(lh) reading of line 1",
        "display reading O(lH) of part (4) line 1; the appendix proof computes "
        "the O(lh) version, which the primary claims certify",
        ("k", "l"), "display_reading",
        lambda n, n_amb, lh, lH: (
            ((k, l), _S(n - 2 - k, 1, -1), _O(l, 0))
            for k in range(1, n - 1) for l in range(n - k, n)
        ),
    ),
    6: (
        "van.6/reading-audit", "literal (ii) beyond b >= 3-N",
        "literal condition (ii) 'b < 0' without the b >= 3-N bound; every "
        "application in the proof satisfies the bound",
        ("a", "b"), "literal_tail",
        lambda n, n_amb, lh, lH: (
            ((a, b), lh[a], lH[b])
            for b in range(-3 * n, 3 - n_amb) for a in range(-3 * n, 3 * n + 1)
        ),
    ),
}


def _van_audit(part: int, n: int, n_amb: int, lh: dict, lH: dict) -> Outcome:
    """Part ``part``'s row of ``_VAN_AUDITS``.  Every pair is counted with
    ``x_vanishes``; ``x_ext`` runs, and a label dict is built, only for a
    pair the detail records."""
    _, _, note, labels, key, pairs = _VAN_AUDITS[part]
    scope = part < 3
    ok = total = 0
    recorded = []
    for total, (values, a, b) in enumerate(pairs(n, n_amb, lh, lH), 1):
        if x_vanishes(a, b, n_amb):
            ok += 1
        elif scope or not recorded:
            ext = _ext_detail(x_ext(a, b, n_amb))
            recorded.append(dict(zip(labels, values), ext=ext))
    if scope:
        return PASS, {"note": note, key: recorded}
    counts = {f"{key}_vanishing": ok, f"{key}_nonvanishing": total - ok}
    return PASS, {"note": note, **counts, "sample": recorded[0] if recorded else None}


def verify_van(part: int, n: int, parity: str = "odd") -> Report:
    """The six Hom-vanishing statements, instance by instance.

    Each part is stated once, as index ranges and pairs, by
    ``_van_instances``, and one loop checks every instance with ``_vanish``.
    A vacuous claim means an empty range: parts 3-5 record one when no
    instance exists for this n.  (Part 2 has no vacuous claim: its even
    ranges are empty at n = 2, where only its scope audit is recorded.)
    Part 5 is odd-only.  One helper, ``_van_audit``, runs the four audits of
    ``_VAN_AUDITS``.
    """
    report = Report(n, parity)
    if part not in range(1, 7):
        raise ValueError("part must be 1..6")
    odd = parity == "odd"
    if part == 5 and not odd:
        report.claims.append(
            Claim(
                "van.5/parity",
                "part (5) is odd-only; the even-case transpositions are "
                "certified inside the even replay",
                SKIP,
            )
        )
        return report
    n_amb = report.n_amb
    # Part (6)'s line bundles, each built once: lh[a] = O(ah), lH[b] = O(bH).
    span = range(-3 * n, 3 * n + 1) if part == 6 else ()
    lh = {a: _O(0, a) for a in span}
    lH = {b: _O(b, 0) for b in span}
    for cid, statement, a, b in _van_instances(part, n, odd, n_amb, lh, lH):
        _check(report, cid, statement, _vanish, a, b, n_amb)
    if not report.claims and part in (3, 4, 5):
        why = "empty range 0 <= l < k <= r" if part == 5 else "no instances for this n"
        note = {"note": "vacuous (empty index range)"}
        report.claims.append(Claim(f"van.{part}/vacuous", why, PASS, note))
    elif part in _VAN_AUDITS and (part > 2 or not odd):
        _check(report, *_VAN_AUDITS[part][:2], _van_audit, part, n, n_amb, lh, lH)
    return report


# --------------------------------------------------------------------- mut


def _expected_pair(rule: int, k: int) -> tuple[list[EObject], list[EObject]]:
    """(start pair, expected pair) for the rule at degree k, untwisted."""
    if rule == 1:
        return [_S(k - 1, 1, -1), _S(k)], [_O(0, k), _S(k - 1, 1, -1)]
    if rule == 2:
        return [_S(k), _O(0, k)], [_O(0, k), _S(k - 1, 1, -1)]
    return [_S(k), _S(k - 1, 0, 1)], [_S(k - 1, 0, 1), _O(k, -k)]


def _mutation_rule(rule: int, k: int, n_amb: int) -> Outcome:
    """Rule (rule) at degree k: RHom = C[0] and the mutation lands as stated."""
    start, expected = _expected_pair(rule, k)
    col = Collection(n_amb, [Entry.pure(o) for o in start])
    pair = x_ext(start[0], start[1], n_amb)
    if pair.kind != "exact" or pair.total().dims != ((0, 1),):
        return FAIL, {"rhom": _ext_detail(pair)}
    (mutate_left if rule == 1 else mutate_right)(col, 0)
    got = col.pure_objects()
    if got != expected:
        return FAIL, {
            "got": [notation(o) for o in got],
            "expected": [notation(o) for o in expected],
        }
    return PASS, {"rhom": "C[0]", "kclass": "verified"}


def verify_mut(n: int, parity: str = "odd") -> Report:
    """Mutation rules (1)-(3): RHom = C[0], mutation executes, K-class holds."""
    report = Report(n, parity)
    n_amb = report.n_amb
    for k in range(1, n):
        for rule in (1, 2, 3):
            side = "L" if rule == 1 else "R"
            _check(
                report,
                f"mut.{rule}/k={k}",
                f"rule ({rule}) at k={k}: RHom = C[0], {side}-mutation "
                "lands on the stated object, [result]=[b]-[E]",
                _mutation_rule, rule, k, n_amb,
            )

    def guard() -> Outcome:
        # (O(H-h), O) is refused by the RHom test before the range test is
        # reached; (O, O), whose RHom is C[0] at k = 0, must meet the range test.
        col = Collection(n_amb, [Entry.pure(_O(1, -1)), Entry.pure(_O())])
        try:
            mutate_left(col, 0)
        except EngineError as exc:
            try:
                mutate_right(Collection(n_amb, [Entry.pure(_O())] * 2), 0)
            except NoRuleMatch:
                return PASS, {"rejected": str(exc)}
        return FAIL, {"error": "k=0 mutation was not rejected"}

    _check(report, "mut.guard/k=0", "rule (1) outside 1 <= k <= n-1 is rejected", guard)

    def reading3() -> Outcome:
        zero = nonzero = 0
        for k in range(1, n):
            r = x_ext(_S(k), _S(k - 1, 0, -1), n_amb)
            if r.is_zero():
                zero += 1
            else:
                nonzero += 1
        return PASS, {
            "note": "display reading R_{S^{k-1}Uv(-h)}: RHom vanishes "
            "identically, so that mutation would be the identity; the "
            "certified mutator is S^{k-1}Uv(+h)",
            "display_mutator_rhom_zero": zero,
            "display_mutator_rhom_nonzero": nonzero,
        }

    _check(report, "mut.3/reading-audit", "mutator twist of rule (3): -h vs +h", reading3)

    def euler_seqs() -> Outcome:
        display_kh_holds = []
        for k in range(1, n):
            # [lhs] = [S^kUv] - [quotient] read as lhs - S^kUv + quotient = 0
            sk = (-1, _S(k))
            if not _kclass_zero([(1, _O(0, k)), sk, (1, _S(k - 1, 1, -1))], n_amb):
                return FAIL, {"sequence": 1, "k": k}
            if not _kclass_zero([(1, _O(k, -k)), sk, (1, _S(k - 1, 0, 1))], n_amb):
                return FAIL, {"sequence": 2, "k": k}
            display_kh_holds.append(
                _kclass_zero([(1, _O(k, -k)), sk, (1, _S(k - 1, 0, k))], n_amb)
            )
        return PASS, {
            "note": "K-class additivity on both Euler sequences; the display "
            "quotient S^{k-1}Uv(kh) of the second sequence is audited",
            "display_kh_reading_by_k": display_kh_holds,
        }

    _check(
        report,
        "mut.euler/k-classes",
        "[O(kh)] = [S^kUv] - [S^{k-1}Uv(H-h)] and "
        "[O(k(H-h))] = [S^kUv] - [S^{k-1}Uv(h)] for all k",
        euler_seqs,
    )
    return report


# ------------------------------------------------------------ layout helpers


def _objs(n_amb: int, *blocks: Block) -> list[EObject]:
    out: list[EObject] = []
    for b in blocks:
        out.extend(make_block(b.name, b.params, n_amb, b.twist))
    return out


def _expected_entries(
    n_amb: int, head: list[tuple[str, str]], *blocks: Block
) -> list[tuple[str, object]]:
    """Expected layout: named opaque/cone entries then block objects."""
    out: list[tuple[str, object]] = list(head)
    out.extend(("pure", o) for o in _objs(n_amb, *blocks))
    return out


def _layout_check(col: Collection, expected: list[tuple[str, object]]) -> Outcome:
    got = [
        (e.kind, e.obj if e.kind == "pure" else e.name) for e in col.entries
    ]
    if len(got) != len(expected):
        return FAIL, {
            "expected_len": len(expected),
            "got_len": len(got),
            "got": col.labels(),
        }
    for i, (g, e) in enumerate(zip(got, expected)):
        if g != e:
            exp_label = notation(e[1]) if e[0] == "pure" else str(e[1])
            return FAIL, {
                "first_mismatch_at": i,
                "expected": f"{e[0]}:{exp_label}",
                "got": f"{g[0]}:{col.entries[i].label()}",
            }
    return PASS, {"entries": len(got)}


def _replay_claims(
    report: Report,
    prefix: str,
    parity: str,
    step: str,
    expected: list[tuple[str, object]],
    on_move=None,
    statement: str = "final collection equals the stated right-hand side",
) -> Optional[Collection]:
    """Replay a move script and emit replay/final/count claims."""
    start_counts: list[int] = []
    count = 0  # tracked entries of the run's collection, which starts empty

    def counter(verb: str, args: tuple, old: list, new: list, col: Collection) -> None:
        nonlocal count
        count += _tracked(new) - _tracked(old)
        if verb not in ("expand", "opaque"):
            start_counts.append(count)
        if on_move is not None:
            on_move(verb, args, old, new, col)

    res = run_script(parity, step, report.n, on_move=counter)
    report.claims.append(
        Claim(
            f"{prefix}/replay",
            f"every move precondition of the {step} script certified",
            PASS if res.ok else FAIL,
            {"moves": res.moves_applied}
            if res.ok
            else {"failed_move": res.failed_line, "error": res.error},
        )
    )
    if not res.ok:
        return None
    if res.moves_applied == 0:
        report.claims.append(
            Claim(
                f"{prefix}/final",
                statement,
                PASS,
                {"note": "vacuous for this n (empty blocks elided)"},
            )
        )
        return res.final
    status, detail = _layout_check(res.final, expected)
    report.claims.append(Claim(f"{prefix}/final", statement, status, detail))
    if start_counts:
        conserved = len(set(start_counts)) == 1
        report.claims.append(
            Claim(
                f"{prefix}/count",
                "object count invariant under every move",
                PASS if conserved else FAIL,
                {"count": start_counts[-1]},
            )
        )
    return res.final


# --------------------------------------------------------------- steps (odd)


# Each step once, in replay order: step -> (statement, the blocks of its
# stated right-hand side as a function of n).
_STEPS = {
    "step1": (
        "<A(H-h), A> = <O, B_0..B_{n-2}, S^{n-1}Uv(H-h)>",
        lambda n: [
            Block("O"), *(Block("B", (l,)) for l in range(n - 1)),
            Block("Aseg", (n - 1, n - 1), (1, -1)),
        ],
    ),
    "step2": (
        "<A_1(-h), O, B_0..B_{n-2}> = <C_0..C_{n-2}, A^2(H-h), B_{n-2}>",
        lambda n: [
            *(Block("C", (l,)) for l in range(n - 1)),
            Block("Aseg", (0, n - 3), (1, -1)), Block("B", (n - 2,)),
        ],
    ),
    "step3": (
        "<C_1..C_{n-2}, A^2(H-h)> = <E_1..E_{n-2}>",
        lambda n: [Block("E", (l,)) for l in range(1, n - 1)],
    ),
    "step3b": (
        "<S^{n-1}Uv(H-h), A^1(H)> = <A^2(H), F_{n-2}>",
        lambda n: [Block("Aseg", (0, n - 3), (1, 0)), Block("F", (n - 2,))],
    ),
    "step4": (
        "<E_1..E_{n-2}, B_{n-2}, A^2(H)> = <E_1, O(lh)_{2..n-1}, F_0..F_{n-3}>",
        lambda n: [] if n < 3 else [
            Block("E", (1,)), *(Block("cell", (l, 0)) for l in range(2, n)),
            *(Block("F", (l,)) for l in range(n - 2)),
        ],
    ),
}


def verify_inductive_steps(n: int) -> Report:
    """Replay the four odd-case inductive steps with every move certified."""
    report = Report(n, "odd")
    for step, (statement, blocks) in _STEPS.items():
        expected = _expected_entries(2 * n + 1, [], *blocks(n))
        _replay_claims(report, f"steps.{step}", "odd", step, expected, statement=statement)
    return report


# ----------------------------------------------------------------- sod (odd)


def verify_sod_odd(n: int) -> Report:
    """End-to-end odd replay to the mutated Gr-side SOD: counts, reading audits."""
    report = Report(n, "odd")
    n_amb = 2 * n + 1
    expected = _expected_entries(n_amb, [("opaque", "D")], *mutated_gr_sod(n))
    final = _replay_claims(report, "sod", "odd", "full", expected)
    if final is None:
        return report
    count = count_objects(final)
    report.claims.append(
        Claim(
            "sod/count-final",
            f"pure object count equals n(2n+1) = {n * (2 * n + 1)} = rank K0(Gr)",
            PASS if count == n * (2 * n + 1) else FAIL,
            {"count": count},
        )
    )

    objs = set(final.pure_objects())
    lh_run = all(_O(0, l) in objs for l in range(-1, n))
    lH_run = all(_O(l, 0) in objs for l in range(-1, n))
    report.claims.append(
        Claim(
            "sod/reading-Olh",
            "the final line-bundle run is O(lh), l = -1..n-1 (the step-4 "
            "outcome display's O(lH) is not what the mutations produce)",
            PASS if lh_run else FAIL,
            {"O(lh)_run_present": lh_run, "O(lH)_run_present": lH_run},
        )
    )
    has_dual = _S(n - 1, 1) in objs
    report.claims.append(
        Claim(
            "sod/reading-Sdual",
            "the surviving twisted power is S^{n-1}Uv(H) (display's "
            "S^{n-1}U(H) is a dualization typo)",
            PASS if has_dual else FAIL,
            {"S^{n-1}Uv(H)_present": has_dual},
        )
    )

    def semiorthogonal() -> Outcome:
        checks = check_semiorthogonal(final)
        fails = [
            {"later": c.later, "earlier": c.earlier, "detail": c.detail}
            for c in checks
            if c.status == FAIL
        ]
        if fails:
            return FAIL, {"failing_pairs": fails[:5]}
        if checks:
            return INDET, {"indeterminate_pairs": len(checks)}
        return PASS, None

    _check(
        report,
        "sod/exceptional",
        "every pure object T of the final odd SOD has Ext_X(T,T) = C[0]",
        _exceptional, final.pure_objects(), n_amb,
    )
    _check(
        report,
        "sod/semiorthogonal",
        "the final odd SOD is semiorthogonal: Hom(later, earlier) = 0 for "
        "every pure pair",
        semiorthogonal,
    )
    return report


# ------------------------------------------------------------- chessboard


def _segment(obj: EObject) -> list[tuple[int, int]]:
    """Chessboard segment of S^aUv(bH + ch) per the staircase Proposition."""
    w, dh = obj.single_term()
    a, b, c = w.a - w.b, w.b, dh
    return [(a + 2 * b + c - 2 * y, y) for y in range(b, a + b + 1)]


def _in_region_i(pts: list[tuple[int, int]], n: int) -> bool:
    return all(
        x + 2 * y <= 3 * n - 2 and 0 <= y <= 2 * n - 2 and -n <= x <= n - 1
        for x, y in pts
    )


def _in_region_ii(pts: list[tuple[int, int]], n: int) -> bool:
    return all(
        -n <= x + 2 * y <= 3 * n - 4 and -n <= x <= n - 2 for x, y in pts
    )


def _region_groups(n: int) -> tuple[list[EObject], list[EObject]]:
    n_amb = 2 * n + 1
    r = (n - 1) // 2
    # Group (1) is the Serre twist of the blocks that move to the tail.
    moved = [Block("Aseg", (n - 2 * l - 1, n - 1), (n + l, 0)) for l in range(r + 1)]
    moved += [Block("A", (), (l, 0)) for l in range(n + 1 + r, 2 * n - 1)]
    group1 = serre_twist(_objs(n_amb, *moved), n_amb)
    # The mutated SOD up to A((n-1)H), then what stays of A((n+l)H).
    kept = mutated_gr_sod(n)[: -(n - 1)]
    kept += [Block("Au", (2 * l + 1,), (n + l, 0)) for l in range(r + 1)]
    return group1, _objs(n_amb, *kept)


def _expected_chessboard_final(n: int) -> list[tuple[str, object]]:
    n_amb = 2 * n + 1
    out: list[tuple[str, object]] = [("opaque", "D1")]
    staircase = _objs(n_amb, Block("S", (n - 2,)))
    out.extend(("pure", o) for o in serre_twist(staircase, n_amb))
    for y in range(n + 1):
        xs = range(-1 - n, n) if y < n else range(-1 - n, n - 1)
        out.extend(("pure", _O(y, x)) for x in xs)
    for k in range(1, n - 1):
        red = _O(n + k, -1 - n)
        out.append(("cone", f"L[{k * k}]({notation(red)})"))
        out.extend(("pure", _O(n + k, a)) for a in range(-n, n - 2 * k - 1))
    return out


def _van6_condition(a: int, b: int, n: int, n_amb: int) -> str:
    if b > 0 and 2 <= a - b <= 2 * n - 3:
        return "i"
    if 3 - n_amb <= b <= -1:
        return "ii"
    return "neither"


def _staircase_prop(k: int, n_amb: int) -> Outcome:
    """S^kUv is resolved by the cells O(k-2l, l) with Gram coefficients 1."""
    cells = [_O(l, k - 2 * l) for l in range(k + 1)]
    target = _S(k)
    # A Gram that is not unitriangular raises KClassMismatch, which _check
    # records as FAIL with the solver's message.
    coeff = gram_solve(cells, target, n_amb)
    if coeff != [1] * len(cells):
        return FAIL, {"coefficients": coeff}
    if not _kclass_zero([(1, target)] + [(-1, c) for c in cells], n_amb):
        return FAIL, {"kclass_residual_nonzero": True}
    return PASS, {"coefficients": coeff}


def _region_member(obj: EObject, n: int) -> Outcome:
    pts = _segment(obj)
    in_i, in_ii = _in_region_i(pts, n), _in_region_ii(pts, n)
    detail = {"segment": pts, "region_i": in_i, "region_ii": in_ii}
    return (PASS if in_i or in_ii else FAIL), detail


def verify_chessboard(n: int) -> Report:
    """Staircase moves, the staircase Proposition, and the region claims."""
    report = Report(n, "odd")
    n_amb = 2 * n + 1

    conditions = {"i": 0, "ii": 0, "neither": 0}
    neither_samples: list[dict] = []
    cones: list[dict] = []

    def capture(verb: str, args: tuple, old: list, new: list, col: Collection) -> None:
        if verb == "exchange":
            ea, eb = old
            if ea.kind != "pure" or eb.kind != "pure":
                return
            (wa, da), (wb, db) = ea.obj.single_term(), eb.obj.single_term()
            a, b = da - db, wb.b - wa.b
            cond = _van6_condition(a, b, n, n_amb)
            conditions[cond] += 1
            if cond == "neither" and len(neither_samples) < 5:
                neither_samples.append(
                    {"pair": [ea.label(), eb.label()], "a": a, "b": b}
                )
        elif verb == "mutlblock":
            *block, target = old
            blockers = []
            for e in block:
                if not x_vanishes(e.obj, target.obj, n_amb):
                    ext = _ext_detail(x_ext(e.obj, target.obj, n_amb))
                    blockers.append({"mutator": e.label(), "ext": ext})
            cone = new[0]
            cones.append(
                {
                    "cone": cone.name,
                    "block_size": len(block),
                    "kclass_recorded": cone.kclass is not None,
                    "nonvanishing_rhoms": blockers,
                }
            )

    final = _replay_claims(
        report,
        "chess",
        "odd",
        "chessboard",
        _expected_chessboard_final(n),
        on_move=capture,
    )
    if final is not None:
        report.claims.append(
            Claim(
                "chess/displaced-pairs",
                "every displaced pair in the staircase moves vanishes; van(6) "
                "condition bookkeeping per pair",
                PASS,
                {"van6_conditions": conditions, "outside_van6_but_vanishing": neither_samples},
            )
        )
        for rec in cones:
            report.claims.append(
                Claim(
                    f"chess/cone/{rec['cone']}",
                    "leftmost cell mutated (not exchanged) through the "
                    "staircase: forward Hom is nonzero, cone kept opaque with "
                    "Gram-solved K-class",
                    PASS if rec["kclass_recorded"] and rec["nonvanishing_rhoms"] else FAIL,
                    rec,
                )
            )
        tracked = count_tracked(final)
        report.claims.append(
            Claim(
                "chess/count-final",
                f"tracked object count equals (2n-1)(2n+1) = {4 * n * n - 1}",
                PASS if tracked == 4 * n * n - 1 else FAIL,
                {"count": tracked},
            )
        )

    # (b) staircase Proposition via the unitriangular Euler-Gram system.
    for k in range(n):
        _check(
            report,
            f"chess/prop/k={k}",
            f"S^{k}Uv lies in <O(k-2l, l)>_{{0<=l<={k}}} with all "
            "Gram-system coefficients 1",
            _staircase_prop, k, n_amb,
        )

    # (c) region membership of the two groups of perp(D2).
    group1, group2 = _region_groups(n)
    regions = [("opaque", "D2"), *(("pure", o) for o in group1 + group2)]
    _replay_claims(report, "chess/regions", "odd", "regions", regions)
    for tag, group in (("group1", group1), ("group2", group2)):
        for obj in group:
            _check(
                report,
                f"chess/region/{tag}/{notation(obj)}",
                f"{notation(obj)} lies in region (i) or (ii)",
                _region_member, obj, n,
            )

    def assignment() -> Outcome:
        g1_ii = all(_in_region_ii(_segment(o), n) for o in group1)
        g1_i = all(_in_region_i(_segment(o), n) for o in group1)
        g2_i = all(_in_region_i(_segment(o), n) for o in group2)
        g2_ii = all(_in_region_ii(_segment(o), n) for o in group2)
        ok = g1_ii and g2_i
        return (PASS if ok else FAIL), {
            "group1_in_region_ii": g1_ii,
            "group1_in_region_i": g1_i,
            "group2_in_region_i": g2_i,
            "group2_in_region_ii": g2_ii,
            "note": "the Claim pairs group (1) with region (1); the "
            "inequalities its proof verifies are region (ii)'s, and the "
            "oracle certifies group1->(ii), group2->(i)",
        }

    _check(
        report,
        "chess/region/assignment-audit",
        "which group lies in which region (documenting the label swap)",
        assignment,
    )
    return report


# --------------------------------------------------------------------- even


def _even_step2_blocks(n: int) -> list[Block]:
    """The blocks of the even step 2 right-hand side."""
    blocks = [Block("cell", (l, 0)) for l in range(-1, n)] + [Block("Hp")]
    blocks += [Block("Fp", (l,)) for l in range(n - 2)]
    return blocks + [Block("Aseg", (n - 2, n - 1), (1, 0))]


def _expected_even_final(n: int) -> list[tuple[str, object]]:
    n_amb = 2 * n
    rp = (n - 1) // 2 - 1
    # The tail that moves to the front is Serre-twisted, as in _region_groups.
    moved = [Block("Aseg", (n - 1, n - 1), (n - 1, 0))]
    moved += [Block("Aseg", (n - 2 * l - 3, n - 2), (n + l, 0)) for l in range(rp + 1)]
    moved += [Block("Aseg", (0, n - 2), (n + l, 0)) for l in range(rp + 1, n - 2)]
    kept = _even_step2_blocks(n)
    if n == 2:
        kept.pop()  # its A(H) is the moved S^1Uv(H) and the O(H) kept below
    kept += [Block("A", (), (l, 0)) for l in range(2, n - 1)]
    kept += [Block("Aseg", (0, n - 2), (n - 1, 0))]
    kept += [Block("Au", (2 * l + 3,), (n + l, 0)) for l in range(rp + 1)]
    out: list[tuple[str, object]] = [("opaque", "D2'")]
    out.extend(("pure", o) for o in serre_twist(_objs(n_amb, *moved), n_amb))
    out.extend(("pure", o) for o in _objs(n_amb, *kept))
    return out


def _gr_collection_reading(n: int) -> Outcome:
    """The count-consistent even collection is exceptional and count-exact.

    Ext_Gr(S^i(kH), S^j(lH)) depends only on (i, j, l-k), so a table local
    to the check computes one ``e_ext`` per shape (``e_ext`` is Ext_Gr on
    objects with h-twist 0).  Pairs are read in the order of the all-pairs
    check, so the first failure is the same.
    """
    n_amb = 2 * n
    rank = n * (2 * n - 1)
    literal = n * (n - 1) + (n + 2) * n
    coll = gr_collection(n_amb)
    if len(coll) != rank:
        return FAIL, {"corrected_count": len(coll), "rank": rank}
    shapes = _shapes(coll)
    table: dict[tuple[int, int, int], GradedDims] = {}
    for j, (p, k, _) in enumerate(shapes):
        for i in (j, *range(j)):
            q, l, _ = shapes[i]
            key = (p, q, l - k)
            ext = table.get(key)
            if ext is None:
                ext = table[key] = e_ext(coll[j], coll[i], n_amb)
            if i == j and ext.dims != ((0, 1),):
                return FAIL, {"not_exceptional_at": j}
            if i < j and ext:
                return FAIL, {"backward_ext_at": [j, i]}
    return PASS, {
        "corrected_reading": "<A(0..n-1), A^1(n..2n-1)>",
        "corrected_count": rank,
        "display_reading": "<A^1(0..n-1), A(n-2..2n-1)>",
        "display_count": literal,
        "rank_K0": rank,
        "note": "display reading fails the rank count; corrected reading "
        "is exceptional and count-exact",
    }


def verify_even(n: int) -> Report:
    """Even-case replay, counts, collection-reading audit, N=4 Remark checks."""
    report = Report(n, "even")
    n_amb = 2 * n
    _check(
        report,
        "even/gr-collection/reading-audit",
        "even Grassmannian collection ranges: display vs count-consistent reading",
        _gr_collection_reading, n,
    )

    step2 = _expected_entries(n_amb, [], *_even_step2_blocks(n))
    _replay_claims(report, "even/step2", "even", "step2", step2)
    final = _replay_claims(report, "even", "even", "full", _expected_even_final(n))
    if final is None:
        return report
    count = count_objects(final)
    report.claims.append(
        Claim(
            "even/count-final",
            f"pure object count equals n(2n-1) = {n * (2 * n - 1)} = rank K0(Gr)",
            PASS if count == n * (2 * n - 1) else FAIL,
            {"count": count},
        )
    )

    report.claims.append(
        Claim(
            "even/twist/reading-audit",
            "step-3 display twists vs the computed K_X|_E twist",
            PASS,
            {
                "serre_twist_K_X|E": f"O({2 - 2 * n}H-h)",
                "display_step3_twists_match": n == 2,
                "note": "the step-3 display twists (-H-h, -(l+2)H-h, "
                "(l-2n+3)H-h) agree with the actual Serre twist only at n=2; "
                "the replay applies the computed twist",
            },
        )
    )

    def pairs() -> Outcome:
        checks = check_semiorthogonal(final)
        fails = [c for c in checks if c.status == FAIL]
        if fails:
            return FAIL, {"failing_pairs": [c.detail for c in fails[:5]]}
        if checks:
            return INDET, {"indeterminate_pairs": len(checks)}
        return PASS, {"pure_pairs": count * (count - 1) // 2}

    _check(
        report,
        "even/exceptional",
        "every pure object T of the final even SOD has Ext_X(T,T) = C[0]",
        _exceptional, final.pure_objects(), n_amb,
    )
    if n == 2:
        _check(
            report,
            "even/remark/pairs",
            "the six pure objects of the N=4 Remark list are pairwise "
            "semiorthogonal",
            pairs,
        )
    return report


# ---------------------------------------------------------------- dispatch


# Each suite once, in the order of an "all" report: lemma -> (run(n, parity),
# the parity it needs or None, the statement of its skip at the other
# parity).  Each run looks its verifier up when it is called, so a rebound
# module attribute (the benchmark tracer, a test's monkeypatch) is reached.
_SUITES = {
    **{
        f"van.{p}": (lambda n, parity, p=p: verify_van(p, n, parity), None, None)
        for p in range(1, 7)
    },
    "mut": (lambda n, parity: verify_mut(n, parity), None, None),
    "steps": (lambda n, _: verify_inductive_steps(n), "odd",
              "inductive steps 1-4 are the odd-case replay"),
    "sod": (lambda n, _: verify_sod_odd(n), "odd", "the Gr-side SOD replay is the odd case"),
    "chessboard": (lambda n, _: verify_chessboard(n), "odd",
                   "the chessboard suite is the odd case"),
    "even": (lambda n, _: verify_even(n), "even", "the even-case replay needs --parity even"),
}
LEMMAS = (*_SUITES, "all")


def verify_suite(n: int, parity: str, lemma: str = "all", jobs: int = 1) -> Report:
    """One report for (n, parity) covering the requested lemma suite.

    ``_SUITES`` is the one place where a suite's parity and its skip are
    stated: "all" runs every suite of this parity, and a single suite asked
    for at the other parity records its skip.  A lemma outside ``_SUITES``
    is a ValueError before any verifier runs.

    ``jobs`` has no effect.  It stays in the signature because the
    benchmark worker (``perfbench/worker.py``) passes it by position.
    """
    report = Report(n, parity)
    if lemma != "all" and lemma not in _SUITES:
        raise ValueError(f"unknown lemma {lemma!r}")
    for item in _SUITES if lemma == "all" else (lemma,):
        run, needs, why = _SUITES[item]
        if needs in (None, parity):
            report.extend(run(n, parity))
        elif lemma != "all":
            report.claims.append(Claim(f"{item}/parity", why, SKIP))
    return report


def verify_all(n_min: int, n_max: int) -> list[Report]:
    """Every verifier for both parities over n = n_min..n_max."""
    return [
        verify_suite(n, parity, "all")
        for n in range(n_min, n_max + 1)
        for parity in ("odd", "even")
    ]
