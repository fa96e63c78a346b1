from hypothesis import example, given, settings, strategies as st

import pytest

from flipcheck.bwb import ZERO, GradedDims, cohomology
import flipcheck.flagx as fx
from flipcheck.flagx import EObject, e_ext, e_euler, e_vanishes, x_euler, x_ext, x_vanishes
from flipcheck.weights import Weight

import reference
from reference import (
    ref_x_vanishes,
    BasisValidationError,
    _basis_objects,
    _lower_gram,
    cg_tensor,
    degrees,
    dim_at,
    dual,
    dual_object,
    euler_basis,
    gr_euler,
    gr_ext,
    k_class,
    k_sub,
    omega_e,
    push_p2,
    shifted,
    shifted_dims,
    sum_cohomology,
)


def eobjects(max_abs=5):
    pair = st.tuples(
        st.integers(-max_abs, max_abs), st.integers(-max_abs, max_abs)
    )
    return st.tuples(pair, st.integers(-3, 3)).map(
        lambda t: EObject.of_weight(Weight(max(t[0]), min(t[0])), t[1])
    )


def multi_eobjects(max_abs=6, max_dh=4):
    """Sums of 1-3 terms with h-twists, shifts and multiplicities."""
    term = st.tuples(
        st.integers(-max_abs, max_abs),
        st.integers(-max_abs, max_abs),
        st.integers(-max_dh, max_dh),
        st.integers(-2, 2),
        st.integers(1, 3),
    ).map(lambda t: (Weight(max(t[0], t[1]), min(t[0], t[1])), t[2], t[3], t[4]))
    return st.lists(term, min_size=1, max_size=3).map(EObject.of)


def test_push_p2_trichotomy():
    assert push_p2(0) == EObject.of_weight(Weight(0, 0))
    assert push_p2(3) == EObject.of_weight(Weight(3, 0))
    assert not push_p2(-1)
    assert push_p2(-2) == shifted(EObject.of_weight(Weight(-1, -1)), -1)  # O(-H)[-1]
    assert push_p2(-4) == shifted(EObject.of_weight(Weight(-1, -3)), -1)


@pytest.mark.parametrize("n_amb", [5, 6, 7, 8])
def test_push_consistent_with_relative_euler_sequence(n_amb):
    # Ext_E(O, O(d.h)) = Ext_Gr(O, S^d Uv) for d >= 0
    o = EObject.line()
    for d in range(7):
        lhs = e_ext(o, EObject.line(0, d), n_amb)
        rhs = gr_ext(
            EObject.of_weight(Weight(0, 0)), EObject.of_weight(Weight(d, 0)), n_amb
        )
        assert lhs == rhs


@pytest.mark.parametrize("n_amb", [5, 6, 7])
def test_push_negative_against_serre_duality(n_amb):
    # independent route for d <= -2: Serre duality flips to the d >= 0 branch
    o = EObject.line()
    top = 2 * n_amb - 3
    c, dh = omega_e(n_amb)
    for d in range(-6, 0):
        lhs = e_ext(o, EObject.line(0, d), n_amb)
        rhs = e_ext(EObject.line(0, d), EObject.line(c, dh), n_amb)
        for deg in range(top + 1):
            assert dim_at(lhs, deg) == dim_at(rhs, top - deg)


def test_e_ext_mutation_rule_inputs():
    for n_amb in (5, 7, 9):
        n = n_amb // 2
        for k in range(1, n):
            r = e_ext(EObject.schur(k - 1, 1, -1), EObject.schur(k), n_amb)
            assert r == GradedDims.of([(0, 1)])


def test_e_ext_trivial_and_vanishing():
    assert e_ext(EObject.line(), EObject.line(), 7) == GradedDims.of([(0, 1)])
    # Hom object O(-H-h) pushes to zero
    assert not e_ext(EObject.line(1, 1), EObject.line(), 7)


@given(st.integers(min_value=4, max_value=7), eobjects(4), eobjects(4))
@settings(max_examples=60)
def test_hom_object_symmetry(n_amb, a, b):
    assert e_ext(a, b, n_amb) == e_ext(dual_object(b), dual_object(a), n_amb)


@given(st.integers(min_value=4, max_value=6), eobjects(4), eobjects(4))
@settings(max_examples=60)
def test_serre_duality_on_e(n_amb, a, b):
    c, dh = omega_e(n_amb)
    top = 2 * n_amb - 3
    lhs = e_ext(a, b, n_amb)
    rhs = e_ext(b, a.twisted(c, dh), n_amb)
    for deg in range(-12, top + 13):
        assert dim_at(lhs, deg) == dim_at(rhs, top - deg)


def test_x_ext_mutation_pairs_exact():
    for n_amb in (5, 7):
        n = n_amb // 2
        for k in range(1, n):
            r = x_ext(EObject.schur(k - 1, 1, -1), EObject.schur(k), n_amb)
            assert r.kind == "exact"
            assert r.total() == GradedDims.of([(0, 1)])


def test_x_ext_vanishing_sweep_zero():
    for n_amb in (5, 7, 9):
        n = n_amb // 2
        for k in range(n):
            for a in range(n - k):
                assert x_ext(
                    EObject.schur(n - k - 1, 1, -1), EObject.schur(a), n_amb
                ).is_zero()


def test_x_ext_structure_sheaf_exceptional():
    r = x_ext(EObject.line(), EObject.line(), 7)
    assert r.kind == "exact"
    assert r.total() == GradedDims.of([(0, 1)])


def test_x_ext_divisor_class_extension():
    # Ext^1_X(O(kh), S^{k-1}Uv(H-h)) = C: the Euler extension class survives
    for n_amb in (5, 7):
        for k in range(1, n_amb // 2):
            r = x_ext(EObject.line(0, k), EObject.schur(k - 1, 1, -1), n_amb)
            assert r.kind == "exact"
            assert r.total() == GradedDims.of([(1, 1)])


def test_x_ext_front_only():
    # Hom(O(2nh), O(H)): back dies on a repeat, front survives in top degree
    n_amb = 5
    r = x_ext(EObject.line(0, 4), EObject.line(1, 0), n_amb)
    assert r.kind == "exact"
    assert not r.back
    assert r.front.total() == 1


def test_bounded_pair_is_reported_honestly():
    # interacting degrees on both sides of the LES: front^1 -> back^2 may be
    # nonzero, so the dimensions are not resolved and the result is Bounded
    a = EObject.of_weight(Weight(-3, -6), -2)
    b = EObject.of_weight(Weight(-2, -6), 0)
    r = x_ext(a, b, 4)
    assert r.kind == "bounded"
    assert dim_at(r.front, 1) == 1 and dim_at(r.back, 2) == 120
    assert not x_ext(a, b, 4).is_zero()
    with pytest.raises(ValueError):
        r.total()
    # the Euler characteristic is still exact across the LES
    assert r.euler() == (100 + 120) - (1 + 259)


def test_euler_basis_unitriangular_and_full():
    for n_amb in (4, 5, 6, 7):
        basis = euler_basis(n_amb)
        assert len(basis) == n_amb * (n_amb - 1)  # rank K0(Fl(1,2,N))


def test_lower_gram_matches_full_route():
    # Differential oracle for the shape table: every entry the basis check
    # reads equals the one e_euler call per entry of the obvious route, and
    # the check reads each entry on and below the diagonal once, row by row.
    for n_amb in range(3, 14):
        basis = euler_basis(n_amb)
        m = len(basis)
        got = list(_lower_gram(basis, n_amb))
        assert [(i, j) for i, j, _ in got] == [
            (i, j) for i in range(m) for j in range(i + 1)
        ]
        for i, j, chi in got:
            assert chi == e_euler(basis[i], basis[j], n_amb), (n_amb, i, j)


def _counting_e_euler(monkeypatch, corrupt=None):
    """Route the reference's e_euler through a counter on cold caches; ``corrupt``
    is a pair (A, B): every pair with the same twist shape gets chi + 1."""
    calls = []
    e_euler_ = reference.e_euler

    def same_shape(a, b):
        # a = A (x) L and b = B (x) L for one line bundle L = O(cH + eh)
        (wa, da), (wA, dA) = a.single_term(), corrupt[0].single_term()
        c, e = wA.b - wa.b, dA - da
        return a.twisted(c, e) == corrupt[0] and b.twisted(c, e) == corrupt[1]

    def counted(a, b, n_amb):
        calls.append((a, b))
        chi = e_euler_(a, b, n_amb)
        return chi + 1 if corrupt is not None and same_shape(a, b) else chi

    monkeypatch.setattr(reference, "_basis_cache", {})
    monkeypatch.setattr(reference, "_kclass_cache", {})
    monkeypatch.setattr(reference, "_kchi_tables", {})
    monkeypatch.setattr(reference, "e_euler", counted)
    return calls


def test_euler_basis_computes_one_pairing_per_shape(monkeypatch):
    # n^2 (2N-1) 3 bounds the shapes (p, q, l-k, d-e); the full check would
    # make m^2 = 44,100 calls at N = 15.
    calls = _counting_e_euler(monkeypatch)
    basis = euler_basis(15)
    assert len(basis) == 210
    assert 0 < len(calls) <= 7 * 7 * 29 * 3


@pytest.mark.parametrize("i, j", [(0, 0), (7, 7), (1, 0), (9, 4), (30, 2)])
def test_wrong_chi_on_one_shape_fails_validation(monkeypatch, i, j):
    # A wrong chi_E on one shape, on or below the diagonal, must be caught
    # whichever pair of that shape the table computes it from.
    basis = euler_basis(7)
    _counting_e_euler(monkeypatch, corrupt=(basis[i], basis[j]))
    with pytest.raises(BasisValidationError):
        euler_basis(7)


def test_basis_error_names_first_failing_entry(monkeypatch):
    # Rows are checked in order, so the error names the first bad entry of
    # the full matrix read row by row, on and below the diagonal.
    gr_collection = reference.gr_collection
    monkeypatch.setattr(reference, "_basis_cache", {})
    monkeypatch.setattr(reference, "gr_collection", lambda n_amb: gr_collection(n_amb)[::-1])
    objs = list(reference.gr_collection(5))
    basis = objs + [o.twisted(0, 1) for o in objs]
    first = next(
        (i, j, chi)
        for i in range(len(basis))
        for j in range(i + 1)
        if (chi := e_euler(basis[i], basis[j], 5)) != (i == j)
    )
    i, j, chi = first
    with pytest.raises(BasisValidationError, match=rf"^chi\(b_{i}, b_{j}\) = {chi} "):
        euler_basis(5)


def test_k_class_euler_sequences():
    for n_amb in (5, 6, 7):
        n = n_amb // 2
        for k in range(1, n):
            sku = k_class(EObject.schur(k), n_amb)
            assert k_class(EObject.line(0, k), n_amb) == k_sub(
                sku, k_class(EObject.schur(k - 1, 1, -1), n_amb)
            )
            assert k_class(EObject.line(k, -k), n_amb) == k_sub(
                sku, k_class(EObject.schur(k - 1, 0, 1), n_amb)
            )


@given(st.integers(min_value=3, max_value=13), multi_eobjects())
@example(5, shifted(EObject.schur(1, 2, -3), 1) + shifted(EObject.line(-4, 4), -2))
@settings(max_examples=60, deadline=None)
def test_k_class_matches_full_route(n_amb, a):
    # Differential oracle for the shape table: the K-class of a multi-term
    # object with shifts, multiplicities and h-twists is one e_euler call
    # per basis object.
    assert k_class(a, n_amb) == tuple(e_euler(b, a, n_amb) for b in euler_basis(n_amb))


def test_wrong_chi_on_one_shape_changes_every_k_class_of_that_shape(monkeypatch):
    # chi + 1 on one shape must reach every object twist-equivalent to the
    # corrupted pair, at the basis object twisted the same way, and nowhere
    # else; a shift flips the sign.  S^4 Uv (2H)(3h) is no basis shape, so
    # the basis itself stays valid.
    n_amb = 7
    basis = euler_basis(n_amb)
    index = {b: j for j, b in enumerate(basis)}
    a0, b0 = basis[9], EObject.schur(4, 2, 3)
    twists = [(c, e) for c in range(-3, 5) for e in range(-2, 3)]
    objs = [b0.twisted(c, e) for c, e in twists]
    honest = [k_class(o, n_amb) for o in objs]
    _counting_e_euler(monkeypatch, corrupt=(a0, b0))
    hit = 0
    for (c, e), o, before in zip(twists, objs, honest):
        j = index.get(a0.twisted(c, e))
        hit += j is not None
        unit = tuple(int(i == j) for i in range(len(basis)))
        assert k_sub(k_class(o, n_amb), before) == unit, (c, e)
        flipped = tuple(-x - u for x, u in zip(before, unit))
        assert k_class(shifted(o, 1), n_amb) == flipped, (c, e)
    assert hit >= 10


def _mut_objects(n):
    """The distinct objects of the mutation rules and both Euler sequences,
    with the display quotient S^{k-1}Uv(kh), for k = 1..n-1."""
    return list(
        dict.fromkeys(
            o
            for k in range(1, n)
            for o in (
                EObject.schur(k),
                EObject.schur(k - 1, 1, -1),
                EObject.line(0, k),
                EObject.schur(k - 1, 0, 1),
                EObject.line(k, -k),
                EObject.schur(k - 1, 0, k),
            )
        )
    )


def test_k_class_computes_one_pairing_per_shape(monkeypatch):
    # Over the 33 objects of the mut claims at n = 7 (N = 15) k_class runs
    # e_euler exactly once per shape (q, p, k-l, e-d) of a (basis object,
    # object term) pair; the per-object route makes 33 x 210 = 6,930 calls.
    calls = _counting_e_euler(monkeypatch)
    basis = euler_basis(15)
    del calls[:]
    objs = _mut_objects(7)
    for a in objs:
        k_class(a, 15)
    shapes = {
        (q, w.a - w.b, w.b - l, dh - d)
        for a in objs
        for w, dh, _, _ in a.terms
        for q, l, d in fx._shapes(basis)
    }
    assert len(objs) == 33
    assert len(calls) == len(shapes) < 5_000


def test_k_class_zero_object():
    assert not any(k_class(EObject(), 5))


def test_k_class_separates_line_bundles():
    assert k_class(EObject.line(0, 1), 5) != k_class(EObject.line(1, 0), 5)


def test_x_euler_defined_even_when_bounded():
    # chi is LES-exact: front/back alternating sums agree with any resolution
    n_amb = 5
    r = x_ext(EObject.line(0, 2), EObject.schur(1, 1, -1), n_amb)
    assert r.euler() == -1  # C in degree 1


@given(st.integers(min_value=4, max_value=6), eobjects(3))
@settings(max_examples=40)
def test_e_euler_against_x_euler_same_twist(n_amb, a):
    # for equal h-twists the divisor correction vanishes
    b = a.twisted(1, 0)
    r = x_ext(a, b, n_amb)
    assert not r.front
    assert r.euler() == e_euler(a, b, n_amb)


_BOUNDED_A = EObject.of_weight(Weight(-3, -6), -2)
_BOUNDED_B = EObject.of_weight(Weight(-2, -6), 0)


@given(st.integers(min_value=3, max_value=17), multi_eobjects(), multi_eobjects())
@example(4, _BOUNDED_A, _BOUNDED_B)
@example(5, _BOUNDED_A + shifted(_BOUNDED_B, 1), _BOUNDED_B + _BOUNDED_A.twisted(0, 1))
@example(7, EObject.line(0, 3), EObject.line(1, 0))
@settings(max_examples=150, deadline=None)
def test_x_ext_front_matches_twisted_route(n_amb, a, b):
    # The kernel folds the twist O(H+h) of a into its int loops; the obvious
    # route twists a, takes the formal-sum Ext on E and shifts it.
    a1 = a.twisted(1, 1)
    front = shifted_dims(_reference_e_ext(a1, b, n_amb), 1)
    back = _reference_e_ext(a, b, n_amb)
    if not front and not back:
        kind = "zero"
    elif all(dim_at(back, k + 1) == 0 for k in degrees(front)):
        kind = "exact"
    else:
        kind = "bounded"
    r = x_ext(a, b, n_amb)
    assert (r.kind, r.front, r.back) == (kind, front, back)
    assert x_euler(a, b, n_amb) == back.euler() + front.euler()


def test_zero_outcomes_are_one_shared_object():
    # Two van.6 pairs of different shape, both zero at N = 7.
    r = x_ext(EObject.line(0, 3), EObject.line(1, 0), 7)
    assert r.is_zero() and not r.front and not r.back
    assert x_ext(EObject.line(0, 4), EObject.line(1, 0), 7) is r


@given(st.integers(min_value=3, max_value=17), multi_eobjects(), multi_eobjects())
@example(4, _BOUNDED_A, _BOUNDED_B)
@example(5, _BOUNDED_A + shifted(_BOUNDED_B, 1), _BOUNDED_B + _BOUNDED_A.twisted(0, 1))
@example(7, EObject.line(0, 3), EObject.line(1, 0))
@example(7, EObject.line(0, 1), EObject.line(1, 0))
@example(7, EObject.line(0, 1), EObject.line(2, 0))
@settings(max_examples=300, deadline=None)
def test_x_vanishes_matches_x_ext(n_amb, a, b):
    # Differential oracle for the predicate.  The examples: a bounded pair;
    # van.6 pairs that are zero, one with a d = -1 back pass; a pair whose
    # only pushed term (d = -2) lies just outside the band.
    assert x_vanishes(a, b, n_amb) == x_ext(a, b, n_amb).is_zero()


def test_x_vanishes_band_rule_is_cohomology_zero_test(monkeypatch):
    # Ext_X(O, Sigma^w U^vee) has one pushed term, w itself (back pass,
    # d = 0; the front pass has d = -1), so the predicate is the band rule
    # applied to w.  Every weight in a box around both bands, N = 3..40.
    import flipcheck.bwb as bwb

    o = EObject.line()
    for n_amb in range(3, 41):
        monkeypatch.setattr(bwb, "_cohomology_cache", {})
        r = range(-2 * n_amb - 10, 2 * n_amb + 11)
        for wa in r:
            for wb in range(r.start, wa + 1):
                w = Weight(wa, wb)
                expect = cohomology(w, n_amb) == ZERO
                assert x_vanishes(o, EObject.of_weight(w), n_amb) == expect, (n_amb, w)


def test_x_vanishes_matches_listed_weights_exhaustively():
    # S^p Uv against S^q Uv(bH)(dh) in a box wide enough that every twist
    # class meets both bands and d runs through d = -1 and d = -2 in both
    # passes: the interval test against every pushed weight listed.
    pairs = vanishing = 0
    for n_amb in range(3, 11):
        for p in range(6):
            a = EObject.schur(p)
            for q in range(6):
                for b in range(-n_amb - 6, n_amb + 3):
                    for d in range(-9, 10):
                        o = EObject.schur(q, b, d)
                        expect = ref_x_vanishes(a, o, n_amb)
                        assert x_vanishes(a, o, n_amb) == expect, (n_amb, p, q, b, d)
                        pairs += 1
                        vanishing += expect
    assert (pairs, vanishing) == (120384, 11795)


def test_e_vanishes_matches_e_ext_exhaustively():
    # The back pass alone, on the grid of the test above: Ext_E is zero iff
    # e_ext lists no degree.
    pairs = vanishing = 0
    for n_amb in range(3, 11):
        for p in range(6):
            a = EObject.schur(p)
            for q in range(6):
                for b in range(-n_amb - 6, n_amb + 3):
                    for d in range(-9, 10):
                        o = EObject.schur(q, b, d)
                        expect = not e_ext(a, o, n_amb)
                        assert e_vanishes(a, o, n_amb) == expect, (n_amb, p, q, b, d)
                        pairs += 1
                        vanishing += expect
    assert (pairs, vanishing) == (120384, 22732)


def wide_eobjects():
    """Sums of 1-3 terms of width up to 12 and h-twist up to 15."""
    term = st.tuples(
        st.integers(-12, 12),
        st.integers(0, 12),
        st.integers(-15, 15),
        st.integers(-2, 2),
        st.integers(1, 3),
    ).map(lambda t: (Weight(t[0] + t[1], t[0]), t[2], t[3], t[4]))
    return st.lists(term, min_size=1, max_size=3).map(EObject.of)


_VAN6_SUM = EObject.line(0, 3) + shifted(EObject.line(0, 4), 1)


@given(st.integers(min_value=3, max_value=30), wide_eobjects(), wide_eobjects())
@example(7, _VAN6_SUM, EObject.line(1, 0))
@example(7, EObject.line(0, 1), EObject.line(1, 0))
@example(7, EObject.line(0, 1), EObject.line(2, 0))
@example(24, EObject.of_weight(Weight(6, -6), 2), EObject.of_weight(Weight(-1, -13)))
@example(4, _BOUNDED_A, _BOUNDED_B)
@settings(max_examples=400, deadline=None)
def test_x_vanishes_matches_listed_weights(n_amb, a, b):
    # The examples: a two-term sum that vanishes; van.6 pairs with d = -1 in
    # the back pass and d = -2 in the front, one zero and one whose pushed
    # term lies just outside the band; a width-12 pair with d = -2 and -3
    # that vanishes at N = 24; a bounded pair.
    assert x_vanishes(a, b, n_amb) == ref_x_vanishes(a, b, n_amb)


def _reference_pushed_terms(a, b, c):
    """Terms of Rp2* RHom_E(a (x) O(cH + ch), b) as ints (x, y, shift, mult),
    unmerged: the loops of the Ext kernel, as a generator."""
    for wa, da, sa, ma in a.terms:
        a1, b1 = -wa.b - c, -wa.a - c
        for wb, db, sb, mb in b.terms:
            d = db - da - c
            if d == -1:
                continue
            pa, pb, sp = (d, 0, 0) if d >= 0 else (-1, d + 1, -1)
            for t in range(min(a1 - b1, wb.a - wb.b) + 1):
                ca, cb = a1 + wb.a - t, b1 + wb.b + t
                for u in range(min(ca - cb, pa - pb) + 1):
                    yield ca + pa - u, cb + pb + u, sb - sa + sp, ma * mb


@given(st.integers(min_value=3, max_value=17), multi_eobjects(), multi_eobjects())
@example(4, _BOUNDED_A, _BOUNDED_B)
@example(5, _BOUNDED_A + shifted(_BOUNDED_B, 1), _BOUNDED_B + _BOUNDED_A.twisted(0, 1))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_term_enumerator_and_bound(n_amb, a, b):
    # The kernel's degree map is the enumerator's terms, each adding
    # mult * dim to degree deg - shift + c; pushed_term_bound, which the CLI
    # refuses huge queries by, never undercounts the terms.
    for c in (0, 1):
        terms = list(_reference_pushed_terms(a, b, c))
        acc = {}
        for x, y, shift, mult in terms:
            for deg, dim in cohomology(Weight(x, y), n_amb).dims:
                acc[deg - shift + c] = acc.get(deg - shift + c, 0) + dim * mult
        assert fx._degrees(a, b, n_amb, c) == acc
        assert fx.pushed_term_bound(a, b, c) >= len(terms)


@given(st.integers(min_value=3, max_value=11), multi_eobjects(), multi_eobjects())
@example(4, _BOUNDED_A, _BOUNDED_B)
@example(4, _BOUNDED_A + shifted(_BOUNDED_B, 1), _BOUNDED_B + _BOUNDED_A.twisted(0, 1))
@settings(max_examples=150, deadline=None)
def test_closed_form_euler_matches_ext(n_amb, a, b):
    # Differential oracle: the closed-form pairings equal the Euler
    # characteristics of the fully normalized Ext groups, bounded ones too.
    assert e_euler(a, b, n_amb) == e_ext(a, b, n_amb).euler()
    assert x_euler(a, b, n_amb) == x_ext(a, b, n_amb).euler()


@given(
    st.integers(min_value=3, max_value=11),
    multi_eobjects(max_dh=0),
    multi_eobjects(max_dh=0),
)
@settings(max_examples=150, deadline=None)
def test_gr_route_matches_e_route(n_amb, a, b):
    # Projection formula: Rp2* O_E = O, so Ext_E(p2^* a, p2^* b) = Ext_Gr(a, b)
    # for objects with h-twist 0.  Cross-checks the formal-sum route
    # (hom_object + sum_cohomology) against the fused kernel on E.
    assert gr_ext(a, b, n_amb) == e_ext(a, b, n_amb)
    assert gr_euler(a, b, n_amb) == e_euler(a, b, n_amb)


def _reference_e_ext(a, b, n_amb):
    """The obvious route: build Rp2* RHom_E(a, b) as a normalized formal sum
    of Clebsch-Gordan and push_p2 terms, then take its cohomology term by
    term."""
    out = []
    for wa, da, sa, ma in a:
        for wb, db, sb, mb in b:
            for w, _, _, _ in cg_tensor(dual(wa), wb):
                for wp, _, sp, mp in push_p2(db - da):
                    for wt, _, _, _ in cg_tensor(w, wp):
                        out.append((wt, 0, sb - sa + sp, ma * mb * mp))
    return sum_cohomology(EObject.of(out), n_amb)


# Pinned: both e_ext calls of the bounded x_ext pair, and an empty Ext.
@given(st.integers(min_value=3, max_value=13), multi_eobjects(), multi_eobjects())
@example(4, _BOUNDED_A, _BOUNDED_B)
@example(4, _BOUNDED_A.twisted(1, 1), _BOUNDED_B)
@example(7, EObject.line(1, 1), EObject.line())
@settings(max_examples=200, deadline=None)
def test_fused_e_ext_matches_reference(n_amb, a, b):
    # Differential oracle for the fused kernel.  The strategy's h-twists in
    # [-4, 4] reach all three push_p2 branches (d >= 0, d = -1, d <= -2).
    ref = _reference_e_ext(a, b, n_amb)
    assert e_ext(a, b, n_amb) == ref
    assert e_euler(a, b, n_amb) == ref.euler()


@given(
    st.integers(0, 6),
    st.integers(-5, 5),
    st.integers(-5, 5),
    multi_eobjects(),
    st.integers(-4, 4),
    st.integers(-4, 4),
    st.integers(-4, 4),
)
@settings(max_examples=200, deadline=None)
def test_direct_normal_forms_match_of(k, c, d, o, c2, d2, s):
    # line/schur/of_weight, twisted and shifted build their terms without
    # EObject.of; the result must be exactly its normal form.
    w = Weight(k + c, c)
    assert EObject.line(c, d) == EObject.of([(Weight(c, c), d, 0, 1)])
    assert EObject.schur(k, c, d) == EObject.of([(w, d, 0, 1)])
    assert EObject.of_weight(w, d) == EObject.of([(w, d, 0, 1)])
    assert o.twisted(c2, d2) == EObject.of(
        (wt.twist(c2), dh + d2, sh, m) for wt, dh, sh, m in o
    )
    assert shifted(o, s) == EObject.of((wt, dh, sh + s, m) for wt, dh, sh, m in o)


# ------------------------------------------- K-class identities by character


def _k_route_zero(terms, n_amb):
    """Whether sum c [obj] is 0, from the validated k_class vectors alone."""
    vecs = [(c, k_class(o, n_amb)) for c, o in terms]
    return not any(sum(c * v[j] for c, v in vecs) for j in range(len(vecs[0][1])))


def _euler_relation(k):
    """[O(kh)] - [S^kUv] + [S^{k-1}Uv(H-h)], zero by the first Euler sequence."""
    return [
        (1, EObject.line(0, k)),
        (-1, EObject.schur(k)),
        (1, EObject.schur(k - 1, 1, -1)),
    ]


def _koszul(n_amb):
    """sum_i (-1)^i C(N, i) [O(-ih)]: zero by the Koszul resolution of the
    point on P^{N-1}, but its character (1 - x1^{-1})^N is not."""
    from math import comb

    return [((-1) ** i * comb(n_amb, i), EObject.line(0, -i)) for i in range(n_amb + 1)]


def _twisted_terms(terms, c, d):
    return [(k, o.twisted(c, d)) for k, o in terms]


@given(
    st.integers(min_value=3, max_value=11),
    st.lists(
        st.tuples(st.integers(-3, 3).filter(bool), multi_eobjects(max_abs=4, max_dh=3)),
        min_size=1,
        max_size=4,
    ),
    st.booleans(),
    st.sampled_from([None, "euler", "koszul"]),
    st.integers(1, 4),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@example(5, [(1, EObject.line(0, 1))], True, "koszul", 1, 0, 0)
@example(4, [(2, EObject.schur(2, 1, -1))], True, "euler", 2, 1, -2)
@settings(max_examples=80, deadline=None)
def test_kclass_zero_matches_k_class_route(n_amb, base, cancel, rel, k, c, d):
    # Differential oracle against the validated pairing basis.  ``cancel``
    # subtracts each term shifted by 2 (the same class and character), so
    # the sum is the added relation alone: zero by character (Euler
    # sequence) or only by the reduced Chern character (Koszul).
    terms = list(base)
    if cancel:
        terms += [(-m, shifted(o, 2)) for m, o in base]
    if rel == "euler":
        terms += _twisted_terms(_euler_relation(k), c, d)
    elif rel == "koszul":
        terms += _twisted_terms(_koszul(n_amb), c, d)
    assert fx._kclass_zero(terms, n_amb) == _k_route_zero(terms, n_amb)


@pytest.mark.parametrize("n_amb", range(3, 9))
def test_koszul_sums_are_zero_only_through_the_fallback(n_amb):
    # "The fallback" is everything past the zero-character return: a Koszul
    # sum has a nonzero character, and its reduced Chern character is zero.
    koszul = _koszul(n_amb)
    assert fx._character(koszul)
    assert fx._kclass_zero(koszul, n_amb)
    # One coefficient changed adds a nonzero [O(-ih)].
    for i in range(n_amb + 1):
        wrong = list(koszul)
        wrong[i] = (wrong[i][0] + 1, wrong[i][1])
        assert not fx._kclass_zero(wrong, n_amb), i


def test_koszul_sum_at_n41_is_decided_fast():
    # All 2N - 2 = 80 degree rows of a zero class are reduced.
    import time

    koszul = _koszul(41)
    t = time.perf_counter()
    assert fx._kclass_zero(koszul, 41)
    assert time.perf_counter() - t < 0.5


def _rank_mod_p(rows, p=(1 << 61) - 1):
    """Rank of an int matrix over Z/p, a lower bound for its rank over Q."""
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


@pytest.mark.parametrize("n_amb", range(3, 9))
def test_normal_forms_of_the_basis_have_full_rank(n_amb):
    # The decision's own reduced rows, read in full: every nonzero entry
    # sits at a standard monomial a^m b^(d-m), m <= N-2 and d-m <= N-1, and
    # the N(N-1) basis objects of K_0(E) give independent normal forms, so
    # the reduction is injective on K_0(E).
    vecs = []
    for b in _basis_objects(n_amb):
        rows = list(fx._ch_rows(fx._character([(1, b)]), n_amb))
        assert [len(r) for r in rows] == list(range(1, 2 * n_amb - 1))
        vec = []
        for d, row in enumerate(rows):
            for m, v in enumerate(row):
                if m <= n_amb - 2 and d - m <= n_amb - 1:
                    vec.append(v)
                else:
                    assert v == 0, (b, d, m)
        vecs.append(vec)
    assert len(vecs) == len(vecs[0]) == n_amb * (n_amb - 1)
    assert _rank_mod_p(vecs) == n_amb * (n_amb - 1)


def _mut_identities(n):
    """The identities of the mut claims at n, as (terms, holds)."""
    out = []
    for k in range(1, n):
        head = [(1, EObject.line(k, -k)), (-1, EObject.schur(k))]
        out.append((_euler_relation(k), True))
        out.append((head + [(1, EObject.schur(k - 1, 0, 1))], True))
        # the display quotient S^{k-1}Uv(kh) holds for k = 1 only
        out.append((head + [(1, EObject.schur(k - 1, 0, k))], k == 1))
    return out


@pytest.mark.parametrize("n_amb", [5, 6, 9, 10])
def test_one_wrong_term_is_refuted_by_a_witness(n_amb):
    # A true identity with one term's character wrong (the object twisted
    # by O(h) or O(H), or shifted by one) is nonzero in K_0(E): the helper
    # must say so.  The witness is the first nonzero reduced degree row.
    for terms, holds in _mut_identities(n_amb // 2):
        if not holds:
            continue
        assert fx._kclass_zero(terms, n_amb)
        for i, (m, o) in enumerate(terms):
            for wrong in (o.twisted(0, 1), o.twisted(1, 0), shifted(o, 1)):
                bad = terms[:i] + [(m, wrong)] + terms[i + 1 :]
                assert not fx._kclass_zero(bad, n_amb), (terms, i, wrong)


def test_k_classes_never_reach_bwb(monkeypatch):
    # With every route to BWB and Ext on E made to raise, the K-class
    # identities are still decided: the Koszul sums for N = 3..41, the
    # mutation identities with the display_kh residues, and the K-class
    # claim of verify_mut for n = 2..20 (its Ext claims fail on the fault).
    import flipcheck.bwb as bwb
    from flipcheck.verify import verify_mut

    def unreachable(*args):
        raise AssertionError("a K-class reached BWB")

    monkeypatch.setattr(bwb, "cohomology", unreachable)
    monkeypatch.setattr(fx, "_degrees", unreachable)
    monkeypatch.setattr(fx, "e_euler", unreachable)
    for n_amb in range(3, 42):
        koszul = _koszul(n_amb)
        assert fx._kclass_zero(koszul, n_amb), n_amb
        assert not fx._kclass_zero([(2, koszul[0][1])] + koszul[1:], n_amb), n_amb
    for n in range(2, 21):
        for terms, holds in _mut_identities(n):
            assert fx._kclass_zero(terms, 2 * n + 1) == holds, (n, terms)
        [claim] = [c for c in verify_mut(n).claims if c.id == "mut.euler/k-classes"]
        assert claim.status == "pass", (n, claim)
        assert claim.detail["display_kh_reading_by_k"] == [k == 1 for k in range(1, n)]


def test_cone_kclass_is_its_torus_character():
    # mutlblock records [b] - sum c_l [s_l] as the sorted nonzero monomials
    # of its character; the Gram coefficients of S^2Uv over its staircase
    # cells are 1, so that character is 0 and the record is empty.
    from flipcheck.collections.engine import Collection, Entry, mutate_block_left

    cells = [EObject.line(l, 2 - 2 * l) for l in range(3)]
    target = EObject.schur(2)
    col = Collection(7, [Entry.pure(o) for o in cells + [target]])
    mutate_block_left(col, 0, 2)
    cone = col.entries[0]
    assert cone.kind == "cone" and cone.kclass == ()
    col = Collection(7, [Entry.pure(EObject.line()), Entry.pure(EObject.line(0, 1))])
    mutate_block_left(col, 0, 0)
    cone = col.entries[0]
    coeff = x_euler(EObject.line(), EObject.line(0, 1), 7)
    expect = fx._character([(1, EObject.line(0, 1)), (-coeff, EObject.line())])
    assert cone.kclass == tuple(sorted(expect.items()))
