import math

from hypothesis import given, settings, strategies as st

import pytest

from flipcheck.bwb import GradedDims, cohomology
from flipcheck.weights import EObject, Weight

from reference import (
    degrees,
    dim_at,
    dual,
    gr_euler,
    gr_ext,
    shifted,
    sum_cohomology,
    weyl_dim,
)


def ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Count semistandard Young tableaux: independent oracle for weyl_dim.

    Rows weakly increase, columns strictly increase, entries in 1..n.
    Brute force, so keep shapes small.
    """

    rows = [r for r in shape if r > 0]
    if not rows:
        return 1

    def fill(row_idx: int, above: tuple[int, ...]) -> int:
        width = rows[row_idx]
        total = 0

        def extend(row: tuple[int, ...]) -> int:
            j = len(row)
            if j == width:
                if row_idx + 1 == len(rows):
                    return 1
                return fill(row_idx + 1, row)
            lo = row[j - 1] if j else 1
            if j < len(above):
                lo = max(lo, above[j] + 1)
            return sum(extend(row + (v,)) for v in range(lo, n + 1))

        total = extend(())
        return total

    return fill(0, ())


@pytest.mark.parametrize(
    "shape,n",
    [((1,), 4), ((1, 1), 5), ((2,), 4), ((2, 1), 4), ((3, 2), 4), ((2, 2, 1), 5)],
)
def test_weyl_dim_matches_tableau_count(shape, n):
    nu = list(shape) + [0] * (n - len(shape))
    assert weyl_dim(nu) == ssyt_count(shape, n)


def test_weyl_dim_examples():
    assert weyl_dim([1, 0, 0, 0, 0]) == 5
    assert weyl_dim([1, 1, 0, 0, 0]) == math.comb(5, 2)
    assert weyl_dim([0, 0, 0]) == 1


def test_weyl_dim_translation_invariant():
    # rational reps: twisting by det shifts all entries
    assert weyl_dim([3, 1, -2, -2]) == weyl_dim([5, 3, 0, 0])


def test_weyl_dim_rejects_non_monotone():
    with pytest.raises(ValueError):
        weyl_dim([0, 1, 0])


def bwb_reference(a: int, b: int, n_amb: int) -> GradedDims:
    """The textbook BWB recipe: sort lambda + rho, count inversions, weyl_dim."""
    rho = list(range(n_amb - 1, -1, -1))
    mu = [a + rho[0], b + rho[1]] + rho[2:]
    if len(set(mu)) < n_amb:
        return GradedDims()
    inversions = sum(
        1 for i in range(n_amb) for j in range(i + 1, n_amb) if mu[i] < mu[j]
    )
    nu = [x - r for x, r in zip(sorted(mu, reverse=True), rho)]
    return GradedDims.of([(inversions, weyl_dim(nu))])


def test_cohomology_closed_form_matches_reference_exhaustively():
    # Every weight in a box reaching 7-8 steps past both vanishing bands
    # (1-N <= a <= -2, 2-N <= b <= -1) on each side, so the band edges and
    # all three degrees 0, N-2 and 2(N-2) are covered for every N.
    checked = 0
    for n_amb in range(3, 36):
        seen = set()
        for a in range(-n_amb - 6, 7):
            for b in range(-n_amb - 6, a + 1):
                got = cohomology(Weight(a, b), n_amb)
                assert got == bwb_reference(a, b, n_amb), (n_amb, a, b)
                seen.update(degrees(got))
                checked += 1
        assert seen == {0, n_amb - 2, 2 * (n_amb - 2)}
    assert checked == 18_920


def test_cohomology_standard_rep():
    for n_amb in range(3, 9):
        assert cohomology(Weight(1, 0), n_amb) == GradedDims.of([(0, n_amb)])


def test_cohomology_structure_sheaf():
    assert cohomology(Weight(0, 0), 7) == GradedDims.of([(0, 1)])


def test_cohomology_pluecker_line_bundle():
    # H^0(Gr(2,N), O(H)) = Lambda^2 C^N: the Pluecker embedding target
    for n_amb in range(3, 9):
        assert cohomology(Weight(1, 1), n_amb) == GradedDims.of(
            [(0, math.comb(n_amb, 2))]
        )


def test_cohomology_band_example():
    assert not cohomology(Weight(-2, -2), 4)


def test_cohomology_canonical_bundle_top():
    # omega_Gr = O(-N.H): top cohomology C in degree 2(N-2), Serre-dual to O
    for n_amb in range(3, 9):
        assert cohomology(Weight(-n_amb, -n_amb), n_amb) == GradedDims.of(
            [(2 * (n_amb - 2), 1)]
        )


def test_cohomology_rejects_bad_weight():
    with pytest.raises(ValueError):
        cohomology(dual(dual(Weight(1, 0))).twist(0), 2)


def test_band_vanishing_exhaustive_small():
    for n_amb in range(3, 8):
        for a in range(-2 * n_amb, 2 * n_amb + 1):
            for b in range(-2 * n_amb, a + 1):
                if 1 - n_amb <= a <= -2 or 2 - n_amb <= b <= -1:
                    assert not cohomology(Weight(a, b), n_amb)


@given(
    st.integers(min_value=3, max_value=9),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)),
)
def test_cohomology_concentrated_and_bounded(n_amb, ab):
    w = Weight(max(ab), min(ab))
    h = cohomology(w, n_amb)
    assert len(h.dims) <= 1
    for deg, _ in h.dims:
        assert 0 <= deg <= 2 * (n_amb - 2)


@given(
    st.integers(min_value=3, max_value=7),
    st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
)
@settings(max_examples=60)
def test_serre_duality_on_gr(n_amb, ab):
    w = Weight(max(ab), min(ab))
    a = EObject.of_weight(w)
    o = EObject.of_weight(Weight(0, 0))
    lhs = gr_ext(o, a, n_amb)
    rhs = gr_ext(a, EObject.of_weight(Weight(-n_amb, -n_amb)), n_amb)
    top = 2 * (n_amb - 2)
    for deg in range(top + 1):
        assert dim_at(lhs, deg) == dim_at(rhs, top - deg)


def test_gr_ext_mutation_rule_inputs():
    # the mutation rules' input: Ext(S^{k-1}Uv(H), S^{k+1}Uv + S^{k-1}Uv(H)) = C[0]
    for n_amb in (5, 7, 9):
        n = n_amb // 2
        for k in range(1, n):
            a = EObject.of_weight(Weight(k, 1))
            b = EObject.of_weight(Weight(k + 1, 0)) + EObject.of_weight(Weight(k, 1))
            assert gr_ext(a, b, n_amb) == GradedDims.of([(0, 1)])
            # item (i): Ext(S^{k-1}Uv(2H), S^k Uv) = 0
            assert not gr_ext(
                EObject.of_weight(Weight(k + 1, 2)), EObject.of_weight(Weight(k, 0)), n_amb
            )


def test_gr_ext_exceptional_object():
    o = EObject.of_weight(Weight(0, 0))
    assert gr_ext(o, o, 6) == GradedDims.of([(0, 1)])


def test_gr_euler_examples():
    o = EObject.of_weight(Weight(0, 0))
    for n_amb in range(4, 9):
        uv = EObject.of_weight(Weight(1, 0))
        assert gr_euler(o, o, n_amb) == 1
        assert gr_euler(o, uv, n_amb) == n_amb
        assert gr_euler(uv, o, n_amb) == 0


@given(
    st.integers(min_value=4, max_value=7),
    st.lists(st.tuples(st.integers(-5, 5), st.integers(-5, 5)), min_size=1, max_size=3),
    st.tuples(st.integers(-5, 5), st.integers(-5, 5)),
)
@settings(max_examples=40)
def test_euler_bilinearity(n_amb, parts, ab):
    b = EObject.of_weight(Weight(max(ab), min(ab)))
    sums = [EObject.of_weight(Weight(max(p), min(p))) for p in parts]
    total = EObject.of([t for s in sums for t in s.terms])
    assert gr_euler(total, b, n_amb) == sum(gr_euler(s, b, n_amb) for s in sums)


def test_gr_route_rejects_h_twists():
    # An h-twisted term is not an object on Gr(2, N); ignoring the twist
    # would silently compute the cohomology of a different bundle.
    o = EObject.line()
    twisted = EObject.line(0, 1)
    with pytest.raises(ValueError):
        sum_cohomology(twisted, 5)
    with pytest.raises(ValueError):
        sum_cohomology(o + shifted(twisted, 1), 5)
    with pytest.raises(ValueError):
        gr_ext(o, twisted, 5)
    with pytest.raises(ValueError):
        gr_ext(EObject.schur(1, 0, -1) + o, o, 5)
    with pytest.raises(ValueError):
        gr_euler(o, twisted, 5)
