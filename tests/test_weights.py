from hypothesis import given, strategies as st

import pytest

from flipcheck.bwb import GradedDims
from flipcheck.weights import EObject, Weight

from reference import cg_tensor, dual, hom_object, rank, shifted


weights = st.tuples(
    st.integers(min_value=-8, max_value=8), st.integers(min_value=-8, max_value=8)
).map(lambda ab: Weight(max(ab), min(ab)))


def test_weight_rejects_bad_order():
    with pytest.raises(ValueError):
        Weight(0, 1)


def test_dual_examples():
    assert dual(Weight(0, 0)) == Weight(0, 0)
    assert dual(Weight(3, 0)) == Weight(0, -3)  # (S^3 Uv)^vee = S^3 U
    assert dual(Weight(1, 1)) == Weight(-1, -1)  # O(H)^vee = O(-H)


def test_twist_examples():
    assert Weight(3, 0).twist(1) == Weight(4, 1)
    assert Weight(4, 0).twist(-1) == Weight(3, -1)
    assert Weight(0, 0).twist(5) == Weight(5, 5)


def test_cg_rank2_plethysm():
    # Uv (x) Uv = S^2 Uv + L^2 Uv
    assert cg_tensor(Weight(1, 0), Weight(1, 0)) == EObject.of(
        [(Weight(2, 0), 0, 0, 1), (Weight(1, 1), 0, 0, 1)]
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cg_matches_displayed_decomposition(n):
    # S^{n-1}U(-H) (x) S^n Uv = sum_t Sigma^{n-t-1, -n+t}
    got = cg_tensor(Weight(-1, -n), Weight(n, 0))
    assert got == EObject.of(
        [(Weight(n - t - 1, -n + t), 0, 0, 1) for t in range(n)]
    )


def test_cg_line_bundle_is_single_term():
    assert cg_tensor(Weight(2, 2), Weight(5, 1)) == EObject.of_weight(Weight(7, 3))


@given(weights, weights)
def test_cg_commutative(w1, w2):
    assert cg_tensor(w1, w2) == cg_tensor(w2, w1)


@given(weights, weights)
def test_cg_conserves_rank(w1, w2):
    total_rank = sum(rank(w) * m for w, _, _, m in cg_tensor(w1, w2))
    assert total_rank == rank(w1) * rank(w2)


@given(weights, weights)
def test_cg_outputs_dominant(w1, w2):
    for w, _, _, _ in cg_tensor(w1, w2):
        assert w.a >= w.b


@given(weights)
def test_dual_involution(w):
    assert dual(dual(w)) == w


@given(weights, st.integers(min_value=-6, max_value=6))
def test_twist_inverse(w, c):
    assert w.twist(c).twist(-c) == w


def test_hom_object_trivial():
    o = EObject.of_weight(Weight(0, 0))
    assert hom_object(o, o) == o


def test_hom_object_shifts_subtract():
    a = shifted(EObject.of_weight(Weight(0, 0)), 2)
    b = shifted(EObject.of_weight(Weight(1, 1)), -1)
    assert hom_object(a, b) == shifted(EObject.of_weight(Weight(1, 1)), -3)


def test_hom_object_twisted_power_pairing():
    # Hom(S^{n-1}Uv(H), S^n Uv) for n = 3
    n = 3
    a = EObject.of_weight(Weight(n, 1))
    b = EObject.of_weight(Weight(n, 0))
    assert hom_object(a, b) == EObject.of(
        [(Weight(n - t - 1, -n + t), 0, 0, 1) for t in range(n)]
    )


def test_normal_form_merges_and_orders():
    s = EObject.of(
        [(Weight(1, 0), 0, 0, 1), (Weight(0, 0), 0, 0, 2), (Weight(1, 0), 0, 0, 1)]
    )
    assert s.terms == ((Weight(0, 0), 0, 0, 2), (Weight(1, 0), 0, 0, 2))
    assert not EObject()


def test_normal_form_drops_zeros_and_rejects_negatives():
    assert EObject.of([(Weight(0, 0), 0, 0, 0)]) == EObject()
    assert GradedDims.of([(3, 0), (1, 2), (3, 0)]).dims == ((1, 2),)
    with pytest.raises(ValueError):
        EObject.of([(Weight(0, 0), 0, 0, -1)])
    with pytest.raises(ValueError):
        GradedDims.of([(0, -1)])


terms = st.lists(
    st.tuples(weights, st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
    max_size=8,
)


@given(terms)
def test_normal_form_matches_merge_and_sort(entries):
    # One normalizer for EObject and GradedDims: merge by key, drop zeros,
    # order terms by (a, b, h-twist, shift) and degrees ascending.
    merged = {}
    for w, dh, s, m in entries:
        if m:
            merged[(w.a, w.b, dh, s)] = merged.get((w.a, w.b, dh, s), 0) + m
    assert EObject.of(entries).terms == tuple(
        (Weight(a, b), dh, s, m) for (a, b, dh, s), m in sorted(merged.items())
    )
    degrees = {}
    for _, _, s, m in entries:
        if m:
            degrees[s] = degrees.get(s, 0) + m
    assert GradedDims.of((s, m) for _, _, s, m in entries).dims == tuple(
        sorted(degrees.items())
    )
