import copy
import pickle

from hypothesis import given, strategies as st

import pytest

from flipcheck.bwb import ZERO, GradedDims
from flipcheck.collections.engine import Collection, Entry
from flipcheck.collections.scriptgen import _O, _S
from flipcheck.flagx import _ZERO_EXT
from flipcheck.verify import Report
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


def _mixed_sum():
    # Terms given out of (a, b) order; equal a with different b, and a
    # negative b, are where a wrong sort key would show.
    return EObject.of(
        [(Weight(3, -1), 0, 0, 1), (Weight(1, 1), 2, 0, 1), (Weight(3, 0), 0, 0, 1),
         (Weight(-2, -2), 0, 1, 1), (Weight(1, 0), -1, 0, 1)]
    )


def _value_cases():
    """One ``pytest.param(thunk, expected, id=...)`` per case: ``expected``
    is what the thunk returns, an exception instance (type and message) or
    an exception type it raises."""
    w, e = Weight(2, 1), _mixed_sum()
    entry = Entry.pure(_S(1))
    cases = [
        ("weight-message", lambda: Weight(0, 1), ValueError("weight (0,1) violates a >= b")),
        ("weight-eq", lambda: (w == Weight(2, 1), w != Weight(2, 0), w == (2, 1)),
         (True, True, False)),
        ("weight-hash", lambda: hash(w) == hash((2, 1)), True),
        ("weight-order", lambda: (w < Weight(2, 2), w <= w, Weight(3, -4) > w, w >= w),
         (True, True, True, True)),
        ("weight-order-foreign", lambda: w < (2, 2), TypeError),
        ("eobject-eq", lambda: (e == _mixed_sum(), e == EObject(), e == e.terms),
         (True, False, False)),
        ("eobject-hash", lambda: hash(e) == hash((e.terms,)), True),
        ("eobject-iter", lambda: list(e) == list(e.terms), True),
        ("normalize-order", lambda: [(t[0].a, t[0].b) for t in e.terms],
         [(-2, -2), (1, 0), (1, 1), (3, -1), (3, 0)]),
        ("collection-eq", lambda: (Collection(5) == Collection(5),
                                   Collection(5) == Collection(7),
                                   Collection(5, [entry]) == Collection(5)),
         (True, False, False)),
        ("report-n", lambda: Report(1, "odd"), ValueError("need n >= 2")),
        ("report-parity", lambda: Report(3, "x"),
         ValueError("parity must be 'odd' or 'even', not 'x'")),
        ("weight-del", lambda: delattr(w, "a"), AttributeError),
        ("shared-objects", lambda: (_S(1) is _S(1), _O(1, -1) is _O(1, -1)), (True, True)),
    ]
    # Every field of every value type, on the shared values where there are
    # some: the cached shorthands and the one zero Ext outcome.
    fields = [(w, "a"), (w, "b"), (_S(1), "terms"), (_O(1, -1), "terms"), (ZERO, "dims")]
    fields += [(_ZERO_EXT, name) for name in ("kind", "front", "back")]
    fields += [(entry, name) for name in ("kind", "obj", "name", "kclass")]
    for obj, name in fields:
        cases.append((f"assign-{type(obj).__name__}.{name}",
                      lambda obj=obj, name=name: setattr(obj, name, None), AttributeError))
    return [pytest.param(thunk, expected, id=name) for name, thunk, expected in cases]


@pytest.mark.parametrize("thunk, expected", _value_cases())
def test_value_semantics(thunk, expected):
    # The value types' equality, hash, order, immutability and checks, as
    # the callers rely on them: the hashes fix set and dict order, and the
    # shared objects must not be writable.
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as info:
            thunk()
        assert str(info.value) == str(expected)
    elif isinstance(expected, type):
        with pytest.raises(expected):
            thunk()
    else:
        assert thunk() == expected


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize(
    "value, field",
    [(Weight(3, -1), "a"), (_S(1), "terms"), (_mixed_sum(), "terms"), (EObject(), "terms")],
    ids=["weight", "shared-schur", "mixed-sum", "zero"],
)
def test_value_copy_and_pickle_round_trip(copier, value, field):
    # A copy is rebuilt through the class, not by writing its slots: it is
    # an equal value of the same class with the same hash, and it still
    # refuses assignment.
    back = copier(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)
    with pytest.raises(AttributeError):
        setattr(back, field, None)
