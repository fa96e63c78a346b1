import pytest

from flipcheck.collections.blocks import (
    Block,
    BlockRangeError,
    make_block,
    notation,
)
from flipcheck.flagx import EObject


def test_block_h_case_split():
    assert make_block("H", (), 5) == [EObject.line(1, -2), EObject.line(1, -1)]
    assert make_block("H", (), 7) == [
        EObject.line(1, -2),
        EObject.line(1, -1),
        EObject.line(2, -3),
    ]


def test_block_hp_case_split():
    assert make_block("Hp", (), 4) == [EObject.line(1, -1)]
    assert len(make_block("Hp", (), 6)) == 2
    assert len(make_block("Hp", (), 8)) == 3


def test_block_staircase_bottom_corner():
    for n in (2, 3, 4):
        assert make_block("S", (0,), 2 * n + 1) == [EObject.line(n, n - 1)]


def test_block_staircase_sizes_and_rows():
    n = 4
    cells = make_block("S", (2,), 2 * n + 1)
    assert len(cells) == 9  # (k+1)^2
    assert cells[0] == EObject.line(n, n - 1)
    assert cells[-1] == EObject.line(n + 2, n - 1)


def test_block_f_case_split():
    n = 5
    shorter = make_block("F", (n - 2,), 2 * n + 1)
    longer = make_block("F", (0,), 2 * n + 1)
    assert len(shorter) == 2 and len(longer) == 3
    assert shorter[0] == EObject.schur(n - 2, 1)
    assert longer[2] == EObject.line(3, -4)  # O(3(H-h)-h)


def test_block_fp_case_split():
    n = 5
    assert len(make_block("Fp", (0,), 2 * n)) == 3  # l <= n-5
    assert len(make_block("Fp", (1,), 2 * n)) == 2


def test_block_b_and_c_and_e():
    assert make_block("B", (2,), 9) == [EObject.line(0, 3), EObject.schur(2, 1, -1)]
    assert make_block("C", (2,), 9) == [EObject.line(0, 2), EObject.schur(2, 1, -2)]
    assert make_block("E", (2,), 9) == [
        EObject.line(0, 2),
        EObject.schur(1, 1, -1),
        EObject.line(3, -4),
    ]


def test_block_range_errors():
    with pytest.raises(BlockRangeError):
        make_block("E", (0,), 9)
    with pytest.raises(BlockRangeError):
        make_block("S", (4,), 9)  # k > n-2
    with pytest.raises(BlockRangeError):
        make_block("nope", (), 9)
    # n = 4: B(l) and C(l) take 0 <= l <= 2, E(l) takes 1 <= l <= 2.
    for name, l in (("B", -1), ("B", 3), ("C", -1), ("C", 3), ("E", 3)):
        with pytest.raises(BlockRangeError, match="out of range"):
            make_block(name, (l,), 9)
    for name, l in (("B", 0), ("B", 2), ("C", 0), ("C", 2), ("E", 1), ("E", 2)):
        assert make_block(name, (l,), 9)


def test_block_empty_segments_allowed():
    assert make_block("Au", (4,), 9) == []  # A^n is empty
    assert make_block("Aseg", (1, 0), 9) == []


def test_block_twist_applied():
    objs = make_block("A", (), 5, twist=(2, -1))
    assert objs[0] == EObject.line(2, -1)


def test_block_text():
    for block, text in (
        (Block("A"), "A"),
        (Block("Au", (2,)), "Au(2)"),
        (Block("cell", (-3, 4)), "cell(-3,4)"),
        (Block("A", (), (5, 0)), "A@(5H)"),
        (Block("Aseg", (1, 2), (0, -1)), "Aseg(1,2)@(-1h)"),
        (Block("Aseg", (0, 3), (1, -1)), "Aseg(0,3)@(1H-1h)"),
        (Block("Aseg", (2, 2), (-2, -1)), "Aseg(2,2)@(-2H-1h)"),
        (Block("B", (0,), (-1, 2)), "B(0)@(-1H+2h)"),
    ):
        assert str(block) == text
        assert "{} at {}".format(block, 4) == f"{text} at 4"


def test_notation_examples():
    assert notation(EObject.line()) == "O"
    assert notation(EObject.line(1, -2)) == "O(H-2h)"
    assert notation(EObject.schur(2, 1)) == "S^2Uv(H)"
    assert notation(EObject.schur(1, 0, -1)) == "Uv(-h)"
    assert notation(EObject.line(-1, -1)) == "O(-H-h)"
