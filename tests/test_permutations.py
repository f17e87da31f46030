import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as hst

from lrm.permutations import (
    apply_push,
    comparable_cells,
    rank_to_permutation,
    symbol_table,
    window_digit,
)

distinct_windows = hst.lists(
    hst.integers(min_value=-1000, max_value=1000), min_size=1, max_size=8, unique=True
)


def test_rank_to_permutation_examples():
    assert rank_to_permutation((3, 5, 2, 7, 10)) == (5, 4, 2, 1, 3)
    assert rank_to_permutation((9, 4, 1)) == (1, 2, 3)
    assert rank_to_permutation((3, 5, 2)) == (2, 1, 3)


def test_rank_to_permutation_rejects_duplicates():
    with pytest.raises(ValueError):
        rank_to_permutation((1, 2, 1))
    with pytest.raises(ValueError):
        rank_to_permutation(())


@given(distinct_windows, hst.integers(min_value=1, max_value=7), hst.integers(min_value=0, max_value=50))
def test_rank_to_permutation_monotone_invariance(window, scale, shift):
    rescaled = [scale * v + shift for v in window]
    assert rank_to_permutation(rescaled) == rank_to_permutation(window)


def test_window_digit_examples():
    assert window_digit((1, 2, 3)) == 0
    assert window_digit((3, 1, 2)) == 2
    assert window_digit((4, 1, 2, 3)) == 3


@given(distinct_windows)
def test_window_digit_is_codimension_of_top_label(window):
    perm = rank_to_permutation(window)
    t = len(perm)
    assert window_digit(perm) == t - (perm.index(t) + 1)


def test_symbol_table_t3_is_the_fixed_list():
    table = symbol_table(3)
    assert table.perms == ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1))
    assert table.permutation(1) == (1, 2, 3)
    assert table.symbol((3, 1, 2)) == 4
    assert table.permutation(6) == (3, 2, 1)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_symbol_bijection_round_trips(t):
    table = symbol_table(t)
    for symbol in range(1, table.size + 1):
        assert table.symbol(table.permutation(symbol)) == symbol
    assert len({table.permutation(s) for s in range(1, table.size + 1)}) == table.size


def test_symbol_table_bounds():
    with pytest.raises(ValueError):
        symbol_table(1)
    with pytest.raises(ValueError):
        symbol_table(7)
    with pytest.raises(ValueError):
        symbol_table(3).permutation(0)
    with pytest.raises(ValueError):
        symbol_table(3).permutation(7)
    with pytest.raises(ValueError):
        symbol_table(3).symbol((1, 1, 2))
    with pytest.raises(ValueError):
        symbol_table(3).symbol((1, 2))


def test_apply_push_examples():
    assert apply_push((3, 5, 2, 7, 10), 2, 2) == (3, 5, 8, 7, 10)
    # pushing the cell that is already on top still raises it by one
    assert apply_push((3, 5, 2, 7, 10), 4, 2) == (3, 5, 2, 7, 11)


def test_comparable_cells_windows():
    assert comparable_cells(2, 5, 2) == [1, 3]
    assert comparable_cells(0, 5, 3) == [1, 2, 3, 4]
    assert comparable_cells(0, 10, 3) == [1, 2, 8, 9]


@given(hst.permutations(list(range(6))), hst.integers(min_value=0, max_value=5))
def test_push_is_idempotent_on_the_induced_ordering(profile, i):
    # levels of far-apart cells may collide after a push; only the local
    # window orderings are meaningful, and those stabilise after one push
    from lrm.codec import demodulate

    once = apply_push(tuple(profile), i, 2)
    twice = apply_push(once, i, 2)
    assert demodulate(once, 2) == demodulate(twice, 2)


@given(hst.permutations(list(range(7))), hst.integers(min_value=0, max_value=6))
def test_push_sets_the_two_touched_digits(profile, i):
    from lrm.codec import demodulate, encode

    pushed = apply_push(tuple(profile), i, 2)
    digits = encode(demodulate(pushed, 2)).digits
    n = len(profile)
    assert (digits[(i - 1) % n], digits[i]) == (1, 0)


@pytest.mark.parametrize("t", [2, 3, 4, 5, 6])
def test_symbol_table_int_tables(t):
    table = symbol_table(t)
    orders = list(itertools.permutations(range(1, t)))
    for symbol in range(1, table.size + 1):
        perm = table.permutation(symbol)
        assert orders[table.head[symbol]] == tuple(lbl for lbl in perm if lbl != t)
        assert orders[table.tail[symbol]] == tuple(lbl - 1 for lbl in perm if lbl != 1)
        assert table.digit[symbol] == window_digit(perm)
        assert [(perm[k] - 1, perm[k + 1] - 1) for k in range(t - 1)] == list(table.pairs[symbol])
        for digit, nxt in enumerate(table.after[symbol]):
            # the next window keeps this window's t-1 newest cells and reads the digit
            assert table.head[nxt] == table.tail[symbol] and table.digit[nxt] == digit
