import copy
import itertools
import pickle
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lrm.states import (
    State,
    chain,
    complete_states,
    find_completing_pattern,
    head_permutations,
    initial_state,
    initial_states,
    is_complete,
    monotone_tuples,
    pattern_forces_complete,
    reachable_states,
    state_oracle,
    successor,
    tail_table,
    windows,
    wrap_digits,
)

STATE1 = State(perm=(1, 2), tuples=frozenset({(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}))
STATE2 = State(perm=(2, 1), tuples=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}))
CHAIN_TOP = State(perm=(2, 1), tuples=frozenset({(2, 2)}))


def test_initial_state_reference_prefixes():
    assert initial_state((2, 2), 3) == CHAIN_TOP
    assert initial_state((0, 0), 3) == State(perm=(1, 2), tuples=frozenset({(0, 0)}))
    assert initial_state((2, 0), 3) == State(perm=(1, 2), tuples=frozenset({(2, 0), (2, 1)}))


def test_initial_state_ambiguous_prefix_needs_head_order():
    # after digits (1, 1) the tracked order depends on the head order
    with pytest.raises(ValueError):
        initial_state((1, 1), 3)
    both = initial_states((1, 1), 3)
    assert {s.perm for s in both} == {(1, 2), (2, 1)}
    assert initial_state((1, 1), 3, pi=(1, 2)).perm == (1, 2)
    assert initial_state((1, 1), 3, pi=(2, 1)).perm == (2, 1)


def test_successor_table_over_complete_states():
    table = {
        (STATE1, 0): STATE1,
        (STATE1, 1): STATE2,
        (STATE1, 2): STATE2,
        (STATE2, 0): STATE1,
        (STATE2, 1): STATE1,
        (STATE2, 2): STATE2,
    }
    for (state, digit), expected in table.items():
        assert successor(state, digit) == expected


def test_successor_keeps_the_increasing_chain():
    assert successor(CHAIN_TOP, 2) == CHAIN_TOP


def test_is_complete():
    assert is_complete(STATE1)
    assert not is_complete(CHAIN_TOP)
    for state in complete_states(4):
        assert len(state.tuples) == comb(6, 3) == 20


def test_complete_states_catalogue():
    assert complete_states(3) == frozenset({STATE1, STATE2})
    assert len(complete_states(4)) == 6
    (only,) = complete_states(2)
    assert only == State(perm=(1,), tuples=frozenset({(0,), (1,)}))


@pytest.mark.parametrize("t", [2, 3, 4])
def test_complete_states_closed_and_mutually_reachable(t):
    states = complete_states(t)
    for state in states:
        for digit in range(t):
            assert successor(state, digit) in states
    for source in states:
        seen = {source}
        frontier = [source]
        while frontier:
            frontier = [
                nxt
                for cur in frontier
                for nxt in (successor(cur, d) for d in range(t))
                if nxt in states and nxt not in seen and not seen.add(nxt)
            ]
        assert seen == set(states)


def test_tail_table_t3_reference_counts():
    table = tail_table(3)
    assert len(table.tails[(STATE1, (1, 2))]) == 5
    assert len(table.tails[(STATE1, (2, 1))]) == 4
    assert len(table.tails[(STATE2, (1, 2))]) == 4
    assert len(table.tails[(STATE2, (2, 1))]) == 5
    assert table.tails[(STATE1, (1, 2))] == {(2, 1), (2, 0), (1, 1), (1, 0), (0, 0)}


@pytest.mark.parametrize("t", [2, 3, 4])
def test_tail_table_sums_and_partition(t):
    table = tail_table(t)
    target = t ** (t - 1)
    for state in complete_states(t):
        assert sum(len(v) for (s, _), v in table.tails.items() if s == state) == target
        union = set()
        total = 0
        for pi in head_permutations(t):
            tails = table.tails[(state, pi)]
            union |= tails
            total += len(tails)
        # the per-head tail sets partition all t^(t-1) endings
        assert total == target and len(union) == target
    for pi in head_permutations(t):
        assert sum(len(v) for (_, p), v in table.tails.items() if p == pi) == target


def _merged_wrap_windows(pi, tail_perm, rel):
    """Slow reference: the t-1 wrap windows read off the merged order of all 2t-2 cells.

    A tracked cell with relation value x sits above exactly the x lowest
    head cells, and tracked cells sharing a value keep their mutual order.
    Window k spans tail block positions k..t-1, then head cells 1..k.
    """
    t = len(pi) + 1
    head_asc = [("head", k) for k in reversed(pi)]
    tail_asc = [("tail", j) for j in reversed(tail_perm)]
    merged = []
    for band in range(t):
        merged.extend(tok for tok in tail_asc if rel[tok[1] - 1] == band)
        if band < t - 1:
            merged.append(head_asc[band])
    rank = {tok: r for r, tok in enumerate(merged)}
    digits = []
    perms = []
    for k in range(1, t):
        cells = [("tail", j) for j in range(k, t)] + [("head", m) for m in range(1, k + 1)]
        newest = ("head", k)
        digits.append(sum(1 for c in cells if c != newest and rank[c] < rank[newest]))
        perms.append(tuple(sorted(range(1, t + 1), key=lambda lbl: -rank[cells[lbl - 1]])))
    return tuple(digits), tuple(perms)


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_wrap_digits_match_merged_order(t):
    heads = head_permutations(t)
    tail_orders = heads if t <= 4 else heads[:1] + heads[-1:]
    for pi in heads:
        for rel in itertools.product(range(t), repeat=t - 1):
            digits = wrap_digits(pi, rel)
            # the closed form never reads the tail order, and neither do the true digits
            assert {_merged_wrap_windows(pi, tail, rel)[0] for tail in tail_orders} == {digits}
    for pi in heads:
        for tail in tail_orders:
            for rel in monotone_tuples(tail):
                digits, perms = _merged_wrap_windows(pi, tail, rel)
                # the successor rule reads the same wrap windows from the tail order
                assert tuple(windows(tail, digits)) == perms


def test_state_oracle_matches_reference_state():
    assert state_oracle((2, 2), 3) == CHAIN_TOP


@given(
    hst.integers(min_value=2, max_value=5).flatmap(
        lambda m: hst.tuples(
            hst.lists(hst.integers(min_value=0, max_value=2), min_size=m, max_size=m),
            hst.sampled_from(head_permutations(3)),
        )
    )
)
@settings(max_examples=80, deadline=None)
def test_chained_successors_match_oracle_t3(prefix_and_pi):
    prefix, pi = prefix_and_pi
    chained = chain(initial_state(prefix[:2], 3, pi), prefix[2:])
    assert chained == state_oracle(prefix, 3, pi)


def test_chained_successors_match_oracle_t4_sample():
    for prefix in itertools.product(range(4), repeat=4):
        if sum(prefix) % 5:  # thinned sample; the acceptance suite sweeps all
            continue
        for pi in head_permutations(4):
            chained = chain(initial_state(prefix[:3], 4, pi), prefix[3:])
            assert chained == state_oracle(prefix, 4, pi)


def test_oracle_guards():
    with pytest.raises(ValueError):
        state_oracle((0,) * 9, 3)  # 11 cells
    with pytest.raises(ValueError):
        state_oracle((0,), 3)  # below t-1 digits
    for pi in ((1, 1), (1,), (1, 2, 3)):  # not a permutation of 1..t-1
        with pytest.raises(ValueError, match="head order"):
            state_oracle((1, 1), 3, pi)
        with pytest.raises(ValueError, match="head order"):
            initial_state((1, 1), 3, pi)


@given(hst.lists(hst.integers(min_value=0, max_value=2), min_size=2, max_size=30))
@settings(max_examples=60)
def test_tuple_sets_never_empty(digits):
    state = initial_state(tuple(digits[:2]), 3, pi=(1, 2))
    for digit in digits[2:]:
        state = successor(state, digit)
        assert state.tuples


def test_pattern_forces_complete_reference():
    forces, landing = pattern_forces_complete((2, 0, 1, 1), 3)
    assert forces and landing == STATE1
    assert pattern_forces_complete((0, 1, 1), 3) == (False, None)
    forces4, landing4 = pattern_forces_complete((3, 3, 0, 1, 2, 1), 4)
    assert forces4 and landing4 is not None and is_complete(landing4)


def test_reachable_states_sizes():
    assert len(reachable_states(3)) == 32
    assert complete_states(3) <= reachable_states(3)
    assert len(reachable_states(4)) == 768
    assert len(reachable_states(5)) == 38_064


def set_successor(state, digit):
    """The successor rule on explicit tuple sets, one tuple at a time."""
    t = state.t
    insert_at = (t - 1) - digit
    window = list(state.perm[:insert_at]) + [t] + list(state.perm[insert_at:])
    above = window[insert_at - 1] if insert_at > 0 else None
    below = window[insert_at + 1] if insert_at + 1 < len(window) else None
    new_perm = tuple(lbl - 1 for lbl in window if lbl != 1)
    new_tuples = set()
    for tup in state.tuples:
        lo = tup[below - 1] if below is not None else 0
        hi = tup[above - 1] if above is not None else t - 1
        for y in range(lo, hi + 1):
            new_tuples.add(tup[1:] + (y,))
    return new_perm, frozenset(new_tuples)


@pytest.mark.parametrize("t", [3, 4])
def test_bitmask_successor_matches_tuple_sets(t):
    full = comb(2 * t - 2, t - 1)
    for state in reachable_states(t):
        assert is_complete(state) == (len(state.tuples) == full)
        for digit in range(t):
            image = successor(state, digit)
            assert (image.perm, image.tuples) == set_successor(state, digit)


def test_state_equality_follows_perm_and_tuples():
    states = sorted(reachable_states(3), key=lambda s: (s.perm, sorted(s.tuples)))
    for a in states:
        rebuilt = State(a.perm, a.tuples)
        assert rebuilt.tuples == a.tuples and rebuilt == a and hash(rebuilt) == hash(a)
        for b in states:
            assert (a == b) == ((a.perm, a.tuples) == (b.perm, b.tuples))
    # a non-monotone tuple set still round-trips through the mask
    odd = frozenset({(0, 1), (2, 0)})
    assert State((1, 2), odd).tuples == odd


def test_state_pickles_and_copies():
    for state in (CHAIN_TOP, STATE1, *complete_states(4)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(state, protocol)) == state
        assert copy.copy(state) == state and copy.deepcopy(state) == state
        assert type(copy.deepcopy(state)) is State
    assert repr(CHAIN_TOP) == "State(perm=(2, 1), tuples=frozenset({(2, 2)}))"


@pytest.mark.parametrize(
    "perm, tuples",
    [((1, 2), {(0,)}), ((1, 2), {(0, 0, 0)}), ((1, 2), {(0, 3)}), ((1, 2), {(-1, 0)}), ((1, 1), set()), ((), set())],
)
def test_state_rejects_malformed_input(perm, tuples):
    with pytest.raises(ValueError):
        State(perm=perm, tuples=frozenset(tuples))


def test_find_completing_pattern_t3():
    assert find_completing_pattern(3, 3) == set()
    found = find_completing_pattern(3, 4)
    assert (2, 0, 1, 1) in found
    assert len(found) == 12
    assert found == {
        (0, 0, 2, 1),
        (0, 0, 2, 2),
        (0, 1, 2, 1),
        (0, 1, 2, 2),
        (0, 2, 1, 0),
        (0, 2, 1, 1),
        (2, 0, 1, 1),
        (2, 0, 1, 2),
        (2, 1, 0, 0),
        (2, 1, 0, 1),
        (2, 2, 0, 0),
        (2, 2, 0, 1),
    }


def test_monotone_tuple_counts():
    for t in (2, 3, 4, 5):
        for perm in itertools.permutations(range(1, t)):
            assert len(monotone_tuples(perm)) == comb(2 * t - 2, t - 1)


def test_state_rendering():
    assert CHAIN_TOP.render() == "([2,1], {(2,2)})"
    only, = complete_states(2)
    assert only.render() == "([1], {(0),(1)})"
