import copy
import functools
import itertools
import pickle
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import lrm.states
from lrm.census import factor_automaton, spectral_radius
from lrm.states import (
    State,
    achievable_tails,
    chain,
    complete_states,
    find_completing_pattern,
    head_permutations,
    initial_state,
    initial_states_by_head,
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
    with pytest.raises(ValueError, match="does not determine the tracked order"):
        initial_state((1, 1), 3)
    with pytest.raises(ValueError, match="does not determine the tracked order"):
        state_oracle((1, 1), 3)
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
    for bad in ((0, 3), (-1, 0)):  # digits outside 0..t-1
        with pytest.raises(ValueError, match="digits must lie in 0..2"):
            state_oracle(bad, 3)
        with pytest.raises(ValueError, match="digits must lie in 0..2"):
            initial_state(bad, 3, (1, 2))
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


@functools.cache
def oracle_initial_states(t):
    """``state_oracle`` on every t-1 digit prefix under every head order."""
    return {
        (prefix, pi): state_oracle(prefix, t, pi)
        for prefix in itertools.product(range(t), repeat=t - 1)
        for pi in head_permutations(t)
    }


def oracle_groups(t):
    """Per prefix, the oracle's relation tuples by tracked order over every head order."""
    groups = {}
    for (prefix, _), state in oracle_initial_states(t).items():
        groups.setdefault(prefix, {}).setdefault(state.perm, set()).update(state.tuples)
    return groups


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_chain_seeded_initial_states_match_oracle(t):
    for (prefix, pi), state in oracle_initial_states(t).items():
        assert initial_state(prefix, t, pi) == state
    for prefix, groups in oracle_groups(t).items():
        oracle = frozenset(State(perm, tuples) for perm, tuples in groups.items())
        if len(oracle) == 1:
            assert {initial_state(prefix, t)} == oracle
        else:
            with pytest.raises(ValueError, match="does not determine the tracked order"):
                initial_state(prefix, t)


def window_neighbours(perm, digit):
    """New order and the block positions above and below the new cell (None when absent)."""
    t = len(perm) + 1
    insert_at = (t - 1) - digit
    window = list(perm[:insert_at]) + [t] + list(perm[insert_at:])
    above = window[insert_at - 1] if insert_at > 0 else None
    below = window[insert_at + 1] if insert_at + 1 < len(window) else None
    return tuple(lbl - 1 for lbl in window if lbl != 1), above, below


def bit_successor(state, digit):
    """Slow reference: the successor mask as the OR of one run image per set bit."""
    perm, mask = state
    t = len(perm) + 1
    new_perm, above, below = window_neighbours(perm, digit)
    out = 0
    while mask:
        low = mask & -mask
        mask ^= low
        index = low.bit_length() - 1
        lo = index // t ** (t - 1 - below) % t if below is not None else 0
        hi = index // t ** (t - 1 - above) % t if above is not None else t - 1
        if lo <= hi:
            out |= ((1 << (hi - lo + 1)) - 1) << (index % t ** (t - 2) * t + lo)
    return tuple.__new__(State, (new_perm, out))


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_successor_and_closure_match_per_bit_reference(t):
    # seeds from the oracle, stepped by the per-bit reference
    frontier = {State(perm, tuples) for groups in oracle_groups(t).values() for perm, tuples in groups.items()}
    seen = set(frontier)
    while frontier:
        nxt = set()
        for state in frontier:
            for digit in range(t):
                image = bit_successor(state, digit)
                assert successor(state, digit) == image
                if image not in seen:
                    seen.add(image)
                    nxt.add(image)
        frontier = nxt
    assert reachable_states(t) == seen


def test_successor_matches_per_bit_reference_t6():
    # t=6 dilates in two passes; masks past 4,300 bits would trip the int/str
    # digit limit if a base other than a power of two were used
    rng = random.Random("successor:6")
    wide = 0
    for pi in rng.sample(head_permutations(6), 12):
        state = initial_state(tuple(rng.randrange(6) for _ in range(5)), 6, pi)
        for _ in range(rng.randint(1, 30)):
            digit = rng.randrange(6)
            image = successor(state, digit)
            assert image == bit_successor(state, digit)
            state = image
            wide += state.mask.bit_length() > 4300
    assert wide


def test_states_stop_at_window_size_six():
    perm = tuple(range(1, 7))
    with pytest.raises(ValueError, match=r"t in \[2, 6\]"):
        State(perm, ())
    forged = tuple.__new__(State, (perm, 1))
    with pytest.raises(ValueError, match=r"window size must be in \[2, 6\], got 7"):
        successor(forged, 0)


@pytest.mark.parametrize("t", [3, 4, 5])
def test_successor_is_a_union_homomorphism_on_closure_states(t):
    # for a fixed order each tuple maps to its own run, so the successor of
    # a union of masks is the union of the successors
    rng = random.Random(f"union:{t}")
    by_perm = {}
    for state in sorted(reachable_states(t)):
        by_perm.setdefault(state.perm, []).append(state)
    orders = sorted(by_perm)
    for _ in range(200):
        a, b = rng.sample(by_perm[rng.choice(orders)], 2)
        union = tuple.__new__(State, (a.perm, a.mask | b.mask))
        for digit in range(t):
            left, right, joint = (successor(s, digit) for s in (a, b, union))
            assert joint.perm == left.perm == right.perm
            assert joint.mask == left.mask | right.mask
            # and the joint image is the true one, read off the tuple sets
            assert (joint.perm, joint.tuples) == set_successor(union, digit)


def test_initial_states_by_head_match_initial_state():
    for t in (2, 3, 4):
        for prefix in itertools.product(range(t), repeat=t - 1):
            expected = tuple((pi, initial_state(prefix, t, pi)) for pi in head_permutations(t))
            assert initial_states_by_head(prefix, t) == expected
    with pytest.raises(ValueError, match="exactly t-1"):
        initial_states_by_head((0, 1, 2), 3)


def test_cleared_caches_leave_states_cold():
    def clear():
        # every cache the module keeps, found as the benchmark finds them
        for value in vars(lrm.states).values():
            if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == lrm.states.__name__:
                value.cache_clear()

    def filled_globals():
        return [
            name
            for name, value in vars(lrm.states).items()
            if not name.startswith("__") and isinstance(value, (dict, set)) and value
        ]

    def table_rows():
        ids, states, rows = lrm.states._chain_table(4)
        return sum(entry is not None for row in rows for entry in row)

    clear()
    reachable_states(4)
    # the closure walks the uncached rule
    assert successor.cache_info().currsize == 0 and lrm.states._rule.cache_info().currsize > 0
    chain(initial_state((1, 2, 3), 4, (3, 2, 1)), (0, 1, 2, 3))
    assert successor.cache_info().currsize == 4
    assert table_rows() == 4
    clear()
    assert lrm.states._rule.cache_info().currsize == 0
    assert lrm.states._entry_at_most.cache_info().currsize == lrm.states._run_mask.cache_info().currsize == 0
    assert lrm.states._chain_table.cache_info().currsize == 0
    assert table_rows() == 0
    assert filled_globals() == []


def fold_successor(state, digits):
    """Slow reference for ``chain``: the uncached rule, one digit at a time."""
    for d in digits:
        state = successor.__wrapped__(state, d)
    return state


@pytest.mark.parametrize("t", [3, 4, 5])
def test_chain_matches_uncached_fold(t):
    rng = random.Random(f"chain:{t}")
    for pi in head_permutations(t):
        for k in range(6):
            if k == 3:  # a cold table and successor cache in the middle of the runs
                lrm.states._chain_table.cache_clear()
                successor.cache_clear()
            start = initial_state(tuple(rng.randrange(t) for _ in range(t - 1)), t, pi)
            digits = [rng.randrange(t) for _ in range(rng.randint(0, 500))]
            landing = chain(start, digits)
            assert landing == fold_successor(start, digits)
            assert type(landing) is State
            # a run split in two lands where the whole run does
            cut = rng.randint(0, len(digits))
            assert chain(chain(start, digits[:cut]), iter(digits[cut:])) == landing


def test_chain_on_an_empty_run_touches_no_table():
    start = initial_state((0, 1), 3, (1, 2))
    before = lrm.states._chain_table.cache_info()
    assert chain(start, ()) is start
    assert chain(start, iter([])) is start
    assert lrm.states._chain_table.cache_info() == before


def test_chain_rejects_digits_out_of_range():
    start = initial_state((0, 1), 3, (1, 2))
    chain(start, (0, 1, 2, 2))  # fill some rows first
    for digits, bad in [((0, 3), 3), ((0, -1), -1), ((1, 300), 300), ((0, 1, 2, -5), -5), ((-1,), -1)]:
        with pytest.raises(ValueError, match=f"digit out of range 0..2: {bad}$"):
            chain(start, digits)


@pytest.mark.parametrize("t", [2, 3, 4])
def test_achievable_tails_match_wrap_digits(t):
    for state in complete_states(t) | reachable_states(t):
        for pi in head_permutations(t):
            assert achievable_tails(state, pi) == frozenset(wrap_digits(pi, rel) for rel in state.tuples)


def test_achievable_tails_match_wrap_digits_t5_sample():
    rng = random.Random(5)
    for state in rng.sample(sorted(reachable_states(5)), 200):
        for pi in head_permutations(5):
            assert achievable_tails(state, pi) == frozenset(wrap_digits(pi, rel) for rel in state.tuples)


def set_successor(state, digit):
    """The successor rule on explicit tuple sets, one tuple at a time."""
    t = state.t
    new_perm, above, below = window_neighbours(state.perm, digit)
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


def forces_by_chains(pattern, t):
    """The per-state reference: the pattern run on its own from every reachable state."""
    return all(is_complete(chain(s, pattern)) for s in reachable_states(t))


@functools.cache
def reference_search(t, max_len, rate_filter):
    """The per-pattern loop: every pattern tested alone, then the numeric growth-rate filter."""
    found = set()
    for r in range(t, max_len + 1):
        for pattern in itertools.product(range(t), repeat=r):
            if not forces_by_chains(pattern, t):
                continue
            if rate_filter and not spectral_radius(factor_automaton(pattern, t).matrix) < t:
                continue
            found.add(pattern)
    return frozenset(found)


@pytest.mark.parametrize("t, top, rate_filter", [(2, 8, False), (3, 6, True), (4, 6, True)])
def test_find_completing_pattern_matches_per_pattern_loop(t, top, rate_filter):
    # equality with the filtered reference puts every found growth rate below t;
    # t=2 runs without the filter
    reference = reference_search(t, top, rate_filter)
    for max_len in range(t, top + 1):
        assert find_completing_pattern(t, max_len) == {p for p in reference if len(p) <= max_len}


def test_pattern_forces_complete_matches_per_state_chains():
    for r in (3, 4, 5):
        for pattern in itertools.product(range(3), repeat=r):
            landings = {chain(s, pattern) for s in reachable_states(3)}
            forces = all(map(is_complete, landings))
            landing = next(iter(landings)) if forces and len(landings) == 1 else None
            assert pattern_forces_complete(pattern, 3) == (forces, landing)


def test_find_completing_pattern_counts():
    assert len(find_completing_pattern(2, 6)) == 114
    assert len(find_completing_pattern(3, 8)) == 6_000
    assert len(find_completing_pattern(4, 7)) == 1_440
    assert len(find_completing_pattern(4, 8)) == 10_800


def test_avoiding_words_obey_the_block_bound():
    # no block of a word avoiding p equals p, so each of the m // r blocks has t^r - 1 choices
    for t in (2, 3, 4):
        for r in (1, 2, 3, 4):
            for pattern in itertools.product(range(t), repeat=r):
                automaton = factor_automaton(pattern, t)
                for m in range(3 * r + 1):
                    assert automaton.avoiding_count(m) <= (t**r - 1) ** (m // r) * t ** (m % r)


def test_forcing_is_closed_under_extension():
    found = find_completing_pattern(3, 5)
    assert found
    for pattern in found:
        for d in range(3):
            assert forces_by_chains(pattern + (d,), 3)
            assert forces_by_chains((d,) + pattern, 3)


def test_pattern_search_rejects_t_outside_state_range():
    for t in (-1, 0, 1, 6):
        with pytest.raises(ValueError, match=f"got {t}"):
            reachable_states(t)
    for t in (0, 1):
        with pytest.raises(ValueError, match=r"t in \[2, 5\]"):
            find_completing_pattern(t, 3)


def test_monotone_tuple_counts():
    for t in (2, 3, 4, 5):
        for perm in itertools.permutations(range(1, t)):
            assert len(monotone_tuples(perm)) == comb(2 * t - 2, t - 1)


def test_state_rendering():
    assert CHAIN_TOP.render() == "([2,1], {(2,2)})"
    only, = complete_states(2)
    assert only.render() == "([1], {(0),(1)})"
