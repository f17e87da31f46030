import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lrm.codec import Codeword, decode_general, demodulate, encode, realizable
from lrm.graycode import (
    MODES,
    GrayCycle,
    GrayGraph,
    longest_cycle,
    push_step,
    validate_cycle,
    weight_words,
)
from lrm.permutations import apply_push

# maxima fixed by the exhaustive search itself, per mode and length
SEARCH_MAXIMA = {
    "adjacent": {3: 3, 4: 4, 5: 10, 6: 12, 7: 14, 8: 16},
    "any": {3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0},
}


def test_push_step_modes_and_input_errors():
    assert not push_step("00011", "01010", "adjacent")  # positions 1 and 4
    assert push_step("00011", "01010", "any")
    with pytest.raises(ValueError):
        push_step("01", "011")
    with pytest.raises(ValueError):
        push_step("01", "11")
    with pytest.raises(ValueError):
        push_step("01", "10", "diagonal")


def test_push_step_is_the_directed_half():
    assert push_step("0011", "0101")  # 01 -> 10 at (1, 2)
    assert not push_step("0101", "0011")
    assert push_step("1010", "0011")  # wrap pair (3, 0) read cyclically
    assert not push_step("0011", "1010")
    # mode "any" reads the pair left to right, so no wrap move exists
    assert push_step("0101", "0110", "any")
    assert not push_step("1010", "0011", "any")


@given(
    hst.integers(min_value=3, max_value=7).flatmap(
        lambda n: hst.tuples(
            hst.sampled_from(weight_words(n, 2)), hst.sampled_from(weight_words(n, 2))
        )
    )
)
@settings(max_examples=150)
def test_push_step_antisymmetric_irreflexive(pair):
    u, v = pair
    assert not push_step(u, u)
    diffs = [i for i in range(len(u)) if u[i] != v[i]]
    swap = len(diffs) == 2 and diffs[1] - diffs[0] in (1, len(u) - 1)
    # words one cyclically adjacent swap apart are one step apart, in one direction only
    assert (push_step(u, v) or push_step(v, u)) == swap
    assert not (push_step(u, v) and push_step(v, u))


def test_longest_cycle_search_maxima():
    for mode, table in SEARCH_MAXIMA.items():
        for n, expected in table.items():
            length, cycle = longest_cycle(n, 2, mode)
            assert length == expected, (mode, n)
            if expected:
                assert validate_cycle(cycle.words, n, 2, mode).ok
            else:
                assert cycle is None


def test_longest_cycle_triangle():
    length, cycle = longest_cycle(3, 2)
    assert length == 3
    assert set(cycle.words) == {"011", "101", "110"}


def test_longest_cycle_budget():
    with pytest.raises(ValueError):
        longest_cycle(17, 2)


def test_longest_cycle_budget_precedes_the_graph(monkeypatch):
    def build(*args):
        raise AssertionError("graph built before the budget check")

    monkeypatch.setattr(GrayGraph, "build", build)
    with pytest.raises(ValueError, match="137846528820 vertices exceed the search budget 120"):
        longest_cycle(40, 20)


def test_validate_cycle_reference_sequences():
    assert validate_cycle(["011", "101", "110"], 3, 2).ok
    duplicated = validate_cycle(["011", "101", "011"], 3, 2)
    assert not duplicated.ok and duplicated.reason == "duplicate"
    # reordering the triangle breaks the step orientation
    reordered = validate_cycle(["011", "110", "101"], 3, 2)
    assert not reordered.ok and reordered.reason == "adjacency"


def test_validate_cycle_reason_codes():
    assert validate_cycle([], 3, 2).reason == "length"
    assert validate_cycle(["0111"], 3, 2).reason == "length"
    assert validate_cycle(["111"], 3, 2).reason == "weight"
    assert validate_cycle(["011"], 3, 2).reason == "wrap"
    bad_wrap = validate_cycle(["0011", "0101", "0110"], 4, 2)
    assert not bad_wrap.ok and bad_wrap.reason == "wrap"


def test_cycle_file_round_trip(tmp_path):
    _, cycle = longest_cycle(5, 2)
    text = cycle.to_file_text()
    assert text.splitlines()[0] == "n=5 w=2 len=10"
    again = GrayCycle.from_file_text(text)
    assert again.words == cycle.words
    with pytest.raises(ValueError):
        GrayCycle.from_file_text("0101\n1010\n")


def test_gray_graph_shape():
    graph = GrayGraph.build(5, 2)
    assert len(graph.vertices) == 10
    # out-degree is at most the weight: each token can move left at most once
    assert all(len(graph.successors[v]) <= 2 for v in graph.vertices)
    # successors are made by direct swaps; push_step over all pairs is the check
    for mode in MODES:
        for n in range(5, 9):
            for w in range(1, n):
                graph = GrayGraph.build(n, w, mode)
                for u in graph.vertices:
                    assert graph.successors[u] == tuple(v for v in graph.vertices if push_step(u, v, mode))
    with pytest.raises(ValueError):
        GrayGraph.build(5, 2, "diagonal")
    for n in (0, 1):  # the search builds the graph before it takes anything mod n
        with pytest.raises(ValueError, match="n >= 2"):
            longest_cycle(n, 0)


def _one_sum(word):
    return sum(i for i, ch in enumerate(word) if ch == "1")


def test_adjacent_steps_lower_the_one_sum_by_one_mod_n():
    """The fact behind the period-n cut: each step drops the one-position sum by 1 mod n."""
    for n in range(2, 10):
        for w in range(n + 1):
            words = weight_words(n, w)
            for u in words:
                for v in words:
                    if push_step(u, v):
                        assert (_one_sum(u) - _one_sum(v)) % n == 1


def test_any_steps_strictly_lower_the_one_sum():
    """The lemma behind longest_cycle's (0, None) in mode "any": no step can close a cycle."""
    for n in range(2, 10):
        for w in range(n + 1):
            graph = GrayGraph.build(n, w, "any")
            for u in graph.vertices:
                assert all(_one_sum(v) < _one_sum(u) for v in graph.successors[u])


def test_rotations_map_steps_to_steps():
    """The fact behind the rotation cut: for n >= 3 rotating both ends of a step gives a step."""
    for n in range(3, 10):
        for w in range(n + 1):
            graph = GrayGraph.build(n, w)
            for u in graph.vertices:
                for v in graph.successors[u]:
                    for r in range(n):
                        assert v[r:] + v[:r] in graph.successors[u[r:] + u[:r]], (u, v, r)
    for w in range(3):  # at n = 2 the wrap pair is no edge, and no cycle exists
        assert longest_cycle(2, w) == (0, None)


def _reference_longest_cycle(n, w, mode):
    """Slow reference: plain string-set backtracking over push_step successors."""
    verts = weight_words(n, w)
    index = {v: i for i, v in enumerate(verts)}
    succ = {u: tuple(v for v in verts if push_step(u, v, mode)) for u in verts}
    best_len, best = 0, None

    def reach_and_closable(u, si, on_path, start):
        seen, stack, closable, count = {u}, [u], start in succ[u], 0
        while stack:
            for y in succ[stack.pop()]:
                if index[y] <= si or y in on_path or y in seen:
                    continue
                seen.add(y)
                count += 1
                stack.append(y)
                closable = closable or start in succ[y]
        return count, closable

    for si, start in enumerate(verts):
        if len(verts) - si <= best_len:
            break
        path, on_path = [start], {start}

        def extend(u):
            nonlocal best_len, best
            for v in succ[u]:
                if index[v] <= si or v in on_path:
                    continue
                path.append(v)
                on_path.add(v)
                if len(path) >= 3 and start in succ[v] and len(path) > best_len:
                    best_len, best = len(path), tuple(path)
                room, closable = reach_and_closable(v, si, on_path, start)
                if closable and len(path) + room > best_len:
                    extend(v)
                on_path.discard(v)
                path.pop()

        extend(start)
    return best_len, best


# (10, 2) and (10, 8) keep the reference, which has no 2n stop, proving that bound and its witness
DIFFERENTIAL_CASES = [(n, w) for n in range(2, 9) for w in range(1, n) if (n, w) != (8, 4)]
DIFFERENTIAL_CASES += [(9, 2), (10, 2), (10, 8)]


@pytest.mark.parametrize("mode", MODES)
def test_longest_cycle_matches_reference_search(mode):
    """Same length and same witness words as the plain backtracking search."""
    for n, w in DIFFERENTIAL_CASES:
        length, cycle = longest_cycle(n, w, mode)
        assert (length, cycle.words if cycle else None) == _reference_longest_cycle(n, w, mode), (n, w)
        if mode == "adjacent":
            assert length % n == 0, (n, w)


@pytest.mark.parametrize(("n", "w", "expected"), [(8, 4, 64), (9, 3, 81)])
def test_longest_cycle_former_hangs(n, w, expected):
    """Maxima for weights three and four, each a multiple of n."""
    length, cycle = longest_cycle(n, w)
    assert length == expected
    assert validate_cycle(cycle.words, n, w).ok


@pytest.mark.parametrize("n", range(12, 17))
def test_longest_cycle_reaches_2n_beyond_the_reference(n):
    """Weights 2 and n - 2 stop at the paper's 2n bound, and complementing and
    reversing the weight n - 2 witness gives a weight-two cycle."""
    cycles = {}
    for w in (2, n - 2):
        length, cycle = longest_cycle(n, w)
        assert length == 2 * n
        assert validate_cycle(cycle.words, n, w).ok
        cycles[w] = cycle.words
    flipped = [word.translate(str.maketrans("01", "10")) for word in reversed(cycles[n - 2])]
    assert validate_cycle(flipped, n, 2).ok


# witnesses of the search before the rotation cut, which must not change them
PINNED_WITNESSES = {
    (10, 2): """0000000011 0000000101 0000000110 0000001010 0000001100 0000010100
        0000011000 0000101000 0000110000 0001010000 0001100000 0010100000
        0011000000 0101000000 0110000000 1010000000 0010000001 0010000010
        0100000010 1000000010""",
    (10, 8): """0011111111 0101111111 0110111111 0111011111 0111101111 0111110111
        0111111011 1011111011 1011111101 1101111101 1101111110 1110111110
        1111011110 1111101110 1111110110 1111111010 1111111100 0111111101
        0111111110 1011111110""",
    (11, 2): """00000000011 00000000101 00000000110 00000001010 00000001100 00000010100
        00000011000 00000101000 00000110000 00001010000 00001100000 00010100000
        00011000000 00101000000 00110000000 01010000000 01100000000 10100000000
        00100000001 00100000010 01000000010 10000000010""",
    (11, 9): """00111111111 01011111111 01101111111 01110111111 01111011111 01111101111
        01111110111 01111111011 10111111011 10111111101 11011111101 11011111110
        11101111110 11110111110 11111011110 11111101110 11111110110 11111111010
        11111111100 01111111101 01111111110 10111111110""",
}


@pytest.mark.parametrize(("n", "w"), list(PINNED_WITNESSES))
def test_longest_cycle_keeps_pinned_witness(n, w):
    length, cycle = longest_cycle(n, w)
    assert length == 2 * n
    assert cycle.words == tuple(PINNED_WITNESSES[n, w].split())


def _word_of(profile):
    return "".join(map(str, encode(demodulate(profile, 2)).digits))


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_push_moves_match_adjacency_exhaustively(n):
    """Each weight-preserving push is one directed step, and conversely."""
    for word in weight_words(n, 2):
        base = Codeword(2, tuple(int(c) for c in word))
        ok, profile = realizable(decode_general(base).pop())
        assert ok
        assert _word_of(profile) == word
        for cell in range(n):
            pushed = apply_push(profile, cell, 2)
            target = _word_of(pushed)
            if target == word:
                continue
            if target.count("1") != word.count("1"):
                continue
            assert push_step(word, target)
        for other in weight_words(n, 2):
            if push_step(word, other):
                cells = [cell for cell in range(n) if _word_of(apply_push(profile, cell, 2)) == other]
                assert len(cells) == 1
