"""State machinery for legality of cyclic window-digit words.

While scanning a digit word left to right, everything the future depends on
is captured by a *state*: the mutual order of the last t-1 cells seen, plus
the set of relation tuples those cells can still have to the first t-1
cells (the head).  A relation value in 0..t-1 counts how many head cells
sit strictly below a tracked cell.  A state whose tuple set contains every
tuple consistent with its mutual order is *complete*; there are (t-1)! of
them and they are closed under the successor rule.

Digit d of window i fixes the rank of the newest cell among the t-1 cells
before it, so consuming one digit inserts a new cell into the tracked
order, re-bands its head relation between the relations of its window
neighbours, and drops the oldest tracked cell.  Each relation tuple maps
to its own run of new tuples, so the rule steps a whole tuple bitmask at
once: spread every bit to a t-bit slot, keep each slot's run, and OR the
t segments the slots fall in.

The first state of a word comes from the same rule: it starts at the head
order, with the head cells as the tracked cells, and consumes the t-1 head
digits; a head cell's relation sits between two integers, so the walk keeps
doubled codes.  ``state_oracle`` builds states by enumerating cell orders
instead, and is the independent reference the rule is tested against.

States here come in two flavours.  Conditioned on a head permutation pi
the state sequence of a word is always well defined.  Unconditioned states
(no pi) are only well defined when every head order yields the same
tracked-cell order; ``initial_state`` and ``state_oracle`` raise otherwise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import comb
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

from .permutations import MAX_WINDOW, MIN_WINDOW, Perm

RelTuple = tuple[int, ...]

_ORACLE_MAX_CELLS = 10


class State(tuple):
    """Tracked order of the last t-1 cells plus their achievable head relations.

    ``perm`` lists tracked-cell block positions (1 = oldest) from the highest
    charge down.  The relation tuples (indexed by block position) are kept
    as the bitmask ``mask``: bit i stands for the tuple whose base-t digits,
    first entry most significant, spell i.  A state is the plain pair
    ``(perm, mask)``, so hashing and equality run at tuple speed;
    ``tuples`` is a derived ``frozenset`` view.
    """

    __slots__ = ()

    def __new__(cls, perm: Perm, tuples: Iterable[RelTuple]) -> State:
        perm = tuple(perm)
        t = len(perm) + 1
        if not MIN_WINDOW <= t <= MAX_WINDOW or sorted(perm) != list(range(1, t)):
            raise ValueError(f"tracked order must be a permutation of 1..t-1 for t in [2, {MAX_WINDOW}], got {perm}")
        mask = 0
        for tup in tuples:
            if len(tup) != t - 1 or any(not 0 <= x < t for x in tup):
                raise ValueError(f"relation tuples need t-1 = {t - 1} entries in 0..{t - 1}, got {tup}")
            mask |= 1 << _tuple_index(tup, t)
        return tuple.__new__(cls, (perm, mask))

    perm = property(itemgetter(0))
    mask = property(itemgetter(1))

    @property
    def t(self) -> int:
        return len(self.perm) + 1

    @property
    def tuples(self) -> frozenset[RelTuple]:
        table = _all_tuples(self.t)
        return frozenset(table[i] for i in _set_bits(self.mask))

    def __reduce__(self):
        return State, (self.perm, self.tuples)

    def __repr__(self) -> str:
        return f"State(perm={self.perm!r}, tuples={self.tuples!r})"

    def render(self) -> str:
        table = _all_tuples(self.t)
        body = ",".join("(" + ",".join(map(str, table[i])) + ")" for i in _set_bits(self.mask))
        return "([" + ",".join(map(str, self.perm)) + "], {" + body + "})"

    __str__ = render


def _tuple_index(tup: RelTuple, t: int) -> int:
    i = 0
    for x in tup:
        i = i * t + x
    return i


@lru_cache(maxsize=None)
def _all_tuples(t: int) -> tuple[RelTuple, ...]:
    """Every relation tuple of window size t, in bit-index order."""
    return tuple(itertools.product(range(t), repeat=t - 1))


def _set_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def monotone_tuples(perm: Perm) -> frozenset[RelTuple]:
    """All relation tuples consistent with a tracked-cell order.

    If block position a sits above block position b then a's relation value
    must be >= b's.  Exactly C(2t-2, t-1) tuples qualify.
    """
    t = len(perm) + 1
    return frozenset(
        tup
        for tup in itertools.product(range(t), repeat=t - 1)
        if all(tup[hi - 1] >= tup[lo - 1] for hi, lo in itertools.combinations(perm, 2))
    )


def is_complete(state: State) -> bool:
    """True when every monotone-consistent tuple is achievable."""
    return state.mask.bit_count() == comb(2 * state.t - 2, state.t - 1)


@lru_cache(maxsize=None)
def complete_states(t: int) -> frozenset[State]:
    """The (t-1)! complete states, one per tracked-cell order."""
    if not 2 <= t <= 5:
        raise ValueError(f"complete-state tables are kept enumerable for t in [2, 5], got {t}")
    return frozenset(State(perm, monotone_tuples(perm)) for perm in itertools.permutations(range(1, t)))


def _dilate(mask: int, t: int) -> int:
    """Move bit i of a mask to bit t*i: its binary digits read in base 2^t.

    ``int`` takes bases up to 36, so t = 6 spreads in two passes (base 4, then
    base 8).  Power-of-two bases are exempt from the int/str digit limit.
    """
    if t <= 5:
        return int(bin(mask)[2:], 1 << t)
    if t == 6:
        return int(bin(int(bin(mask)[2:], 4))[2:], 8)
    raise ValueError(f"window size must be in [{MIN_WINDOW}, {MAX_WINDOW}], got {t}")


@lru_cache(maxsize=None)
def _entry_at_most(t: int) -> tuple[tuple[int, ...], ...]:
    """Dilated masks of the tuples whose entry at block position p is <= v, as ``[p - 1][v]``.

    Entry p is the base-t digit of weight w = t^(t-1-p), so the tuples with
    entry <= v fill the first (v+1)*w indices of every period of t*w.
    """
    out = []
    for p in range(1, t):
        w = t ** (t - 1 - p)
        repeat = ((1 << t ** (t - 1)) - 1) // ((1 << t * w) - 1)
        out.append(tuple(_dilate(((1 << (v + 1) * w) - 1) * repeat, t) for v in range(t)))
    return tuple(out)


@lru_cache(maxsize=None)
def _run_mask(t: int, above: int | None, below: int | None) -> int:
    """Bit ``t*j + y`` is set when y lies between tuple j's entries at ``below`` and ``above`` (0, t-1 if absent)."""
    at_most = _entry_at_most(t)
    runs = 0
    for y in range(t):  # y >= the entry below, and not y > the entry above
        ok = at_most[below - 1][y] if below is not None else at_most[0][t - 1]
        if above is not None and y:
            ok &= ~at_most[above - 1][y - 1]
        runs |= ok << y
    return runs


@lru_cache(maxsize=None)
def _rule(perm: Perm, digit: int) -> tuple[Perm, Perm, int | None, int | None, int]:
    """The successor rule of one (order, digit) pair.

    Returns the window permutation the digit reads, the new order, the
    block positions of the new cell's window neighbours above and below it
    (None when absent), and their ``_run_mask``: tuple j maps to the tuples
    ``tail(j) + (y,)`` for the y its bits ``t*j + y`` hold.
    """
    t = len(perm) + 1
    insert_at = (t - 1) - digit  # index in the descending window order
    window = perm[:insert_at] + (t,) + perm[insert_at:]
    above = window[insert_at - 1] if insert_at > 0 else None
    below = window[insert_at + 1] if insert_at + 1 < len(window) else None
    return window, tuple(lbl - 1 for lbl in window if lbl != 1), above, below, _run_mask(t, above, below)


def _successors(state: State, digits: Iterable[int]) -> Iterator[State]:
    """The successor rule, uncached, for several digits at one dilation of the state's mask.

    Bit i of the mask spreads to bits ``t*i .. t*i + t-1``; a digit's run
    mask keeps the run of each tuple.  Bit ``t*j + y`` is bit
    ``tail(j)*t + y`` of the segment of width t^(t-1) that j's oldest
    relation picks, so the image is the OR of the t segments.
    """
    perm, mask = state
    t = len(perm) + 1
    spread = _dilate(mask, t) * ((1 << t) - 1)
    width = t ** (t - 1)
    full = (1 << width) - 1
    for d in digits:
        _, new_perm, _, _, runs = _rule(perm, d)
        hit = spread & runs
        image = 0
        while hit:
            image |= hit & full
            hit >>= width
        yield tuple.__new__(State, (new_perm, image))


@lru_cache(maxsize=None)
def successor(state: State, digit: int) -> State:
    """Exact successor state after consuming one digit.

    The new cell enters the window with ``digit`` old cells below it; its
    head relation ranges between the relations of the window cells directly
    below and above it (0 and t-1 when absent).  The oldest cell drops out.
    For a fixed order and digit each tuple maps to its own run of tuples,
    so the rule is a union homomorphism on masks; ``_successors`` takes
    the image of every tuple at once in one dilate-and-mask step.
    """
    if not 0 <= digit <= len(state[0]):
        raise ValueError(f"digit out of range 0..{len(state[0])}: {digit}")
    return next(_successors(state, (digit,)))


_ChainTable = tuple[dict[State, int], list[State], list[dict[int, int]]]


@lru_cache(maxsize=None)
def _chain_table(t: int) -> _ChainTable:
    """The transition table ``chain`` grows for window size t.

    A state -> id dict, the states by id, and one row per id mapping each
    digit a chain has read from that state to the successor's id.  A
    digit outside 0..t-1 never gets an entry: ``successor`` raises on it.
    """
    return {}, [], []


def _state_id(table: _ChainTable, state: State) -> int:
    ids, states, rows = table
    s = ids.get(state)
    if s is None:
        s = ids[state] = len(states)
        states.append(state)
        rows.append({})
    return s


def chain(state: State, digits: Iterable[int]) -> State:
    """The state after consuming a run of digits.

    Walks state ids through the rows of ``_chain_table``; an entry the row
    lacks is filled from the cached ``successor``, which also rejects a
    digit outside 0..t-1.  An empty run touches no table.
    """
    digits = tuple(digits)
    if not digits:
        return state
    _, states, rows = table = _chain_table(len(state[0]) + 1)
    s = _state_id(table, state)
    row = rows[s]
    for d in digits:
        try:
            s = row[d]
        except KeyError:
            s = row[d] = _state_id(table, successor(states[s], d))
        row = rows[s]
    return states[s]


def windows(pi: Perm, digits: Iterable[int]) -> Iterator[Perm]:
    """Window permutations of a digit run read from the tracked order ``pi``.

    Each window is the tracked order with the new cell slotted in above
    ``digit`` of its cells, so the order and the digits fix every window.
    """
    for d in digits:
        window, pi = _rule(pi, d)[:2]
        yield window


def _consistent_orders(
    num_cells: int, digits: Sequence[int], t: int, pi: Perm | None
) -> Iterator[tuple[int, ...]]:
    """All relative orders of cells 0..num_cells-1 matching the digit prefix.

    Yields ascending cell lists (lowest charge first).  Cells are placed in
    index order; cell j >= t-1 must land so that exactly digits[j-t+1] of
    its window predecessors sit below it, which prunes as we go.
    """
    head = list(range(t - 1))

    def place(asc: list[int], j: int) -> Iterator[tuple[int, ...]]:
        if j == num_cells:
            yield tuple(asc)
            return
        if j < t - 1:
            slots = range(len(asc) + 1)
        else:
            want = digits[j - t + 1]
            window = set(range(j - t + 1, j))
            slots = []
            seen_window = 0
            for pos in range(len(asc) + 1):
                if seen_window == want:
                    slots.append(pos)
                if pos < len(asc) and asc[pos] in window:
                    seen_window += 1
        for pos in slots:
            asc.insert(pos, j)
            yield from place(asc, j + 1)
            asc.pop(pos)

    if pi is not None:
        # Seed the head cells directly in the order pi prescribes.
        asc0 = [p - 1 for p in reversed(pi)]
        yield from place(asc0, t - 1)
    else:
        for head_order in itertools.permutations(head):
            yield from place(list(head_order), t - 1)


def _project(asc: tuple[int, ...], num_cells: int, t: int) -> tuple[Perm, RelTuple]:
    tracked = list(range(num_cells - (t - 1), num_cells))
    pos = {cell: rank for rank, cell in enumerate(asc)}
    desc = sorted(tracked, key=lambda c: -pos[c])
    perm = tuple(c - tracked[0] + 1 for c in desc)
    rel = tuple(sum(1 for h in range(t - 1) if pos[h] < pos[c]) for c in tracked)
    return perm, rel


def _check_prefix(digits: Sequence[int], t: int, pi: Perm | None) -> None:
    if any(not 0 <= d < t for d in digits):
        raise ValueError(f"digits must lie in 0..{t - 1}: {tuple(digits)}")
    if pi is not None and sorted(pi) != list(range(1, t)):
        raise ValueError(f"head order must be a permutation of 1..{t - 1}, got {tuple(pi)}")


def _one_order(groups: dict[Perm, object], digits: Sequence[int]) -> tuple[Perm, object]:
    """The only (tracked order, relations) group; raise when there is none or several."""
    if not groups:
        raise ValueError(f"no cell order realizes digits {tuple(digits)}")
    if len(groups) > 1:
        raise ValueError(
            f"digit prefix {tuple(digits)} does not determine the tracked order; "
            "condition on a head permutation"
        )
    ((perm, rels),) = groups.items()
    return perm, rels


def _oracle_groups(digits: Sequence[int], t: int, pi: Perm | None) -> dict[Perm, set[RelTuple]]:
    num_cells = t - 1 + len(digits)
    if len(digits) < t - 1:
        raise ValueError(f"need at least t-1 = {t - 1} digits, got {len(digits)}")
    if num_cells > _ORACLE_MAX_CELLS:
        raise ValueError(f"oracle enumeration capped at {_ORACLE_MAX_CELLS} cells, got {num_cells}")
    _check_prefix(digits, t, pi)
    groups: dict[Perm, set[RelTuple]] = {}
    for asc in _consistent_orders(num_cells, digits, t, pi):
        perm, rel = _project(asc, num_cells, t)
        groups.setdefault(perm, set()).add(rel)
    return groups


def state_oracle(digits: Sequence[int], t: int, pi: Perm | None = None) -> State:
    """State after a digit prefix, by exhaustive enumeration of cell orders.

    Independent of the successor rule: every relative order of the cells is
    built directly and projected onto (tracked order, relation set).  With
    no ``pi`` the prefix must pin the tracked order on its own; prefixes
    that leave it open raise.  The reference for ``initial_state``.
    """
    perm, rels = _one_order(_oracle_groups(digits, t, pi), digits)
    return State(perm=perm, tuples=frozenset(rels))


def _seed_walk(pi: Perm, levels: Sequence[Iterable[int]]) -> list[tuple[tuple[int, ...], Perm, int]]:
    """(prefix, tracked order, initial mask) under head order pi at each leaf of a prefix trie.

    Level k of the trie offers the digits ``levels[k]``.  The ``_rule`` walk
    starts at order pi with the head cells as the tracked cells.  Relations
    are kept doubled: a head cell with c head cells under it carries the
    code 2c+1, between relations c and c+1, and a later cell of relation x
    carries 2x.  The new cell takes every relation y in [ceil(lo/2),
    floor(hi/2)] between its window neighbours' codes lo and hi (0 and
    2t-2 when absent).  After t-1 digits every head cell has dropped out,
    so each code is even and a code tuple's index is twice its relation
    tuple's.
    """
    t = len(pi) + 1
    walk = [((), pi, {tuple(2 * c + 1 for c in _heads_below(pi)[1:])})]
    for digits in levels:
        nxt = []
        for prefix, perm, codes in walk:
            for d in digits:
                _, new_perm, above, below, _ = _rule(perm, d)
                step = {
                    tup[1:] + (2 * y,)
                    for tup in codes
                    for y in range(
                        (tup[below - 1] + 1) // 2 if below is not None else 0,
                        (tup[above - 1] if above is not None else 2 * t - 2) // 2 + 1,
                    )
                }
                nxt.append((prefix + (d,), new_perm, step))
        walk = nxt
    return [(p, perm, reduce(or_, (1 << (_tuple_index(tup, t) // 2) for tup in codes), 0)) for p, perm, codes in walk]


def _seed_groups(digits: tuple[int, ...], t: int, pi: Perm | None) -> dict[Perm, int]:
    """Initial masks of a t-1 digit prefix by tracked order; with no ``pi``, unions over every head order."""
    if len(digits) != t - 1:
        raise ValueError(f"initial states need exactly t-1 = {t - 1} digits, got {len(digits)}")
    _check_prefix(digits, t, pi)
    groups: dict[Perm, int] = {}
    for head in head_permutations(t) if pi is None else (pi,):
        ((_, perm, mask),) = _seed_walk(head, [(d,) for d in digits])
        groups[perm] = groups.get(perm, 0) | mask
    return groups


@lru_cache(maxsize=None)
def _initial_cached(digits: tuple[int, ...], t: int, pi: Perm | None) -> State:
    return tuple.__new__(State, _one_order(_seed_groups(digits, t, pi), digits))


def initial_state(digits: Sequence[int], t: int, pi: Perm | None = None) -> State:
    """First state of a word: the chain rule run over its t-1 head digits.

    With no ``pi`` the prefix must pin the tracked order under every head
    order; prefixes that leave it open raise.
    """
    return _initial_cached(tuple(digits), t, tuple(pi) if pi is not None else None)


@lru_cache(maxsize=None)
def initial_states_by_head(digits: tuple[int, ...], t: int) -> tuple[tuple[Perm, State], ...]:
    """``(pi, initial_state(digits, t, pi))`` for every head order pi, as one cached lookup."""
    return tuple((pi, initial_state(digits, t, pi)) for pi in head_permutations(t))


@lru_cache(maxsize=None)
def reachable_states(t: int) -> frozenset[State]:
    """Closure of every initial state under the successor rule.

    The seeds are the initial states of every t-1 digit prefix, one per
    tracked order, from one prefix-trie walk per head order.  Each state is
    dilated once for all t digits by the uncached rule, so the walk leaves
    no ``successor`` entries.
    """
    if not 2 <= t <= 5:
        raise ValueError(f"state closures are kept enumerable for t in [2, 5], got {t}")
    seeds: dict[tuple[tuple[int, ...], Perm], int] = {}
    for pi in head_permutations(t):
        for prefix, perm, mask in _seed_walk(pi, [range(t)] * (t - 1)):
            seeds[prefix, perm] = seeds.get((prefix, perm), 0) | mask
    frontier = {tuple.__new__(State, (perm, mask)) for (_, perm), mask in seeds.items()}
    seen = set(frontier)
    while frontier:
        frontier = {s2 for s in frontier for s2 in _successors(s, range(t))} - seen
        seen |= frontier
    return frozenset(seen)


def _step(landings: Iterable[State], digit: int) -> set[State]:
    """The distinct states a set of states lands in after one digit."""
    return {successor(s, digit) for s in landings}


def pattern_forces_complete(pattern: Sequence[int], t: int) -> tuple[bool, State | None]:
    """Whether a digit factor always lands in a complete state.

    Steps the set of reachable states through the pattern one digit at a
    time.  Returns the landing state as well when it is unique.
    """
    pattern = tuple(pattern)
    if len(pattern) < t:
        raise ValueError(f"forcing patterns need length >= t = {t}, got {len(pattern)}")
    if any(not 0 <= d < t for d in pattern):
        raise ValueError(f"pattern digits must lie in 0..{t - 1}: {pattern}")
    landings = reachable_states(t)
    for d in pattern:
        landings = _step(landings, d)
    if not landings <= complete_states(t):
        return False, None
    landing = next(iter(landings)) if len(landings) == 1 else None
    return True, landing


def find_completing_pattern(t: int, max_len: int) -> set[tuple[int, ...]]:
    """All forcing patterns of length t..max_len; each has growth rate below t.

    One depth-first walk over digit prefixes.  A prefix carries the set of
    distinct states it lands in from the reachable states, and each digit
    steps that set with ``successor``.  A prefix of length >= t whose
    landings are all complete is forcing, and so is every extension of it:
    complete states are closed under the successor rule.  Its subtree up to
    ``max_len`` is emitted without stepping.

    Growth rate below t is a theorem, not a filter.  Let p be any factor of
    length r >= 1 and cut a word of length m into m // r disjoint blocks of
    r digits and m % r loose digits.  A word that avoids p has no block
    equal to p, so at most ``(t^r - 1)^(m // r) * t^(m % r)`` words avoid p,
    and their growth rate is at most ``(t^r - 1)^(1/r) < t``.
    """
    if t > 4:
        raise ValueError(f"pattern search is kept enumerable for t <= 4, got {t}")
    if max_len > 8:
        raise ValueError(f"pattern search is capped at length 8, got {max_len}")
    complete = complete_states(t)
    found: set[tuple[int, ...]] = set()

    def walk(prefix: tuple[int, ...], landings: set[State]) -> None:
        for d in range(t):
            word = prefix + (d,)
            after = _step(landings, d)
            if len(word) >= t and after <= complete:
                for k in range(max_len - len(word) + 1):
                    found.update(word + tail for tail in itertools.product(range(t), repeat=k))
            elif len(word) < max_len:
                walk(word, after)

    walk((), reachable_states(t))
    return found


def _heads_below(pi: Perm) -> tuple[int, ...]:
    """Per head cell h = 1..t-1, how many head cells sit under it in head order pi (entry 0 unused)."""
    return (0, *(len(pi) - 1 - pi.index(h) for h in range(1, len(pi) + 1)))


def wrap_digits(pi: Perm, rel: RelTuple) -> tuple[int, ...]:
    """Digits of the t-1 cycle-closing windows under a head order.

    Window k (1-based) holds tail block positions k..t-1 and head cells
    1..k, head cell k newest.  With ``below[h]`` the number of head cells
    under head cell h, a tail cell of relation value x sits below head cell
    k exactly when x <= below[k], since it sits above the x lowest head
    cells.  So digit k counts the older head cells below head cell k plus
    the tail cells with x <= below[k], and the tail order never enters.
    """
    t = len(pi) + 1
    below = _heads_below(pi)
    return tuple(
        sum(below[m] < below[k] for m in range(1, k)) + sum(x <= below[k] for x in rel[k - 1 :])
        for k in range(1, t)
    )


@lru_cache(maxsize=None)
def _at_most(t: int, length: int, bound: int) -> tuple[int, ...]:
    """Per index of a length-``length`` relation run, how many of its entries are <= bound."""
    counts = (0,)
    for _ in range(length):
        counts = tuple((x <= bound) + c for x in range(t) for c in counts)
    return counts


@lru_cache(maxsize=None)
def _wrap_rows(pi: Perm) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """``wrap_digits`` under pi as table reads: per window k, its head-only part and a count table.

    Digit k is the number of older head cells below head cell k plus the
    count of entries <= below[k] in the relation run from position k on,
    the last t-k base-t digits of the tuple's index.
    """
    t = len(pi) + 1
    below = _heads_below(pi)
    return tuple(
        (sum(below[m] < below[k] for m in range(1, k)), _at_most(t, t - k, below[k]), t ** (t - k)) for k in range(1, t)
    )


@lru_cache(maxsize=None)
def achievable_tails(state: State, pi: Perm) -> frozenset[tuple[int, ...]]:
    """Distinct wrap-digit tails a final state admits under a head order.

    ``wrap_digits`` over the state's tuples, read off per-pi tables.
    """
    rows = _wrap_rows(pi)
    return frozenset(
        tuple(older + counts[i % size] for older, counts, size in rows) for i in _set_bits(state.mask)
    )


@dataclass(frozen=True)
class TailTable:
    """Wrap-digit tail sets of every complete state under every head order."""

    t: int
    tails: dict[tuple[State, Perm], frozenset[tuple[int, ...]]]


def tail_table(t: int) -> TailTable:
    if not 2 <= t <= 4:
        raise ValueError(f"tail tables are kept enumerable for t in [2, 4], got {t}")
    pairs = itertools.product(complete_states(t), head_permutations(t))
    return TailTable(t=t, tails={(state, pi): achievable_tails(state, pi) for state, pi in pairs})


@lru_cache(maxsize=None)
def head_permutations(t: int) -> tuple[Perm, ...]:
    """All orders of the t-1 head cells, as rank permutations."""
    return tuple(itertools.permutations(range(1, t)))


__all__ = [
    "State",
    "TailTable",
    "achievable_tails",
    "chain",
    "complete_states",
    "find_completing_pattern",
    "head_permutations",
    "initial_state",
    "initial_states_by_head",
    "is_complete",
    "monotone_tuples",
    "pattern_forces_complete",
    "reachable_states",
    "state_oracle",
    "successor",
    "tail_table",
    "windows",
    "wrap_digits",
]
