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
neighbours, and drops the oldest tracked cell.

The first state of a word comes from the same rule: it starts at the head
order, with the head cells as the tracked cells, and consumes the t-1 head
digits; a head cell's relation sits between two integers, so the walk keeps
doubled codes.  ``state_oracle`` builds states by enumerating cell orders
instead, and is the independent reference the rule is tested against.

States here come in two flavours.  Conditioned on a head permutation pi
the state sequence of a word is always well defined.  Unconditioned states
(no pi) are only well defined when every head order yields the same
tracked-cell order; ``initial_state`` and ``state_oracle`` raise otherwise,
and ``initial_states`` returns every alternative.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .permutations import Perm

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
        if t < 2 or sorted(perm) != list(range(1, t)):
            raise ValueError(f"tracked order must be a permutation of 1..t-1, got {perm}")
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

    def __str__(self) -> str:
        return self.render()


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
    t = state.t
    return state.mask.bit_count() == comb(2 * t - 2, t - 1)


@lru_cache(maxsize=None)
def complete_states(t: int) -> frozenset[State]:
    """The (t-1)! complete states, one per tracked-cell order."""
    if not 2 <= t <= 5:
        raise ValueError(f"complete-state tables are kept enumerable for t in [2, 5], got {t}")
    out = set()
    for perm in itertools.permutations(range(1, t)):
        out.add(State(perm=perm, tuples=monotone_tuples(perm)))
    return frozenset(out)


@lru_cache(maxsize=None)
def _rule(perm: Perm, digit: int) -> tuple[Perm, Perm, int | None, int | None, dict[int, int]]:
    """The successor rule of one (order, digit) pair.

    Returns the window permutation the digit reads, the new order, the
    block positions of the new cell's window neighbours above and below it
    (None when absent), and an empty memo that ``_successor`` fills with the
    image mask of each 16-tail chunk it meets.
    """
    t = len(perm) + 1
    insert_at = (t - 1) - digit  # index in the descending window order
    window = perm[:insert_at] + (t,) + perm[insert_at:]
    above = window[insert_at - 1] if insert_at > 0 else None
    below = window[insert_at + 1] if insert_at + 1 < len(window) else None
    return window, tuple(lbl - 1 for lbl in window if lbl != 1), above, below, {}


def _image(index: int, t: int, above: int | None, below: int | None) -> int:
    """Mask of the tuples ``tail + (y,)`` for y between the neighbours' relations."""
    lo = index // t ** (t - 1 - below) % t if below is not None else 0
    hi = index // t ** (t - 1 - above) % t if above is not None else t - 1
    if hi < lo:
        return 0
    tail = index % t ** (t - 2)
    return ((1 << (hi - lo + 1)) - 1) << (tail * t + lo)


def _tail_images(tails: int, oldest: int, t: int, above: int | None, below: int | None, images: dict[int, int]) -> int:
    """OR of the images of the tuples ``(oldest,) + tail`` over a set of tails.

    The tails are taken 16 at a time; each chunk's image is memoized under
    the index of its first tuple and its bits.  A rule either folds or
    peels, so a folded tail set, whose oldest relation is never read, can
    share the keys of ``oldest = 0``.
    """
    out = 0
    first = oldest * t ** (t - 2)
    while tails:
        bits = tails & 0xFFFF
        if bits:
            key = first << 16 | bits
            image = images.get(key)
            if image is None:
                image = 0
                for i in _set_bits(bits):
                    image |= _image(first + i, t, above, below)
                images[key] = image
            out |= image
        tails >>= 16
        first += 16
    return out


def _successor(state: State, digit: int) -> State:
    """The successor rule, uncached; ``successor`` is its cache.

    Bit ``r * t^(t-2) + tail`` of the mask stands for the tuple whose oldest
    cell has relation r.  That cell drops out, so when neither window
    neighbour is block position 1 the image depends on the tail alone and
    the mask folds to one tail set.  When the neighbour below (above) is
    position 1, r is an end of the new cell's run, and the runs of one tail
    over every present r join into the run from its least (greatest) r: the
    tail sets are peeled in that order, each tail at the first r that holds it.
    """
    perm, mask = state
    t = len(perm) + 1
    if not 0 <= digit < t:
        raise ValueError(f"digit out of range 0..{t - 1}: {digit}")
    _, new_perm, above, below, images = _rule(perm, digit)
    width = t ** (t - 2)
    full = (1 << width) - 1
    out = 0
    if above != 1 and below != 1:
        tails = 0
        while mask:
            tails |= mask & full
            mask >>= width
        out = _tail_images(tails, 0, t, above, below, images)
    else:
        claimed = 0
        for oldest in range(t) if below == 1 else range(t - 1, -1, -1):
            tails = mask >> (oldest * width) & full & ~claimed
            if tails:
                claimed |= tails
                out |= _tail_images(tails, oldest, t, above, below, images)
    return tuple.__new__(State, (new_perm, out))


@lru_cache(maxsize=None)
def successor(state: State, digit: int) -> State:
    """Exact successor state after consuming one digit.

    The new cell enters the window with ``digit`` old cells below it; its
    head relation ranges between the relations of the window cells directly
    below and above it (0 and t-1 when absent).  The oldest cell drops out.
    Each tuple maps to a run of tuples; the successor's mask is the OR of
    the runs of the state's tuples.
    """
    return _successor(state, digit)


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
    ids, states, rows = table = _chain_table(len(state[0]) + 1)
    s = ids.get(state)
    if s is None:
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


def _seed_groups(digits: tuple[int, ...], t: int, pi: Perm | None) -> dict[Perm, int]:
    """Initial masks of a t-1 digit prefix by tracked order, read off the chain rule.

    The ``_rule`` walk starts at tracked order ``pi`` with the head cells as
    the tracked cells.  Relations are kept doubled: a head cell with c head
    cells under it carries the code 2c+1, between relations c and c+1, and
    a later cell of relation x carries 2x.  The new cell takes every
    relation y in [ceil(lo/2), floor(hi/2)] between its window neighbours'
    codes lo and hi (0 and 2t-2 when absent).  After t-1 digits every head
    cell has dropped out and the codes halve into relation tuples.  With no
    ``pi`` the masks are unions, by tracked order, over every head order.
    """
    _check_prefix(digits, t, pi)
    groups: dict[Perm, int] = {}
    for perm in head_permutations(t) if pi is None else (pi,):
        codes = {tuple(2 * (t - 2 - perm.index(h)) + 1 for h in range(1, t))}
        for d in digits:
            _, perm, above, below, _ = _rule(perm, d)
            codes = {
                tup[1:] + (2 * y,)
                for tup in codes
                for y in range(
                    (tup[below - 1] + 1) // 2 if below is not None else 0,
                    (tup[above - 1] if above is not None else 2 * t - 2) // 2 + 1,
                )
            }
        mask = groups.get(perm, 0)
        for tup in codes:
            mask |= 1 << _tuple_index([c // 2 for c in tup], t)
        groups[perm] = mask
    return groups


@lru_cache(maxsize=None)
def _initial_cached(digits: tuple[int, ...], t: int, pi: Perm | None) -> State:
    return tuple.__new__(State, _one_order(_seed_groups(digits, t, pi), digits))


def initial_state(digits: Sequence[int], t: int, pi: Perm | None = None) -> State:
    """First state of a word: the chain rule run over its t-1 head digits.

    With no ``pi`` the prefix must pin the tracked order under every head
    order; prefixes that leave it open raise.
    """
    digits = tuple(digits)
    if len(digits) != t - 1:
        raise ValueError(f"initial state needs exactly t-1 = {t - 1} digits, got {len(digits)}")
    return _initial_cached(digits, t, tuple(pi) if pi is not None else None)


def initial_states(digits: Sequence[int], t: int) -> frozenset[State]:
    """Every initial state a digit prefix admits, one per tracked order."""
    digits = tuple(digits)
    if len(digits) != t - 1:
        raise ValueError(f"initial states need exactly t-1 = {t - 1} digits, got {len(digits)}")
    return frozenset(tuple.__new__(State, item) for item in _seed_groups(digits, t, None).items())


@lru_cache(maxsize=None)
def reachable_states(t: int) -> frozenset[State]:
    """Closure of every initial state under the successor rule.

    The walk calls the uncached rule, so the closure leaves nothing in the
    ``successor`` cache.
    """
    if not 2 <= t <= 5:
        raise ValueError(f"state closures are kept enumerable for t in [2, 5], got {t}")
    frontier: set[State] = set()
    for prefix in itertools.product(range(t), repeat=t - 1):
        frontier |= initial_states(prefix, t)
    seen = set(frontier)
    while frontier:
        nxt = set()
        for s in frontier:
            for d in range(t):
                s2 = _successor(s, d)
                if s2 not in seen:
                    seen.add(s2)
                    nxt.add(s2)
        frontier = nxt
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
    below = [0] * t
    for rank, h in enumerate(pi):
        below[h] = t - 2 - rank
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
    below = [0] * t
    for rank, h in enumerate(pi):
        below[h] = t - 2 - rank
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
    tails = {}
    for state in complete_states(t):
        for pi in head_permutations(t):
            tails[(state, pi)] = achievable_tails(state, pi)
    return TailTable(t=t, tails=tails)


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
    "initial_states",
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
