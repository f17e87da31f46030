"""Demodulation, encoding, realizability, and decoding of cyclic words.

A charge profile demodulates to a *base word*: one symbol per window, each
naming the permutation the window's charges induce.  A base word maps to a
*codeword* of digits in 0..t-1, digit i being how many cells of window i
sit below the window's newest cell.  A codeword is *legal* when some
realizable base word encodes to it.

Text formats: base words are comma-separated symbol indices ("3,4,6,3,2"),
codewords are contiguous digit strings ("02201"), profiles comma-separated
integers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import eq, lt
from typing import Iterable, Iterator, Sequence

from . import states as st
from .permutations import MAX_WINDOW, MIN_WINDOW, Perm, SymbolTable, rank_to_permutation, symbol_table


@dataclass(frozen=True)
class BaseWord:
    t: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        size = factorial(self.t)
        if len(self.symbols) < max(self.t, 1):
            raise ValueError(f"need at least t = {self.t} symbols, got {len(self.symbols)}")
        if min(self.symbols) < 1 or max(self.symbols) > size:
            bad = [s for s in self.symbols if not 1 <= s <= size]
            raise ValueError(f"symbols out of range 1..{size}: {bad}")

    @classmethod
    def from_text(cls, text: str, t: int) -> "BaseWord":
        return cls(t, tuple(int(part) for part in text.split(",")))

    def to_text(self) -> str:
        return ",".join(map(str, self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Codeword:
    t: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if not MIN_WINDOW <= self.t <= MAX_WINDOW:
            raise ValueError(f"window size must be in [{MIN_WINDOW}, {MAX_WINDOW}], got {self.t}")
        if len(self.digits) < 1:
            raise ValueError("empty codeword")
        if min(self.digits) < 0 or max(self.digits) >= self.t:
            bad = [d for d in self.digits if not 0 <= d < self.t]
            raise ValueError(f"digits out of range 0..{self.t - 1}: {bad}")

    @classmethod
    def from_text(cls, text: str, t: int) -> "Codeword":
        return cls(t, tuple(int(ch) for ch in text))

    def to_text(self) -> str:
        return "".join(map(str, self.digits))

    def __len__(self) -> int:
        return len(self.digits)


def demodulate(profile: Sequence[int], t: int) -> BaseWord:
    """Read every cyclic t-window of a charge profile as a symbol.

    The first window is ranked in full.  Each later window shares its t-1
    oldest cells with the window before, so its symbol is ``after`` of the
    previous symbol at its digit: the number of those cells below the
    newest one.  Equal levels inside one window raise ``ValueError``;
    equal levels at cyclic distance t or more never share a window.
    """
    levels = tuple(profile)
    n = len(levels)
    if n < t:
        raise ValueError(f"need at least t = {t} cells, got {n}")
    table = symbol_table(t)
    doubled = levels + levels[: t - 1]
    first = table.symbol(rank_to_permutation(doubled[:t]))
    # windows 1..n-1: their newest cells, and the cells g = 1..t-1 places older
    newest = doubled[t:]
    older = [doubled[t - g : n + t - 1 - g] for g in range(1, t)]
    if any(any(map(eq, run, newest)) for run in older):
        for i in range(1, n):
            rank_to_permutation(doubled[i : i + t])  # raises at the first window with a repeated level
    digits = map(sum, zip(*(map(lt, run, newest) for run in older)))
    return BaseWord(t, _read_symbols(table, first, digits))


def _read_symbols(table: SymbolTable, first: int, digits: Iterable[int]) -> tuple[int, ...]:
    """Symbols of a run of windows: the first one, then one per digit read."""
    after = table.after
    sym = first
    symbols = [sym]
    for d in digits:
        sym = after[sym][d]
        symbols.append(sym)
    return tuple(symbols)


def window_consistent(base: BaseWord) -> bool:
    """Adjacent windows must agree on the order of their t-1 shared cells."""
    table = symbol_table(base.t)
    heads = list(map(table.head.__getitem__, base.symbols))
    return list(map(table.tail.__getitem__, base.symbols)) == heads[1:] + heads[:1]


def encode(base: BaseWord) -> Codeword:
    """Map each symbol to its window digit; rejects inconsistent base words."""
    if not window_consistent(base):
        raise ValueError("adjacent windows disagree on shared cells")
    return Codeword(base.t, tuple(map(symbol_table(base.t).digit.__getitem__, base.symbols)))


def realizable(base: BaseWord) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some charge profile induces the base word, with a witness.

    Each window orders its cells; the base word is realizable over the
    integers iff the union of these orders is acyclic.  Contradictory
    window overlaps show up as 2-cycles, so the one test also covers
    adjacent-window consistency.  One Kahn pass over the window orders
    peels cells with nothing left below them; a cell it never reaches lies
    on a cycle.  The pass also gives each cell its longest downward path
    length, the witness with the smallest integer range possible.
    """
    n = len(base.symbols)
    pairs = symbol_table(base.t).pairs
    above: list[list[int]] = [[] for _ in range(n)]
    below_count = [0] * n
    for i, sym in enumerate(base.symbols):
        for hi, lo in pairs[sym]:
            u = (i + hi) % n
            above[(i + lo) % n].append(u)
            below_count[u] += 1
    level = [0] * n
    ready = [v for v in range(n) if not below_count[v]]
    for v in ready:  # grows while it is walked
        up = level[v] + 1
        for u in above[v]:
            if level[u] < up:
                level[u] = up
            below_count[u] -= 1
            if not below_count[u]:
                ready.append(u)
    if len(ready) < n:
        return False, None
    return True, tuple(level)


def decode3(word: Codeword) -> BaseWord | None:
    """Unique realizable base word of a codeword with t = 3, if any.

    A digit in {0, 2} pins the parity class of its symbol: digit-0 symbols
    are odd, digit-2 symbols are even.  The class of a symbol plus the next
    digit fixes the next symbol (``after``), so one pass around the cycle
    from such an anchor, seeded with any symbol of the anchor's digit,
    reads the whole base word.  The candidate is the answer exactly when
    the codeword is legal; the all-ones word, which has no anchor, never is.
    """
    if word.t != 3:
        raise ValueError(f"decode3 handles t = 3 only, got t = {word.t}")
    g = word.digits
    n = len(g)
    if n < 3:
        raise ValueError(f"need at least 3 digits, got {n}")
    if not is_legal(word):
        return None
    anchor = next(i for i, d in enumerate(g) if d != 1)
    table = symbol_table(3)
    # symbols of windows anchor+1, ..., anchor+n (the anchor again), seed dropped
    syms = _read_symbols(table, table.digit.index(g[anchor]), g[anchor + 1 :] + g[: anchor + 1])[1:]
    split = n - 1 - anchor
    return BaseWord(3, syms[split:] + syms[:split])


# General decoding via the state chain ----------------------------------------


def _legal_heads(g: Sequence[int], t: int) -> Iterator[Perm]:
    """Head orders pi whose chain state admits the word's tail.

    The chain runs over the linear prefix, which stops t-1 digits short of
    the end: those last digits belong to the windows that wrap around into
    the head cells, and the final state's tails under pi must hold them.
    """
    n = len(g)
    head, middle, tail = g[: t - 1], g[t - 1 : n - t + 1], g[n - t + 1 :]
    for pi, start in st.initial_states_by_head(head, t):
        if tail in st.achievable_tails(st.chain(start, middle), pi):
            yield pi


def decode_general(word: Codeword) -> set[BaseWord]:
    """Every realizable base word that encodes to the codeword.

    Under each head order pi that ``_legal_heads`` keeps, the digits alone
    fix every window, the t-1 cycle-closing ones included, so each kept pi
    gives one base word.  At most one base word for t <= 4 (certified by
    the head-order uniqueness test in tests/test_census.py); t = 5, 6 not
    certified, where the bound is (t-1)!.  The first window is pi
    with the newest cell slotted in; each later one is ``after`` of the one
    before at its digit.
    """
    t, g = word.t, word.digits
    n = len(g)
    if n < 2 * t - 2:
        raise ValueError(f"state-chain decoding needs n >= 2t-2 = {2 * t - 2}, got {n}")
    table = symbol_table(t)
    firsts = (table.symbol(next(st.windows(pi, g))) for pi in _legal_heads(g, t))
    return {BaseWord(t, _read_symbols(table, first, g[1:])) for first in firsts}


def ranking_words(t: int, n: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """Distinct codewords and base words over all n! rankings of n cells.

    Every legal codeword arises from some ranking because realizability
    witnesses are integral, so this is the ground truth at small n.  Each
    ranking is read by ``demodulate``; its codeword is the symbols' digits.
    """
    digit = symbol_table(t).digit
    codewords = set()
    basewords = set()
    for ranking in itertools.permutations(range(n)):
        symbols = demodulate(ranking, t).symbols
        basewords.add(symbols)
        codewords.add(tuple(map(digit.__getitem__, symbols)))
    return codewords, basewords


@lru_cache(maxsize=None)
def _short_legal_words(t: int, n: int) -> frozenset[tuple[int, ...]]:
    return frozenset(ranking_words(t, n)[0])


def is_legal(word: Codeword) -> bool:
    """Whether some realizable base word encodes to the codeword.

    Words shorter than 2t-2 fall back to the ranking oracle; the state
    chain needs disjoint head and tail cells.
    """
    t, g = word.t, word.digits
    n = len(g)
    if n < t:
        raise ValueError(f"need at least t = {t} digits, got {n}")
    if n < 2 * t - 2:
        return g in _short_legal_words(t, n)
    return any(_legal_heads(g, t))


__all__ = [
    "BaseWord",
    "Codeword",
    "decode3",
    "decode_general",
    "demodulate",
    "encode",
    "is_legal",
    "ranking_words",
    "realizable",
    "window_consistent",
]
