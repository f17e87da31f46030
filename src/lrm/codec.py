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

import graphlib
import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Sequence

from . import states as st
from .permutations import MAX_WINDOW, MIN_WINDOW, Perm, rank_to_permutation, symbol_table, window_digit


@dataclass(frozen=True)
class BaseWord:
    t: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        size = factorial(self.t)
        if len(self.symbols) < 1:
            raise ValueError("empty base word")
        bad = [s for s in self.symbols if not 1 <= s <= size]
        if bad:
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
        bad = [d for d in self.digits if not 0 <= d < self.t]
        if bad:
            raise ValueError(f"digits out of range 0..{self.t - 1}: {bad}")

    @classmethod
    def from_text(cls, text: str, t: int) -> "Codeword":
        return cls(t, tuple(int(ch) for ch in text))

    def to_text(self) -> str:
        return "".join(map(str, self.digits))

    def __len__(self) -> int:
        return len(self.digits)


def demodulate(profile: Sequence[int], t: int) -> BaseWord:
    """Read every cyclic t-window of a charge profile as a symbol."""
    levels = tuple(profile)
    n = len(levels)
    if n < t:
        raise ValueError(f"need at least t = {t} cells, got {n}")
    table = symbol_table(t)
    doubled = levels + levels[: t - 1]
    return BaseWord(t, tuple(table.symbol(rank_to_permutation(doubled[i : i + t])) for i in range(n)))


def _head_order(perm: Perm) -> Perm:
    """Order of window cells 1..t-1 induced by a window permutation."""
    t = len(perm)
    return tuple(lbl for lbl in perm if lbl != t)


def _tail_order(perm: Perm) -> Perm:
    """Order of window cells 2..t, relabelled to 1..t-1."""
    return tuple(lbl - 1 for lbl in perm if lbl != 1)


def window_consistent(base: BaseWord) -> bool:
    """Adjacent windows must agree on the order of their t-1 shared cells."""
    table = symbol_table(base.t)
    perms = [table.permutation(s) for s in base.symbols]
    n = len(perms)
    return all(_tail_order(perms[i]) == _head_order(perms[(i + 1) % n]) for i in range(n))


def encode(base: BaseWord) -> Codeword:
    """Map each symbol to its window digit; rejects inconsistent base words."""
    if not window_consistent(base):
        raise ValueError("adjacent windows disagree on shared cells")
    table = symbol_table(base.t)
    return Codeword(base.t, tuple(window_digit(table.permutation(s)) for s in base.symbols))


def constraint_edges(base: BaseWord) -> set[tuple[int, int]]:
    """Union of the strict orders all windows impose; edge (u, v) means u above v."""
    table = symbol_table(base.t)
    n = len(base.symbols)
    edges = set()
    for i, sym in enumerate(base.symbols):
        perm = table.permutation(sym)
        for hi, lo in itertools.pairwise(perm):
            edges.add(((i + hi - 1) % n, (i + lo - 1) % n))
    return edges


def realizable(base: BaseWord) -> tuple[bool, tuple[int, ...] | None]:
    """Whether some charge profile induces the base word, with a witness.

    The window constraints are satisfiable over the integers iff their
    union is acyclic; contradictory window overlaps show up as 2-cycles, so
    the one acyclicity test also covers adjacent-window consistency.  The
    witness assigns each cell its longest downward path length, the
    smallest integer range possible.
    """
    n = len(base.symbols)
    edges = constraint_edges(base)
    below: dict[int, list[int]] = {v: [] for v in range(n)}
    sorter: graphlib.TopologicalSorter = graphlib.TopologicalSorter()
    for v in range(n):
        sorter.add(v)
    for u, v in edges:
        sorter.add(u, v)  # v must get its level before u
        below[u].append(v)
    try:
        order = list(sorter.static_order())
    except graphlib.CycleError:
        return False, None
    level = {}
    for v in order:
        level[v] = max((level[u] + 1 for u in below[v]), default=0)
    return True, tuple(level[v] for v in range(n))


# Decoding for t = 3 ----------------------------------------------------------
#
# A digit in {0, 2} pins the parity class of its symbol: digit-0 symbols are
# odd, digit-2 symbols are even.  The parity of a symbol plus the next digit
# then determines the next symbol, so one anchored pass around the cycle
# reconstructs the whole base word.

_NEXT_SYMBOL = {
    True: {0: 1, 1: 2, 2: 4},  # previous symbol odd
    False: {0: 3, 1: 5, 2: 6},  # previous symbol even
}
_SEED_OPTIONS = {0: (1, 3), 2: (4, 6)}


def decode3(word: Codeword) -> BaseWord | None:
    """Unique realizable base word of a codeword with t = 3, if any."""
    if word.t != 3:
        raise ValueError(f"decode3 handles t = 3 only, got t = {word.t}")
    g = word.digits
    n = len(g)
    if n < 3:
        raise ValueError(f"need at least 3 digits, got {n}")
    anchor = next((i for i, d in enumerate(g) if d != 1), None)
    if anchor is None:
        return None  # the all-ones word has no realizable preimage
    seed = _SEED_OPTIONS[g[anchor]]
    odd = g[anchor] == 0
    syms = [0] * n
    for step in range(1, n + 1):
        j = (anchor + step) % n
        nxt = _NEXT_SYMBOL[odd][g[j]]
        syms[j] = nxt
        odd = nxt % 2 == 1
    if syms[anchor] not in seed:
        return None
    base = BaseWord(3, tuple(syms))
    ok, _ = realizable(base)
    return base if ok else None


# General decoding via the state chain ----------------------------------------


def _final_states(g: Sequence[int], t: int):
    """(pi, state after the linear prefix) for every head order pi.

    The linear prefix stops t-1 digits short of the end: those last digits
    belong to the windows that wrap around into the head cells.
    """
    n = len(g)
    for pi in st.head_permutations(t):
        yield pi, st.chain(st.initial_state(g[: t - 1], t, pi), g[t - 1 : n - t + 1])


def decode_general(word: Codeword) -> set[BaseWord]:
    """Every realizable base word that encodes to the codeword.

    Runs the head-conditioned state chain over the linear prefix and keeps
    the head orders pi whose final state admits the word's tail.  Under pi
    the digits alone fix every window, the t-1 cycle-closing ones included,
    so each kept pi gives one base word: at most (t-1)! of them.
    """
    t, g = word.t, word.digits
    n = len(g)
    if n < 2 * t - 2:
        raise ValueError(f"state-chain decoding needs n >= 2t-2 = {2 * t - 2}, got {n}")
    tail = g[n - t + 1 :]
    table = symbol_table(t)
    return {
        BaseWord(t, tuple(map(table.symbol, st.windows(pi, g))))
        for pi, state in _final_states(g, t)
        if tail in st.achievable_tails(state, pi)
    }


def ranking_words(t: int, n: int) -> tuple[set[tuple[int, ...]], set[tuple[int, ...]]]:
    """Distinct codewords and base words over all n! rankings of n cells.

    Every legal codeword arises from some ranking because realizability
    witnesses are integral, so this is the ground truth at small n.  Each
    window is read by its pairwise comparisons, looked up as a symbol.
    """
    table = symbol_table(t)
    pairs = list(itertools.combinations(range(t), 2))
    sig_to_symbol = {}
    for sym, perm in enumerate(table.perms, start=1):
        value = [0] * t
        for rank, pos in enumerate(perm):
            value[pos - 1] = t - rank
        sig_to_symbol[tuple(value[a] < value[b] for a, b in pairs)] = sym
    codewords = set()
    basewords = set()
    for ranking in itertools.permutations(range(n)):
        ext = ranking + ranking[: t - 1]
        digits = []
        symbols = []
        for i in range(n):
            w = ext[i : i + t]
            symbols.append(sig_to_symbol[tuple(w[a] < w[b] for a, b in pairs)])
            newest = w[-1]
            digits.append(sum(1 for v in w[:-1] if v < newest))
        codewords.add(tuple(digits))
        basewords.add(tuple(symbols))
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
    tail = g[n - t + 1 :]
    return any(tail in st.achievable_tails(state, pi) for pi, state in _final_states(g, t))


__all__ = [
    "BaseWord",
    "Codeword",
    "constraint_edges",
    "decode3",
    "decode_general",
    "demodulate",
    "encode",
    "is_legal",
    "ranking_words",
    "realizable",
    "window_consistent",
]
