"""Window permutations, the symbol alphabet, and charge-level operations.

A charge profile is a cyclic sequence of n integer levels.  Every group of
t cyclically consecutive cells forms a window; window i covers cells
i..i+t-1 (mod n).  A window is read as the permutation of its 1-based cell
positions listed from the highest charge down to the lowest, so the window
(3, 5, 2, 7, 10) reads as [5, 4, 2, 1, 3].
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Sequence

Perm = tuple[int, ...]

MIN_WINDOW = 2
MAX_WINDOW = 6


def _check_permutation(perm: Sequence[int], k: int) -> None:
    if tuple(sorted(perm)) != tuple(range(1, k + 1)):
        raise ValueError(f"not a permutation of 1..{k}: {tuple(perm)}")


def rank_to_permutation(window: Sequence[int]) -> Perm:
    """Order the 1-based positions of ``window`` from highest value down.

    The result is invariant under any strictly monotone re-scaling of the
    window values.  Duplicate values are rejected: ranks would be ambiguous.
    """
    values = tuple(window)
    if len(values) < 1:
        raise ValueError("empty window")
    if len(set(values)) != len(values):
        raise ValueError(f"window values must be pairwise distinct: {values}")
    return tuple(sorted(range(1, len(values) + 1), key=lambda p: -values[p - 1]))


def window_digit(perm: Perm) -> int:
    """Digit of a size-t window permutation: labels after the newest cell.

    The newest cell of a window carries label t, so the digit is t minus
    the 1-based position of t, i.e. how many window cells sit below it.
    """
    t = len(perm)
    _check_permutation(perm, t)
    return t - (perm.index(t) + 1)


# Fixed symbol order for t = 3.  Odd symbols {1,3,5} put window cell 2 above
# cell 3; even symbols {2,4,6} put cell 3 above cell 2.
_T3_PERMS: tuple[Perm, ...] = (
    (1, 2, 3),
    (1, 3, 2),
    (2, 1, 3),
    (3, 1, 2),
    (2, 3, 1),
    (3, 2, 1),
)


class SymbolTable:
    """Bijection between symbols 1..t! and the permutations of a t-window.

    t = 3 uses the fixed order above.  Other window sizes use lexicographic
    order of the one-line permutations; codeword semantics never depend on
    the order, only base-word display does.  Window sizes outside
    [2, 6] are rejected so every table stays enumerable.

    Per-symbol int tables, indexed by symbol (entry 0 unused): ``head`` and
    ``tail`` give the order of window cells 1..t-1 and of cells 2..t as an
    index into the lexicographic orders of 1..t-1, ``digit`` the window
    digit, ``after[s][d]`` the symbol of the next window when it reads
    digit d (the one whose head order is the tail order of s), and
    ``pairs[s]`` the 0-based (upper, lower) offsets of each two cells
    adjacent in the window's order.
    """

    def __init__(self, t: int):
        if not MIN_WINDOW <= t <= MAX_WINDOW:
            raise ValueError(f"window size must be in [{MIN_WINDOW}, {MAX_WINDOW}], got {t}")
        self.t = t
        if t == 3:
            self.perms: tuple[Perm, ...] = _T3_PERMS
        else:
            self.perms = tuple(itertools.permutations(range(1, t + 1)))
        self._index = {p: s for s, p in enumerate(self.perms, start=1)}
        order = {p: k for k, p in enumerate(itertools.permutations(range(1, t)))}
        self.head = (-1,) + tuple(order[tuple(lbl for lbl in p if lbl != t)] for p in self.perms)
        self.tail = (-1,) + tuple(order[tuple(lbl - 1 for lbl in p if lbl != 1)] for p in self.perms)
        self.digit = (-1,) + tuple(t - 1 - p.index(t) for p in self.perms)
        by_head = {(self.head[s], self.digit[s]): s for s in range(1, self.size + 1)}
        self.after = ((),) + tuple(tuple(by_head[self.tail[s], d] for d in range(t)) for s in range(1, self.size + 1))
        self.pairs = ((),) + tuple(tuple((hi - 1, lo - 1) for hi, lo in itertools.pairwise(p)) for p in self.perms)

    @property
    def size(self) -> int:
        return len(self.perms)

    def permutation(self, symbol: int) -> Perm:
        if not 1 <= symbol <= self.size:
            raise ValueError(f"symbol out of range 1..{self.size}: {symbol}")
        return self.perms[symbol - 1]

    def symbol(self, perm: Sequence[int]) -> int:
        """Symbol of a window permutation; anything else misses the index."""
        key = tuple(perm)
        try:
            return self._index[key]
        except KeyError:
            raise ValueError(f"not a permutation of 1..{self.t}: {key}") from None

    def __repr__(self) -> str:
        return f"SymbolTable(t={self.t})"


@lru_cache(maxsize=None)
def symbol_table(t: int) -> SymbolTable:
    return SymbolTable(t)


def comparable_cells(i: int, n: int, t: int) -> list[int]:
    """Cells sharing at least one window with cell i (cyclic distance < t)."""
    out = set()
    for d in range(1, t):
        out.add((i - d) % n)
        out.add((i + d) % n)
    out.discard(i)
    return sorted(out)


def apply_push(profile: Sequence[int], i: int, t: int) -> tuple[int, ...]:
    """Raise cell i minimally above every cell comparable with it.

    The new level is 1 + max over the comparable cells and the old level of
    cell i itself, the smallest integral raise that puts i on top.
    """
    levels = tuple(profile)
    n = len(levels)
    if not 0 <= i < n:
        raise ValueError(f"cell index out of range: {i}")
    peers = comparable_cells(i, n, t)
    top = max([levels[j] for j in peers] + [levels[i]])
    return levels[:i] + (top + 1,) + levels[i + 1 :]
