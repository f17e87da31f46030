"""Constant-weight cyclic Gray codes over two-cell-window digit words.

With windows of size two a codeword is binary and a push on cell i flips
the digit pair (i-1, i) from 01 to 10, preserving weight.  A Gray-code
step is therefore directed: the next word must arise from the previous one
by a single 01 -> 10 change, and a cyclic code closes from its last word
back to its first the same way.  ``push_step`` is that directed step
relation.

The default mode reads the changed pair cyclically and requires it to be
cyclically adjacent, matching what one push can touch.  Mode "any" relaxes
adjacency and reads the pair left to right; every such move strictly drops
the sum of one-positions, so no cyclic code exists under it at all, which
is the strongest sign the adjacent reading is the operative one.  Under
the adjacent reading a step moves one 1 one place left, cyclically, so it
lowers the sum of one-positions by exactly 1 mod n: every cyclic code has a
length k*n and meets each residue class of that sum exactly k times.  For
n >= 3 the step relation is also invariant under cyclic rotation of the
positions, so a rotated code is a code of the same length.

Cycle files carry a header line "n=<n> w=<w> len=<len>" followed by one
binary word per line in cyclic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .census import enumeration_budget

_DEFAULT_VERTEX_BUDGET = 120

MODES = ("adjacent", "any")


def weight_words(n: int, w: int) -> list[str]:
    """All binary words of length n and weight w, lexicographically sorted."""
    if not 0 <= w <= n:
        raise ValueError(f"weight must lie in 0..{n}, got {w}")
    words = []
    for ones in itertools.combinations(range(n), w):
        word = ["0"] * n
        for i in ones:
            word[i] = "1"
        words.append("".join(word))
    return sorted(words)


def _check_pair(u: str, v: str) -> None:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    if u.count("1") != v.count("1"):
        raise ValueError(f"weight mismatch: {u} vs {v}")


def push_step(u: str, v: str, mode: str = "adjacent") -> bool:
    """Directed step: v arises from u by one 01 -> 10 change.

    Default mode reads the changed pair in cyclic order and requires it to
    be cyclically adjacent (positions (p, p+1 mod n)); this is exactly a
    weight-preserving push.  Mode "any" allows any two positions, read left
    to right.
    """
    if mode not in MODES:
        raise ValueError(f"unknown adjacency mode: {mode!r}")
    _check_pair(u, v)
    diffs = [i for i in range(len(u)) if u[i] != v[i]]
    if len(diffs) != 2:
        return False
    p, q = diffs
    n = len(u)
    if mode == "any":
        return u[p] + u[q] == "01"
    if q == p + 1:
        return u[p] + u[q] == "01"
    if p == 0 and q == n - 1:
        return u[q] + u[p] == "01"  # the pair (n-1, 0) in cyclic order
    return False


@dataclass(frozen=True)
class GrayGraph:
    """All weight-w words of length n, with their directed push steps."""

    n: int
    w: int
    mode: str
    vertices: tuple[str, ...]
    successors: dict[str, tuple[str, ...]]

    @classmethod
    def build(cls, n: int, w: int, mode: str = "adjacent") -> "GrayGraph":
        if n < 2:
            raise ValueError(f"two-cell windows need n >= 2 cells, got {n}")
        if mode == "adjacent":  # (n-1, 0) repeats (0, 1) when n = 2
            pairs = [(p, (p + 1) % n) for p in range(n if n > 2 else n - 1)]
        elif mode == "any":
            pairs = list(itertools.combinations(range(n), 2))
        else:
            raise ValueError(f"unknown adjacency mode: {mode!r}")
        vertices = tuple(weight_words(n, w))
        succ = {}
        for u in vertices:
            moved = []
            for p, q in pairs:
                if u[p] + u[q] == "01":
                    v = list(u)
                    v[p], v[q] = "1", "0"
                    moved.append("".join(v))
            succ[u] = tuple(sorted(moved))  # equal-length binary words sort in vertex order
        return cls(n=n, w=w, mode=mode, vertices=vertices, successors=succ)


@dataclass(frozen=True)
class GrayCycle:
    """Cyclic sequence of distinct equal-weight words, each step one push."""

    words: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.words)

    def header(self) -> str:
        n = len(self.words[0]) if self.words else 0
        w = self.words[0].count("1") if self.words else 0
        return f"n={n} w={w} len={len(self.words)}"

    def to_file_text(self) -> str:
        return "\n".join([self.header(), *self.words]) + "\n"

    @classmethod
    def from_file_text(cls, text: str) -> "GrayCycle":
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if not lines or not lines[0].startswith("n="):
            raise ValueError("cycle file must start with a 'n=<n> w=<w> len=<len>' header")
        return cls(words=tuple(lines[1:]))


def longest_cycle(n: int, w: int, mode: str = "adjacent") -> tuple[int, GrayCycle | None]:
    """Length and witness of a maximum simple directed cycle of push steps.

    Backtracking over start words in lexicographic order, visiting only
    words above the start so every cycle is met exactly once, at its
    minimum word.  For n >= 3 it also drops every word, and every start,
    with a rotation below the start: a cycle through it rotates to one of
    the same length met from an earlier start (McKay's isomorph rejection),
    which would have set any record first.  Word sets are int bitmasks in
    vertex order.  The room of a path ending at v holds the words off the
    path that v reaches and that still reach the start; a closing path uses
    no others.  A branch dies unless path plus room can hold a cycle of the
    least length that beats the best, ``k * n``, with k words in each
    position-sum class mod n (every step lowers the sum by 1 mod n, so every
    cycle length is a multiple of n).  It stops once the best cycle holds
    every word, or 2n words when w is 2 or n - 2: the paper's last theorem
    bounds weight two by 2n, and complementing every word and reversing the
    cycle maps push steps to push steps, so weight n - w has the maximum of
    weight w.  Only branches that cannot beat the best are cut and only a
    longer cycle replaces it, so the witness is the one a plain search finds
    first; the tests hold that search, without the stop, up to n = 10.
    Mode "any" has no cycle: every step strictly lowers the one-position sum.
    """
    graph = GrayGraph.build(n, w, mode)
    budget = enumeration_budget(_DEFAULT_VERTEX_BUDGET)
    if len(graph.vertices) > budget:
        raise ValueError(f"{len(graph.vertices)} vertices exceed the search budget {budget}")
    if mode == "any":
        return 0, None
    verts = graph.vertices
    index = {v: i for i, v in enumerate(verts)}
    succ = [[index[y] for y in graph.successors[x]] for x in verts]
    succ_mask = [sum(1 << j for j in s) for s in succ]
    pred_mask = [sum(1 << i for i, s in enumerate(succ) if j in s) for j in range(len(verts))]
    classes = [0] * n
    for i, x in enumerate(verts):
        classes[sum(p for p, ch in enumerate(x) if ch == "1") % n] |= 1 << i
    bound = 2 * n if 2 in (w, n - w) else len(verts)
    best_len = 0
    best: tuple[int, ...] | None = None
    path: list[int] = []

    def closure(seed: int, inside: int, step: list[int]) -> int:
        reach = frontier = seed & inside
        while frontier:
            image = 0
            while frontier:
                low = frontier & -frontier
                image |= step[low.bit_length() - 1]
                frontier ^= low
            frontier = image & inside & ~reach
            reach |= frontier
        return reach

    def extend(u: int, allowed: int, taken: int) -> bool:
        nonlocal best_len, best
        for v in succ[u]:
            if not allowed >> v & 1:
                continue
            path.append(v)
            if len(path) >= 3 and into_start >> v & 1 and len(path) > best_len:
                best_len = len(path)
                best = tuple(path)
                if best_len >= bound:
                    return True
            k = best_len // n + 1
            if len(path) + allowed.bit_count() > k * n:  # room lies in allowed minus v
                forward = closure(succ_mask[v], allowed & ~(1 << v), succ_mask)
                room = closure(into_start & forward, forward, pred_mask)
                on_path = taken | 1 << v
                if all(((room | on_path) & c).bit_count() >= k for c in classes):  # k words per class
                    if extend(v, room, on_path):
                        return True
            path.pop()
        return False

    # least index among a word's rotations; n = 2 keeps the plain order (the wrap pair is no edge)
    floor = [min(index[x[r:] + x[:r]] for r in range(n if n > 2 else 1)) for x in verts]
    for si in range(len(verts)):
        canon = sum(1 << i for i, f in enumerate(floor) if f >= si)
        if canon.bit_count() < (best_len // n + 1) * n:
            break
        if not canon >> si & 1:  # a rotation of the start was searched earlier
            continue
        path[:] = [si]
        into_start = pred_mask[si]
        if extend(si, canon ^ 1 << si, 1 << si):
            break
    return best_len, (GrayCycle(words=tuple(verts[i] for i in best)) if best is not None else None)


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def validate_cycle(words: Sequence[str], n: int, w: int, mode: str = "adjacent") -> ValidationResult:
    """Check the cycle invariants of an externally supplied word sequence.

    Every consecutive step, the wrap back to the first word included, must
    be a directed push step.  Failure reasons: "length", "weight",
    "duplicate", "adjacency", "wrap".
    """
    words = list(words)
    if not words:
        return ValidationResult(False, "length", "empty sequence")
    for word in words:
        if len(word) != n or any(ch not in "01" for ch in word):
            return ValidationResult(False, "length", word)
    for word in words:
        if word.count("1") != w:
            return ValidationResult(False, "weight", word)
    seen: set[str] = set()
    for word in words:
        if word in seen:
            return ValidationResult(False, "duplicate", word)
        seen.add(word)
    for a, b in itertools.pairwise(words):
        if not push_step(a, b, mode):
            return ValidationResult(False, "adjacency", f"{a}->{b}")
    if not push_step(words[-1], words[0], mode):
        return ValidationResult(False, "wrap", f"{words[-1]}->{words[0]}")
    return ValidationResult(True)


__all__ = [
    "GrayCycle",
    "GrayGraph",
    "MODES",
    "ValidationResult",
    "longest_cycle",
    "push_step",
    "validate_cycle",
    "weight_words",
]
