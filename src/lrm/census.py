"""Exact enumeration of legal words, factor avoidance, and growth rates.

The density argument runs on three legs: an exact count of legal words (by
path counting through the determinized head-order chain automaton, with
ranking enumeration and the per-word legality test kept as oracles), an
exact count of digit words containing a forcing factor (via the
factor-avoidance automaton), and that automaton's dominant eigenvalue,
which bounds how fast factor-avoiding words grow.  Counts stay in exact
integers; floats appear only at the reporting boundary.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from . import states as st
from .codec import Codeword, is_legal
from .permutations import symbol_table

# Forcing factors whose occurrence guarantees a complete final state.
DEFAULT_PATTERNS: dict[int, tuple[int, ...]] = {
    3: (2, 0, 1, 1),
    4: (3, 3, 0, 1, 2, 1),
}

_DEFAULT_WORD_BUDGET = 5_000_000
_DEFAULT_RANKING_BUDGET = factorial(10)


def enumeration_budget(default: int) -> int:
    """Size guard, raisable through LRM_MAX_BUDGET (may run long)."""
    raw = os.environ.get("LRM_MAX_BUDGET")
    if raw is None:
        return default
    return max(default, int(raw))


@dataclass(frozen=True)
class FactorAutomaton:
    """Transition counts of the automaton accepting factor-avoiding words.

    State k means the last k digits match the pattern's first k; the
    transition completing the pattern is dropped, so row sums fall one
    short of t exactly where a symbol would finish a match.
    """

    pattern: tuple[int, ...]
    t: int
    matrix: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.matrix)

    def avoiding_count(self, m: int) -> int:
        """Words of length m without the pattern as a factor (exact)."""
        if m < 0:
            raise ValueError(f"negative length: {m}")
        vec = [1] + [0] * (self.size - 1)
        for _ in range(m):
            vec = [sum(vec[i] * self.matrix[i][j] for i in range(self.size)) for j in range(self.size)]
        return sum(vec)


@lru_cache(maxsize=None)
def factor_automaton(pattern: tuple[int, ...], t: int) -> FactorAutomaton:
    """Prefix-match automaton of a digit pattern, completion excluded."""
    if len(pattern) == 0:
        raise ValueError("empty pattern")
    if any(not 0 <= d < t for d in pattern):
        raise ValueError(f"pattern digits must lie in 0..{t - 1}: {pattern}")
    r = len(pattern)
    # delta[k][a]: longest prefix of the pattern that suffixes (match k) + a.
    delta = [[0] * t for _ in range(r)]
    delta[0][pattern[0]] = 1
    back = 0
    for k in range(1, r):
        for a in range(t):
            delta[k][a] = delta[back][a]
        delta[k][pattern[k]] = k + 1
        back = delta[back][pattern[k]]
    matrix = [[0] * r for _ in range(r)]
    for k in range(r):
        for a in range(t):
            nxt = delta[k][a]
            if nxt == r:
                continue  # pattern completed, word rejected
            matrix[k][nxt] += 1
    return FactorAutomaton(pattern=pattern, t=t, matrix=tuple(tuple(row) for row in matrix))


def containing_count(pattern: Sequence[int], t: int, m: int) -> int:
    """Words of length m that contain the pattern as a factor (exact)."""
    if m < 0:
        raise ValueError(f"negative length: {m}")
    automaton = factor_automaton(tuple(pattern), t)
    return t**m - automaton.avoiding_count(m)


class SpectralError(RuntimeError):
    """Power iteration failed; ``fallback`` carries the ratio estimate."""

    def __init__(self, message: str, fallback: float):
        super().__init__(f"{message} (ratio fallback {fallback!r})")
        self.fallback = fallback


def _power_ratio(matrix: Sequence[Sequence[int]], m: int = 60) -> float:
    """Growth ratio of total path counts after m steps, in exact integers."""
    rows = [[int(x) for x in row] for row in matrix]
    size = len(rows)
    vec = [1] * size
    prev_total = size
    total = size
    for _ in range(m + 1):
        prev_total = total
        vec = [sum(vec[i] * rows[i][j] for i in range(size)) for j in range(size)]
        total = sum(vec)
    if prev_total == 0:
        return 0.0
    return total / prev_total


def spectral_radius(matrix: Sequence[Sequence[int]], tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Dominant eigenvalue of a nonnegative integer matrix by power iteration.

    Starts from the all-ones vector and stops when successive Rayleigh
    quotients agree to ``tol``.  The result is cross-checked against the
    exact path-count ratio after 60 steps; disagreement beyond 1e-3 or
    running out of iterations raises, carrying the ratio as fallback.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"need a square matrix, got shape {A.shape}")
    if (A < 0).any():
        raise ValueError("matrix entries must be nonnegative")
    x = np.ones(A.shape[0])
    lam_prev = None
    converged = False
    for _ in range(max_iter):
        y = A @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0  # nilpotent
        x = y / norm
        lam = float(x @ (A @ x))
        if lam_prev is not None and abs(lam - lam_prev) < tol:
            converged = True
            break
        lam_prev = lam
    ratio = _power_ratio(matrix)
    if not converged:
        raise SpectralError("power iteration did not converge", ratio)
    if abs(lam - ratio) > 1e-3:
        raise SpectralError(f"eigenvalue {lam!r} disagrees with path-count ratio", ratio)
    return lam


@dataclass
class CountReport:
    """Per-length census of legal words plus the lower-bound apparatus."""

    t: int
    n: int
    legal_count: int
    total: int
    density: float
    m_prime: int | None = None
    bound_ok: bool | None = None
    growth_rate: float | None = None
    base_word_count: int | None = None

    CSV_FIELDS = ("t", "n", "legal_count", "total", "density", "m_prime", "bound_ok", "growth_rate")

    def to_json_dict(self) -> dict:
        return {field: getattr(self, field) for field in self.CSV_FIELDS}

    def to_csv_row(self) -> str:
        def cell(value):
            return "" if value is None else str(value)

        return ",".join(cell(getattr(self, field)) for field in self.CSV_FIELDS)

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(cls.CSV_FIELDS)


def count_by_rankings(t: int, n: int) -> CountReport:
    """Count distinct codewords (and base words) over all n! cell rankings.

    Every legal codeword arises from some ranking because realizability
    witnesses are integral, so this is the ground-truth oracle at small n.
    """
    budget = enumeration_budget(_DEFAULT_RANKING_BUDGET)
    if factorial(n) > budget:
        raise ValueError(f"{n}! rankings exceed the enumeration budget {budget}")
    if n < t:
        raise ValueError(f"need n >= t, got n = {n}, t = {t}")
    table = symbol_table(t)
    pair_idx = [(a, b) for a in range(t) for b in range(a + 1, t)]
    sig_to_symbol = {}
    for sym, perm in enumerate(table.perms, start=1):
        value = [0] * t
        for rank, pos in enumerate(perm):
            value[pos - 1] = t - rank
        sig_to_symbol[tuple(value[a] < value[b] for a, b in pair_idx)] = sym
    codewords = set()
    basewords = set()
    for ranking in itertools.permutations(range(n)):
        ext = ranking + ranking[: t - 1]
        digits = []
        symbols = []
        for i in range(n):
            w = ext[i : i + t]
            symbols.append(sig_to_symbol[tuple(w[a] < w[b] for a, b in pair_idx)])
            newest = w[-1]
            digits.append(sum(1 for v in w[:-1] if v < newest))
        codewords.add(tuple(digits))
        basewords.add(tuple(symbols))
    legal = len(codewords)
    return CountReport(
        t=t,
        n=n,
        legal_count=legal,
        total=t**n,
        density=legal / t**n,
        base_word_count=len(basewords),
    )


def _legal_in_range(t: int, n: int, lo: int, hi: int) -> int:
    count = 0
    for index in range(lo, hi):
        digits = []
        rest = index
        for _ in range(n):
            rest, d = divmod(rest, t)
            digits.append(d)
        if is_legal(Codeword(t, tuple(digits))):
            count += 1
    return count


def count_by_legality(t: int, n: int, jobs: int = 1) -> CountReport:
    """Count legal words by testing every digit word of length n."""
    total = t**n
    budget = enumeration_budget(_DEFAULT_WORD_BUDGET)
    if total > budget:
        raise ValueError(f"{t}^{n} = {total} words exceed the enumeration budget {budget}")
    if n < t:
        raise ValueError(f"need n >= t, got n = {n}, t = {t}")
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, total))
    if jobs == 1:
        legal = _legal_in_range(t, n, 0, total)
    else:
        step = -(-total // jobs)
        spans = [(lo, min(lo + step, total)) for lo in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            legal = sum(pool.map(_legal_in_range, *zip(*((t, n, lo, hi) for lo, hi in spans))))
    return CountReport(t=t, n=n, legal_count=legal, total=total, density=legal / total)


_Vector = tuple[st.State, ...]


@lru_cache(maxsize=None)
def _start_vectors(t: int) -> dict[_Vector, int]:
    """Path counts after the t-1 head digits, one per distinct start vector.

    A vector holds the chain state under every head order pi; each state
    is a function of the digits read, so vectors step deterministically.
    """
    heads = st.head_permutations(t)
    counts: dict[_Vector, int] = {}
    for prefix in itertools.product(range(t), repeat=t - 1):
        vector = tuple(st.initial_state(prefix, t, pi) for pi in heads)
        counts[vector] = counts.get(vector, 0) + 1
    return counts


@lru_cache(maxsize=None)
def _next_vectors(vector: _Vector) -> tuple[_Vector, ...]:
    """The vector after each digit 0..t-1."""
    return tuple(tuple(st.successor(s, d) for s in vector) for d in range(vector[0].t))


@lru_cache(maxsize=None)
def _tail_weight(vector: _Vector) -> int:
    """Distinct tails that close a word ending in this vector legally."""
    tails: set[tuple[int, ...]] = set()
    for state, pi in zip(vector, st.head_permutations(vector[0].t)):
        tails |= st.achievable_tails(state, pi)
    return len(tails)


def count_by_automaton(t: int, n: int) -> CountReport:
    """Count legal words by path counting through the head-order automaton.

    Exact transfer-matrix count (Stanley, EC1 4.7) over the determinized
    automaton whose vertex is the vector of head-conditioned chain states:
    path counts from the t^(t-1) head prefixes, stepped through the n-2t+2
    middle digits and weighted by each final vector's number of legal
    tails.  Words shorter than 2t-2 have overlapping head and tail cells,
    so they go to the ranking oracle, as in ``is_legal``.  For t <= 4 only;
    at t = 5 the vector closure explodes.
    """
    if not 2 <= t <= 4:
        raise ValueError(f"the head-order automaton is kept enumerable for t in [2, 4], got {t}")
    if n < t:
        raise ValueError(f"need n >= t, got n = {n}, t = {t}")
    if n < 2 * t - 2:
        legal = count_by_rankings(t, n).legal_count
    else:
        counts = _start_vectors(t)
        for _ in range(n - 2 * t + 2):
            stepped: dict[_Vector, int] = {}
            for vector, count in counts.items():
                for nxt in _next_vectors(vector):
                    stepped[nxt] = stepped.get(nxt, 0) + count
            counts = stepped
        legal = sum(count * _tail_weight(vector) for vector, count in counts.items())
    total = t**n
    return CountReport(t=t, n=n, legal_count=legal, total=total, density=legal / total)


def density_report(
    t: int, n_range: Sequence[int], pattern: Sequence[int] | None = None, jobs: int = 1
) -> list[CountReport]:
    """Census rows with the factor lower bound M >= t^(t-1) * M'.

    M' counts length n-t+1 prefixes containing the forcing pattern; each
    one closes into a complete state, whose tail sets cover every possible
    ending, so each contributes t^(t-1) legal words.  For t <= 4 the counts
    come from the head-order automaton; ``jobs`` only reaches the per-word
    legality count used above that.
    """
    if pattern is None:
        pattern = DEFAULT_PATTERNS.get(t)
    growth = None
    if pattern is not None:
        pattern = tuple(pattern)
        growth = spectral_radius(factor_automaton(pattern, t).matrix)
    reports = []
    for n in n_range:
        if t <= 4:
            report = count_by_automaton(t, n)
        elif t**n <= enumeration_budget(_DEFAULT_WORD_BUDGET):
            report = count_by_legality(t, n, jobs=jobs)
        else:
            report = count_by_rankings(t, n)
        if pattern is not None:
            report.m_prime = containing_count(pattern, t, n - t + 1)
            report.bound_ok = report.legal_count >= t ** (t - 1) * report.m_prime
            report.growth_rate = growth
        reports.append(report)
    return reports


__all__ = [
    "CountReport",
    "DEFAULT_PATTERNS",
    "FactorAutomaton",
    "SpectralError",
    "containing_count",
    "count_by_automaton",
    "count_by_legality",
    "count_by_rankings",
    "density_report",
    "enumeration_budget",
    "factor_automaton",
    "spectral_radius",
]
