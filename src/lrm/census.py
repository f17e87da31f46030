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
from math import factorial, sqrt
from operator import mul
from typing import Iterable, Sequence

from . import states as st
from .codec import Codeword, is_legal, ranking_words

# Forcing factors whose occurrence guarantees a complete final state.
DEFAULT_PATTERNS: dict[int, tuple[int, ...]] = {
    3: (2, 0, 1, 1),
    4: (3, 3, 0, 1, 2, 1),
}

_DEFAULT_WORD_BUDGET = 5_000_000
_DEFAULT_RANKING_BUDGET = factorial(10)

# Power iteration: Rayleigh-quotient tolerance, iteration cap, cross-check steps.
_TOL = 1e-10
_MAX_ITER = 100_000
_RATIO_STEPS = 60


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

    def avoiding_count(self, m: int) -> int:
        """Words of length m without the pattern as a factor (exact)."""
        if m < 0:
            raise ValueError(f"negative length: {m}")
        vec = [1] + [0] * (len(self.matrix) - 1)
        for _ in range(m):
            vec = _step(vec, self.matrix)
        return sum(vec)


def _step(vec: Sequence, rows: Sequence[Sequence]) -> list:
    """Row vector times matrix: entry j is the sum of vec[i] * rows[i][j]."""
    return [sum(map(mul, vec, col)) for col in zip(*rows)]


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


def _power_ratio(matrix: Sequence[Sequence[float]]) -> float:
    """Growth ratio of total path counts after _RATIO_STEPS steps, in exact integers."""
    rows = [[int(x) for x in row] for row in matrix]
    vec = [1] * len(rows)
    for _ in range(_RATIO_STEPS):
        vec = _step(vec, rows)
    total = sum(vec)
    return sum(_step(vec, rows)) / total if total else 0.0


def spectral_radius(matrix: Sequence[Sequence[int]]) -> float:
    """Dominant eigenvalue of a nonnegative integer matrix by power iteration.

    Starts from the all-ones vector and stops when successive Rayleigh
    quotients agree to _TOL.  The result is cross-checked against the exact
    path-count ratio; disagreement beyond 1e-3 or running out of iterations
    raises, carrying the ratio as fallback.
    """
    try:
        rows = [[float(x) for x in row] for row in matrix]
    except TypeError:
        raise ValueError("need a square matrix of numbers") from None
    if not rows or any(len(row) != len(rows) for row in rows):
        raise ValueError(f"need a square matrix, got row lengths {[len(row) for row in rows]}")
    if any(x < 0 for row in rows for x in row):
        raise ValueError("matrix entries must be nonnegative")
    cols = list(zip(*rows))  # _step(x, cols) is the column product A x
    x = [1.0] * len(rows)
    lam = None
    for _ in range(_MAX_ITER):
        y = _step(x, cols)
        norm = sqrt(sum(map(mul, y, y)))
        if norm == 0.0:
            return 0.0  # nilpotent
        x = [v / norm for v in y]
        lam_prev, lam = lam, sum(map(mul, x, _step(x, cols)))
        if lam_prev is not None and abs(lam - lam_prev) < _TOL:
            break
    else:
        raise SpectralError("power iteration did not converge", _power_ratio(rows))
    ratio = _power_ratio(rows)
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


def count_by_rankings(t: int, n: int) -> CountReport:
    """Count distinct codewords (and base words) over all n! cell rankings.

    The ground-truth oracle at small n; see ``codec.ranking_words``.
    """
    budget = enumeration_budget(_DEFAULT_RANKING_BUDGET)
    if factorial(n) > budget:
        raise ValueError(f"{n}! rankings exceed the enumeration budget {budget}")
    if n < t:
        raise ValueError(f"need n >= t, got n = {n}, t = {t}")
    codewords, basewords = ranking_words(t, n)
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


def auto_method(t: int, n: int) -> str:
    """Census engine for one length: automaton (t <= 4), legality (within the word budget), rankings."""
    if t <= 4:
        return "automaton"
    if t**n <= enumeration_budget(_DEFAULT_WORD_BUDGET):
        return "legality"
    return "rankings"


def count_by(method: str, t: int, n: int, jobs: int = 1) -> CountReport:
    """Count legal words of length n with the named engine: automaton, legality or rankings."""
    if method == "legality":
        return count_by_legality(t, n, jobs=jobs)
    return {"automaton": count_by_automaton, "rankings": count_by_rankings}[method](t, n)


def add_bound(t: int, reports: Iterable[CountReport], pattern: Sequence[int]) -> list[CountReport]:
    """Census rows with the factor lower bound M >= t^(t-1) * M' filled in.

    M' counts length n-t+1 prefixes containing the forcing pattern; each
    one closes into a complete state, whose tail sets cover every possible
    ending, so each contributes t^(t-1) legal words.  The growth rate is
    the avoidance automaton's dominant eigenvalue.  It is computed before
    the first row is drawn, so lazy rows count nothing for a bad pattern.
    """
    pattern = tuple(pattern)
    growth = spectral_radius(factor_automaton(pattern, t).matrix)
    reports = list(reports)
    for report in reports:
        report.m_prime = containing_count(pattern, t, report.n - t + 1)
        report.bound_ok = report.legal_count >= t ** (t - 1) * report.m_prime
        report.growth_rate = growth
    return reports


def density_report(
    t: int, n_range: Sequence[int], pattern: Sequence[int] | None = None, jobs: int = 1
) -> list[CountReport]:
    """Census rows with the factor lower bound (see ``add_bound``).

    The pattern defaults to the forcing factor of ``DEFAULT_PATTERNS``.
    For t <= 4 the counts come from the head-order automaton; ``jobs`` only
    reaches the per-word legality count used above that (see ``auto_method``).
    """
    if pattern is None:
        pattern = DEFAULT_PATTERNS.get(t)
    reports = (count_by(auto_method(t, n), t, n, jobs=jobs) for n in n_range)
    return list(reports) if pattern is None else add_bound(t, reports, pattern)


__all__ = [
    "CountReport",
    "DEFAULT_PATTERNS",
    "FactorAutomaton",
    "SpectralError",
    "add_bound",
    "auto_method",
    "containing_count",
    "count_by",
    "count_by_automaton",
    "count_by_legality",
    "count_by_rankings",
    "density_report",
    "enumeration_budget",
    "factor_automaton",
    "spectral_radius",
]
