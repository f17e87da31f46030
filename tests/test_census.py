import itertools
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from lrm import states as st
from lrm.census import (
    CountReport,
    FactorAutomaton,
    containing_count,
    count_by_automaton,
    count_by_legality,
    count_by_rankings,
    density_report,
    factor_automaton,
    spectral_radius,
)

REFERENCE_MATRIX = ((2, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 0, 0))


def test_factor_automaton_reference_matrix():
    assert factor_automaton((2, 0, 1, 1), 3).matrix == REFERENCE_MATRIX


def test_factor_automaton_small_cases():
    assert factor_automaton((1, 1), 2).matrix == ((1, 1), (1, 0))
    assert factor_automaton((0,), 2).matrix == ((1,),)
    with pytest.raises(ValueError):
        factor_automaton((3,), 3)
    with pytest.raises(ValueError):
        factor_automaton((), 3)


def test_avoiding_count_is_fibonacci_for_11():
    automaton = factor_automaton((1, 1), 2)
    fib = [1, 1]
    while len(fib) < 26:
        fib.append(fib[-1] + fib[-2])
    for m in range(24):
        assert automaton.avoiding_count(m) == fib[m + 1]  # fib[k] = F(k+1)


def test_containing_count_examples():
    assert containing_count((2, 0, 1, 1), 3, 3) == 0
    assert containing_count((2, 0, 1, 1), 3, 4) == 1
    assert containing_count((2, 0, 1, 1), 3, 5) == 6


def test_avoiding_plus_containing_is_total():
    automaton = factor_automaton((2, 0, 1, 1), 3)
    for m in range(61):
        assert automaton.avoiding_count(m) + containing_count((2, 0, 1, 1), 3, m) == 3**m


def test_spectral_radius_reference_values():
    assert abs(spectral_radius(REFERENCE_MATRIX) - 2.9615) < 5e-4
    assert spectral_radius(REFERENCE_MATRIX) == 2.961499625514947  # the correctly rounded root
    assert spectral_radius([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-9)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(spectral_radius([[1, 1], [1, 0]]) - golden) < 1e-3


def test_spectral_radius_t4_pattern():
    beta = spectral_radius(factor_automaton((3, 3, 0, 1, 2, 1), 4).matrix)
    assert abs(beta - 3.99902) < 5e-4
    assert beta == 3.9990222430733127


def test_spectral_radius_guards():
    for malformed in ([], [1, 2], [[1, 2], [3]], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            spectral_radius(malformed)
    with pytest.raises(ValueError):
        spectral_radius([[-1]])
    for fractional in ([[0.5]], [[1, 2], [3, 1.0]], [[Fraction(1, 2)]], [["1"]]):
        with pytest.raises(ValueError, match="integers"):
            spectral_radius(fractional)
    assert spectral_radius([[0, 1], [0, 0]]) == 0.0  # nilpotent


def test_spectral_radius_periodic_matrix():
    # an asymmetric two-cycle, eigenvalues +-sqrt(2): periodic, no dominant modulus
    assert abs(spectral_radius([[0, 1], [2, 0]]) - math.sqrt(2)) < 1e-15
    # reducible, with a defective eigenvalue 1: the avoidance matrix of 0,1 at t=2
    assert spectral_radius(((1, 1), (0, 1))) == 1.0


def _poly_eval(coeffs, x):
    value = Fraction(0)
    for c in coeffs:  # highest degree first
        value = value * x + c
    return value


def _poly_rem(num, den):
    num = list(num)
    while len(num) >= len(den):
        q = num[0] / den[0]
        num = [a - q * b for a, b in zip(num, den + [0] * (len(num) - len(den)))][1:]
    while num and num[0] == 0:
        num.pop(0)
    return num


def _sturm_chain(coeffs):
    degree = len(coeffs) - 1
    chain = [[Fraction(c) for c in coeffs], [Fraction(c * (degree - i)) for i, c in enumerate(coeffs[:-1])]]
    while len(chain[-1]) > 1:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in itertools.pairwise(signs))


def _roots_above(chain, x):
    """Distinct real roots greater than x, for x not a root (Sturm)."""
    return _sign_changes([_poly_eval(p, x) for p in chain]) - _sign_changes([p[0] for p in chain])


def _guibas_odlyzko(pattern, t):
    """Coefficients of (x - t) C(x) + 1, highest degree first; C is the autocorrelation polynomial."""
    r = len(pattern)
    corr = [int(pattern[i:] == pattern[: r - i]) for i in range(r)]  # coefficient of x^(r-1-i)
    poly = [a - t * b for a, b in zip(corr + [0], [0] + corr)]
    poly[-1] += 1
    return poly


def test_spectral_radius_is_the_largest_guibas_odlyzko_root():
    """Growth rate of pattern-avoiding words: the largest real root of (x - t) C(x) + 1 (JCTA 30, 1981)."""
    eps = Fraction(1, 10**12)
    for t in (2, 3, 4):
        for r in range(1, 6):
            for pattern in itertools.product(range(t), repeat=r):
                rate = Fraction(spectral_radius(factor_automaton(pattern, t).matrix))
                chain = _sturm_chain(_guibas_odlyzko(pattern, t))
                # a root within eps below or above the rate, and none beyond
                assert _roots_above(chain, rate + eps) == 0, pattern
                assert _roots_above(chain, rate - eps) >= 1, pattern


def test_guibas_odlyzko_polynomials():
    assert _guibas_odlyzko((1, 1), 2) == [1, -1, -1]  # x^2 - x - 1: the golden ratio
    assert _guibas_odlyzko((0, 1), 2) == [1, -2, 1]  # (x - 1)^2: a double root at 1
    assert _guibas_odlyzko((0, 0, 1), 2) == [1, -2, 0, 1]  # (x - 1)(x^2 - x - 1)


def test_spectral_radius_inside_collatz_wielandt_bracket():
    """For A > 0 and v > 0: min (Av)_i / v_i <= rho(A) <= max (Av)_i / v_i, here with v = A^k 1."""
    rng = random.Random(20111)
    for _ in range(150):
        size = rng.randint(1, 7)
        matrix = [[rng.randint(1, 9) for _ in range(size)] for _ in range(size)]
        rate = spectral_radius(matrix)
        vec = [1] * size
        for k in range(6):
            image = [sum(a * b for a, b in zip(row, vec)) for row in matrix]
            ratios = [Fraction(a, b) for a, b in zip(image, vec)]
            # rounding is monotone, so the float root lies between the rounded ends
            assert float(min(ratios)) <= rate <= float(max(ratios)), (matrix, k)
            vec = image


def test_count_by_rankings_reference():
    assert count_by_rankings(2, 5).legal_count == 2**5 - 2
    report = count_by_rankings(3, 3)
    assert report.legal_count == 6
    assert report.base_word_count == 6
    assert report.total == 27


def test_count_oracles_agree_small():
    for t, n in [(3, 5), (3, 6), (4, 5)]:
        assert count_by_rankings(t, n).legal_count == count_by_legality(t, n).legal_count


def test_count_by_legality_t2():
    for n in range(3, 9):
        assert count_by_legality(2, n).legal_count == 2**n - 2


def test_count_budget_guards(monkeypatch):
    monkeypatch.delenv("LRM_MAX_BUDGET", raising=False)
    with pytest.raises(ValueError):
        count_by_rankings(3, 12)
    with pytest.raises(ValueError):
        count_by_legality(3, 15)


def test_budget_override_raises_cap(monkeypatch):
    from lrm.census import enumeration_budget

    monkeypatch.setenv("LRM_MAX_BUDGET", "7000000")
    assert enumeration_budget(5_000_000) == 7_000_000
    monkeypatch.setenv("LRM_MAX_BUDGET", "10")
    # the override only ever raises a guard, never lowers it
    assert enumeration_budget(5_000_000) == 5_000_000


def test_density_report_columns():
    reports = density_report(3, range(6, 8))
    assert [r.n for r in reports] == [6, 7]
    for report in reports:
        assert report.bound_ok is True
        assert report.m_prime == containing_count((2, 0, 1, 1), 3, report.n - 2)
        assert abs(report.growth_rate - 2.9615) < 5e-4
        assert report.legal_count >= 9 * report.m_prime


def test_report_serialization():
    report = CountReport(t=3, n=6, legal_count=426, total=729, density=426 / 729)
    payload = report.to_json_dict()
    assert list(payload) == list(CountReport.CSV_FIELDS)
    assert payload["legal_count"] == 426


def test_parallel_count_matches_serial():
    serial = count_by_legality(3, 6, jobs=1).legal_count
    parallel = count_by_legality(3, 6, jobs=2).legal_count
    assert serial == parallel == 426


def test_import_loads_no_process_pool():
    # only a count with jobs > 1 imports the pool, so a fresh interpreter must not hold it
    script = "import sys, lrm, lrm.cli; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# Rankings are the ground truth up to n = 8; above that the per-word
# legality count, itself tied to the rankings in test_acceptance.py (criterion 4).
@pytest.mark.parametrize(
    "t, n",
    [(2, n) for n in range(2, 13)] + [(3, n) for n in range(3, 11)] + [(4, n) for n in range(4, 10)],
)
def test_automaton_matches_oracle(t, n):
    oracle = count_by_rankings(t, n) if n <= 8 else count_by_legality(t, n)
    assert count_by_automaton(t, n).legal_count == oracle.legal_count


def test_automaton_t2_closed_form_at_large_n():
    for n in range(2, 301):
        assert count_by_automaton(2, n).legal_count == 2**n - 2


def test_automaton_lower_bound_at_large_n():
    # every length up to 40, then every tenth up to 200; exact integers throughout
    lengths = list(range(6, 41)) + list(range(50, 201, 10))
    reports = density_report(3, lengths)
    assert [r.n for r in reports] == lengths
    for report in reports:
        assert report.legal_count >= 9 * containing_count((2, 0, 1, 1), 3, report.n - 2)
        assert report.bound_ok is True
        assert report.total == 3**report.n
    assert reports[-1].legal_count == count_by_automaton(3, 200).legal_count


def test_automaton_guards():
    with pytest.raises(ValueError):
        count_by_automaton(5, 10)
    with pytest.raises(ValueError):
        count_by_automaton(3, 2)


# The slow reference: the determinized automaton whose vertex is the vector
# of chain states under every head order, with a word's tails the union of
# the per-order tail sets.  It needs no uniqueness of the head order.


@lru_cache(maxsize=None)
def _next_vectors(vector):
    """The vector after each digit 0..t-1."""
    return tuple(tuple(st.successor(s, d) for s in vector) for d in range(vector[0].t))


def _start_vectors(t):
    for prefix in itertools.product(range(t), repeat=t - 1):
        yield tuple(s for _, s in st.initial_states_by_head(prefix, t))


def _vector_count(t, n):
    counts = {}
    for vector in _start_vectors(t):
        counts[vector] = counts.get(vector, 0) + 1
    for _ in range(n - 2 * t + 2):
        stepped = {}
        for vector, count in counts.items():
            for nxt in _next_vectors(vector):
                stepped[nxt] = stepped.get(nxt, 0) + count
        counts = stepped
    heads = st.head_permutations(t)
    return sum(count * len(set().union(*map(st.achievable_tails, vector, heads))) for vector, count in counts.items())


@pytest.mark.parametrize("t, size", [(2, 3), (3, 50), (4, 2874)])
def test_head_order_is_unique_on_every_reachable_vector(t, size):
    """Certificate that count_by_automaton may sum per-order counts: in every
    reachable vector the head orders' tail sets are pairwise disjoint, so no
    word of n >= 2t-2 digits is legal under two head orders."""
    heads = st.head_permutations(t)
    seen = set(_start_vectors(t))
    frontier = list(seen)
    while frontier:
        nxt = {v for vector in frontier for v in _next_vectors(vector)} - seen
        seen |= nxt
        frontier = list(nxt)
    assert len(seen) == size
    for vector in seen:
        tails = [st.achievable_tails(s, pi) for s, pi in zip(vector, heads)]
        assert sum(map(len, tails)) == len(set().union(*tails)), vector


@pytest.mark.parametrize("t, n_max", [(2, 40), (3, 60), (4, 24)])
def test_automaton_matches_vector_automaton(t, n_max):
    for n in range(2 * t - 2, n_max + 1):
        assert count_by_automaton(t, n).legal_count == _vector_count(t, n), (t, n)


def _lucas_3(n):
    """L_0 = 2, L_1 = 1, L_n = L_(n-1) + 3 L_(n-2)."""
    a, b = 2, 1
    for _ in range(n):
        a, b = b, b + 3 * a
    return a


def test_automaton_t3_closed_form():
    for n in list(range(6, 120)) + [200, 1000]:
        expected = 3**n - 2 * _lucas_3(n) + 2 + 3 * (-1) ** n
        assert count_by_automaton(3, n).legal_count == expected, n
