import math

import pytest

from lrm.census import (
    CountReport,
    FactorAutomaton,
    SpectralError,
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
    assert spectral_radius([[1, 0], [0, 1]]) == pytest.approx(1.0, abs=1e-9)
    golden = (1 + math.sqrt(5)) / 2
    assert abs(spectral_radius([[1, 1], [1, 0]]) - golden) < 1e-3


def test_spectral_radius_t4_pattern():
    beta = spectral_radius(factor_automaton((3, 3, 0, 1, 2, 1), 4).matrix)
    assert abs(beta - 3.99902) < 5e-4


def test_spectral_radius_guards():
    for malformed in ([], [1, 2], [[1, 2], [3]], [[1, 2, 3]]):
        with pytest.raises(ValueError):
            spectral_radius(malformed)
    with pytest.raises(ValueError):
        spectral_radius([[-1]])
    assert spectral_radius([[0, 1], [0, 0]]) == 0.0  # nilpotent


def test_spectral_radius_flags_oscillation():
    # asymmetric two-cycle: Rayleigh quotients oscillate and never settle
    with pytest.raises(SpectralError) as info:
        spectral_radius([[0, 1], [2, 0]])
    assert info.value.fallback > 0


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
