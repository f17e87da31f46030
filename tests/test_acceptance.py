"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines live; the
whole suite is sized for a desk machine (a few minutes end to end).
"""

import functools
import itertools

from lrm.census import (
    containing_count,
    count_by_legality,
    count_by_rankings,
    density_report,
    factor_automaton,
    spectral_radius,
)
from lrm.codec import Codeword, decode3, decode_general, demodulate, encode, is_legal, realizable
from lrm.graycode import longest_cycle, validate_cycle
from lrm.states import (
    State,
    chain,
    complete_states,
    head_permutations,
    initial_state,
    pattern_forces_complete,
    state_oracle,
    successor,
    tail_table,
)

STATE1 = State(perm=(1, 2), tuples=frozenset({(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}))
STATE2 = State(perm=(2, 1), tuples=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)}))


def criterion(label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return wrapper

    return decorate


@criterion("criterion 1 (spectral reproduction, t=3)")
def test_criterion_1_spectral_reproduction():
    automaton = factor_automaton((2, 0, 1, 1), 3)
    assert automaton.matrix == ((2, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1), (1, 1, 0, 0))
    assert abs(spectral_radius(automaton.matrix) - 2.9615) < 5e-4


@criterion("criterion 2 (forcing pattern and growth rate, t=4)")
def test_criterion_2_t4_apparatus():
    forces, _ = pattern_forces_complete((3, 3, 0, 1, 2, 1), 4)
    assert forces
    beta = spectral_radius(factor_automaton((3, 3, 0, 1, 2, 1), 4).matrix)
    assert abs(beta - 3.99902) < 5e-4


@criterion("criterion 3 (table reproduction)")
def test_criterion_3_tables():
    assert complete_states(3) == frozenset({STATE1, STATE2})
    successor_table = {
        (STATE1, 0): STATE1,
        (STATE1, 1): STATE2,
        (STATE1, 2): STATE2,
        (STATE2, 0): STATE1,
        (STATE2, 1): STATE1,
        (STATE2, 2): STATE2,
    }
    for (state, digit), expected in successor_table.items():
        assert successor(state, digit) == expected
    table3 = tail_table(3)
    assert table3.count(STATE1, (1, 2)) == 5
    assert table3.count(STATE1, (2, 1)) == 4
    assert table3.count(STATE2, (1, 2)) == 4
    assert table3.count(STATE2, (2, 1)) == 5
    for t, target in ((3, 9), (4, 64)):
        table = tail_table(t)
        for state in complete_states(t):
            assert sum(len(v) for (s, _), v in table.tails.items() if s == state) == target
            union = set()
            total = 0
            for pi in head_permutations(t):
                tails = table.tails[(state, pi)]
                union |= tails
                total += len(tails)
            assert total == target and len(union) == target  # disjoint per head order
        for pi in head_permutations(t):
            assert sum(len(v) for (_, p), v in table.tails.items() if p == pi) == target


@criterion("criterion 4 (dual-oracle census equality)")
def test_criterion_4_dual_oracle():
    for n in range(4, 10):
        assert count_by_rankings(3, n).legal_count == count_by_legality(3, n).legal_count
    for n in range(4, 8):
        assert count_by_rankings(4, n).legal_count == count_by_legality(4, n).legal_count
    for n in range(3, 11):
        assert count_by_legality(2, n).legal_count == 2**n - 2


@criterion("criterion 5 (round trip, injectivity, decoder agreement)")
def test_criterion_5_round_trip_and_injectivity():
    for n in range(4, 9):
        seen: dict[tuple, tuple] = {}
        for ranking in itertools.permutations(range(n)):
            base = demodulate(ranking, 3)
            word = encode(base)
            prior = seen.get(word.digits)
            if prior is None:
                seen[word.digits] = base.symbols
                assert decode3(word) == base
            else:
                assert prior == base.symbols  # distinct base words, distinct codewords
    for n in range(5, 10):
        for digits in itertools.product(range(3), repeat=n):
            word = Codeword(3, digits)
            single = decode3(word)
            expected = set() if single is None else {single}
            assert decode_general(word) == expected


@criterion("criterion 6 (known verdicts)")
def test_criterion_6_known_verdicts():
    from lrm.codec import BaseWord

    for n in range(3, 10):
        assert not is_legal(Codeword(3, (0,) * n))
        assert not is_legal(Codeword(3, (1,) * n))
    assert decode3(Codeword.from_text("22201", 3)).symbols == (6, 6, 6, 3, 2)
    assert realizable(BaseWord(3, (2, 5, 2, 5)))[0] is False
    for n in (4, 6, 8):
        assert realizable(BaseWord(3, (1,) * n))[0] is False


@criterion("criterion 7 (factor lower bound M >= 9M')")
def test_criterion_7_lower_bound():
    for n in range(6, 12):
        m = count_by_legality(3, n).legal_count
        m_prime = containing_count((2, 0, 1, 1), 3, n - 2)
        assert m >= 9 * m_prime, (n, m, m_prime)


@criterion("criterion 8 (state rule vs exhaustive oracle)")
def test_criterion_8_state_rule_soundness():
    for m in range(2, 7):
        for prefix in itertools.product(range(3), repeat=m):
            for pi in head_permutations(3):
                chained = chain(initial_state(prefix[:2], 3, pi), prefix[2:])
                assert chained == state_oracle(prefix, 3, pi)
    for m in range(3, 5):
        for prefix in itertools.product(range(4), repeat=m):
            for pi in head_permutations(4):
                chained = chain(initial_state(prefix[:3], 4, pi), prefix[3:])
                assert chained == state_oracle(prefix, 4, pi)


@criterion("criterion 9 (constant-weight cycle bound)")
def test_criterion_9_gray_bound():
    # maxima fixed beforehand by this same exhaustive search
    expected = {
        "adjacent": {4: 4, 5: 10, 6: 12, 7: 14, 8: 16},
        "any": {4: 0, 5: 0, 6: 0, 7: 0, 8: 0},
    }
    for mode, table in expected.items():
        for n, golden in table.items():
            length, cycle = longest_cycle(n, 2, mode)
            assert length <= 2 * n, (mode, n, length)
            assert length == golden, (mode, n, length)
            if cycle is not None:
                assert validate_cycle(cycle.words, n, 2, mode).ok
    # the known 2n constructions exist under the default reading
    for n in (5, 6, 7):
        assert longest_cycle(n, 2)[0] == 2 * n


@criterion("criterion 10 (density trend reporting)")
def test_criterion_10_density_trend():
    reports = density_report(3, range(6, 12))
    lines = ["density trend t=3:"]
    for report in reports:
        assert report.bound_ok
        assert report.growth_rate < 3
        assert 0 < report.density <= 1
        lines.append(
            f"  n={report.n}: M={report.legal_count} density={report.density:.4f} "
            f"M'={report.m_prime} bound_ok={report.bound_ok}"
        )
    # the limit itself is out of desk reach; record that the trend points up
    assert reports[-1].density > reports[0].density
    print("\n".join(lines))
