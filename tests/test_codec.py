import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from lrm.codec import (
    BaseWord,
    Codeword,
    decode3,
    decode_general,
    demodulate,
    encode,
    is_legal,
    ranking_words,
    realizable,
    window_consistent,
)
from lrm.permutations import rank_to_permutation, symbol_table

profiles = hst.integers(min_value=4, max_value=8).flatmap(
    lambda n: hst.permutations(list(range(n)))
)


def test_demodulate_reference_profiles():
    assert demodulate((3, 5, 2, 7, 10), 3).symbols == (3, 4, 6, 3, 2)
    assert demodulate((0, 1, 2, 3, 4), 3).symbols == (6, 6, 6, 3, 2)


def test_demodulate_t2_is_the_ascent_indicator():
    # symbol 2 marks an ascent; the digit word is symbols minus one
    base = demodulate((3, 5, 2, 7, 10), 2)
    assert base.symbols == (2, 1, 2, 2, 1)
    assert encode(base).digits == (1, 0, 1, 1, 0)


def test_demodulate_rejects_short_or_clashing_profiles():
    with pytest.raises(ValueError):
        demodulate((1, 2), 3)
    with pytest.raises(ValueError):
        demodulate((1, 1, 2), 2)


def test_encode_reference_words():
    assert encode(BaseWord(3, (3, 4, 6, 3, 2))).to_text() == "02201"
    assert encode(BaseWord(3, (6, 6, 6, 3, 2))).to_text() == "22201"
    for n in (3, 5, 8):
        assert encode(BaseWord(3, (1,) * n)).digits == (0,) * n


def test_encode_rejects_inconsistent_words():
    # after an odd symbol only {1, 2, 4} may follow
    bad = BaseWord(3, (1, 6, 6, 3, 2))
    assert not window_consistent(bad)
    with pytest.raises(ValueError):
        encode(bad)


def _windows_one_by_one(profile, t):
    """Slow reference for ``demodulate``: every window ranked on its own."""
    n = len(profile)
    doubled = tuple(profile) + tuple(profile[: t - 1])
    return tuple(symbol_table(t).symbol(rank_to_permutation(doubled[i : i + t])) for i in range(n))


def test_demodulate_matches_window_by_window_ranking():
    rng = random.Random(11)
    for t in (2, 3, 4, 5, 6):
        for n in (t, t + 1, 2 * t, 40):
            for _ in range(50):
                # narrow level ranges repeat levels at cyclic distance >= t
                profile = rng.sample(range(4 * n), n) if rng.random() < 0.5 else [rng.randrange(n) for _ in range(n)]
                try:
                    expected = _windows_one_by_one(profile, t)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc).replace("(", r"\(").replace(")", r"\)")):
                        demodulate(profile, t)
                else:
                    assert demodulate(profile, t).symbols == expected


def test_demodulate_duplicate_rule():
    # equal levels inside one window have no rank order
    for profile in [(1, 5, 1, 2, 6, 4), (1, 5, 3, 2, 6, 1), (7, 7, 1, 2, 3, 4)]:
        with pytest.raises(ValueError, match="pairwise distinct"):
            demodulate(profile, 3)
    # equal levels at cyclic distance >= t never share a window
    assert demodulate((1, 5, 3, 1, 6, 4), 3).symbols == (5, 1, 4, 5, 1, 4)
    assert demodulate((1, 5, 3, 1, 6, 4), 3) == BaseWord(3, _windows_one_by_one((1, 5, 3, 1, 6, 4), 3))
    with pytest.raises(ValueError, match="pairwise distinct"):
        demodulate((1, 5, 3, 1, 6, 4), 4)


def _consistent_one_by_one(base):
    """Slow reference for ``window_consistent``: the shared cells' orders as tuples."""
    t = base.t
    perms = [symbol_table(t).permutation(s) for s in base.symbols]
    heads = [tuple(lbl for lbl in p if lbl != t) for p in perms]
    tails = [tuple(lbl - 1 for lbl in p if lbl != 1) for p in perms]
    return all(tails[i] == heads[(i + 1) % len(perms)] for i in range(len(perms)))


@pytest.mark.parametrize("t, top", [(2, 8), (3, 5), (4, 4)])
def test_window_consistent_matches_shared_cell_orders(t, top):
    for n in range(1, top + 1):
        for symbols in itertools.product(range(1, symbol_table(t).size + 1), repeat=n):
            if n < t:
                with pytest.raises(ValueError, match=f"need at least t = {t} symbols"):
                    BaseWord(t, symbols)
                continue
            base = BaseWord(t, symbols)
            assert window_consistent(base) == _consistent_one_by_one(base)


def _check_witness(base, ok, witness):
    if ok:
        assert demodulate(witness, base.t) == base
        assert min(witness) == 0
    else:
        assert witness is None


def test_realizable_matches_ranking_oracle_t3():
    realizable_words = ranking_words(3, 5)[1]
    for symbols in itertools.product(range(1, 7), repeat=5):
        base = BaseWord(3, symbols)
        ok, witness = realizable(base)
        assert ok == (symbols in realizable_words)
        _check_witness(base, ok, witness)


def test_realizable_matches_ranking_oracle_t4():
    realizable_words = ranking_words(4, 6)[1]
    rng = random.Random(4)
    sample = [tuple(rng.randint(1, 24) for _ in range(6)) for _ in range(2000)]
    for symbols in sorted(realizable_words) + sample:
        base = BaseWord(4, symbols)
        ok, witness = realizable(base)
        assert ok == (symbols in realizable_words)
        _check_witness(base, ok, witness)


def test_realizable_rejects_words_shorter_than_a_window():
    # a window that wraps onto its own cells would order a cell against itself,
    # so such a base word is an input error, as a profile of fewer than t cells is
    for t, n in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        for symbols in itertools.product(range(1, symbol_table(t).size + 1), repeat=n):
            with pytest.raises(ValueError, match=f"need at least t = {t} symbols"):
                BaseWord(t, symbols)


def test_realizable_verdicts():
    assert realizable(BaseWord(3, (1,) * 5)) == (False, None)
    assert realizable(BaseWord(3, (2, 5, 2, 5)))[0] is False
    ok, witness = realizable(BaseWord(3, (3, 4, 6, 3, 2)))
    assert ok
    assert demodulate(witness, 3).symbols == (3, 4, 6, 3, 2)


def test_realizable_witness_starts_at_zero():
    ok, witness = realizable(BaseWord(3, (6, 6, 6, 3, 2)))
    assert ok and min(witness) == 0


@given(profiles)
@settings(max_examples=60)
def test_realizable_witness_round_trips(profile):
    base = demodulate(profile, 3)
    ok, witness = realizable(base)
    assert ok
    assert demodulate(witness, 3) == base


def test_decode3_reference_words():
    assert decode3(Codeword.from_text("22201", 3)).symbols == (6, 6, 6, 3, 2)
    assert decode3(Codeword.from_text("02201", 3)).symbols == (3, 4, 6, 3, 2)
    for n in (3, 5, 8):
        assert decode3(Codeword(3, (0,) * n)) is None
        assert decode3(Codeword(3, (1,) * n)) is None


# Hand-written t = 3 transitions: the next symbol from the previous one's parity and the digit.
_T3_NEXT = {True: {0: 1, 1: 2, 2: 4}, False: {0: 3, 1: 5, 2: 6}}
_T3_SEEDS = {0: (1, 3), 2: (4, 6)}


def _anchored_verdict(digits):
    """Slow reference for ``decode3``: one parity pass from the first digit other than 1, then ``realizable``."""
    n = len(digits)
    anchor = next((i for i, d in enumerate(digits) if d != 1), None)
    if anchor is None:
        return None
    odd = digits[anchor] == 0
    syms = [0] * n
    for step in range(1, n + 1):
        j = (anchor + step) % n
        syms[j] = _T3_NEXT[odd][digits[j]]
        odd = syms[j] % 2 == 1
    if syms[anchor] not in _T3_SEEDS[digits[anchor]]:
        return None
    candidate = BaseWord(3, tuple(syms))
    return candidate if realizable(candidate)[0] else None


def test_decode3_matches_anchored_verdict_exhaustively():
    for n in range(3, 11):
        for digits in itertools.product(range(3), repeat=n):
            assert decode3(Codeword(3, digits)) == _anchored_verdict(digits)


@given(profiles)
@settings(max_examples=60)
def test_decode3_inverts_encode(profile):
    base = demodulate(profile, 3)
    assert decode3(encode(base)) == base


@pytest.mark.parametrize("n", [4, 5])
def test_decode_general_matches_decode3(n):
    for digits in itertools.product(range(3), repeat=n):
        word = Codeword(3, digits)
        expected = {b for b in [decode3(word)] if b is not None}
        assert decode_general(word) == expected


def test_decode_general_round_trip_containment_t4():
    for profile in [(0, 1, 2, 3, 4, 5), (3, 1, 4, 0, 5, 2), (9, 2, 7, 1, 8, 0, 4, 6)]:
        base = demodulate(profile, 4)
        assert base in decode_general(encode(base))


@given(hst.integers(min_value=6, max_value=9).flatmap(lambda n: hst.permutations(list(range(n)))))
@settings(max_examples=40, deadline=None)
def test_decode_general_round_trip_containment_property(profile):
    for t in (2, 3, 4):
        base = demodulate(profile, t)
        assert base in decode_general(encode(base))


def _preimages_by_ranking(t, n):
    """Codeword -> base words of every ranking of n cells, each window ranked on its own, then encoded."""
    out = {}
    for ranking in itertools.permutations(range(n)):
        base = BaseWord(t, _windows_one_by_one(ranking, t))
        out.setdefault(encode(base).digits, set()).add(base)
    return out


@pytest.mark.parametrize("n", [6, 7])
def test_decode_general_matches_ranking_oracle_t4(n):
    preimages = _preimages_by_ranking(4, n)
    for digits in itertools.product(range(4), repeat=n):
        assert decode_general(Codeword(4, digits)) == preimages.get(digits, set())


@pytest.mark.parametrize("t", [3, 4, 5])
def test_ranking_words_match_demodulate_encode(t):
    for n in range(t, 8):
        preimages = _preimages_by_ranking(t, n)
        codewords, basewords = ranking_words(t, n)
        assert codewords == preimages.keys()
        assert basewords == {b.symbols for bases in preimages.values() for b in bases}


def test_decode_general_empty_on_all_ones():
    for n in (5, 6, 7):
        assert decode_general(Codeword(3, (1,) * n)) == set()


def test_is_legal_verdicts():
    assert not is_legal(Codeword(3, (1,) * 5))
    assert is_legal(Codeword.from_text("02201", 3))
    assert is_legal(Codeword.from_text("22201", 3))


def test_is_legal_t2_exhaustive():
    # exactly the binary words other than all-zeros and all-ones are legal
    for n in range(3, 11):
        legal = {
            digits
            for digits in itertools.product(range(2), repeat=n)
            if is_legal(Codeword(2, digits))
        }
        everything = set(itertools.product(range(2), repeat=n))
        assert legal == everything - {(0,) * n, (1,) * n}


def test_is_legal_small_n_falls_back_to_rankings():
    # n = t = 3 sits below the state-chain floor of 2t-2
    assert is_legal(Codeword(3, (2, 0, 1)))
    assert not is_legal(Codeword(3, (0, 0, 0)))


def test_word_text_round_trip():
    word = Codeword.from_text("02201", 3)
    assert word.to_text() == "02201"
    base = BaseWord.from_text("3,4,6,3,2", 3)
    assert base.to_text() == "3,4,6,3,2"
    with pytest.raises(ValueError):
        Codeword.from_text("03", 3)
    for t in (1, 7):  # window sizes outside [2, 6], which the symbol table refuses too
        with pytest.raises(ValueError):
            Codeword.from_text("000", t)
    assert Codeword.from_text("50", 6).to_text() == "50"
    with pytest.raises(ValueError):
        BaseWord.from_text("0,1", 3)
