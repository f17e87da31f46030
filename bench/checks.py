"""Independent checks of the benchmark's answers.

Every check recomputes an answer apart from ``lrm`` (ranking enumeration,
brute-force window reading, a separate acyclicity test), or tests a
property the paper proves.  Each ``check_*`` function returns a list of
failure messages; an empty list means every answer is right.  The only
values taken on trust are the stored copies in ``stored.json``, which
``bench/rebuild_stored.py`` rebuilds.

Nothing here imports ``lrm``.  Where a proven property has to be tested
through ``lrm`` itself (closure of the complete states under the successor
rule, the cycle validator), the caller passes the function in.
"""

from __future__ import annotations

import itertools
import json
from functools import lru_cache
from math import comb, factorial
from pathlib import Path

STORED_FILE = Path(__file__).resolve().parent / "stored.json"

# Symbol order of the t=3 alphabet; every other t uses lexicographic order.
T3_PERMS = ((1, 2, 3), (1, 3, 2), (2, 1, 3), (3, 1, 2), (2, 3, 1), (3, 2, 1))

# The paper's forcing factors and the growth rates of their avoiding words.
PAPER_FACTORS = {3: (2, 0, 1, 1), 4: (3, 3, 0, 1, 2, 1)}
PAPER_GROWTH = {3: 2.9615, 4: 3.99902}
GROWTH_TOL = 5e-4

# Longest word the in-run ranking enumeration reaches (8! rankings).
RANKING_REACH = 8


def load_stored() -> dict:
    return json.loads(STORED_FILE.read_text())


# Window reading, from the definitions ---------------------------------------


def alphabet(t: int) -> tuple[tuple[int, ...], ...]:
    return T3_PERMS if t == 3 else tuple(itertools.permutations(range(1, t + 1)))


def window_perm(values) -> tuple[int, ...]:
    """1-based positions of a window, from the highest value down."""
    return tuple(sorted(range(1, len(values) + 1), key=lambda p: -values[p - 1]))


def demodulate(profile, t: int) -> tuple[int, ...]:
    index = {p: s for s, p in enumerate(alphabet(t), start=1)}
    n = len(profile)
    ext = tuple(profile) + tuple(profile[: t - 1])
    return tuple(index[window_perm(ext[i : i + t])] for i in range(n))


def encode(symbols, t: int) -> tuple[int, ...]:
    """Digit of each symbol: how many window cells sit below the newest one."""
    perms = alphabet(t)
    return tuple(t - 1 - perms[s - 1].index(t) for s in symbols)


def window_digits(levels, t: int) -> tuple[int, ...]:
    """Digit of every full window of a linear run of distinct levels."""
    return tuple(sum(1 for v in levels[i : i + t - 1] if v < levels[i + t - 1]) for i in range(len(levels) - t + 1))


def ranking_digits(levels, t: int) -> tuple[int, ...]:
    """Codeword of a cyclic ranking."""
    return window_digits(tuple(levels) + tuple(levels[: t - 1]), t)


def realizable(symbols, t: int) -> bool:
    """Whether the union of the window orders is acyclic (Kahn's algorithm)."""
    n = len(symbols)
    perms = alphabet(t)
    below = [set() for _ in range(n)]
    for i, s in enumerate(symbols):
        perm = perms[s - 1]
        for hi, lo in zip(perm, perm[1:]):
            below[(i + hi - 1) % n].add((i + lo - 1) % n)
    indegree = [0] * n
    for targets in below:
        for v in targets:
            indegree[v] += 1
    ready = [v for v in range(n) if indegree[v] == 0]
    done = 0
    while ready:
        u = ready.pop()
        done += 1
        for v in below[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return done == n


def ranking_legal(word, t: int) -> bool:
    """Whether some ranking of len(word) cells reads as the word."""
    if len(word) > RANKING_REACH:
        raise ValueError(f"ranking enumeration is kept to n <= {RANKING_REACH}, got {len(word)}")
    word = tuple(word)
    return any(ranking_digits(r, t) == word for r in itertools.permutations(range(len(word))))


@lru_cache(maxsize=None)
def ranking_count(t: int, n: int) -> int:
    """Number of legal digit words of length n: the distinct words of all n! rankings."""
    if n > RANKING_REACH:
        raise ValueError(f"ranking enumeration is kept to n <= {RANKING_REACH}, got {n}")
    seen = bytearray(t**n)  # one flag per digit word, so the count costs no memory to speak of
    for ranking in itertools.permutations(range(n)):
        index = 0
        for digit in ranking_digits(ranking, t):
            index = index * t + digit
        seen[index] = 1
    return seen.count(1)


def containing_count(pattern, t: int, m: int) -> int:
    """Words of length m containing the pattern as a factor, by brute force."""
    r = len(pattern)
    pattern = tuple(pattern)
    return sum(
        1
        for word in itertools.product(range(t), repeat=m)
        if any(word[i : i + r] == pattern for i in range(m - r + 1))
    )


# census ---------------------------------------------------------------------


def census_reference(t: int, n: int, stored: dict) -> int | None:
    """Legal-word count from a computation made apart from lrm, if in reach."""
    if t == 2:
        return 2**n - 2
    if n <= RANKING_REACH:
        return ranking_count(t, n)
    if t == 3:
        value = stored["census_t3_legal_counts"].get(str(n))
        return None if value is None else int(value)
    return None


def check_census(rows, cli, stored: dict) -> list[str]:
    """``rows``: (t, n, legal_count, total, m_prime) per census row.

    ``cli`` is the exit code and printed JSON of ``lrm count --t 3 --n 8``,
    or None when that call failed.
    """
    errors = []
    for t, n, legal, total, m_prime in rows:
        tag = f"census t={t} n={n}"
        expected = census_reference(t, n, stored)
        if expected is None:
            errors.append(f"{tag}: no independent count in reach")
        elif legal != expected:
            errors.append(f"{tag}: {legal} legal words, expected {expected}")
        if total != t**n:
            errors.append(f"{tag}: total {total}, expected {t**n}")
        if not 0 < legal <= t**n:
            errors.append(f"{tag}: count {legal} outside 1..t^n")
        factor = PAPER_FACTORS.get(t)
        if factor is None:
            if m_prime is not None:
                errors.append(f"{tag}: M' {m_prime} reported without a forcing factor")
            continue
        brute = containing_count(factor, t, n - t + 1)
        if m_prime != brute:
            errors.append(f"{tag}: M' {m_prime}, brute force gives {brute}")
        if legal < t ** (t - 1) * brute:
            errors.append(f"{tag}: M = {legal} < t^(t-1) M' = {t ** (t - 1) * brute}")
    if cli is not None:
        code, payload = cli
        if code != 0 or payload.get("legal_count") != ranking_count(3, 8):
            errors.append(f"cli count t=3 n=8: exit {code}, {payload}")
    return errors


# codec ----------------------------------------------------------------------


def _check_decoded(tag: str, decoded, digits, t: int) -> list[str]:
    errors = []
    for symbols in decoded:
        if not realizable(symbols, t):
            errors.append(f"{tag}: decoded base word {symbols} is not realizable")
        if encode(symbols, t) != tuple(digits):
            errors.append(f"{tag}: decoded base word {symbols} does not encode to the word")
    return errors


def check_codec(records, constants) -> list[str]:
    """``records``: one dict per written profile; ``constants``: constant-word reads.

    A record holds ``t``, ``profile``, ``base``, ``word``, ``legal``,
    ``decoded`` (set of symbol tuples), ``decode3`` (t=3 only), and the same
    read answers for the corrupted word under ``bad_*`` keys.
    """
    errors = []
    for k, rec in enumerate(records):
        t, n = rec["t"], len(rec["profile"])
        tag = f"codec profile {k} (t={t} n={n})"
        base = demodulate(rec["profile"], t)
        if rec["base"] != base:
            errors.append(f"{tag}: demodulated to {rec['base']}, windows read {base}")
        if rec["word"] != encode(base, t):
            errors.append(f"{tag}: encoded to {rec['word']}, window digits are {encode(base, t)}")
        if rec["legal"] is not True:
            errors.append(f"{tag}: a written word was judged illegal")
        if base not in rec["decoded"]:
            errors.append(f"{tag}: decode_general misses the written base word")
        errors += _check_decoded(tag, rec["decoded"], rec["word"], t)
        if t == 3 and rec["decode3"] != base:
            errors.append(f"{tag}: decode3 gave {rec['decode3']}, wrote {base}")
        bad = rec["bad_word"]
        if rec["bad_legal"] != bool(rec["bad_decoded"]):
            errors.append(f"{tag}: corrupted word legal={rec['bad_legal']} but {len(rec['bad_decoded'])} decodings")
        errors += _check_decoded(tag + " corrupted", rec["bad_decoded"], bad, t)
        if t == 3:
            single = set() if rec["bad_decode3"] is None else {rec["bad_decode3"]}
            if single != rec["bad_decoded"]:
                errors.append(f"{tag}: decoders disagree on the corrupted word")
        if n <= RANKING_REACH and rec["bad_legal"] != ranking_legal(bad, t):
            errors.append(f"{tag}: corrupted word legal={rec['bad_legal']}, ranking enumeration disagrees")
    for t, digits, legal, decoded in constants:
        if legal or decoded:
            errors.append(f"codec constant word {digits[0]}^{len(digits)} (t={t}) judged legal")
    return errors


# density --------------------------------------------------------------------


def monotone_tuples(perm, t: int) -> frozenset[tuple[int, ...]]:
    """Relation tuples consistent with a tracked order: higher cells rank no lower."""
    pairs = list(zip(perm, perm[1:]))
    return frozenset(
        tup for tup in itertools.product(range(t), repeat=t - 1) if all(tup[a - 1] >= tup[b - 1] for a, b in pairs)
    )


def oracle_states(t: int, cells: int, wanted) -> dict:
    """State of each wanted (head order, digits) prefix, over all cell rankings.

    Maps (head order, digits) to the set of (tracked order, relation tuple)
    pairs the rankings realize; ``digits`` has ``cells - t + 1`` entries.
    The head order lists head cells 1..t-1 from the highest charge down; the
    tracked order lists the last t-1 cells by block position (1 = oldest),
    highest first; relation value x says the cell sits above exactly x head
    cells.
    """
    groups: dict = {key: set() for key in wanted}
    head = range(t - 1)
    tracked = range(cells - t + 1, cells)
    for levels in itertools.permutations(range(cells)):
        pi = tuple(h + 1 for h in sorted(head, key=lambda h: -levels[h]))
        digits = window_digits(levels, t)
        if (pi, digits) in groups:
            perm = tuple(c - tracked[0] + 1 for c in sorted(tracked, key=lambda c: -levels[c]))
            rel = tuple(sum(1 for h in head if levels[h] < levels[c]) for c in tracked)
            groups[(pi, digits)].add((perm, rel))
    return groups


def check_density(answers: dict, stored: dict, successor) -> list[str]:
    """Check the state apparatus.

    ``answers`` holds ``reachable`` {t: states}, ``forces`` {t: (bool,
    landing)}, ``found`` {t: patterns}, ``tails`` {t: {(state, pi): tails}},
    ``rates`` {t: growth rate} and ``chains`` [(t, digits, pi, state)].
    States are anything with ``perm`` and ``tuples``; ``successor`` is the
    successor rule under test, used for the closure property only.
    """
    errors = []
    sizes = stored["reachable_state_sizes"]
    for t, reach in answers["reachable"].items():
        tag = f"density reachable t={t}"
        if len(reach) != int(sizes[str(t)]):
            errors.append(f"{tag}: {len(reach)} states, stored copy {sizes[str(t)]}")
        full = {perm: monotone_tuples(perm, t) for perm in itertools.permutations(range(1, t))}
        complete = []
        for state in reach:
            if not state.tuples or not state.tuples <= full[state.perm]:
                errors.append(f"{tag}: state {state} holds a tuple not monotone for its order")
                break
            if state.tuples == full[state.perm]:
                complete.append(state)
        if len(complete) != factorial(t - 1):
            errors.append(f"{tag}: {len(complete)} complete states, expected (t-1)! = {factorial(t - 1)}")
        images = [successor(s, d) for s in complete for d in range(t)]
        if any(image.tuples != full[image.perm] for image in images):
            errors.append(f"{tag}: complete states are not closed under the successor rule")
    for t, (forces, landing) in answers["forces"].items():
        if not forces or landing is None or len(landing.tuples) != comb(2 * t - 2, t - 1):
            errors.append(f"density factor t={t}: {PAPER_FACTORS[t]} does not force a complete state")
    for t, found in answers["found"].items():
        if PAPER_FACTORS[t] not in found:
            errors.append(f"density search t={t}: the paper's factor {PAPER_FACTORS[t]} was not found")
    for t, rate in answers["rates"].items():
        if not abs(rate - PAPER_GROWTH[t]) < GROWTH_TOL:
            errors.append(f"density growth rate t={t}: {rate}, paper gives {PAPER_GROWTH[t]}")
    for t, tails in answers["tails"].items():
        errors += _check_tail_table(t, tails)
    wanted: dict = {}
    for t, digits, pi, _ in answers["chains"]:
        wanted.setdefault((t, t - 1 + len(digits)), set()).add((tuple(pi), tuple(digits)))
    oracle = {key: oracle_states(*key, keys) for key, keys in wanted.items()}
    for t, digits, pi, state in answers["chains"]:
        expected = oracle[(t, t - 1 + len(digits))][(tuple(pi), tuple(digits))]
        if {(state.perm, tup) for tup in state.tuples} != expected:
            errors.append(f"density chain t={t} digits={digits} pi={pi}: state differs from the ranking oracle")
    return errors


def _check_tail_table(t: int, tails: dict) -> list[str]:
    errors = []
    target = t ** (t - 1)
    heads = list(itertools.permutations(range(1, t)))
    states = {state for state, _ in tails}
    if len(states) != factorial(t - 1) or len(tails) != len(states) * len(heads):
        errors.append(f"tail table t={t}: {len(tails)} entries over {len(states)} states")
        return errors
    for state in states:
        per_head = [tails[(state, pi)] for pi in heads]
        if sum(len(x) for x in per_head) != target or len(set().union(*per_head)) != target:
            errors.append(f"tail table t={t}: row {state.perm} is not {target} disjoint tails")
    for pi in heads:
        if sum(len(tails[(state, pi)]) for state in states) != target:
            errors.append(f"tail table t={t}: column {pi} does not sum to {target}")
    return errors


# gray -----------------------------------------------------------------------


def push_cycle_errors(words, n: int, w: int) -> list[str]:
    """Every step, the wrap included, must move one 1 left across a cyclic 01 pair."""
    if not words:
        return ["empty cycle"]
    if any(len(x) != n or set(x) - {"0", "1"} or x.count("1") != w for x in words):
        return [f"a word is not of length {n} and weight {w}"]
    if len(set(words)) != len(words):
        return ["a word repeats"]
    for a, b in zip(words, words[1:] + words[:1]):
        diff = [i for i in range(n) if a[i] != b[i]]
        pairs = [(p, (p + 1) % n) for p in range(n)]
        if not any(set(diff) == {p, q} and a[p] + a[q] == "01" and b[p] + b[q] == "10" for p, q in pairs):
            return [f"step {a} -> {b} is not a push"]
    return []


def check_gray(cycles, cli_gray, cli_validate, validate) -> list[str]:
    """``cycles``: (n, w, mode, length, words or None) per search.

    ``cli_gray`` and ``cli_validate`` are the exit code and printed JSON of
    ``lrm gray`` and of ``lrm validate`` on its cycle, or None when the call
    failed.  ``validate`` is lrm's cycle validator; the benchmark's own step
    check runs beside it.
    """
    errors = []
    for n, w, mode, length, words in cycles:
        tag = f"gray n={n} w={w} mode={mode}"
        if mode == "any":
            if length != 0 or words is not None:
                errors.append(f"{tag}: found a cycle of {length}, but every move lowers the position sum")
            continue
        # w=2 reaches the paper's 2n bound; w=3 n=8 is Hamiltonian.
        expected = 2 * n if w == 2 else comb(n, w) if (n, w) == (8, 3) else None
        if length != expected or words is None or len(words) != length:
            errors.append(f"{tag}: cycle of {length}, expected {expected}")
            continue
        errors += [f"{tag}: {e}" for e in push_cycle_errors(list(words), n, w)]
        if not validate(words, n, w, mode).ok:
            errors.append(f"{tag}: validate_cycle rejects the cycle")
    if cli_gray is not None:
        code, payload = cli_gray
        n, words = payload.get("n"), payload.get("cycle") or []
        if code != 0 or payload.get("length") != 2 * n or push_cycle_errors(words, n, 2):
            errors.append(f"cli gray: exit {code}, {payload}")
    if cli_validate is not None:
        code, payload = cli_validate
        if code != 0 or payload.get("valid") is not True:
            errors.append(f"cli validate: exit {code}, {payload}")
    return errors
