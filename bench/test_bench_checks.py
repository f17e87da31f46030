"""Each of the benchmark's independent checks accepts lrm's answers and
rejects a planted wrong one.  Inputs are kept small so the file runs in
seconds inside the repository's test suite."""

import random
import signal
import time

import pytest

from bench import checks, import_lrm, run, tracing, workloads

lrm = import_lrm()
from lrm import census, graycode, states  # noqa: E402

STORED_T3 = {"census_t3_legal_counts": {}, "reachable_state_sizes": {"3": 32}}


# census ---------------------------------------------------------------------


def census_rows():
    reports = census.density_report(3, [6, 7], jobs=1) + census.density_report(2, [5], jobs=1)
    return [(r.t, r.n, r.legal_count, r.total, r.m_prime) for r in reports]


def test_census_check_accepts_true_counts():
    assert checks.check_census(census_rows(), None, STORED_T3) == []


@pytest.mark.parametrize(
    "plant",
    [
        lambda row: (row[0], row[1], row[2] + 1, row[3], row[4]),  # one legal word too many
        lambda row: (row[0], row[1], row[2], row[3] - 1, row[4]),  # wrong total
        lambda row: (row[0], row[1], row[2], row[3], row[4] + 1),  # wrong M'
    ],
)
def test_census_check_rejects_planted_rows(plant):
    rows = census_rows()
    rows[0] = plant(rows[0])
    assert checks.check_census(rows, None, STORED_T3)


def test_census_check_rejects_a_broken_bound_and_a_wrong_closed_form():
    rows = census_rows()
    t, n, legal, total, m_prime = rows[1]
    assert checks.check_census([(t, n, 9 * m_prime - 1, total, m_prime)], None, STORED_T3)
    assert checks.check_census([(2, 5, 31, 32, None)], None, STORED_T3)


def test_census_check_rejects_a_count_it_cannot_confirm():
    assert checks.check_census([(4, 9, 100, 4**9, 0)], None, STORED_T3)


def test_census_check_reads_the_cli_payload():
    good = workloads.run_cli(lrm, workloads.CENSUS_CLI)
    assert checks.check_census([], good, STORED_T3) == []
    wrong = (0, dict(good[1], legal_count=good[1]["legal_count"] - 1))
    assert checks.check_census([], wrong, STORED_T3)
    assert checks.check_census([], (2, good[1]), STORED_T3)


# codec ----------------------------------------------------------------------


def codec_answers():
    rng = random.Random(7)
    inputs = {
        "profiles": [(3, workloads.random_levels(rng, 7), 2, 1), (4, workloads.random_levels(rng, 7), 5, 2)],
        "constants": [(3, (1,) * 6), (4, (0,) * 6)],
    }
    rnd = workloads.Round()
    answers = workloads.codec_run(inputs, lrm, rnd)
    assert rnd.failed == [] and rnd.attempted == 8
    return workloads.codec_plain(answers)


def test_codec_check_accepts_true_answers():
    assert checks.check_codec(*codec_answers()) == []


def _other_symbols(symbols):
    return (symbols[0] % 6 + 1,) + symbols[1:]


@pytest.mark.parametrize(
    "field, plant",
    [
        ("base", lambda rec: _other_symbols(rec["base"])),
        ("word", lambda rec: ((rec["word"][0] + 1) % rec["t"],) + rec["word"][1:]),
        ("legal", lambda rec: False),
        ("decoded", lambda rec: frozenset()),
        ("decoded", lambda rec: rec["decoded"] | {(1,) * len(rec["base"])}),
        ("decode3", lambda rec: _other_symbols(rec["base"])),
        ("bad_legal", lambda rec: not rec["bad_legal"]),
        ("bad_decoded", lambda rec: rec["bad_decoded"] | {rec["base"]}),
        ("bad_decode3", lambda rec: rec["base"]),
    ],
)
def test_codec_check_rejects_planted_answers(field, plant):
    records, constants = codec_answers()
    records[0][field] = plant(records[0])
    assert checks.check_codec(records, constants)


def test_codec_check_rejects_a_verdict_against_the_ranking_enumeration():
    records, constants = codec_answers()
    rec = records[1]
    assert rec["t"] == 4 and len(rec["word"]) <= checks.RANKING_REACH
    # A legal word called illegal, with no decodings to contradict the verdict:
    # only the ranking enumeration can object.
    rec["bad_word"], rec["bad_legal"], rec["bad_decoded"] = rec["word"], False, frozenset()
    assert any("ranking enumeration" in e for e in checks.check_codec(records, constants))


def test_codec_check_rejects_a_legal_constant_word():
    records, constants = codec_answers()
    constants[0] = constants[0][:2] + (True, frozenset())
    assert checks.check_codec(records, constants)


# density --------------------------------------------------------------------


def density_answers():
    reach = states.reachable_states(3)
    chains = []
    for digits, pi in (((2, 0, 1, 1), (1, 2)), ((0, 0, 2, 1), (2, 1))):
        chains.append((3, digits, pi, states.chain(states.initial_state(digits[:2], 3, pi), digits[2:])))
    factor = checks.PAPER_FACTORS[3]
    return {
        "reachable": {3: reach},
        "forces": {3: states.pattern_forces_complete(factor, 3)},
        "found": {3: states.find_completing_pattern(3, 4)},
        "tails": {3: states.tail_table(3).tails},
        "rates": {3: census.spectral_radius(census.factor_automaton(factor, 3).matrix)},
        "chains": chains,
    }


def test_density_check_accepts_true_answers():
    assert checks.check_density(density_answers(), STORED_T3, states.successor) == []


def _plant_state(state):
    """The same state with one tuple flipped to break monotonicity."""
    tup = [0] * len(state.perm)
    tup[state.perm[-1] - 1] = 1  # the lowest tracked cell above more head cells than the highest
    return states.State(perm=state.perm, tuples=state.tuples | {tuple(tup)})


def _plant_reach_non_monotone(answers):
    reach = set(answers["reachable"][3])
    victim = next(iter(reach))
    reach.discard(victim)
    reach.add(_plant_state(victim))
    answers["reachable"][3] = frozenset(reach)


def _plant_tails(answers):
    tails = dict(answers["tails"][3])
    key = next(iter(tails))
    tails[key] = frozenset(list(tails[key])[1:])
    answers["tails"][3] = tails


def _plant_chain(answers):
    t, digits, pi, state = answers["chains"][0]
    answers["chains"][0] = (t, digits, pi, states.State(perm=state.perm, tuples=frozenset(list(state.tuples)[1:])))


@pytest.mark.parametrize(
    "plant",
    [
        lambda a: a["reachable"].__setitem__(3, frozenset(list(a["reachable"][3])[1:])),
        _plant_reach_non_monotone,
        lambda a: a["forces"].__setitem__(3, (False, None)),
        lambda a: a["found"].__setitem__(3, a["found"][3] - {checks.PAPER_FACTORS[3]}),
        lambda a: a["rates"].__setitem__(3, a["rates"][3] + 1e-3),
        _plant_tails,
        _plant_chain,
    ],
)
def test_density_check_rejects_planted_answers(plant):
    answers = density_answers()
    plant(answers)
    assert checks.check_density(answers, STORED_T3, states.successor)


def test_density_check_rejects_a_successor_that_leaves_the_complete_states():
    complete = states.complete_states(3)

    def broken(state, digit):
        image = states.successor(state, digit)
        if state in complete and digit == 0:
            return states.State(perm=image.perm, tuples=frozenset(list(image.tuples)[1:]))
        return image

    assert checks.check_density(density_answers(), STORED_T3, broken)


# gray -----------------------------------------------------------------------


def gray_answers():
    length, cycle = graycode.longest_cycle(6, 2)
    cycles = [(6, 2, "adjacent", length, cycle.words), (6, 2, "any", 0, None)]
    gray = workloads.run_cli(lrm, ["gray", "--n", "5", "--w", "2", "--jobs", "1"])
    validate = workloads.run_cli(lrm, ["validate", "--n", "5", "--w", "2", "--words", ",".join(gray[1]["cycle"])])
    return cycles, gray, validate


def test_gray_check_accepts_true_answers():
    assert checks.check_gray(*gray_answers(), graycode.validate_cycle) == []


def _swap_words(cycles):
    n, w, mode, length, words = cycles[0]
    words = (words[1], words[0]) + tuple(words[2:])
    cycles[0] = (n, w, mode, length, words)


@pytest.mark.parametrize(
    "plant",
    [
        lambda c, g, v: (c.__setitem__(0, c[0][:3] + (c[0][3] - 1, c[0][4][:-1])), g, v),
        lambda c, g, v: (_swap_words(c), g, v),
        lambda c, g, v: (c.__setitem__(1, (6, 2, "any", 2, ("110000", "101000"))), g, v),
        lambda c, g, v: (c, (g[0], dict(g[1], length=g[1]["length"] - 1)), v),
        lambda c, g, v: (c, g, (1, dict(v[1], valid=False))),
    ],
)
def test_gray_check_rejects_planted_answers(plant):
    cycles, gray, validate = gray_answers()
    _, gray, validate = plant(cycles, gray, validate)
    assert checks.check_gray(cycles, gray, validate, graycode.validate_cycle)


def test_gray_check_runs_the_validator_beside_its_own():
    cycles, gray, validate = gray_answers()

    def refuses(words, n, w, mode):
        return graycode.ValidationResult(False, "planted")

    assert checks.check_gray(cycles, gray, validate, refuses)


def test_push_cycle_errors_on_a_duplicate_and_a_wrong_weight():
    words = list(gray_answers()[0][0][4])
    assert checks.push_cycle_errors(words[:-1] + words[:1], 6, 2)
    assert checks.push_cycle_errors(["111000"] + words[1:], 6, 2)


# tracer ---------------------------------------------------------------------


def test_tracer_counts_calls_and_restores_the_originals():
    original = lrm.codec.is_legal
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        census.count_by_legality(3, 5, jobs=1)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert lrm.codec.is_legal is original and lrm.census.is_legal is original
    assert metrics["census.words_tested"] == 3**5 == metrics["codec.is_legal.calls"]
    assert metrics["codec.digits_read"] == 5 * 3**5
    assert metrics["census.count_by_legality.s"] >= metrics["codec.is_legal.s"] > 0
    assert metrics["states.successor.calls"] > 0


# speed gauge ----------------------------------------------------------------


def test_speed_gauge_leaves_its_samples_out_of_the_round_time():
    previous = signal.getsignal(signal.SIGALRM)
    try:
        gauge = run.SpeedGauge()
        first, start = gauge.arm()
        while time.perf_counter() < start + 0.6:
            pass
        elapsed, scale = gauge.disarm(first, start)
        taken = gauge.samples[first:]
        time.sleep(2 * run.GAUGE_EVERY_S)
    finally:
        signal.signal(signal.SIGALRM, previous)
    inside = sum(took for at, took in taken if at >= start)
    assert len(taken) >= 3 and inside > 0
    assert len(gauge.samples) == first + len(taken)  # disarmed: no sample after
    assert elapsed == pytest.approx(0.6 - inside, abs=0.05)
    assert scale == pytest.approx(run.GAUGE_NOMINAL_S * len(taken) / sum(took for _, took in taken))
