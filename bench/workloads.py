"""The benchmark's four workloads: seeded inputs, one timed round, checks.

A round computes every answer of a workload once.  The harness clears
lrm's caches before each round, so every round pays what a fresh ``lrm``
process pays.  Rounds call lrm through module attributes
(``lrm.codec.is_legal``, never a name bound at import), so the traced run's
wrappers see every call, and they always pass ``jobs=1`` / ``--jobs 1``:
the benchmark measures one core, and a process pool would hide the work of
its workers from the tracer and from the peak-memory figure.

Each workload is a ``Workload`` of four functions:

- ``make_inputs(seed)``: the inputs, a pure function of the seed;
- ``run(inputs, lrm, rnd)``: the timed round; ``rnd`` counts operations;
- ``check(inputs, answers, lrm)``: failure messages from ``checks``;
- ``digest(answers)``: a small value equal for equal answers, so later
  rounds can be compared with the checked first round.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

from . import checks


class Round:
    """Operations attempted in one round, and the ones that raised."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def do(self, label: str, fn: Callable, *args):
        """Run one operation; a raise counts it failed and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # an operation's fault must not end the run
            self.failed.append(f"{label}: {exc!r}")
            return None

    def skip(self, label: str, count: int) -> None:
        """Count operations that could not run because an earlier one failed."""
        self.attempted += count
        self.failed += [f"{label}: skipped after a failure"] * count


@dataclass(frozen=True)
class Workload:
    make_inputs: Callable
    run: Callable
    check: Callable
    digest: Callable


def run_cli(lrm, argv: list[str]) -> tuple[int, dict]:
    """Run ``lrm <argv>`` in this process; its exit code and printed JSON."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lrm.cli.main(argv)
    return code, json.loads(out.getvalue())


def random_levels(rng: random.Random, n: int) -> list[int]:
    """A charge profile of n pairwise distinct levels."""
    return rng.sample(range(4 * n), n)


# census: exact counts of legal words -----------------------------------------
#
# The inputs are the paper's census table and do not depend on the seed.
# t=3 n=6..11 carries the M >= 9M' bound, t=4 n=8 the t=4 factor, and t=2
# the closed form 2^n - 2.

CENSUS_ROWS = tuple((3, n) for n in range(6, 12)) + ((4, 8),) + tuple((2, n) for n in range(3, 13))
CENSUS_CLI = ["count", "--t", "3", "--n", "8", "--jobs", "1"]


def census_inputs(seed: int) -> dict:
    return {"rows": CENSUS_ROWS}


def census_run(inputs: dict, lrm, rnd: Round) -> dict:
    reports = []
    for t, n in inputs["rows"]:
        report = rnd.do(f"census t={t} n={n}", lambda: lrm.census.density_report(t, [n], jobs=1)[0])
        if report is not None:
            reports.append(report)
    cli = rnd.do("lrm count", run_cli, lrm, CENSUS_CLI)
    return {"reports": reports, "cli": cli}


def _census_rows(answers: dict) -> tuple:
    return tuple((r.t, r.n, r.legal_count, r.total, r.m_prime) for r in answers["reports"])


def census_check(inputs: dict, answers: dict, lrm) -> list[str]:
    return checks.check_census(_census_rows(answers), answers["cli"], checks.load_stored())


def census_digest(answers: dict):
    return _census_rows(answers), json.dumps(answers["cli"])


# codec: writing and reading words of every length ------------------------------
#
# Per t in 3..5: profiles of fixed lengths from 2t-2 to 2000 cells, the
# shortest within reach of the in-run ranking enumeration.  The seed draws
# the charge levels and the corrupted digit of each word; the lengths are
# fixed so that the cost of a round hardly depends on the seed.  A t=5 read
# costs 10-100 times a t=3 or t=4 read of the same length and varies most
# from word to word, so t=5 gets one word per length band while t=3 and
# t=4 add ten 2000-cell words each, which keeps the seed's share of the
# round-time spread near 4% (6 seeds, best of 3 rounds each).

_GRID = (8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2000)
CODEC_LENGTHS = {
    3: (6, 7) + _GRID + (2000,) * 10,
    4: (6, 7) + _GRID + (2000,) * 10,
    5: (8, 8, 16, 32, 64, 128, 256, 512, 1024, 2000),
}
CONSTANT_LENGTHS = (8, 64, 512)


def codec_inputs(seed: int) -> dict:
    rng = random.Random(f"codec:{seed}")
    profiles = []
    for t, lengths in CODEC_LENGTHS.items():
        for n in lengths:
            profiles.append((t, random_levels(rng, n), rng.randrange(n), rng.randrange(1, t)))
    constants = []
    for t in CODEC_LENGTHS:
        for n in CONSTANT_LENGTHS:
            digits = (0, t - 1, 1) if t == 3 else (0, t - 1)
            constants += [(t, (d,) * n) for d in digits]
    return {"profiles": profiles, "constants": constants}


def _write(codec, profile, t):
    base = codec.demodulate(profile, t)
    return base, codec.encode(base)


def _read(codec, word):
    return codec.is_legal(word), codec.decode_general(word), codec.decode3(word) if word.t == 3 else None


def codec_run(inputs: dict, lrm, rnd: Round) -> dict:
    codec = lrm.codec
    records = []
    for t, profile, pos, shift in inputs["profiles"]:
        label = f"codec t={t} n={len(profile)}"
        written = rnd.do(label + " write", _write, codec, profile, t)
        if written is None:
            rnd.skip(label + " read", 2)
            continue
        base, word = written
        digits = list(word.digits)
        digits[pos] = (digits[pos] + shift) % t
        bad = codec.Codeword(t, tuple(digits))
        read = rnd.do(label + " read", _read, codec, word)
        bad_read = rnd.do(label + " corrupted read", _read, codec, bad)
        if read is not None and bad_read is not None:
            records.append((profile, base, word, read, bad, bad_read))
    constants = []
    for t, digits in inputs["constants"]:
        read = rnd.do(f"codec constant t={t} n={len(digits)}", _read, codec, codec.Codeword(t, digits))
        if read is not None:
            constants.append((t, digits, read))
    return {"records": records, "constants": constants}


def _plain_read(read):
    legal, decoded, single = read
    return legal, frozenset(b.symbols for b in decoded), None if single is None else single.symbols


def codec_plain(answers: dict) -> tuple[list[dict], list[tuple]]:
    """The codec answers as the plain records ``checks.check_codec`` reads."""
    records = []
    for profile, base, word, read, bad, bad_read in answers["records"]:
        legal, decoded, single = _plain_read(read)
        bad_legal, bad_decoded, bad_single = _plain_read(bad_read)
        records.append(
            {
                "t": base.t,
                "profile": profile,
                "base": base.symbols,
                "word": word.digits,
                "legal": legal,
                "decoded": decoded,
                "decode3": single,
                "bad_word": bad.digits,
                "bad_legal": bad_legal,
                "bad_decoded": bad_decoded,
                "bad_decode3": bad_single,
            }
        )
    constants = [(t, digits, *_plain_read(read)[:2]) for t, digits, read in answers["constants"]]
    return records, constants


def codec_check(inputs: dict, answers: dict, lrm) -> list[str]:
    return checks.check_codec(*codec_plain(answers))


def codec_digest(answers: dict):
    return tuple(
        (base.symbols, word.digits, _plain_read(read), bad.digits, _plain_read(bad_read))
        for _, base, word, read, bad, bad_read in answers["records"]
    ) + tuple((t, len(digits), _plain_read(read)) for t, digits, read in answers["constants"])


# density: the asymptotic apparatus -------------------------------------------
#
# Fixed by the paper: closures for t=4 and t=5, the forcing factors, the
# factor searches up to length 6, the tail tables and the growth rates.
# The seed draws the sampled chains: digit prefixes read off random
# rankings of 8 cells, so every prefix is realizable under its head order.

CHAINS_PER_T = 32
CHAIN_CELLS = 8


def density_inputs(seed: int) -> dict:
    rng = random.Random(f"density:{seed}")
    chains = []
    for t in (3, 4):
        for _ in range(CHAINS_PER_T):
            levels = random_levels(rng, CHAIN_CELLS)
            digits = checks.window_digits(levels, t)
            pi = tuple(h + 1 for h in sorted(range(t - 1), key=lambda h: -levels[h]))
            chains.append((t, digits, pi))
    return {"chains": chains}


def density_run(inputs: dict, lrm, rnd: Round) -> dict:
    st, census = lrm.states, lrm.census
    answers: dict = {"reachable": {}, "forces": {}, "found": {}, "tails": {}, "rates": {}, "chains": []}

    def keep(kind, t, value):
        if value is not None:
            answers[kind][t] = value

    for t in (4, 5):
        keep("reachable", t, rnd.do(f"reachable_states t={t}", st.reachable_states, t))
    for t, factor in checks.PAPER_FACTORS.items():
        keep("forces", t, rnd.do(f"pattern_forces_complete t={t}", st.pattern_forces_complete, factor, t))
        keep("found", t, rnd.do(f"find_completing_pattern t={t}", st.find_completing_pattern, t, 6))
        keep("tails", t, rnd.do(f"tail_table t={t}", st.tail_table, t))
        rate = rnd.do(f"growth rate t={t}", lambda: census.spectral_radius(census.factor_automaton(factor, t).matrix))
        keep("rates", t, rate)
    for t, digits, pi in inputs["chains"]:
        state = rnd.do(
            f"chain t={t} {digits}", lambda: st.chain(st.initial_state(digits[: t - 1], t, pi), digits[t - 1 :])
        )
        if state is not None:
            answers["chains"].append((t, digits, pi, state))
    return answers


def density_check(inputs: dict, answers: dict, lrm) -> list[str]:
    plain = dict(answers, tails={t: table.tails for t, table in answers["tails"].items()})
    return checks.check_density(plain, checks.load_stored(), lrm.states.successor)


def density_digest(answers: dict):
    return (
        tuple((t, len(s), hash(s)) for t, s in answers["reachable"].items()),
        tuple(answers["forces"].items()),
        tuple((t, frozenset(found)) for t, found in answers["found"].items()),
        tuple((t, frozenset(table.tails.items())) for t, table in answers["tails"].items()),
        tuple(answers["rates"].items()),
        tuple(answers["chains"]),
    )


# gray: constant-weight Gray-code search ---------------------------------------
#
# Fixed: w=2 at n=9 and n=10 (the 2n bound), w=3 n=8 (Hamiltonian), the
# looser "any" reading at n=8, and one `lrm gray` + `lrm validate` pair.

GRAY_SEARCHES = ((9, 2, "adjacent"), (10, 2, "adjacent"), (8, 3, "adjacent"), (8, 2, "any"))
GRAY_CLI_N = 8


def gray_inputs(seed: int) -> dict:
    return {"searches": GRAY_SEARCHES}


def gray_run(inputs: dict, lrm, rnd: Round) -> dict:
    cycles = []
    for n, w, mode in inputs["searches"]:
        found = rnd.do(f"longest_cycle n={n} w={w} {mode}", lrm.graycode.longest_cycle, n, w, mode)
        if found is not None:
            length, cycle = found
            cycles.append((n, w, mode, length, None if cycle is None else cycle.words))
    argv = ["gray", "--n", str(GRAY_CLI_N), "--w", "2", "--jobs", "1"]
    gray = rnd.do("lrm gray", run_cli, lrm, argv)
    validate = None
    if gray is None or not gray[1].get("cycle"):
        rnd.skip("lrm validate", 1)
    else:
        words = ",".join(gray[1]["cycle"])
        argv = ["validate", "--n", str(GRAY_CLI_N), "--w", "2", "--words", words]
        validate = rnd.do("lrm validate", run_cli, lrm, argv)
    return {"cycles": cycles, "gray": gray, "validate": validate}


def gray_check(inputs: dict, answers: dict, lrm) -> list[str]:
    return checks.check_gray(answers["cycles"], answers["gray"], answers["validate"], lrm.graycode.validate_cycle)


def gray_digest(answers: dict):
    return tuple(answers["cycles"]), json.dumps(answers["gray"]), json.dumps(answers["validate"])


WORKLOADS = {
    "census": Workload(census_inputs, census_run, census_check, census_digest),
    "codec": Workload(codec_inputs, codec_run, codec_check, codec_digest),
    "density": Workload(density_inputs, density_run, density_check, density_digest),
    "gray": Workload(gray_inputs, gray_run, gray_check, gray_digest),
}
