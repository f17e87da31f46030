"""Command-line front end.  One subcommand per operation family.

Every run prints a single JSON object (or CSV for tabular reports) on
stdout.  Exit codes: 0 for success or a positive verdict, 1 for a computed
negative verdict (illegal word, non-realizable base word, invalid cycle,
non-forcing pattern), 2 for usage or input errors and for a growth rate
whose power iteration fails its cross-check (the error names the
path-count ratio fallback).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Sequence

from . import census, codec, graycode
from . import states as st
from .codec import BaseWord, Codeword


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.replace(" ", "").split(","))


def _parse_range(text: str) -> range:
    """Lengths lo..hi, both included, from "lo:hi", "lo..hi" or one length."""
    parts = text.replace("..", ":").split(":")
    if len(parts) <= 2:
        lo, hi = int(parts[0]), int(parts[-1])
        if lo <= hi:
            return range(lo, hi + 1)
    raise ValueError(f"--range takes lo:hi with lo <= hi, or one length; got {text!r}")


def _report_rows(reports) -> list[tuple]:
    """CSV rows of census reports: the field names, then one row per report."""
    return [census.CountReport.CSV_FIELDS] + [tuple(r.to_json_dict().values()) for r in reports]


def _render_perm(perm: Sequence[int]) -> str:
    return "[" + ",".join(map(str, perm)) + "]"


def _cmd_demodulate(args) -> tuple[dict, int]:
    base = codec.demodulate(_parse_ints(args.profile), args.t)
    return {"profile": args.profile, "base_word": base.to_text()}, 0


def _cmd_encode(args) -> tuple[dict, int]:
    base = BaseWord.from_text(args.word, args.t)
    word = codec.encode(base)
    return {"base_word": base.to_text(), "codeword": word.to_text()}, 0


def _cmd_decode(args) -> tuple[dict, int]:
    word = Codeword.from_text(args.word, args.t)
    method = args.method
    if method == "auto":
        method = "anchored" if args.t == 3 else "state"
    if method == "anchored":
        base = codec.decode3(word)
        found = [] if base is None else [base]
    else:
        found = sorted(codec.decode_general(word), key=lambda b: b.symbols)
    payload = {
        "codeword": word.to_text(),
        "method": method,
        "base_word": found[0].to_text() if len(found) == 1 else None,
        "base_words": [b.to_text() for b in found],
        "count": len(found),
    }
    return payload, 0 if found else 1


def _cmd_check(args) -> tuple[dict, int]:
    if args.word is None and args.base_word is None:
        raise ValueError("check needs --word or --base-word")
    if args.word is not None:
        word = Codeword.from_text(args.word, args.t)
        legal = codec.is_legal(word)
        return {"codeword": word.to_text(), "legal": legal}, 0 if legal else 1
    base = BaseWord.from_text(args.base_word, args.t)
    ok, witness = codec.realizable(base)
    payload = {
        "base_word": base.to_text(),
        "realizable": ok,
        "witness": ",".join(map(str, witness)) if witness is not None else None,
    }
    return payload, 0 if ok else 1


def _cmd_count(args) -> tuple[dict, int]:
    pattern = _parse_ints(args.pattern) if args.pattern else None
    if args.range is not None:
        if args.method != "auto":
            raise ValueError(f"--range picks the engine per length; it cannot take --method {args.method}")
        ns = _parse_range(args.range)
        reports = census.density_report(args.t, ns, pattern=pattern, jobs=args.jobs)
        return {"reports": [r.to_json_dict() for r in reports], "_csv_rows": _report_rows(reports)}, 0
    if args.n is None:
        raise ValueError("count needs --n or --range")
    method = census.auto_method(args.t, args.n) if args.method == "auto" else args.method
    report = census.count_by(method, args.t, args.n, jobs=args.jobs)
    if pattern is not None:
        census.add_bound(args.t, [report], pattern)
    payload = report.to_json_dict()
    payload["method"] = method
    if report.base_word_count is not None:
        payload["base_word_count"] = report.base_word_count
    payload["_csv_rows"] = _report_rows([report])
    return payload, 0


def _cmd_spectral(args) -> tuple[dict, int]:
    pattern = _parse_ints(args.pattern)
    automaton = census.factor_automaton(pattern, args.t)
    rate = census.spectral_radius(automaton.matrix)
    payload = {
        "pattern": ",".join(map(str, pattern)),
        "matrix": [list(row) for row in automaton.matrix],
        "growth_rate": rate,
    }
    return payload, 0


def _cmd_states(args) -> tuple[dict, int]:
    if args.digits is not None:
        digits = _parse_ints(args.digits)
        pi = tuple(_parse_ints(args.pi)) if args.pi else None
        if args.method == "oracle":
            state = st.state_oracle(digits, args.t, pi)
        else:
            state = st.chain(st.initial_state(digits[: args.t - 1], args.t, pi), digits[args.t - 1 :])
        payload = {
            "digits": ",".join(map(str, digits)),
            "pi": _render_perm(pi) if pi else None,
            "state": state.render(),
            "complete": st.is_complete(state),
        }
        return payload, 0
    table = st.tail_table(args.t)
    complete = sorted(st.complete_states(args.t), key=lambda s: s.perm)
    rows = []
    for state in complete:
        for pi in st.head_permutations(args.t):
            tails = sorted(table.tails[(state, pi)])
            rows.append(
                {
                    "state": state.render(),
                    "pi": _render_perm(pi),
                    "count": len(tails),
                    "tails": ["".join(map(str, tail)) for tail in tails],
                }
            )
    payload = {
        "complete_states": [s.render() for s in complete],
        "tail_table": rows,
        "_csv_rows": [("state", "pi", "count", "tails")]
        + [(r["state"], r["pi"], str(r["count"]), " ".join(r["tails"])) for r in rows],
    }
    return payload, 0


def _cmd_pattern(args) -> tuple[dict, int]:
    if args.pattern is not None:
        pattern = _parse_ints(args.pattern)
        forces, landing = st.pattern_forces_complete(pattern, args.t)
        payload = {
            "pattern": ",".join(map(str, pattern)),
            "forces_complete": forces,
            "landing_state": landing.render() if landing is not None else None,
        }
        return payload, 0 if forces else 1
    if args.max_len is None:
        raise ValueError("pattern needs --pattern or --max-len")
    found = sorted(st.find_completing_pattern(args.t, args.max_len))
    payload = {
        "max_len": args.max_len,
        "count": len(found),
        "patterns": [",".join(map(str, p)) for p in found],
    }
    return payload, 0


def _cmd_gray(args) -> tuple[dict, int]:
    length, cycle = graycode.longest_cycle(args.n, args.w, args.mode)
    payload = {
        "n": args.n,
        "w": args.w,
        "mode": args.mode,
        "length": length,
        "bound_2n": 2 * args.n,
        "cycle": list(cycle.words) if cycle is not None else None,
    }
    if args.out and cycle is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(cycle.to_file_text())
        payload["out"] = args.out
    return payload, 0


def _cmd_validate(args) -> tuple[dict, int]:
    if args.file:
        with open(args.file, encoding="utf-8") as handle:
            words = list(graycode.GrayCycle.from_file_text(handle.read()).words)
    elif args.words:
        words = args.words.split(",")
    else:
        raise ValueError("validate needs --words or --file")
    result = graycode.validate_cycle(words, args.n, args.w, args.mode)
    payload = {
        "n": args.n,
        "w": args.w,
        "length": len(words),
        "valid": result.ok,
        "reason": result.reason,
        "detail": result.detail,
    }
    return payload, 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lrm",
        description="Local rank modulation: codecs, legality, enumeration, and Gray-code search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, t=True, jobs_help=None):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        if t:
            p.add_argument("--t", type=int, default=3, help="window size (default 3)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if jobs_help:
            p.add_argument("--jobs", type=int, default=1, help=jobs_help)
        return p

    p = add("demodulate", _cmd_demodulate, "charge profile to base word")
    p.add_argument("--profile", required=True, help="comma-separated charge levels")

    p = add("encode", _cmd_encode, "base word to codeword")
    p.add_argument("--word", required=True, help="base word, comma-separated symbols")

    p = add("decode", _cmd_decode, "codeword to realizable base word(s)")
    p.add_argument("--word", required=True, help="codeword digit string")
    p.add_argument("--method", choices=("auto", "anchored", "state"), default="auto")

    p = add("check", _cmd_check, "legality of a codeword or realizability of a base word")
    p.add_argument("--word", help="codeword digit string")
    p.add_argument("--base-word", dest="base_word", help="base word, comma-separated symbols")

    p = add(
        "count",
        _cmd_count,
        "census of legal codewords",
        jobs_help="worker processes for per-word legality counting: --method legality, t >= 5 (default 1)",
    )
    p.add_argument("--n", type=int, help="word length")
    p.add_argument("--range", help="length range lo:hi (inclusive)")
    p.add_argument("--method", choices=("auto", "rankings", "legality"), default="auto")
    p.add_argument("--pattern", help="forcing pattern, comma-separated digits")

    p = add("spectral", _cmd_spectral, "factor automaton and its growth rate")
    p.add_argument("--pattern", required=True, help="forbidden factor, comma-separated digits")

    p = add("states", _cmd_states, "complete states, tail table, or a state chase")
    p.add_argument("--digits", help="digit prefix, comma-separated")
    p.add_argument("--pi", help="head order, comma-separated (e.g. 2,1)")
    p.add_argument("--method", choices=("chain", "oracle"), default="chain")

    p = add("pattern", _cmd_pattern, "forcing-pattern test or exhaustive search")
    p.add_argument("--pattern", help="digit sequence, comma-separated")
    p.add_argument("--max-len", dest="max_len", type=int, help="search all patterns up to this length")

    p = add(
        "gray",
        _cmd_gray,
        "exhaustive longest-cycle search",
        t=False,
        jobs_help="ignored: the search runs on one core",
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--mode", choices=graycode.MODES, default="adjacent")
    p.add_argument("--out", help="write the witness cycle file here")

    p = add("validate", _cmd_validate, "check a candidate cycle", t=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", type=int, default=2)
    p.add_argument("--mode", choices=graycode.MODES, default="adjacent")
    p.add_argument("--words", help="comma-separated binary words, cyclic order")
    p.add_argument("--file", help="cycle file (header then one word per line)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t = getattr(args, "t", 2)
    try:
        payload, code = args.handler(args)
        rows = payload.pop("_csv_rows", None)
        if args.format == "csv" and rows is None:
            raise ValueError(f"{args.command} has no CSV form")
    except (ValueError, OSError, census.SpectralError) as exc:
        error = {"command": args.command, "t": t, "ok": False, "error": str(exc)}
        print(json.dumps(error))
        return 2
    if args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
        return code
    ordered = {"command": args.command, "t": t, "ok": code == 0}
    ordered.update(payload)
    print(json.dumps(ordered))
    return code


if __name__ == "__main__":
    sys.exit(main())
