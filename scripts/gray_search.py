#!/usr/bin/env python3
"""Longest-cycle search over a range of lengths, both adjacency readings,
optionally writing the witness cycle files.  Every witness is checked with
``validate_cycle``; a rejected one ends the run with its reason on stderr
and exit code 1.  For w = 2 and w = n - 2 the search stops at the paper's
proven 2n bound, so there the ``=2n`` verdict shows that the bound is
reached, not that it holds; the tests check that it holds, by the search
without the stop, up to n = 10.

Example:
    python3 scripts/gray_search.py --lo 4 --hi 8 --w 2 --out-dir cycles
"""

import argparse
import pathlib
import sys

from lrm.graycode import MODES, longest_cycle, validate_cycle


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--lo", type=int, default=4)
    parser.add_argument("--hi", type=int, default=8)
    parser.add_argument("--w", type=int, default=2)
    parser.add_argument("--modes", nargs="+", default=list(MODES), choices=MODES)
    parser.add_argument("--out-dir", help="write witness cycle files here")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    print(f"{'mode':>9} {'n':>3} {'w':>3} {'max':>4} {'2n':>4} {'verdict':>8}")
    for mode in args.modes:
        for n in range(args.lo, args.hi + 1):
            length, cycle = longest_cycle(n, args.w, mode)
            verdict = "<=2n" if length <= 2 * n else ">2n"
            if length == 2 * n:
                verdict = "=2n"
            print(f"{mode:>9} {n:>3} {args.w:>3} {length:>4} {2 * n:>4} {verdict:>8}")
            if cycle is not None:
                check = validate_cycle(cycle.words, n, args.w, mode)
                if not check.ok:
                    sys.exit(f"{mode} n={n} w={args.w}: witness rejected: {check.reason} {check.detail}")
                if out_dir:
                    path = out_dir / f"cycle_n{n}_w{args.w}_{mode}.txt"
                    path.write_text(cycle.to_file_text(), encoding="utf-8")


if __name__ == "__main__":
    main()
