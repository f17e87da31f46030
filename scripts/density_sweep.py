#!/usr/bin/env python3
"""Sweep legal-word densities and the factor lower bound over a length range.

Example:
    python3 scripts/density_sweep.py --t 3 --lo 6 --hi 11

The same rows as CSV come from ``lrm count --t 3 --range 6:11 --format csv``.
"""

import argparse

from lrm.census import density_report


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t", type=int, default=3)
    parser.add_argument("--lo", type=int, default=6)
    parser.add_argument("--hi", type=int, default=11)
    parser.add_argument("--pattern", help="forcing pattern, comma-separated digits")
    args = parser.parse_args()

    pattern = tuple(int(x) for x in args.pattern.split(",")) if args.pattern else None
    reports = density_report(args.t, range(args.lo, args.hi + 1), pattern=pattern)

    bound = args.t ** (args.t - 1)
    print(f"t={args.t}  (bound factor {bound})")
    print(f"{'n':>3} {'M':>10} {'t^n':>12} {'density':>8} {'M_prime':>8} {'bound':>6} {'beta':>8}")
    for r in reports:
        beta = f"{r.growth_rate:.5f}" if r.growth_rate is not None else "-"
        m_prime = r.m_prime if r.m_prime is not None else "-"
        ok = {True: "ok", False: "FAIL", None: "-"}[r.bound_ok]
        print(f"{r.n:>3} {r.legal_count:>10} {r.total:>12} {r.density:>8.4f} {m_prime:>8} {ok:>6} {beta:>8}")


if __name__ == "__main__":
    main()
