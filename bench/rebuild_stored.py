"""Rebuild ``bench/stored.json``, the answers the benchmark keeps as stored copies.

Two kinds of answer are out of reach of an in-run independent computation:

- the legal-word counts for t=3, n=9..11.  They are rebuilt by enumerating
  all n! cell rankings (``lrm.census.count_by_rankings``, with
  ``LRM_MAX_BUDGET`` raised to 11!), which never calls the legality test
  that the ``census`` workload times;
- the sizes of ``reachable_states(t)`` for t=4 and t=5, rebuilt by closure.

Run from the repository root::

    python3 bench/rebuild_stored.py          # rewrite bench/stored.json
    git diff --exit-code bench/stored.json  # exit 1 if a copy changed

Each item prints its own running time.  On a 2-core x86-64 VM (Python
3.11.7), shared with other work, the whole rebuild took 16.6 min: t=3 n=9
7 s, n=10 79 s, n=11 899 s, the closures 0.1 s and 8.6 s.
"""

from __future__ import annotations

import json
import os
import sys
import time
from math import factorial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import import_lrm  # noqa: E402

STORED = Path(__file__).resolve().parent / "stored.json"
CENSUS_T3_NS = (9, 10, 11)
REACHABLE_TS = (4, 5)


def rebuild() -> dict:
    os.environ["LRM_MAX_BUDGET"] = str(factorial(max(CENSUS_T3_NS)))
    import_lrm()
    from lrm import census, states

    counts = {}
    for n in CENSUS_T3_NS:
        start = time.perf_counter()
        counts[str(n)] = census.count_by_rankings(3, n).legal_count
        print(f"t=3 n={n}: {counts[str(n)]} legal words ({time.perf_counter() - start:.1f} s)", flush=True)
    sizes = {}
    for t in REACHABLE_TS:
        start = time.perf_counter()
        sizes[str(t)] = len(states.reachable_states(t))
        print(f"reachable_states({t}): {sizes[str(t)]} states ({time.perf_counter() - start:.1f} s)", flush=True)
    return {"census_t3_legal_counts": counts, "reachable_state_sizes": sizes}


def main() -> int:
    fresh = rebuild()
    STORED.write_text(json.dumps(fresh, indent=2, sort_keys=True) + "\n")
    print(f"wrote {STORED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
