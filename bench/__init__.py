"""Benchmark harness for lrm: workloads, independent checks and a call tracer."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_lrm():
    """Import ``lrm`` from the ``src`` tree of this checkout, never from elsewhere.

    Raises ``SystemExit`` (exit code 1) when the checkout holds no sources,
    so the benchmark fails instead of measuring some other installed copy.
    """
    if not (SRC / "lrm" / "__init__.py").is_file():
        raise SystemExit(f"bench: no lrm sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import lrm
    import lrm.cli  # the command line is part of what the workloads run

    if Path(lrm.__file__).resolve().parent != SRC / "lrm":
        raise SystemExit(f"bench: imported lrm from {lrm.__file__}, expected {SRC / 'lrm'}")
    return lrm
