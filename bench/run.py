"""Run one lrm benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 bench/run.py --workload census --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``:
``setup_s`` (median of several fresh processes that import lrm and make the
inputs), ``wall_s`` (median time of one cold round of the workload) and
``peak_rss_mb`` (peak resident memory of this process).  Rounds repeat
until the next one would pass ``--seconds``; the first round always runs.
Both times are scaled to a reference speed of the machine, gauged while
they are measured (``measure_setup``, ``SpeedGauge``), because the same code
runs up to twice as slow from one second or minute to the next.

``--trace 1`` runs one untraced round, then traced rounds for ``--seconds``,
and prints the per-layer metrics (medians over the traced rounds) plus
``trace.overhead_s``, the traced round time minus the untraced one.

Every round's answers are checked: the first round's against the
independent computations in ``checks``, later rounds' against the first.
The last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``;
the same object and the trace tree go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import ROOT, import_lrm, tracing  # noqa: E402
from bench.workloads import WORKLOADS, Round  # noqa: E402

OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
PROBE_TIMEOUT_S = 60
NUMPY_START = "import numpy"
NUMPY_START_NOMINAL_S = 0.2
GAUGE_EVERY_S = 0.25
GAUGE_ITERATIONS = 20_000
GAUGE_NOMINAL_S = 0.010


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one lrm benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def measure_setup(workload: str, seed: int) -> tuple[float, dict]:
    """Median time from starting a fresh process to its inputs being ready.

    Each probe is scaled to the reference start-up speed: by
    ``NUMPY_START_NOMINAL_S`` over the time ``python3 -c "import numpy"``
    took to start and exit just before it.  The raw times are returned too.
    """
    samples = []
    raw: dict = {"probe_s": [], "numpy_start_s": []}
    command = [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", NUMPY_START], check=True)
        raw["numpy_start_s"].append(time.perf_counter() - start)
        start = time.perf_counter()
        with subprocess.Popen(command, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            raw["probe_s"].append(time.perf_counter() - start)
            try:
                child.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {child.returncode}")
        samples.append(raw["probe_s"][-1] * NUMPY_START_NOMINAL_S / raw["numpy_start_s"][-1])
    return statistics.median(samples), raw


def lrm_caches() -> list:
    """Every cache an lrm module keeps, so a round can start cold."""
    caches = {}
    for name, module in list(sys.modules.items()):
        if name == "lrm" or name.startswith("lrm."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear") and getattr(value, "__module__", None) == name:
                    caches[id(value)] = value
    return list(caches.values())


def gauge_loop() -> int:
    """A fixed slice of pure-Python work (tuple, dict and set operations)."""
    table: dict = {}
    seen = set()
    total = 0
    for i in range(GAUGE_ITERATIONS):
        key = (i & 63, i % 7)
        table[key] = table.get(key, 0) + i
        if i & 3 == 0:
            seen.add(i & 1023)
        total += len(key)
    return total + len(table) + len(seen)


class SpeedGauge:
    """How fast the machine runs this process, sampled all through a round.

    While armed, a SIGALRM handler times ``gauge_loop`` every
    ``GAUGE_EVERY_S`` seconds.  Python runs the handler in this thread
    between bytecodes, so samples fall inside long lrm calls too.  A round's
    time leaves the samples out, and its scale is ``GAUGE_NOMINAL_S`` over
    the round's mean sample: the factor that turns the round's time into
    seconds of a machine on which the loop takes ``GAUGE_NOMINAL_S``.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        signal.signal(signal.SIGALRM, self.sample)

    def sample(self, *_) -> None:
        start = time.perf_counter()
        gauge_loop()
        self.samples.append((start, time.perf_counter() - start))

    def arm(self) -> tuple[int, float]:
        """Take one sample, then sample every ``GAUGE_EVERY_S``; the sample's index and the start time."""
        first = len(self.samples)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, GAUGE_EVERY_S, GAUGE_EVERY_S)
        return first, time.perf_counter()

    def disarm(self, first: int, start: float) -> tuple[float, float]:
        """Stop sampling; the time since ``start`` less the samples in it, and the scale."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        taken = self.samples[first:]
        inside = sum(took for at, took in taken if start <= at < end)
        return end - start - inside, GAUGE_NOMINAL_S / statistics.fmean(took for _, took in taken)


class Runner:
    """Rounds of one workload, their times, operation counts and check results."""

    def __init__(self, name: str, seed: int, lrm, gauge: SpeedGauge | None = None):
        self.workload = WORKLOADS[name]
        self.lrm = lrm
        self.inputs = self.workload.make_inputs(seed)
        self.caches = lrm_caches()
        self.gauge = gauge
        self.scales: list[float] = []
        self.attempted = 0
        self.failed: list[str] = []
        self.errors: list[str] = []
        self.reference = None

    def round(self) -> float:
        """One cold round: its time; its answers are checked, then dropped."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        rnd = Round()
        if self.gauge is None:
            start = time.perf_counter()
            answers = self.workload.run(self.inputs, self.lrm, rnd)
            elapsed = time.perf_counter() - start
        else:
            first, start = self.gauge.arm()
            try:
                answers = self.workload.run(self.inputs, self.lrm, rnd)
            finally:
                elapsed, scale = self.gauge.disarm(first, start)
            self.scales.append(scale)
        self.attempted += rnd.attempted
        self.failed += rnd.failed
        digest = self.workload.digest(answers)
        if self.reference is None:
            self.errors += self.workload.check(self.inputs, answers, self.lrm)
            self.reference = digest
        elif digest != self.reference:
            self.errors.append("a round's answers differ from the first round's")
        return elapsed

    def rounds(self, seconds: float, each=None) -> list[float]:
        """Rounds until the next would pass ``seconds`` of timed work; at least one."""
        times: list[float] = []
        while not times or sum(times) + times[-1] <= seconds:
            times.append(self.round())
            if each is not None:
                each()
        return times


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics, medians over traced rounds, and the last round's spans."""
    untraced = runner.round()
    tracer = tracing.Tracer()
    per_round: list[dict] = []
    spans: list[dict] = []

    def collect():
        per_round.append(tracer.metrics())
        spans[:] = tracer.spans()
        tracer.reset()

    tracer.install()
    try:
        tracer.reset()
        times = runner.rounds(seconds, each=collect)
    finally:
        tracer.uninstall()
    metrics = {name: statistics.median_low(r[name] for r in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(times) - untraced
    return metrics, {"untraced_round_s": untraced, "traced_round_s": times, "spans": spans}


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        import_lrm()
        WORKLOADS[args.workload].make_inputs(args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lrm = import_lrm()
    if args.trace:
        runner = Runner(args.workload, args.seed, lrm)
        values, extra = traced_metrics(runner, args.seconds)
        wanted = spec["per_layer"]
    else:
        setup_s, probes = measure_setup(args.workload, args.seed)
        runner = Runner(args.workload, args.seed, lrm, SpeedGauge())
        times = runner.rounds(args.seconds)
        values = {
            "setup_s": setup_s,
            "wall_s": statistics.median(t * k for t, k in zip(times, runner.scales)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = dict(probes, round_s=times, round_scale=runner.scales)
        wanted = spec["end_to_end"]
    if {m["name"] for m in wanted} != set(values):
        raise SystemExit(f"bench: metrics {sorted(values)} do not match BENCHMARK.json")
    result = {
        "correct": not runner.errors,
        "attempted": runner.attempted,
        "failed": len(runner.failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for message in (runner.failed + runner.errors)[:20]:
        print(f"bench: {message}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if "spans" in extra:
        (OUT_DIR / f"trace-{stem}.json").write_text(json.dumps(extra.pop("spans"), indent=1) + "\n")
    (OUT_DIR / f"result-{stem}-trace{args.trace}.json").write_text(json.dumps(dict(result, **extra), indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
