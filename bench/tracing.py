"""Call tracer for the benchmark's traced run.

The tracer wraps every public function of every ``lrm`` module at each
place a caller looks it up: the module attribute (which the module's own
calls go through too), and every other ``lrm`` module that imported the
name, such as ``lrm.census.is_legal`` or ``lrm.codec.rank_to_permutation``.
``lrm`` itself stays unchanged; ``uninstall`` puts the originals back.

Spans are kept in memory as a call tree: one node per call path (parent
node, function), holding the call count, the summed duration, the time its
child spans cover, and the start of the first and end of the last call.
Spans with the same path are merged into one node, so the tree stays small
while a round makes millions of calls.  A layer's self time is the summed
duration of its nodes minus the time their children cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("permutations", "states", "codec", "census", "graycode", "cli")
READS = ("codec.is_legal", "codec.decode_general", "codec.decode3")


def _count_digits(tracer, args, result):
    tracer.counts["codec.digits_read"] += len(args[0].digits)


def _count_vertices(tracer, args, result):
    tracer.counts["graycode.vertices"] += len(result.vertices)


def _record_closure(tracer, args, result):
    tracer.closure_sizes[args[0]] = len(result)


# Counters read from arguments or results, by traced function.
HOOKS = {name: _count_digits for name in READS}
HOOKS["graycode.GrayGraph.build"] = _count_vertices
HOOKS["states.reachable_states"] = _record_closure


def public_functions(module):
    """(attribute, function) for the public functions a module defines, caches included."""
    for attr, value in vars(module).items():
        if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or hasattr(value, "cache_info"):
            yield attr, value


class Tracer:
    def __init__(self):
        self.originals: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Forget every span and counter; the next round starts a fresh tree."""
        self.names: list[str] = []
        self.parents: list[int] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.child: list[float] = []
        self.first_start: list[float] = []
        self.last_end: list[float] = []
        self._index: dict[tuple[int, str], int] = {}
        self.current = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.closure_sizes: dict[int, int] = {}
        self.origin = time.perf_counter()

    def _node(self, parent: int, name: str) -> int:
        node = self._index[(parent, name)] = len(self.names)
        self.names.append(name)
        self.parents.append(parent)
        self.calls.append(0)
        self.total.append(0.0)
        self.child.append(0.0)
        self.first_start.append(0.0)
        self.last_end.append(0.0)
        return node

    def wrap(self, fn, name: str):
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current
            node = tracer._index.get((parent, name))
            if node is None:
                node = tracer._node(parent, name)
            tracer.current = node
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer.current = parent
                if tracer.calls[node] == 0:
                    tracer.first_start[node] = start
                tracer.calls[node] += 1
                tracer.total[node] += end - start
                tracer.last_end[node] = end
                if parent >= 0:
                    tracer.child[parent] += end - start
            if hook is not None:
                hook(tracer, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap lrm's public functions wherever an lrm module holds them."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "lrm" or n.startswith("lrm.")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, fn in public_functions(module):
                name = f"{layer}.{attr}"
                self.originals[name] = fn
                wrappers[id(fn)] = self.wrap(fn, name)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)
        graph = sys.modules["lrm.graycode"].GrayGraph
        build = graph.__dict__["build"]
        self.originals["graycode.GrayGraph.build"] = build.__func__
        self._restore.append((graph, "build", build))
        graph.build = classmethod(self.wrap(build.__func__, "graycode.GrayGraph.build"))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _outermost(self, node: int) -> bool:
        name = self.names[node]
        parent = self.parents[node]
        while parent >= 0:
            if self.names[parent] == name:
                return False
            parent = self.parents[parent]
        return True

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the round traced since the last ``reset``."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        root = {"write": 0.0, "read": 0.0}
        words_tested = 0
        for node, name in enumerate(self.names):
            layer = name.partition(".")[0]
            self_s[layer] += self.total[node] - self.child[node]
            calls[name] += self.calls[node]
            if self._outermost(node):
                inclusive[name] += self.total[node]
            parent = self.parents[node]
            if parent < 0 and name in ("codec.demodulate", "codec.encode"):
                root["write"] += self.total[node]
            if parent < 0 and name in READS:
                root["read"] += self.total[node]
            if name == "codec.is_legal" and parent >= 0 and self.names[parent].startswith("census."):
                words_tested += self.calls[node]
        out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        out.update(
            {
                "permutations.rank_to_permutation.calls": calls["permutations.rank_to_permutation"],
                "states.successor.calls": calls["states.successor"],
                "states.successor.misses": self.originals["states.successor"].cache_info().misses,
                "states.initial_state.misses": sys.modules["lrm.states"]._initial_cached.cache_info().misses,
                "states.achievable_tails.misses": self.originals["states.achievable_tails"].cache_info().misses,
                "states.reachable_states.s": inclusive["states.reachable_states"],
                "states.reachable_states.size": sum(self.closure_sizes.values()),
                "states.find_completing_pattern.s": inclusive["states.find_completing_pattern"],
                "states.pattern_forces_complete.calls": calls["states.pattern_forces_complete"],
                "codec.is_legal.calls": calls["codec.is_legal"],
                "codec.is_legal.s": inclusive["codec.is_legal"],
                "codec.write.s": root["write"],
                "codec.read.s": root["read"],
                "codec.decode_general.s": inclusive["codec.decode_general"],
                "codec.decode3.s": inclusive["codec.decode3"],
                "codec.realizable.s": inclusive["codec.realizable"],
                "codec.digits_read": self.counts["codec.digits_read"],
                "census.count_by_legality.s": inclusive["census.count_by_legality"],
                "census.words_tested": words_tested,
                "census.containing_count.s": inclusive["census.containing_count"],
                "census.spectral_radius.s": inclusive["census.spectral_radius"],
                "graycode.graph_build.s": inclusive["graycode.GrayGraph.build"],
                "graycode.longest_cycle.s": inclusive["graycode.longest_cycle"],
                "graycode.validate_cycle.s": inclusive["graycode.validate_cycle"],
                "graycode.push_step.calls": calls["graycode.push_step"],
                "graycode.vertices": self.counts["graycode.vertices"],
                "cli.main.s": inclusive["cli.main"],
                "cli.main.calls": calls["cli.main"],
            }
        )
        return out

    def spans(self) -> list[dict]:
        """The call tree as merged spans, times in seconds from the round start."""
        return [
            {
                "id": node,
                "name": name,
                "parent": self.parents[node],
                "calls": self.calls[node],
                "start_s": self.first_start[node] - self.origin,
                "end_s": self.last_end[node] - self.origin,
                "total_s": self.total[node],
                "self_s": self.total[node] - self.child[node],
            }
            for node, name in enumerate(self.names)
        ]
