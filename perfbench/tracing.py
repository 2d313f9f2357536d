"""In-memory span tracer and the instrumentation that times topoideal's layers.

Spans are timed from outside the package: `instrument` replaces a layer's
public functions and classes at the names other topoideal modules import
them under, and restores the originals on exit.  Nothing under `src/` is
edited, and with no instrumentation installed the package runs untouched.

Every span adds its duration to its parent's child time, so a span's self
time is its duration minus the part its child spans cover.  Spans at
coarse boundaries (a sweep, a search, a replay, report formatting) are
kept one by one as (id, name, start, end, parent id).  Hot spans, such as
`core.local_function` with millions of calls per pass, are only
aggregated per name (calls, total, self time): keeping each one would
cost more memory than the sweep itself.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
import types
from contextlib import contextmanager
from functools import cached_property


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        # frame: [start, child seconds, own span id or None, nearest kept ancestor id]
        self.stack: list[list] = []
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def _enter(self, keep: bool) -> list:
        stack = self.stack
        parent = stack[-1] if stack else None
        inherited = None if parent is None else (
            parent[2] if parent[2] is not None else parent[3])
        frame = [self.clock(), 0.0, len(self.spans) if keep else None, inherited]
        if keep:
            self.spans.append(None)   # reserve the id; filled on exit
        stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list) -> None:
        end = self.clock()
        self.stack.pop()
        dur = end - frame[0]
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[1]
        if self.stack:
            self.stack[-1][1] += dur
        if frame[2] is not None:
            self.spans[frame[2]] = (frame[2], name, frame[0], end, frame[3])

    @contextmanager
    def span(self, name: str):
        """A kept span around a block of the benchmark's own code."""
        frame = self._enter(True)
        try:
            yield
        finally:
            self._exit(name, frame)

    def wrap(self, fn, name: str):
        """fn with every call aggregated as a span called `name`."""
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(False)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name, frame)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def wrap_leaf(self, fn, name: str):
        """Cheaper `wrap` for a function that calls no traced code: no frame
        is pushed, its time is only added to its parent's child time."""
        clock, stack = self.clock, self.stack
        st = self.stats.setdefault(name, [0, 0.0, 0.0])

        def traced(*args):
            start = clock()
            try:
                return fn(*args)
            finally:
                dur = clock() - start
                st[0] += 1
                st[1] += dur
                st[2] += dur
                if stack:
                    stack[-1][1] += dur

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def counted(self, fn, name: str):
        """fn with its calls counted but not timed."""
        count = self.count

        def counting(*args, **kwargs):
            count(name)
            return fn(*args, **kwargs)

        return counting

    def dump(self, path, **header) -> None:
        """Write every kept span, the per-name aggregates and the counts."""
        doc = dict(header)
        doc["spans"] = [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4]}
            for s in self.spans if s is not None
        ]
        doc["aggregates"] = {
            name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
            for name, st in sorted(self.stats.items())
        }
        doc["counts"] = dict(sorted(self.counts.items()))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=1)


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one no-op context."""

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, k: int = 1) -> None:
        pass


def _traced_subclass(base, tracer: Tracer, build: str, table: str, renamed: dict):
    """Subclass of an analysis class whose builds and lazy tables are spans."""
    ns = {"__init__": tracer.wrap(base.__init__, build)}
    for attr, value in vars(base).items():
        if isinstance(value, cached_property):
            ns[attr] = cached_property(tracer.wrap(value.func, renamed.get(attr, table)))
        elif attr in renamed and callable(value):
            ns[attr] = tracer.wrap(value, renamed[attr])
    return type(base.__name__, (base,), ns)


def _topoideal_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "topoideal" or name.startswith("topoideal."))]


@contextmanager
def instrument(tracer: Tracer):
    """Time every layer while the block runs; restore the package after."""
    import topoideal
    import topoideal.cli  # noqa: F401  (loaded now so its imported names get patched)
    # import_module, because the package re-exports a function named maps
    analysis, claims, classes, core, enumeration, maps, verify = (
        importlib.import_module(f"topoideal.{name}") for name in
        ("analysis", "claims", "classes", "core", "enumeration", "maps", "verify"))

    replacements = {}   # id(original) -> (original, replacement, defining module)

    def replace(original, replacement, home):
        replacements[id(original)] = (original, replacement, home)

    replace(core.local_function,
            tracer.wrap_leaf(core.local_function, "core.local_function"), core)
    replace(classes.set_classes, tracer.counted(classes.set_classes, "classes.set_classes"), classes)
    replace(maps.map_classes, tracer.counted(maps.map_classes, "maps.map_classes"), maps)

    topologies = enumeration.topologies
    timed_topologies = tracer.wrap(topologies, "enumeration.topologies")

    def counting_topologies(n):
        misses = topologies.cache_info().misses
        out = timed_topologies(n)
        if topologies.cache_info().misses != misses:
            tracer.count("enumeration.topologies_built", len(out))
        return out

    replace(topologies, counting_topologies, enumeration)
    replace(enumeration.ideals, tracer.wrap(enumeration.ideals, "enumeration.ideals"), enumeration)
    replace(enumeration.maps, tracer.wrap(enumeration.maps, "enumeration.maps"), enumeration)

    replace(analysis.TopologyAnalysis, _traced_subclass(
        analysis.TopologyAnalysis, tracer, "analysis.topology_build",
        "analysis.topology_table", {}), analysis)
    replace(analysis.SpaceAnalysis, _traced_subclass(
        analysis.SpaceAnalysis, tracer, "analysis.space_build", "analysis.space_table",
        {"star_t": "analysis.star_t", "class_vector": "analysis.class_vector"}), analysis)

    # verify reaches the claims layer through the module object, so it gets a
    # copy of that module with the two entry points wrapped; calls inside
    # claims (evaluate recursing into subterms) stay untraced and uncounted
    claims_view = types.ModuleType(claims.__name__)
    claims_view.__dict__.update(vars(claims))
    claims_view.parse_claim = tracer.wrap(claims.parse_claim, "claims.parse_claim")
    claims_view.evaluate = tracer.wrap_leaf(claims.evaluate, "claims.evaluate")
    replace(claims, claims_view, topoideal)

    patched = []   # (module, attribute, original)
    for module in _topoideal_modules():
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value and hit[2] is not module:
                patched.append((module, attr, value))
                setattr(module, attr, hit[1])
    # witnesses are built inside verify, so that count is taken at verify's own name
    patched.append((verify, "Witness", verify.Witness))
    verify.Witness = tracer.counted(verify.Witness, "verify.witnesses_built")
    try:
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)
