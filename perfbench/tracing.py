"""Timing wrappers installed on the program from outside it.

Module-level functions are replaced in every module that binds them,
since callers look a function up in their own module's namespace;
methods are replaced on their class.  Coarse calls become spans
(id, name, start, end, parent, time spent in hot calls directly under
it).  Hot calls (one per lattice point or per gauge row) keep only a
running time and count, so that tracing them stays cheap; their time is
charged to the enclosing span so that self times still add up.
Multiplications in the field are counted and not timed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []          # (id, name, start, end, parent, hot)
        self.hot_time = defaultdict(float)    # name -> self time of hot calls
        self.counts = defaultdict(int)        # counter name -> value
        self._stack: list[list] = []          # open frames: [span id or None, child hot time]
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, after=None):
        """Wrapper maker for a coarse call: one span per call."""
        return lambda fn: self._span_wrapper(name, fn, after)

    def _hot(self, name, after=None):
        """Wrapper maker for a per-point call: time and count only."""
        return lambda fn: self._hot_wrapper(name, fn, after)

    def _span_wrapper(self, name, fn, after):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1][0] if self._stack else None
            self.spans.append(None)
            frame = [sid, 0.0]
            self._stack.append(frame)
            self.counts[name + ".calls"] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.spans[sid] = (sid, name, start, end, parent, frame[1])
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn, after):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            dur = clock() - start
            self.hot_time[name] += dur
            self.counts[name + ".calls"] += 1
            if self._stack:
                self._stack[-1][1] += dur
            if after is not None:
                after(self.counts, args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def wrap_function(self, original, make):
        """Replace `original` in every loaded adelic module that binds it."""
        new = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is not None and (modname == "adelic" or modname.startswith("adelic.")):
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, attr, new)

    def wrap_method(self, cls, attr, make):
        self._replace(cls, attr, make(cls.__dict__[attr]))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def install(self):
        """Wrap the public entry points of each layer of the adelic package."""
        from adelic import bodies, cli, exactla, lattices, numberfield, omodules, scenario
        from adelic import transference

        def points(counts, args, result):
            counts["lattices.enum.points"] += len(result)

        def witnesses(counts, args, result):
            counts["transference.minima.witnesses"] += len(result.witnesses)

        def accepted(name):
            def after(counts, args, result):
                counts[name] += bool(result)
            return after

        def rows(counts, args, result):
            counts["bodies.gauge.rows"] += len(args[1])

        span, hot = self._span, self._hot
        self.wrap_method(numberfield.NumberField, "__init__", span("numberfield.build"))
        self.wrap_method(numberfield.NumberField, "embed_vector", hot("numberfield.embed"))
        fe = numberfield.FieldElement
        mul = self._count("numberfield.elem_mul", fe.__dict__["__mul__"])
        self._replace(fe, "__mul__", mul)
        self._replace(fe, "__rmul__", mul)

        self.wrap_method(omodules.KModule, "trace_dual", span("omodules.trace_dual"))
        self.wrap_method(omodules.KRankTracker, "try_add",
                         hot("omodules.krank", accepted("omodules.krank.accepts")))
        self.wrap_method(exactla.RankTracker, "try_add",
                         hot("exactla.rank", accepted("exactla.rank.accepts")))
        self.wrap_function(exactla.mat_inv, span("exactla.mat_inv"))

        self.wrap_function(lattices._lll_transform, span("lattices.lll"))
        self.wrap_function(lattices.enumerate_below, span("lattices.enum", points))
        self.wrap_method(lattices.EmbeddedLattice, "preimage_of", hot("lattices.preimage"))
        self.wrap_function(lattices.covering_radius_bounds, span("lattices.cover"))
        self.wrap_function(lattices.lattice_equal, span("lattices.duality_check"))

        self.wrap_method(bodies.ProductBody, "gauge_many", hot("bodies.gauge", rows))

        self.wrap_function(transference.adelic_minima,
                           span("transference.minima", witnesses))
        self.wrap_function(transference.adelic_polar, span("transference.polar"))

        self.wrap_function(scenario.parse_scenario, span("scenario.parse"))
        self.wrap_method(scenario.Scenario, "build", span("scenario.build"))
        self.wrap_function(cli.main, span("cli.main"))

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per name: span duration minus direct child spans and hot calls."""
        child = defaultdict(float)
        for sid, name, start, end, parent, hot in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float, self.hot_time)
        for sid, name, start, end, parent, hot in self.spans:
            out[name] += (end - start) - child[sid] - hot
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent, hot in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "hot_s": hot}) + "\n")
