"""Span tracing of udcodes from outside the library.

`Tracer.install` replaces the public functions of each module, in every
udcodes namespace that holds them, with wrappers that record one span per
call: layer name, start, end and parent span.  Spans stay in flat arrays in
memory; `write` stores them at the end and `layer_metrics` derives each
layer's self time (span duration minus the time its child spans cover) and
the counts recorded at the same boundaries.
"""

from __future__ import annotations

import array
import functools
import json
import sys
import time
from collections import Counter

# (module, attribute) -> span name.  Several functions may share a name.
TARGETS = {
    ("enumeration", "enumerate_codes"): "enumeration.enumerate_s",
    ("enumeration", "classify"): "enumeration.classify_s",
    ("enumeration", "census"): "enumeration.census_s",
    ("enumeration", "two_factorization_search"): "enumeration.search_s",
    ("enumeration", "bounded_delay_probe"): "enumeration.probe_s",
    ("enumeration", "write_classification_csv"): "enumeration.csv_s",
    ("decide", "is_prefix_code"): "decide.prefix_s",
    ("decide", "sardinas_patterson"): "decide.sp_s",
    ("decide", "delay_analysis"): "decide.delay_s",
    ("_graph", "cyclic_nodes"): "graph.cyclic_s",
    ("_graph", "topological_order"): "graph.topo_s",
    ("kraft", "kraft_sum"): "kraft.count_s",
    ("kraft", "is_feasible"): "kraft.count_s",
    ("kraft", "count_prefix_codes"): "kraft.count_s",
    ("kraft", "count_anchored_prefix_codes"): "kraft.count_s",
    ("kraft", "canonical_prefix_code"): "kraft.witness_s",
    ("kraft", "anchored_prefix_code"): "kraft.witness_s",
    ("kraft", "ud_nonprefix_witness"): "kraft.witness_s",
    ("kraft", "infinite_delay_witness"): "kraft.witness_s",
    ("census", "closed_form_counts"): "census.closed_form_s",
    ("census", "count_233"): "census.closed_form_s",
    ("census", "count_all_a_then_b"): "census.closed_form_s",
    ("census", "count_pr_pair"): "census.closed_form_s",
    ("census", "is_pr_eq_ud"): "census.closed_form_s",
    ("census", "is_fd_eq_ud"): "census.closed_form_s",
    ("census", "fd_matches_ud_condition"): "census.closed_form_s",
    ("census", "theorem1_bound"): "census.bound_s",
    ("words", "code_to_text"): "words.texts_s",
}
GENERATORS = {"enumeration.enumerate_s"}
SPAN_NAMES = sorted(set(TARGETS.values()))
COUNTS = (
    "enumeration.codes",
    "enumeration.classified",
    "enumeration.nonud",
    "enumeration.census_calls",
    "enumeration.search_calls",
    "enumeration.probe_calls",
    "decide.sp_rounds",
    "decide.delay_calls",
    "decide.delay_on_nonud",
    "decide.amb_states",
    "decide.amb_transitions",
    "graph.nodes",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_of = array.array("H")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []
        self._last_sp: tuple[object, bool] = (None, True)

    def _index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def current(self) -> str:
        top = self.stack[-1]
        return "" if top < 0 else self.names[self.name_of[top]]

    def wrap(self, fn, name: str, after=None):
        idx = self._index(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(idx)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, fn, name: str, after=None):
        """One span per item, so the consumer's work between items is not
        counted as the generator's."""
        idx = self._index(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                i = len(start)
                name_of.append(idx)
                parent.append(stack[-1])
                end.append(0.0)
                stack.append(i)
                start.append(clock())
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    end[i] = clock()
                    stack.pop()
                if after is not None:
                    after(args, item)
                yield item

        return traced

    # -- hooks that record counts at the span boundaries -------------------

    def _after(self, name: str):
        counts = self.counts
        if name == "enumeration.enumerate_s":
            def hook(args, item):
                counts["enumeration.codes"] += 1
        elif name == "enumeration.classify_s":
            def hook(args, result):
                counts["enumeration.classified"] += 1
                counts["enumeration.nonud"] += not result.ud
        elif name in ("enumeration.census_s", "enumeration.search_s", "enumeration.probe_s"):
            key = name[: -len("_s")] + "_calls"

            def hook(args, result):
                counts[key] += 1
        elif name == "decide.sp_s":
            def hook(args, result):
                counts["decide.sp_rounds"] += len(result.rounds)
                self._last_sp = (args[0], result.unique)
        elif name == "decide.delay_s":
            def hook(args, result):
                counts["decide.delay_calls"] += 1
                code, unique = self._last_sp
                if not unique and (code is args[0] or code == args[0]):
                    counts["decide.delay_on_nonud"] += 1
        elif name == "graph.cyclic_s":
            def hook(args, result):
                adjacency = args[0]
                counts["graph.nodes"] += len(adjacency)
                # the decider passes its explored ambiguity graph
                if self.current() == "decide.delay_s":
                    counts["decide.amb_states"] += len(adjacency)
                    counts["decide.amb_transitions"] += sum(map(len, adjacency.values()))
        else:
            hook = None
        return hook

    def install(self) -> None:
        """Patch every udcodes namespace; call after importing udcodes.cli."""
        import udcodes.words

        modules = [m for key, m in sys.modules.items() if key == "udcodes" or key.startswith("udcodes.")]
        for (module, attr), name in TARGETS.items():
            original = getattr(sys.modules[f"udcodes.{module}"], attr)
            make = self.wrap_generator if name in GENERATORS else self.wrap
            wrapper = make(original, name, self._after(name))
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patched.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        code_cls = udcodes.words.Code
        self._patched.append((code_cls, "texts", code_cls.texts))
        code_cls.texts = self.wrap(code_cls.texts, "words.texts_s")

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patched):
            setattr(obj, attr, original)
        self._patched.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        n = len(self.start)
        start, end, parent, name_of = self.start, self.end, self.parent, self.name_of
        covered = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        totals = dict.fromkeys(self.names, 0.0)
        for i in range(n):
            totals[self.names[name_of[i]]] += end[i] - start[i] - covered[i]
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Self time per span name plus the raw counts; every name in
        SPAN_NAMES and COUNTS is present, zero when never reached."""
        out: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        out.update(self.self_times())
        out.update({name: self.counts[name] for name in COUNTS})
        out["trace.spans"] = len(self.start)
        return out

    def write(self, path: str) -> None:
        """Spans as JSON header line plus the four raw arrays."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.start), "arrays": ["name_of:H", "parent:i", "start:d", "end:d"]}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.start, self.end):
                arr.tofile(handle)
