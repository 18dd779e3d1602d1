"""Span tracing around the package's layer functions, installed from outside.

`Tracer.install()` swaps the references that other `nwaq` modules hold to
each traced function for a wrapper, so the spans follow the calls the real
`decide.Pipeline` and `cli` make, in their order. Spans (name, start, end,
parent, query id) stay in memory until `write()`. In memory mode every span
also records the `tracemalloc` peak of the allocations made while it was
open. Counters are read off return values after the span's clock stops.
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc

# (module, function) pairs; the span is named "<module without nwaq.>.<function>"
LAYERS = (
    ("nwaq.textio", "parse_nwa"),
    ("nwaq.core", "validate_nwa"),
    ("nwaq.core", "is_deterministic"),
    ("nwaq.width", "has_width"),
    ("nwaq.determinize", "explore"),
    ("nwaq.determinize", "materialize_deterministic"),
    ("nwaq.starcond", "check_star_condition"),
    ("nwaq.starcond", "pump_witness"),
    ("nwaq.reduce", "reduce_width1"),
    ("nwaq.reduce", "fragment_automaton"),
    ("nwaq.meanpayoff", "infimum_ratio"),
    ("nwaq.meanpayoff", "threshold_emptiness"),
    ("nwaq.oracle", "evaluate_lasso"),
)
PIPELINE = "decide.Pipeline"
PIPELINE_METHODS = ("__init__", "infimum", "emptiness")


def _sizes(name: str, result) -> dict[str, int]:
    """Graph sizes and hit counts carried by a layer's return value."""
    if name == "determinize.explore":
        return {"determinize.configs": len(result[0]), "determinize.config_edges": len(result[1])}
    if name == "determinize.materialize_deterministic":
        return {"determinize.det_states": result.master.n_states, "determinize.det_letters": len(result.alphabet)}
    if name == "reduce.reduce_width1":
        return {"reduce.reduced_states": result.master.n_states, "reduce.compound_slaves": len(result.slaves)}
    if name == "reduce.fragment_automaton":
        return {"reduce.fragment_nodes": result.n_states, "reduce.fragment_edges": len(result.edges)}
    if name == "starcond.check_star_condition":
        return {"starcond.hits": int(result is not None)}
    if name == "oracle.evaluate_lasso":
        return {"oracle.evaluate_lasso.calls": 1}
    return {}


class Tracer:
    """Spans and counters of one pass; install before the pass, uninstall after."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent id, query id)
        self.peaks: dict[int, int] = {}  # span id -> bytes
        self.counts: dict[str, int] = {}
        self.query = 0
        self._stack: list[list] = []  # [span id, base bytes, high-water bytes]
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1][0] if self._stack else None
            if self.memory:
                cur, peak = tracemalloc.get_traced_memory()
                if self._stack:
                    self._stack[-1][2] = max(self._stack[-1][2], peak)
                tracemalloc.reset_peak()
                self._stack.append([sid, cur, cur])
            else:
                self._stack.append([sid, 0, 0])
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                frame = self._stack.pop()
                if self.memory:
                    frame[2] = max(frame[2], tracemalloc.get_traced_memory()[1])
                    self.peaks[sid] = frame[2] - frame[1]
                    if self._stack:
                        self._stack[-1][2] = max(self._stack[-1][2], frame[2])
                self.spans[sid] = (sid, name, start, end, parent, self.query)
            for key, n in _sizes(name, result).items():
                self.counts[key] = self.counts.get(key, 0) + n
            return result

        return traced

    def install(self) -> None:
        """Patch the references other `nwaq` modules hold to each traced function.

        Calls inside a function's own module (the ratio search's threshold
        probes, say) stay unwrapped and count as that layer's own time.
        """
        modules = [m for n, m in sys.modules.items() if n == "nwaq" or n.startswith("nwaq.")]
        for mod_name, fn_name in LAYERS:
            original = getattr(sys.modules[mod_name], fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(mod_name[len("nwaq."):] + "." + fn_name, original)
            for m in modules:
                if m.__name__ == mod_name:
                    continue
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, wrapper)
        pipeline = getattr(sys.modules.get("nwaq.decide"), "Pipeline", None)
        for meth in PIPELINE_METHODS if pipeline is not None else ():
            original = pipeline.__dict__[meth]
            self._undo.append((pipeline, meth, original))
            setattr(pipeline, meth, self._wrap(PIPELINE, original))

    def entry(self, fn):
        """The benchmark's own call into the program, traced as `cli.main`."""
        return self._wrap("cli.main", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name, in seconds."""
        child = [0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start - child[sid]) / 1e9
        return out

    def peak_mb(self) -> dict[str, float]:
        """Largest allocation high-water per span name, in MB."""
        out: dict[str, float] = {}
        for sid, peak in self.peaks.items():
            name = self.spans[sid][1]
            out[name] = max(out.get(name, 0.0), peak / 2**20)
        return out

    def next_query(self) -> None:
        """Spans opened from now on belong to the next query."""
        self.query += 1

    def write(self, fh, pass_no: int) -> None:
        """One JSON line per span, tagged with the pass it was recorded in."""
        for sid, name, start, end, parent, query in self.spans:
            rec = {"pass": pass_no, "id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent, "query": query}
            if sid in self.peaks:
                rec["peak_bytes"] = self.peaks[sid]
            fh.write(json.dumps(rec) + "\n")
