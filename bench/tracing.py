"""Per-layer metrics: spans recorded from outside ``propeng``.

``Tracer.install`` replaces each public function of interest by a wrapper in
the namespace its caller looks it up in (``consistency`` imports ``run`` and
``apply_step`` by name, ``reducers`` imports ``join_constraints`` and
``reselect`` by name; ``engine`` calls ``apply_step``, ``probe_function``
and ``lattice.leq`` through module globals).  A span has a name, a start, an
end and a parent; spans stay in memory and are summed per pass.  A layer's
self time is its spans' durations minus those of their direct children.
"""

from __future__ import annotations

import json
import statistics
import time
import types
from collections import Counter
from pathlib import Path

# per-layer metric -> unit, in the order of BENCHMARK.json's per_layer list
PER_LAYER = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, parent index, start, end, call]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.call = 0
        self._undo: list[tuple] = []

    def span(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` may
        add counts."""

        def wrapper(*args, **kwargs):
            rec = [name, self.stack[-1] if self.stack else None,
                   time.perf_counter(), None, self.call]
            self.stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, cli, consistency, csp, engine, lattice, reducers, textio) -> None:
        def count_changed(args, result):
            self.counts["engine.changed"] += bool(result[1])

        def count_join(args, result):
            self.counts["csp.join_tuples"] += len(result.tuples)

        def count_steps(args, result):
            n = result.trace.total_applications
            self.counts["engine.trace_steps_max"] = max(
                self.counts["engine.trace_steps_max"], n)

        apply_step = self.span("engine.apply", engine.apply_step, count_changed)
        run_engine = self.span("engine.run", engine.run, count_steps)

        def run_consistency(functions, *args, **kwargs):
            self.counts["consistency.functions"] += len(functions)
            return run_engine(functions, *args, **kwargs)

        rebuild = self.span("reducers.rebuild", reducers.csp_from_domain_state)
        for owner, attr, wrapper in [
            (textio, "parse_csp", self.span("textio.parse", textio.parse_csp)),
            (textio, "csp_to_obj", self.span("textio.emit", textio.csp_to_obj)),
            (cli, "json", types.SimpleNamespace(
                dumps=self.span("textio.emit", cli.json.dumps))),
            (csp, "validate", self.span("csp.validate", csp.validate)),
            (consistency, "achieve", self.span("consistency.achieve", consistency.achieve)),
            (consistency, "run", run_consistency),
            (consistency, "apply_step", apply_step),
            (consistency, "csp_from_domain_state", rebuild),
            (engine, "run", run_engine),
            (engine, "apply_step", apply_step),
            (engine, "probe_function", self.span("engine.probe", engine.probe_function)),
            (lattice, "leq", self.counter("lattice.leq_calls", lattice.leq)),
            (reducers, "join_constraints",
             self.span("csp.join", reducers.join_constraints, count_join)),
            (reducers, "reselect", self.span("csp.reselect", reducers.reselect)),
            (reducers, "csp_from_domain_state", rebuild),
            (reducers, "build_named_reducers",
             self.span("reducers.build", reducers.build_named_reducers)),
            (reducers.ConstraintSpace, "rebuild",
             self.span("reducers.rebuild", reducers.ConstraintSpace.rebuild)),
        ]:
            self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.call = 0

    def layers(self, factors: list[float], bytes_in: int) -> dict[str, float]:
        """One pass's per-layer figures; the times of call ``k`` are
        multiplied by ``factors[k]``."""
        total: Counter = Counter()
        self_time: Counter = Counter()
        n: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, parent, start, end, call in self.spans:
            if parent is not None:
                child[parent] += (end - start) * factors[call]
        for (name, parent, start, end, call), inner in zip(self.spans, child):
            dur = (end - start) * factors[call]
            total[name] += dur
            n[name] += 1
            self_time[name] += dur - inner
        apps = n["engine.apply"]
        c = self.counts
        return {
            "engine.run_s": total["engine.run"],
            "engine.sched_s": self_time["engine.run"],
            "engine.apply_s": total["engine.apply"],
            "engine.probe_s": total["engine.probe"],
            "engine.applications": apps,
            "engine.changed": c["engine.changed"],
            "engine.useful_ratio": c["engine.changed"] / apps if apps else 0.0,
            "engine.probes": n["engine.probe"],
            "engine.trace_steps_max": c["engine.trace_steps_max"],
            "lattice.leq_calls": c["lattice.leq_calls"],
            "csp.join_s": total["csp.join"],
            "csp.join_calls": n["csp.join"],
            "csp.join_tuples": c["csp.join_tuples"],
            "csp.reselect_s": total["csp.reselect"],
            "csp.validate_s": total["csp.validate"],
            "consistency.build_s": self_time["consistency.achieve"],
            "consistency.functions": c["consistency.functions"],
            "reducers.build_s": total["reducers.build"],
            "reducers.rebuild_s": total["reducers.rebuild"],
            "textio.parse_s": total["textio.parse"],
            "textio.emit_s": total["textio.emit"],
            "textio.bytes_in": bytes_in,
            "cli.self_s": self_time["cli.main"],
        }

    def span_records(self) -> list[dict]:
        t0 = self.spans[0][2] if self.spans else 0.0
        return [{"id": k, "name": name, "parent": parent, "call": call,
                 "start": start - t0, "end": end - t0}
                for k, (name, parent, start, end, call) in enumerate(self.spans)]


def traced_run(runner, clock_type, seconds: float, out_dir: Path, label: str) -> dict:
    """Alternate untraced and traced passes for ``seconds``; report the
    median per-layer figures of the traced passes and the tracing overhead
    (median traced pass minus median untraced pass).  The spans of the first
    traced pass and the per-layer figures, rescaled and raw, go to
    ``out_dir/trace-<label>.json``."""
    from propeng import cli, consistency, csp, engine, lattice, reducers, textio

    tracer = Tracer()
    bytes_in = sum(len(c.text.encode()) for c in runner.calls)
    traced, untraced, layers, raw_layers = [], [], [], []
    spans = None
    runner.run_pass(None)                          # warm-up
    clock = clock_type()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not layers:
        untraced.append(runner.run_pass(clock)[0])
        tracer.install(cli, consistency, csp, engine, lattice, reducers, textio)
        factors: list[float] = []
        try:
            def around(k, fn):
                tracer.call = k
                return tracer.span("cli.main", fn)

            traced.append(runner.run_pass(clock, around, factors)[0])
        finally:
            tracer.uninstall()
        layers.append(tracer.layers(factors, bytes_in))
        raw_layers.append(tracer.layers([1.0] * len(factors), bytes_in))
        if spans is None:
            spans = tracer.span_records()
        tracer.reset()

    overhead = statistics.median(traced) - statistics.median(untraced)
    metrics = {name: statistics.median(p[name] for p in layers)
               for name in PER_LAYER if name != "trace.overhead_s"}
    metrics["trace.overhead_s"] = overhead
    raw = {name: statistics.median(p[name] for p in raw_layers)
           for name in PER_LAYER if name != "trace.overhead_s"}
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{label}.json").write_text(json.dumps({
        "passes": len(layers),
        "traced_pass_s": statistics.median(traced),
        "untraced_pass_s": statistics.median(untraced),
        "per_layer": metrics,
        "per_layer_raw": raw,
        "spans": spans,
    }, indent=1))
    return {name: {"value": value, "unit": PER_LAYER[name]}
            for name, value in metrics.items()}
