"""Outside-in per-layer tracing for the dqn-mesh benchmark.

Wrappers are installed on the names that the calling modules look up
(``dqn_mesh.dqn.track_gradient``, ``dqn_mesh.ecdqn.kkt_solve``,
``SyncNetwork.mix``, the local objectives' gradient callables, ...), so
the program itself carries no instrumentation.  Spans record name, start,
end and parent; they stay in memory and are written out when the run
ends.  Layer times are self times: a span's duration minus the time its
child spans cover.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# per-layer metric -> (unit, kind, key): "span" reports the self time of
# the spans named key, "inclusive" their whole duration, "count" a counter
LAYER_METRICS = {
    "quasi_newton.refresh_s": ("s", "span", "qn.step_self"),
    "quasi_newton.safeguard_s": ("s", "span", "quasi_newton.safeguard"),
    "quasi_newton.safeguard_calls": ("count", "count", "quasi_newton.safeguard"),
    "quasi_newton.skipped_pairs": ("count", "count", "quasi_newton.skipped_pairs"),
    "ecdqn.kkt_s": ("s", "span", "ecdqn.kkt"),
    "ecdqn.kkt_calls": ("count", "count", "ecdqn.kkt"),
    "ecdqn.kkt_retries": ("count", "count", "ecdqn.kkt_retries"),
    "ecdqn.step_s": ("s", "inclusive", "ecdqn.step"),
    "dqn.step_s": ("s", "inclusive", "dqn.step"),
    "dqn.mix_s": ("s", "span", "dqn.mix"),
    "dqn.mix_calls": ("count", "count", "dqn.mix"),
    "dqn.mix_bytes": ("bytes", "count", "dqn.mix_bytes"),
    "dqn.track_s": ("s", "span", "dqn.track"),
    "dqn.record_s": ("s", "span", "dqn.run"),
    "dqn.to_csv_s": ("s", "span", "dqn.to_csv"),
    "problems.gradient_s": ("s", "span", "problems.gradient"),
    "problems.gradient_calls": ("count", "count", "problems.gradient"),
    "problems.objective_s": ("s", "span", "problems.objective"),
    "problems.load_s": ("s", "span", "problems.load"),
    "problems.reference_s": ("s", "span", "problems.reference"),
    "topology.graph_s": ("s", "span", "topology.graph"),
    "topology.weights_s": ("s", "span", "topology.weights"),
    "harness.tune_s": ("s", "span", "harness.tune"),
    "harness.probes": ("count", "count", "harness.probes"),
    "harness.probe_rounds": ("count", "count", "harness.probe_rounds"),
    "harness.emit_s": ("s", "span", "harness.emit"),
    "harness.validate_s": ("s", "span", "harness.validate"),
}


class Tracer:
    """In-memory span and counter store with wrapper factories."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count: bool = True):
        """Return fn wrapped in a span called ``name``; counts calls too."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append(None)
            self._stack.append(idx)
            if count:
                self.counts[name] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per-name self time and inclusive time over every recorded span."""
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        incl: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[idx]
            incl[name] += end - start
        own["qn.step_self"] = own.get("dqn.step", 0.0) + own.get("ecdqn.step", 0.0)
        return own, incl

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every per-layer metric, averaged over ``passes`` traced passes."""
        own, incl = self.self_times()
        out = {}
        for metric, (_, kind, key) in LAYER_METRICS.items():
            if kind == "span":
                value = own.get(key, 0.0)
            elif kind == "inclusive":
                value = incl.get(key, 0.0)
            else:
                value = float(self.counts.get(key, 0))
            out[metric] = value / passes
        return out

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent."""
        with open(path, "w") as fh:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


class Patches:
    """Monkeypatches that install a tracer; ``undo`` restores every name."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def counting_probes(tune, on_probe):
    """Wrap tune_step_size so that every probe's trace goes to on_probe."""

    def counted(run_fn, *args, **kwargs):
        def probe(alpha):
            trace = run_fn(alpha)
            on_probe(trace)
            return trace

        return tune(probe, *args, **kwargs)

    return counted


def instrument_problem(tracer: Tracer, problem) -> None:
    """Wrap every local objective's gradient callable in a span."""
    problem.locals[:] = [
        dataclasses.replace(loc, gradient=tracer.wrap("problems.gradient", loc.gradient))
        for loc in problem.locals
    ]


def install(tracer: Tracer) -> Patches:
    """Install every wrapper; returns the patches so they can be undone."""
    from dqn_mesh import dqn, ecdqn, harness, problems, topology

    p = Patches()
    w = tracer.wrap

    mix = dqn.SyncNetwork.mix

    def traced_mix(self, rows, account=True):
        before = int(self.sent_bytes.sum())
        out = mix(self, rows, account)
        tracer.counts["dqn.mix_bytes"] += int(self.sent_bytes.sum()) - before
        return out

    p.set(dqn.SyncNetwork, "mix", w("dqn.mix", traced_mix))
    p.set(problems.SeparableProblem, "objective_value",
          w("problems.objective", problems.SeparableProblem.objective_value))
    p.set(dqn.RunTrace, "to_csv", w("dqn.to_csv", dqn.RunTrace.to_csv))

    track = w("dqn.track", dqn.track_gradient)
    for mod in (dqn, ecdqn):
        p.set(mod, "track_gradient", track)
        p.set(mod, "pd_safeguard", w("quasi_newton.safeguard", mod.pd_safeguard))
        p.set(mod, "metropolis_weights", w("topology.weights", mod.metropolis_weights))
        curvature_ok = mod.curvature_ok

        def counted_curvature_ok(pair, *args, _ok=curvature_ok, **kwargs):
            ok = _ok(pair, *args, **kwargs)
            if not ok:
                tracer.counts["quasi_newton.skipped_pairs"] += 1
            return ok

        p.set(mod, "curvature_ok", counted_curvature_ok)

    p.set(dqn, "dqn_step", w("dqn.step", dqn.dqn_step))
    p.set(ecdqn, "ecdqn_step", w("ecdqn.step", ecdqn.ecdqn_step))

    kkt_solve = ecdqn.kkt_solve

    def counted_kkt_solve(system):
        try:
            return kkt_solve(system)
        except ecdqn.KktFactorizationError:
            tracer.counts["ecdqn.kkt_retries"] += 1
            raise

    p.set(ecdqn, "kkt_solve", w("ecdqn.kkt", counted_kkt_solve))

    for mod, names in ((dqn, ("dqn_run", "diging_atc_run")), (ecdqn, ("ecdqn_run",))):
        for name in names:
            traced_run = w("dqn.run", getattr(mod, name), count=False)
            p.set(mod, name, traced_run)
            p.set(harness, name, traced_run)

    def traced_generator(fn):
        def build(*args, **kwargs):
            problem = fn(*args, **kwargs)
            instrument_problem(tracer, problem)
            return problem

        return w("problems.load", build)

    for name in ("qp_family", "logreg_family", "basis_pursuit_family"):
        traced_gen = traced_generator(getattr(problems, name))
        p.set(problems, name, traced_gen)
        p.set(harness, name, traced_gen)
    p.set(problems, "load_problem", traced_generator(problems.load_problem))

    reference = w("problems.reference", problems.solve_reference)
    for mod in (problems, dqn, harness):
        p.set(mod, "solve_reference", reference)
    graph = w("topology.graph", topology.random_connected_graph)
    p.set(topology, "random_connected_graph", graph)
    p.set(harness, "random_connected_graph", graph)
    p.set(topology, "load_graph", w("topology.graph", topology.load_graph))

    def on_probe(trace):
        tracer.counts["harness.probes"] += 1
        tracer.counts["harness.probe_rounds"] += trace.rounds

    counted_tune = counting_probes(harness.tune_step_size, on_probe)
    p.set(harness, "tune_step_size", w("harness.tune", counted_tune, count=False))
    p.set(harness, "emit_report", w("harness.emit", harness.emit_report))
    p.set(harness, "validate_run", w("harness.validate", harness.validate_run))
    return p
