"""Spans and work counters at peakonlab's layer boundaries, patched from outside.

``Tracer.install`` wraps every public function of the seven package modules,
the public ``Trajectory`` methods and each module's scipy call sites
(``solve_ivp``, ``brentq``, ``quad``, ``simpson``) by replacing module and
class attributes; ``uninstall`` puts the originals back.  The package itself
is not modified.  A wrapper does nothing but call through unless the tracer
is enabled, so checks run between traced operations are not counted.

Each wrapped call is a span (name, start, end, parent).  Spans of the
hottest leaves (the ODE right-hand sides and the analytic integrands, called
hundreds of times per integration) are aggregated into counters only, so
that a traced round stays small in memory; every other span is kept and
written out when the run ends.

Self time: a span's *layer self time* is its duration minus the time of
descendant spans in other layers (same-layer children are included, so the
``solve_ivp`` call inside ``integrate`` counts as integrator time and the
right-hand sides it calls count as dynamics time).  A layer's self time is
the sum over its entry spans, i.e. spans whose parent is in another layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter
from time import perf_counter

LAYERS = ("dynamics", "params", "analytic", "integrator", "sobolev", "residual", "cli")
SCIPY_CALLS = ("solve_ivp", "brentq", "quad", "simpson")
TRAJECTORY_METHODS = ("sample", "sample_array", "sample_derivative", "separation")

#: aggregated into counters only; no span record is kept per call
HOT = frozenset({
    "dynamics.full_rhs_array",
    "dynamics.reduced_rhs_array",
    "analytic.f_density",
    "analytic.z_closed_form",
    "params.l_a",
})

#: DOP853 right-hand-side evaluations: 2 to start (f0 and the initial step
#: estimate), 12 per step attempt, 3 more per accepted step for dense output
DOP853_START, DOP853_PER_ATTEMPT, DOP853_DENSE = 2, 12, 3


def _whole(x: float):
    """x as an int when it is whole (the evaluation count decomposed exactly)."""
    return int(x) if float(x).is_integer() else x


class Tracer:
    def __init__(self):
        self.enabled = False
        self.round = 0
        self.spans = []  # (round, id, parent id, name, start, end)
        self._stack = []  # frames [layer, foreign time, id]
        self._next_id = 0
        self._undo = []
        self.reset()

    def reset(self) -> None:
        """Start a new set of counters (spans are kept)."""
        self.calls = Counter()
        self.inclusive = Counter()
        self.layer_self = Counter()  # per function name
        self.layer_total = Counter()  # per layer, over entry spans
        self.counts = Counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn, post=None):
        tracer = self
        hot = name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [layer, 0.0, tracer._next_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                tracer.calls[name] += 1
                tracer.inclusive[name] += dur
                tracer.layer_self[name] += own
                if parent is None or parent[0] != layer:
                    tracer.layer_total[layer] += own
                if parent is not None:
                    parent[1] += frame[1] if parent[0] == layer else dur
                if not hot:
                    tracer.spans.append((tracer.round, frame[2],
                                         parent[2] if parent else 0, name, t0, t1))
            if post is not None:
                post(result, args, kwargs)
            return result

        return wrapper

    def _count_solver(self, sol, args, kwargs) -> None:
        self.counts["integrator.solves"] += 1
        self.counts["integrator.nfev"] += int(sol.nfev)
        self.counts["integrator.steps"] += len(sol.t) - 1

    def _count_nodes(self, result, args, kwargs) -> None:
        x = kwargs.get("x")
        self.counts["residual.nodes"] += len(x if x is not None else args[0])

    def on_warning(self, *_args, **_kwargs) -> None:
        """Attribute a warning to the layer of the innermost open span."""
        if self.enabled:
            layer = self._stack[-1][0] if self._stack else "bench"
            self.counts[f"{layer}.warnings"] += 1

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        package = importlib.import_module("peakonlab")
        modules = {layer: importlib.import_module(f"peakonlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", layer, obj))
            # scipy call sites are wrapped per module, so each layer keeps its own
            for call in SCIPY_CALLS:
                if call in vars(mod):
                    post = {"solve_ivp": self._count_solver,
                            "simpson": self._count_nodes}.get(call)
                    self._set(mod, call, self._wrap(f"{layer}.{call}", layer,
                                                    getattr(mod, call), post))
        # rebind every reference to a wrapped function, including the names
        # other modules imported with ``from .x import f``
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._set(mod, attr, entry[1])
        traj = modules["integrator"].Trajectory
        for method in TRAJECTORY_METHODS:
            self._set(traj, method, self._wrap(f"integrator.Trajectory.{method}", "integrator",
                                               vars(traj)[method]))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """The deterministic part of a round: call and work counts."""
        out = {f"calls:{k}": v for k, v in self.calls.items()}
        out.update(self.counts)
        return out

    def layer_metrics(self, bytes_out: int) -> dict:
        """Per-layer metrics of the current round, as name -> (value, unit)."""
        c, incl, own, cnt = self.calls, self.inclusive, self.layer_self, self.counts
        nfev, steps, solves = cnt["integrator.nfev"], cnt["integrator.steps"], cnt["integrator.solves"]
        attempts = (nfev - DOP853_START * solves - DOP853_DENSE * steps) / DOP853_PER_ATTEMPT
        distances = c["sobolev.hs_distance"]
        analytic_calls = sum(v for k, v in c.items()
                             if k.startswith("analytic.") and k != "analytic.quad")
        rhs = ("dynamics.full_rhs_array", "dynamics.reduced_rhs_array")
        return {
            "dynamics.rhs_calls": (sum(c[k] for k in rhs), "count"),
            "dynamics.rhs_s": (sum(incl[k] for k in rhs), "s"),
            "params.spec_calls": (c["params.case_spec_for"], "count"),
            "params.spec_s": (incl["params.case_spec_for"], "s"),
            "analytic.calls": (analytic_calls, "count"),
            "analytic.quad_calls": (c["analytic.quad"], "count"),
            "analytic.self_s": (self.layer_total["analytic"], "s"),
            "integrator.integrate_calls": (c["integrator.integrate"], "count"),
            "integrator.nfev": (nfev, "count"),
            "integrator.steps": (steps, "count"),
            "integrator.rejected": (_whole(attempts - steps), "count"),
            "integrator.accept_ratio": (steps / attempts if attempts else 0.0, "ratio"),
            "integrator.refine_calls": (c["integrator.brentq"], "count"),
            "integrator.integrate_self_s": (own["integrator.integrate"], "s"),
            "integrator.sample_calls": (c["integrator.Trajectory.sample"], "count"),
            "integrator.sample_s": (incl["integrator.Trajectory.sample"], "s"),
            "integrator.reversed_s": (incl["integrator.integrate_reversed"], "s"),
            "sobolev.distance_calls": (distances, "count"),
            "sobolev.quad_calls": (c["sobolev.quad"], "count"),
            "sobolev.quad_per_distance": (c["sobolev.quad"] / distances if distances else 0.0,
                                          "ratio"),
            "sobolev.self_s": (self.layer_total["sobolev"], "s"),
            "sobolev.warnings": (cnt["sobolev.warnings"], "count"),
            "residual.points": (c["residual.pde_residual"], "count"),
            "residual.simpson_calls": (c["residual.simpson"], "count"),
            "residual.nodes": (cnt["residual.nodes"], "count"),
            "residual.self_s": (self.layer_total["residual"], "s"),
            "cli.commands": (c["cli.main"], "count"),
            "cli.self_s": (self.layer_total["cli"], "s"),
            "cli.bytes_out": (bytes_out, "bytes"),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("round,id,parent,name,start_s,end_s\n")
            for rnd, sid, parent, name, t0, t1 in self.spans:
                fh.write(f"{rnd},{sid},{parent},{name},{t0:.9f},{t1:.9f}\n")
