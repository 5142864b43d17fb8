"""Command-line front end: canned runs, the collapse certificate and sweeps.

Subcommands
-----------
run-case  integrate a preset or custom configuration and export the time
          series (t, q1, q2, p1, p2, q, h, w, z, z_closed_form and any
          requested H^s distances), the event table and a manifest.
certify   run a case to its terminal event, build the limiting profile,
          check the three certificate ingredients (finite stopping time,
          bounded momenta, H^s distances decreasing below threshold) plus
          a time-reversal round trip, and write a report.
sweep     run a grid of (a, b) points and tabulate case, separation,
          rate bound and event outcome per point.

All file outputs are written atomically; a run's manifest.json contains
every resolved parameter and can be fed back through --config to
reproduce the run exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .analytic import InvariantContext, z_closed_form
from .dynamics import PeakonState
from .integrator import (
    DEFAULT_HORIZON,
    EventKind,
    IntegrationConfig,
    IntegrationError,
    Representation,
    integrate,
    integrate_reversed,
)
from .params import (
    ABParams,
    CaseSpec,
    case_epsilon,
    case_spec_for,
    collision_time_bound,
    make_initial_profile,
)
from .sobolev import H_S_LIMIT, collision_function, hs_distances

#: (a, b) supplied by each named preset
PRESET_AB = {
    "case1": (1.0 / 3.0, 3.0),
    "case2": (1.0 / 3.0, 1.0),
    "case3": (-1.0, 3.0),
    "case4": (-1.0, 0.0),
    "forq": (1.0 / 3.0, 2.0),
    "novikov-reduced": (0.0, 3.0),
}

DISTANCE_THRESHOLD = 1e-3
REVERSAL_TOL = 1e-6
APPROACH_EXPONENTS = tuple(range(2, 7))  # sample times T - 10^-k

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


@dataclass
class ExperimentConfig:
    """Fully explicit run description; every field lands in the manifest."""

    case: str = "case1"
    a: Optional[float] = None
    b: Optional[float] = None
    alpha: float = 1.0
    delta: float = 0.5
    mu: Optional[float] = None
    c: Optional[float] = None
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    event_tol: float = 1e-12
    max_time: Optional[float] = None
    representation: Optional[str] = None
    s_values: tuple = ()
    sample_count: int = 400
    out: str = "runs"
    format: str = "csv"
    workers: int = 1
    a_grid: tuple = (1.0 / 3.0, -1.0 / 3.0, 1.0, -1.0)
    b_grid: tuple = (0.0, 1.0, 3.0, 4.0)

    _FLOAT_OPT = ("a", "b", "mu", "c", "max_time")
    _FLOAT = ("alpha", "delta", "rel_tol", "abs_tol", "event_tol")
    _TUPLE = ("s_values", "a_grid", "b_grid")
    _INT = ("sample_count", "workers")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        cfg = cls()
        for key, raw in mapping.items():
            name = key.replace("-", "_")
            if not hasattr(cfg, name) or name.startswith("_"):
                raise ValueError(f"unknown configuration key: {key}")
            if raw is None:
                continue  # an unset optional stays at its default
            if name in cls._TUPLE:
                if isinstance(raw, str):
                    raw = [v for v in raw.replace(",", " ").split() if v]
                value = tuple(float(v) for v in raw)
            elif name in cls._FLOAT_OPT:
                value = None if raw in (None, "", "none") else float(raw)
            elif name in cls._FLOAT:
                value = float(raw)
            elif name in cls._INT:
                value = int(raw)
            else:
                value = str(raw)
            setattr(cfg, name, value)
        if cfg.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {cfg.format!r}")
        if cfg.representation not in (None, "full", "reduced"):
            raise ValueError(f"unknown representation {cfg.representation!r}")
        return cfg

    def to_manifest(self) -> dict:
        return {
            "tool": "peakonlab",
            "version": __version__,
            "case": self.case,
            "a": self.a,
            "b": self.b,
            "alpha": self.alpha,
            "delta": self.delta,
            "mu": self.mu,
            "c": self.c,
            "rel_tol": self.rel_tol,
            "abs_tol": self.abs_tol,
            "event_tol": self.event_tol,
            "max_time": self.max_time,
            "representation": self.representation,
            "s_values": list(self.s_values),
            "sample_count": self.sample_count,
            "out": self.out,
            "format": self.format,
            "workers": self.workers,
            "a_grid": list(self.a_grid),
            "b_grid": list(self.b_grid),
        }


@dataclass
class ResolvedRun:
    label: str
    params: ABParams
    initial: PeakonState
    spec: Optional[CaseSpec]
    integration: IntegrationConfig
    epsilon: Optional[float]
    time_bound: Optional[float]


def _resolve(cfg: ExperimentConfig, require_case: bool = False) -> ResolvedRun:
    name = cfg.case
    if name not in PRESET_AB and name != "custom":
        raise ValueError(f"unknown case {name!r}; choose from "
                         f"{sorted(PRESET_AB)} or 'custom'")
    preset_a, preset_b = PRESET_AB.get(name, (None, None))
    a = cfg.a if cfg.a is not None else preset_a
    b = cfg.b if cfg.b is not None else preset_b
    if a is None or b is None:
        raise ValueError("custom runs need both --a and --b")
    params = ABParams(a=a, b=b)

    rep_name = cfg.representation
    if rep_name is None:
        rep_name = "reduced" if name == "novikov-reduced" else "full"
    representation = Representation(rep_name)

    if name in ("forq", "novikov-reduced"):
        if require_case:
            raise ValueError(
                f"{name}: no collapse construction exists at this parameter point"
            )
        mu = cfg.mu if cfg.mu is not None else 0.1
        initial = PeakonState(p1=cfg.alpha + cfg.delta, p2=cfg.alpha, q1=0.0, q2=mu)
        spec, eps, bound = None, None, None
        max_time = cfg.max_time if cfg.max_time is not None else DEFAULT_HORIZON
    else:
        spec = case_spec_for(params, cfg.alpha, cfg.delta, mu=cfg.mu, c=cfg.c)
        if name != "custom" and spec.case_id.value != name:
            raise ValueError(
                f"(a, b) = ({a:g}, {b:g}) belongs to {spec.case_id.value}, not {name}"
            )
        initial = make_initial_profile(spec)
        eps = case_epsilon(spec, params)
        bound = collision_time_bound(spec, params)
        max_time = cfg.max_time if cfg.max_time is not None else 10.0 * bound

    integration = IntegrationConfig(
        rel_tol=cfg.rel_tol,
        abs_tol=cfg.abs_tol,
        max_time=max_time,
        event_tol=cfg.event_tol,
        representation=representation,
    )
    label = name if name != "custom" else (
        spec.case_id.value if spec is not None else "custom"
    )
    return ResolvedRun(label, params, initial, spec, integration, eps, bound)


# ---------------------------------------------------------------------------
# output helpers

def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".tmp-{path.name}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _write_table(path: Path, columns: Sequence[str], rows, fmt: str) -> None:
    if fmt == "json":
        payload = {"columns": list(columns), "data": [[_fmt(v) for v in row] for row in rows]}
        _write_atomic(path.with_suffix(".json"), json.dumps(payload, indent=1) + "\n")
    else:
        lines = [",".join(columns)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_atomic(path.with_suffix(".csv"), "\n".join(lines) + "\n")


def _write_manifest(outdir: Path, cfg: ExperimentConfig, extra: dict) -> None:
    manifest = cfg.to_manifest()
    manifest.update(extra)
    _write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=1) + "\n")


def _sample_times(t_end: float, count: int) -> np.ndarray:
    ts = list(np.linspace(0.0, t_end, count))
    ts += [t_end - 10.0**-k for k in APPROACH_EXPONENTS if 0.0 < t_end - 10.0**-k < t_end]
    return np.unique(np.array(ts))


def _resolved_extra(run: ResolvedRun) -> dict:
    extra = {
        "resolved_a": run.params.a,
        "resolved_b": run.params.b,
        "resolved_case": run.label,
        "resolved_max_time": run.integration.max_time,
        "resolved_representation": run.integration.representation.value,
        "initial_state": list(run.initial.as_array()),
    }
    if run.spec is not None:
        extra.update(
            resolved_mu=run.spec.mu,
            resolved_c=run.spec.c,
            epsilon=run.epsilon,
            collision_time_bound=run.time_bound,
        )
    if run.label == "case2":
        extra["notes"] = (
            "run stops at the first separation zero; the peaks would "
            "repeatedly leapfrog past it, and continuation is out of scope"
        )
    return extra


def _z_column(ctx: Optional[InvariantContext], q: np.ndarray) -> np.ndarray:
    """Closed-form momentum product per row; nan where it is not defined."""
    if ctx is None:
        return np.full_like(q, math.nan)
    try:
        return z_closed_form(ctx, q)
    except ValueError:  # an exploratory run left the sign-definite range somewhere
        return np.array([_z_or_nan(ctx, v) for v in q])


def _z_or_nan(ctx: InvariantContext, q: float) -> float:
    try:
        return z_closed_form(ctx, q)
    except ValueError:
        return math.nan


# ---------------------------------------------------------------------------
# subcommands

def run_case(cfg: ExperimentConfig) -> int:
    """Integrate one configuration and export trajectory, events, manifest."""
    run = _resolve(cfg)
    for s in cfg.s_values:
        if s >= H_S_LIMIT:
            print(f"error: s = {s} >= 3/2 is outside the admissible range", file=sys.stderr)
            return EXIT_CONFIG
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    traj = integrate(run.initial, run.params, run.integration)

    collision = None
    if traj.terminal_event.kind is not EventKind.HORIZON and cfg.s_values:
        collision = collision_function(traj)
    ctx = None
    if run.params.a != 0.0:
        ctx = InvariantContext.from_initial(run.params, run.initial)

    columns = ["t", "q1", "q2", "p1", "p2", "q", "h", "w", "z", "z_closed_form"]
    columns += [f"dist_s{s:g}" for s in cfg.s_values]
    ts = _sample_times(traj.t_end, cfg.sample_count)
    states = traj.sample_array(ts)
    p1, p2, q1, q2 = states.T
    q = q2 - q1
    table = [ts, q1, q2, p1, p2, q, p2 - p1, p1 + p2, p1 * p2, _z_column(ctx, q)]
    for s in cfg.s_values:
        table.append(
            hs_distances(states, collision, s) if collision is not None
            else np.full_like(ts, math.nan)
        )
    rows = np.column_stack(table).tolist()
    _write_table(outdir / "trajectory", columns, rows, cfg.format)

    ev_rows = [
        [rec.kind.value, rec.time, rec.state.p1, rec.state.p2, rec.state.q1, rec.state.q2]
        for rec in traj.events
    ]
    _write_table(outdir / "events", ["kind", "time", "p1", "p2", "q1", "q2"], ev_rows, cfg.format)
    _write_manifest(outdir, cfg, _resolved_extra(run))

    term = traj.terminal_event
    print(f"{run.label}: terminated by {term.kind.value} at t = {term.time:.9g}; "
          f"wrote {outdir}/")
    if run.label == "case2":
        print("note: later separation zeros exist (the peaks leapfrog); "
              "continuation past the first one is out of scope")
    return EXIT_OK


def certify_nonuniqueness(cfg: ExperimentConfig) -> int:
    """Check the collapse-certificate ingredients for one case and report."""
    s_values = cfg.s_values or (0.5, 1.0, 1.4)
    for s in s_values:
        if s >= H_S_LIMIT:
            print(f"error: s = {s} >= 3/2 rejected (certificate needs s < 3/2)",
                  file=sys.stderr)
            return EXIT_CONFIG
    try:
        run = _resolve(cfg, require_case=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    failures = []
    traj = integrate(run.initial, run.params, run.integration)
    term = traj.terminal_event
    finite_T = term.kind is not EventKind.HORIZON
    if not finite_T:
        failures.append("finite stopping time: run reached the horizon")
    T = term.time

    arr = np.array([st.as_array() for st in traj.states])
    p_max = {"p1": float(np.max(np.abs(arr[:, 0]))), "p2": float(np.max(np.abs(arr[:, 1])))}
    bounded = all(math.isfinite(v) for v in p_max.values()) and bool(
        np.all(np.isfinite(arr))
    )
    if not bounded:
        failures.append("bounded momenta: non-finite state encountered")

    distances = {}
    monotone = {}
    below = {}
    if finite_T:
        collision = collision_function(traj)
        ks = [k for k in APPROACH_EXPONENTS if T - 10.0**-k > 0.0]
        approach = traj.sample_array([T - 10.0**-k for k in ks])
        for s in s_values:
            vals = hs_distances(approach, collision, s).tolist()
            distances[f"{s:g}"] = vals
            monotone[f"{s:g}"] = all(b < a for a, b in zip(vals, vals[1:]))
            below[f"{s:g}"] = bool(vals[-1] <= DISTANCE_THRESHOLD)
            if not monotone[f"{s:g}"]:
                failures.append(f"distance monotonicity at s = {s:g}")
            if not below[f"{s:g}"]:
                failures.append(
                    f"distance threshold at s = {s:g}: "
                    f"final {vals[-1]:.3e} > {DISTANCE_THRESHOLD:g}"
                )

        t_back = T - 1e-3 if T > 1e-3 else 0.5 * T
        state_back = traj.sample(t_back)
        back = integrate_reversed(state_back, run.params, run.integration, t_back)
        rev_err = float(
            np.max(np.abs(back.terminal_event.state.as_array() - run.initial.as_array()))
        )
        reversal_ok = rev_err <= REVERSAL_TOL
        if not reversal_ok:
            failures.append(f"time-reversal round trip: error {rev_err:.3e} > {REVERSAL_TOL:g}")
    else:
        collision = None
        rev_err = math.nan
        reversal_ok = False
        failures.append("no terminal event, certificate cannot be assembled")

    report = {
        "case": run.label,
        "a": run.params.a,
        "b": run.params.b,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "mu": run.spec.mu if run.spec else None,
        "c": run.spec.c if run.spec else None,
        "epsilon": run.epsilon,
        "collision_time_bound": run.time_bound,
        "s_values": list(s_values),
        "T": T if finite_T else None,
        "event": term.kind.value,
        "collision_point": (
            {"p_star": collision.p_star, "q_star": collision.q_star} if collision else None
        ),
        "momenta_max": p_max,
        "finite_T": finite_T,
        "bounded": bounded,
        "distances": distances,
        "monotone": monotone,
        "below_threshold": below,
        "threshold": DISTANCE_THRESHOLD,
        "reversal_error": rev_err,
        "reversal_ok": reversal_ok,
        "passed": not failures,
        "failures": failures,
    }
    _write_atomic(outdir / "report.json", json.dumps(report, indent=1) + "\n")
    _write_manifest(outdir, cfg, _resolved_extra(run))

    if failures:
        print(f"certificate FAILED: {failures[0]}", file=sys.stderr)
        for extra_failure in failures[1:]:
            print(f"  also: {extra_failure}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"certificate PASS for {run.label}: T = {T:.9g} ({term.kind.value}), "
          f"distances decreasing below {DISTANCE_THRESHOLD:g}")
    return EXIT_OK


def _sweep_point(cfg: ExperimentConfig, a: float, b: float) -> list:
    try:
        point = replace(cfg, case="custom", a=a, b=b)
        run = _resolve(point, require_case=True)
        traj = integrate(run.initial, run.params, run.integration)
        term = traj.terminal_event
        ok_bound = term.kind is not EventKind.HORIZON and term.time <= run.time_bound
        return [
            a, b, run.spec.case_id.value, run.spec.mu, run.epsilon,
            term.time, "yes" if ok_bound else "no", term.kind.value, "ok",
        ]
    except Exception as exc:  # per-point failures recorded, sweep continues
        return [a, b, "-", math.nan, math.nan, math.nan, "no", "-", f"error: {exc}"]


def sweep(cfg: ExperimentConfig) -> int:
    """Run the (a, b) grid and tabulate collision outcomes per point."""
    if any(a == 0.0 for a in cfg.a_grid):
        print("error: sweep grid contains a = 0 (no construction there)", file=sys.stderr)
        return EXIT_CONFIG
    if any(b == 2.0 for b in cfg.b_grid):
        print("error: sweep grid contains b = 2 (degenerate, momenta frozen)",
              file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    points = [(a, b) for a in cfg.a_grid for b in cfg.b_grid]
    workers = max(1, cfg.workers)
    if points:
        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(lambda ab: _sweep_point(cfg, *ab), points))
        else:
            rows = [_sweep_point(cfg, a, b) for a, b in points]
    else:
        rows = []
    columns = ["a", "b", "case", "mu", "epsilon", "T", "T_within_bound", "event", "status"]
    _write_table(outdir / "sweep", columns, rows, cfg.format)
    _write_manifest(outdir, cfg, {"points": len(rows)})
    bad = [row for row in rows if row[-1] != "ok"]
    print(f"sweep: {len(rows)} points, {len(bad)} failures; wrote {outdir}/")
    for row in bad:
        print(f"  (a={row[0]:g}, b={row[1]:g}): {row[-1]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        derived = ("tool", "version", "initial_state", "epsilon",
                   "collision_time_bound", "points", "notes")
        return {k: v for k, v in data.items()
                if not k.startswith("resolved_") and k not in derived}
    mapping = {}
    for line_number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_number}: expected 'key = value'")
        key, _, value = line.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="key = value file or a manifest.json")
    p.add_argument("--case", help="case1..case4, forq, novikov-reduced or custom")
    p.add_argument("--a", type=float, help="equation parameter a")
    p.add_argument("--b", type=float, help="equation parameter b")
    p.add_argument("--alpha", type=float, help="peakon magnitude scale (default 1)")
    p.add_argument("--delta", type=float, help="magnitude asymmetry (default 0.5)")
    p.add_argument("--mu", type=float, help="initial peak separation override")
    p.add_argument("--c", type=float, help="separation design constant in (1, 2)")
    p.add_argument("--s", type=float, action="append", dest="s_values",
                   help="Sobolev index (repeatable)")
    p.add_argument("--rel-tol", type=float, dest="rel_tol")
    p.add_argument("--abs-tol", type=float, dest="abs_tol")
    p.add_argument("--event-tol", type=float, dest="event_tol")
    p.add_argument("--max-time", type=float, dest="max_time")
    p.add_argument("--representation", choices=["full", "reduced"])
    p.add_argument("--sample-count", type=int, dest="sample_count")
    p.add_argument("--out", help="output directory (default runs)")
    p.add_argument("--format", choices=["csv", "json"])
    p.add_argument("--workers", type=int, help="sweep concurrency cap")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peakonlab",
        description="two-peakon collision laboratory for the cubic (a, b) family",
    )
    parser.add_argument("--version", action="version", version=f"peakonlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("run-case", "integrate one configuration and export its time series"),
        ("certify", "assemble the nonuniqueness certificate for a case"),
        ("sweep", "tabulate collision outcomes over an (a, b) grid"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--a-grid", dest="a_grid", help="comma-separated a values")
            p.add_argument("--b-grid", dest="b_grid", help="comma-separated b values")
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    mapping = {}
    if args.config:
        mapping.update(_load_config_file(args.config))
    for key, value in vars(args).items():
        if key in ("command", "config") or value is None:
            continue
        mapping[key] = value
    return ExperimentConfig.from_mapping(mapping)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "run-case":
            return run_case(cfg)
        if args.command == "certify":
            return certify_nonuniqueness(cfg)
        return sweep(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
