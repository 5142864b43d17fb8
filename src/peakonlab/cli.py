"""peakonlab: a two-peakon collision laboratory for the cubic (a, b) family.

usage: peakonlab run-case|certify|sweep [--flag value | --flag=value] ...

run-case  integrate one configuration; export its time series (t, q1, q2, p1,
          p2, q, h, w, z, z_closed_form and any H^s distances), the event table
          and a manifest
certify   run a case to its terminal event; check finite stopping time, bounded
          momenta, H^s distances to the limiting profile decreasing below
          threshold and a time-reversal round trip; write a report
sweep     tabulate case, separation, rate bound and event outcome per point of
          an (a, b) grid

Every flag is a configuration key, "_" written "-", and takes the next token as
its value, even one that begins with "-"; "none" unsets an optional float.
--config FILE       key = value file or a manifest.json; flags override it
--case NAME         case1..case4, forq, novikov-reduced or custom
--a, --b            equation parameters a and b
--alpha, --delta    peakon magnitude scale (default 1) and asymmetry (default 0.5)
--mu, --c           initial peak separation override; separation design constant
                    in (1, 2); not both, since mu determines c
--rel-tol, --abs-tol, --max-time, --representation (full or reduced); a located
                    event's residual |g(T)| is held to 1e-12 (integrator.EVENT_TOL)
--s                 Sobolev index (repeatable; the key s_values)
--sample-count N    uniform sample times, at most 1000000 (default 400)
--format, --out     csv or json; the output directory (default runs)
--a-grid, --b-grid  sweep only: comma-separated a and b values
-h, --help; --version

File outputs are written atomically; a run's manifest.json holds every resolved
parameter and, fed back through --config, reproduces the run.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Collection, Optional, Sequence

import numpy as np

from . import __version__
from .analytic import InvariantContext, _z_parts
from .dynamics import PeakonState, to_reduced
from .integrator import (
    DEFAULT_HORIZON,
    EventKind,
    IntegrationConfig,
    IntegrationError,
    Representation,
    integrate,
    integrate_reversed,
    terminal_events,
)
from .params import (
    DEFAULT_ALPHA,
    DEFAULT_DELTA,
    DEFAULT_SMALL_MU,
    ABParams,
    CaseSpec,
    case_epsilon,
    case_spec_for,
    collision_time_bound,
    make_initial_profile,
)
from .sobolev import _check_index, collision_function, hs_distances

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
_APPROACH_OFFSETS = np.array([10.0**-k for k in APPROACH_EXPONENTS])

MAX_SAMPLE_COUNT = 1_000_000

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


@dataclass
class ExperimentConfig:
    """Fully explicit run description; every field lands in the manifest."""

    case: str = "case1"
    a: Optional[float] = None
    b: Optional[float] = None
    alpha: float = DEFAULT_ALPHA
    delta: float = DEFAULT_DELTA
    mu: Optional[float] = None
    c: Optional[float] = None
    rel_tol: float = IntegrationConfig.rel_tol
    abs_tol: float = IntegrationConfig.abs_tol
    max_time: Optional[float] = None
    representation: Optional[str] = None
    s_values: tuple = ()
    sample_count: int = 400
    out: str = "runs"
    format: str = "csv"
    a_grid: tuple = (1.0 / 3.0, -1.0 / 3.0, 1.0, -1.0)
    b_grid: tuple = (0.0, 1.0, 3.0, 4.0)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ExperimentConfig":
        """The configuration of a mapping from field names ("-" may stand for
        "_") to values: strings from flags or a key = value file, numbers and
        lists from a JSON file, each converted by its field's annotation."""
        cfg = cls()
        types = {f.name: f.type for f in fields(cls)}  # annotations, as strings
        for key, raw in mapping.items():
            name = key.replace("-", "_")
            if name not in types:
                raise ValueError(f"unknown configuration key: {key}")
            if raw is None:
                continue  # an unset optional stays at its default
            kind = types[name]
            if kind == "Optional[float]" and raw in ("", "none"):
                value = None
            elif kind == "tuple":
                items = (raw.replace(",", " ").split() if isinstance(raw, str)
                         else _convert(list, name, raw))
                value = tuple(_convert(float, name, v) for v in items)
            elif kind in ("float", "Optional[float]", "int"):
                value = _convert(int if kind == "int" else float, name, raw)
            else:
                value = str(raw)
            setattr(cfg, name, value)
        if cfg.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {cfg.format!r}")
        if cfg.representation not in (None, "full", "reduced"):
            raise ValueError(f"unknown representation {cfg.representation!r}")
        if cfg.mu is not None and cfg.c is not None:  # mu sets c through L_a(mu) = c a
            raise ValueError("--mu and --c cannot be given together: mu determines c")
        if cfg.sample_count < 0:
            raise ValueError(f"sample count must be non-negative, got {cfg.sample_count}")
        if cfg.sample_count > MAX_SAMPLE_COUNT:  # before numpy tries to allocate them
            raise ValueError(f"sample count must be at most {MAX_SAMPLE_COUNT}, "
                             f"got {cfg.sample_count}")
        labels = {}  # the distance columns and report keys are named f"{s:g}"
        for s in cfg.s_values:  # an index the H^s distances reject, before any run
            _check_index(s)
            label = f"{s:g}"
            if label in labels:
                raise ValueError(f"argument --s: the indices {labels[label]!r} and {s!r} "
                                 f"share the label s{label}")
            labels[label] = s
        return cfg

    def to_manifest(self) -> dict:
        # the fields' own values: the manifest is only serialised, so a deep
        # copy (dataclasses.asdict) would only cost time
        return {"tool": "peakonlab", "version": __version__,
                **{f.name: getattr(self, f.name) for f in fields(self)}}


def _flag(name: str) -> str:
    """The command-line flag of a configuration field."""
    return "--s" if name == "s_values" else "--" + name.replace("_", "-")


COMMANDS = ("run-case", "certify", "sweep")
#: flag -> configuration key; sweep alone takes --a-grid and --b-grid
FLAGS = {"--config": "config", **{_flag(f.name): f.name for f in fields(ExperimentConfig)}}


def _convert(kind: type, name: str, raw):
    """``kind(raw)``, or the one-line error that names the field's flag; a JSON
    true or false is no number, and an int field takes whole numbers only."""
    try:
        if isinstance(raw, bool) or (kind is int and isinstance(raw, float)
                                     and not raw.is_integer()):
            raise ValueError
        return kind(raw)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"argument {_flag(name)}: invalid {kind.__name__} value: "
                         f"{raw!r}") from None


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
        mu = cfg.mu if cfg.mu is not None else DEFAULT_SMALL_MU
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
        representation=representation,
    )
    label = name if name != "custom" else (
        spec.case_id.value if spec is not None else "custom"
    )
    return ResolvedRun(label, params, initial, spec, integration, eps, bound)


# ---------------------------------------------------------------------------
# output helpers

def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(f".tmp-{path.name}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _needs_quotes(text: str) -> bool:
    """Whether ``text`` holds a comma, a quote or a line break.  Each ``in``
    is a memchr-speed scan; a regex character class takes about 5 ns a
    character, 0.1 ms on a 20 kB column of the sweep joined into one string."""
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _csv_field(text: str) -> str:
    """A string as one CSV field: quoted, with quotes doubled, only where it
    holds a comma, a quote or a line break."""
    if _needs_quotes(text):
        return '"' + text.replace('"', '""') + '"'
    return text


_SPLITTER = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_POW10 = 10.0 ** np.arange(22)  # 10^0 .. 10^21, each an exact double
_DIGITS4 = np.indices((10,) * 4, dtype=np.int8).reshape(4, -1)  # the digits of 0000 .. 9999
#: the characters of each group of four digits, 0000 .. 9999, as one 4-byte item
_GROUP_TEXT = np.ascontiguousarray(_DIGITS4.T + ord("0"), np.uint8).view(np.uint32)[:, 0]
#: at 10000 j + g: the place among N's 17 digits of the last nonzero digit of g
#: as N's j-th group of four (digits 4j + 1 .. 4j + 4), or 0 for g = 0000
_LAST_PLACE = np.max((_DIGITS4 > 0) * (np.arange(1, 5)[:, None] + 4 * np.arange(4)[:, None, None]),
                     axis=1).astype(np.int8).ravel()
_GROUP_BASE = 10000 * np.arange(4)[:, None]
_CELL_WIDTH = 25  # a sign, the 22 characters of "0.000" and 17 digits, a separator;
#                   '%.17g' writes at most 24 characters
_THROUGH = np.arange(_CELL_WIDTH) <= np.arange(_CELL_WIDTH)[:, None]  # row e: columns 0..e
_FLOAT_BLOCK = 1 << 16  # cells per _float_rows pass, which holds about 300 bytes a cell


def _times_pow10(x: np.ndarray, k: np.ndarray) -> tuple:
    """hi + lo = x 10^k exactly, hi the rounded product (Dekker's two-product;
    T. J. Dekker, Numer. Math. 18, 1971)."""
    p = np.take(_POW10, k)
    hi = x * p
    c = _SPLITTER * x
    xh = c - (c - x)
    xl = x - xh
    c = _SPLITTER * p
    ph = c - (c - p)
    pl = p - ph
    return hi, ((xh * ph - hi) + xh * pl + xl * ph) + xl * pl


def _float_rows(table: np.ndarray) -> str:
    """The rows of a 2-D float array as CSV text, "," between cells and "\\n"
    after each row, each cell the exact characters of ``"%.17g" % v``.

    Where 1e-4 <= |v| < 1e16, %.17g writes v in fixed notation from its
    decimal exponent D in [-4, 15]: the 17-digit integer N nearest to
    |v| 10^(16-D), ties to even, with "." after digit D (D >= 0) or after
    "0" and -D-1 zeros (D < 0), trailing zeros and a bare "." dropped.
    10^(16-D) is an exact double, so |v| 10^(16-D) = hi + lo exactly, and
    from 1e16 > 2^53 on hi is an even integer: N = hi + rint(lo).  No double
    in the range rounds up to 10^17, the next decade (the largest below each
    power of ten stays 8 or more units below it).  Every other cell (0, -0,
    nan, +-inf, |v| < 1e-4, |v| >= 1e16) is written by '%.17g' itself.

    The cells are laid out in one (cells, 25) byte array, a sign column
    first, sorted by D so that each exponent's layout is a slice; one mask
    keeps each cell's characters and its separator."""
    ncol = table.shape[1]
    x = table.ravel()
    n = x.size
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    ax[~fast] = 1.0  # any value in the range; '%.17g' writes these cells
    d = np.floor(np.log10(ax)).astype(np.int64)  # D, or one off
    hi, lo = _times_pow10(ax, 16 - d)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))  # hi + lo < 10^16
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))  # hi + lo >= 10^17
    if low.any() or high.any():
        d += high
        d -= low
        hi, lo = _times_pow10(ax, 16 - d)
    order = np.argsort(d.astype(np.int8), kind="stable")
    back = np.empty_like(order)
    back[order] = np.arange(n)

    # in the order of D: N as its leading digit and four groups of four, and
    # the place of the last nonzero digit among the 17
    big = np.take(hi.astype(np.int64) + np.rint(lo).astype(np.int64), order)
    lead = big // 10**16
    rest = big - lead * 10**16
    groups = np.empty((4, n), np.int64)
    for j, unit in enumerate((10**12, 10**8, 10**4)):
        groups[j] = rest // unit
        rest -= groups[j] * unit
    groups[3] = rest
    last = np.take(_LAST_PLACE, groups + _GROUP_BASE).max(axis=0)  # 0: the leading digit
    words = np.empty((n, 5), np.uint32)  # per cell 3 spare bytes, the lead, 4 groups
    words[:, 1:] = np.take(_GROUP_TEXT, groups).T
    digits = words.view(np.uint8)[:, 3:]
    digits[:, 0] = lead + ord("0")

    cells = np.full((n, _CELL_WIDTH), ord("0"), np.uint8)
    cells[:, 0] = ord("-")
    stop = 0
    for exp, count in enumerate(np.bincount(d + 4, minlength=20).tolist(), -4):
        if not count:
            continue
        start, stop = stop, stop + count
        block, src = cells[start:stop], digits[start:stop]
        if exp >= 0:
            block[:, 1:exp + 2] = src[:, :exp + 1]
            block[:, exp + 2] = ord(".")
            block[:, exp + 3:19] = src[:, exp + 1:]
        else:  # the zeros after "0." are there already
            block[:, 2] = ord(".")
            block[:, 2 - exp:19 - exp] = src
    cells = np.take(cells, back, axis=0)
    last = np.take(last, back)

    end = np.where(last > d, last + 2 - np.minimum(d, 0), d + 1) + 1  # the separator's column
    keep_sign = x < 0
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = ["%.17g" % v for v in x[slow].tolist()]
        cells[slow, :24] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        end[slow] = [len(t) for t in text]
        keep_sign[slow] = True
    at = np.arange(0, n * _CELL_WIDTH, _CELL_WIDTH) + end
    cells.reshape(-1)[at] = ord(",")
    cells.reshape(-1)[at[ncol - 1::ncol]] = ord("\n")
    keep = np.take(_THROUGH, end, axis=0)
    keep[:, 0] = keep_sign
    return cells[keep].tobytes().decode("ascii")


def _write_table(path: Path, columns: Sequence[str], data: Sequence, fmt: str,
                 text: Collection[str] = ()) -> None:
    """Write a table given column by column: ``data`` holds one sequence per
    name in ``columns``, or none for a table without rows.  Columns named in
    ``text`` hold strings, written as they are; every other column holds
    floats, written as '%.17g' writes them, so they read back exactly.

    A table of floats only (the trajectory) is formatted by ``_float_rows``
    in numpy passes over all its cells, 2^16 at a time: the CSV body is
    their text, and the JSON cells are that text split at "," and line
    ends.  A table with a text column (the events and the sweep) fills a
    "%s,%.17g,..." row template per row: its floats are one row (events)
    or one column beside eight text ones (sweep), and the numpy pass costs
    about 0.15 ms a call whatever the table's size, where the template
    takes 5 us on one row."""
    header = ",".join(map(_csv_field, columns)) + "\n"
    if not any(name in text for name in columns):
        table = np.array(data, dtype=float).reshape(len(columns), -1).T.copy()
        step = max(1, _FLOAT_BLOCK // len(columns))
        body = "".join(_float_rows(table[i:i + step]) for i in range(0, len(table), step))
        if fmt == "json":
            rows = [line.split(",") for line in body.splitlines()]
            payload = {"columns": list(columns), "data": rows}
            _write_atomic(path.with_suffix(".json"), json.dumps(payload, indent=1) + "\n")
        else:
            _write_atomic(path.with_suffix(".csv"), header + body)
        return
    specs = ["%s" if name in text else "%.17g" for name in columns]
    data = [col.tolist() if isinstance(col, np.ndarray) else col for col in data]
    if fmt == "json":
        cells = [list(map(spec.__mod__, col)) for spec, col in zip(specs, data)]
        payload = {"columns": list(columns), "data": [list(row) for row in zip(*cells)]}
        _write_atomic(path.with_suffix(".json"), json.dumps(payload, indent=1) + "\n")
    else:
        # one scan of a text column tells whether any cell needs quotes;
        # a column that does holds a handful of distinct cells: quote each once
        data = [list(map({v: _csv_field(v) for v in set(col)}.__getitem__, col))
                if name in text and _needs_quotes("\0".join(col)) else col
                for name, col in zip(columns, data)]
        row = ",".join(specs) + "\n"
        lines = [header]
        lines += [row % cells for cells in zip(*data)]
        _write_atomic(path.with_suffix(".csv"), "".join(lines))


def _write_manifest(outdir: Path, cfg: ExperimentConfig, extra: dict) -> None:
    manifest = cfg.to_manifest()
    manifest.update(extra)
    _write_atomic(outdir / "manifest.json", json.dumps(manifest, indent=1) + "\n")


def _sample_times(t_end: float, count: int) -> np.ndarray:
    """``count`` times evenly spaced on [0, t_end] and the approach times
    t_end - 10^-k inside (0, t_end), sorted, each once."""
    approach = t_end - _APPROACH_OFFSETS
    approach = approach[(0.0 < approach) & (approach < t_end)]
    return np.unique(np.concatenate((np.linspace(0.0, t_end, count), approach)))


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
    """Closed-form momentum product per row; nan where it is not defined
    (an exploratory run may leave the sign-definite range of L_a)."""
    if ctx is None:
        return np.full_like(q, math.nan)
    return _z_parts(ctx, q)[0]


# ---------------------------------------------------------------------------
# subcommands

def run_case(cfg: ExperimentConfig) -> int:
    """Integrate one configuration and export trajectory, events, manifest."""
    run = _resolve(cfg)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    traj = integrate(run.initial, run.params, run.integration)

    collision = None
    if traj.terminal_event.kind is not EventKind.HORIZON and cfg.s_values:
        collision = collision_function(traj)
    ctx = None
    # z(q) is derived for a != 0 and the order q2 >= q1
    if run.params.a != 0.0 and run.initial.q2 >= run.initial.q1:
        ctx = InvariantContext.from_initial(run.params, run.initial)

    columns = ["t", "q1", "q2", "p1", "p2", "q", "h", "w", "z", "z_closed_form"]
    columns += [f"dist_s{s:g}" for s in cfg.s_values]
    ts = _sample_times(traj.t_end, cfg.sample_count)
    states = traj.sample_array(ts)
    p1, p2, q1, q2 = states.T
    q, h, w, z = to_reduced(p1, p2, q1, q2)
    table = [ts, q1, q2, p1, p2, q, h, w, z, _z_column(ctx, q)]
    if collision is not None:
        table += list(hs_distances(states, collision, cfg.s_values))
    else:
        table += [np.full_like(ts, math.nan)] * len(cfg.s_values)
    _write_table(outdir / "trajectory", columns, table, cfg.format)

    term = traj.terminal_event
    st = term.state
    _write_table(outdir / "events", ["kind", "time", "p1", "p2", "q1", "q2"],
                 [(term.kind.value,), (term.time,), (st.p1,), (st.p2,), (st.q1,), (st.q2,)],
                 cfg.format, text=("kind",))
    _write_manifest(outdir, cfg, _resolved_extra(run))

    print(f"{run.label}: terminated by {term.kind.value} at t = {term.time:.9g}; "
          f"wrote {outdir}/")
    if run.label == "case2":
        print("note: later separation zeros exist (the peaks leapfrog); "
              "continuation past the first one is out of scope")
    return EXIT_OK


def certify_nonuniqueness(cfg: ExperimentConfig) -> int:
    """Check the collapse-certificate ingredients for one case and report."""
    s_values = cfg.s_values or (0.5, 1.0, 1.4)
    run = _resolve(cfg, require_case=True)
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)

    failures = []
    traj = integrate(run.initial, run.params, run.integration)
    term = traj.terminal_event
    finite_T = term.kind is not EventKind.HORIZON
    if not finite_T:
        failures.append("finite stopping time: run reached the horizon")
    T = term.time

    arr = traj.state_array
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
        if not ks:
            failures.append(f"distance sequence: T = {T:.3g} leaves no approach time "
                            f"T - 10^-k, k = {APPROACH_EXPONENTS[0]}..{APPROACH_EXPONENTS[-1]}")
        approach = traj.sample_array([T - 10.0**-k for k in ks])
        rows = hs_distances(approach, collision, s_values).tolist() if ks else []
        for s, vals in zip(s_values, rows):
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
        rev_err = None  # no reversed run; JSON has no NaN
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
    _write_atomic(outdir / "report.json", json.dumps(report, indent=1, allow_nan=False) + "\n")
    _write_manifest(outdir, cfg, _resolved_extra(run))

    if failures:
        print(f"certificate FAILED: {failures[0]}", file=sys.stderr)
        for other in failures[1:]:
            print(f"  also: {other}", file=sys.stderr)
        return EXIT_FAILURE
    print(f"certificate PASS for {run.label}: T = {T:.9g} ({term.kind.value}), "
          f"distances decreasing below {DISTANCE_THRESHOLD:g}")
    return EXIT_OK


def _sweep_nodes(cfg: ExperimentConfig) -> list:
    """Per node 2 i + (b > 2) of the grid's i-th a: ``_resolve`` of the custom
    case at a and the first b on that side of b = 2, or the error it raises;
    None for a side without a b.  Only a point's params depend on b itself,
    the rest on a and its case (the side of b = 2), so the points of a node
    share it, and each distinct (a, side) is resolved once."""
    first = {b > 2.0: b for b in reversed(cfg.b_grid)}
    resolved, nodes = {}, []
    for a in cfg.a_grid:
        for above in (False, True):
            if above in first and (a, above) not in resolved:
                try:
                    resolved[a, above] = _resolve(
                        replace(cfg, case="custom", a=a, b=first[above]), require_case=True)
                except Exception as exc:  # the same for every b of this node
                    resolved[a, above] = exc.with_traceback(None)
            nodes.append(resolved.get((a, above)))
    return nodes


def _cells(values, index) -> list:
    """The cells of the floats ``values[index]``, each value formatted once."""
    text = ["%.17g" % v for v in values]
    return [text[i] for i in index.tolist()]


def sweep(cfg: ExperimentConfig) -> int:
    """Run the (a, b) grid and tabulate collision outcomes per point."""
    if not all(map(math.isfinite, (*cfg.a_grid, *cfg.b_grid))):
        raise ValueError("sweep grid contains a value that is not finite")
    if any(a == 0.0 for a in cfg.a_grid):
        raise ValueError("sweep grid contains a = 0 (no construction there)")
    if any(b == 2.0 for b in cfg.b_grid):
        raise ValueError("sweep grid contains b = 2 (degenerate, momenta frozen)")
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    nodes = _sweep_nodes(cfg)
    runs = [node if isinstance(node, ResolvedRun) else None for node in nodes]
    # per node: mu, epsilon, the initial state, the horizon and the rate bound
    values = np.array([[run.spec.mu, run.epsilon, *run.initial.as_array(),
                        run.integration.max_time, run.time_bound] if run else [math.nan] * 8
                       for run in runs]).reshape(-1, 8)
    node = (2 * np.arange(len(cfg.a_grid))[:, None] + (np.array(cfg.b_grid) > 2.0)).ravel()
    a, b = np.repeat(cfg.a_grid, len(cfg.b_grid)), np.tile(cfg.b_grid, len(cfg.a_grid))
    p1, p2, q1, q2, horizon, bound = values[node, 2:].T
    T, ends = np.full(node.size, math.nan), np.array(nodes, dtype=object)[node]
    j = np.flatnonzero(~np.isnan(horizon))  # the points whose node resolved
    if j.size:
        T[j], ends[j] = terminal_events(a[j], b[j], p1[j], p2[j], q1[j], q2[j], horizon[j],
                                        next(filter(None, runs)).integration)
    ends = ends.tolist()  # an event kind, or the error of the point's resolution or run
    ok = [isinstance(end, EventKind) for end in ends]
    within = np.array([end is not EventKind.HORIZON for end in ends], dtype=bool) & (T <= bound)
    cases = [run.spec.case_id.value if run else "-" for run in runs]
    # the grid repeats a, b, mu and epsilon; index -1 is NaN, at a failed point
    a_at, b_at = np.divmod(np.arange(node.size), len(cfg.b_grid))
    at = np.where(ok, node, -1)
    columns = {
        "a": _cells(cfg.a_grid, a_at), "b": _cells(cfg.b_grid, b_at),
        "case": [cases[k] if good else "-" for k, good in zip(node.tolist(), ok)],
        "mu": _cells([*values[:, 0].tolist(), math.nan], at),
        "epsilon": _cells([*values[:, 1].tolist(), math.nan], at), "T": T,
        "T_within_bound": np.where(within, "yes", "no").tolist(),
        "event": [end.value if good else "-" for end, good in zip(ends, ok)],
        "status": ["ok" if good else f"error: {end}" for end, good in zip(ends, ok)],
    }
    _write_table(outdir / "sweep", list(columns), list(columns.values()), cfg.format,
                 text=("a", "b", "case", "mu", "epsilon", "T_within_bound", "event", "status"))
    _write_manifest(outdir, cfg, {"points": len(node)})
    bad = [i for i, good in enumerate(ok) if not good]
    print(f"sweep: {len(node)} points, {len(bad)} failures; wrote {outdir}/")
    for i in bad:
        print(f"  (a={a[i]:g}, b={b[i]:g}): {columns['status'][i]}")
    return EXIT_FAILURE if bad and len(bad) == len(node) else EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing

def _load_config_file(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        # derived values, "workers" from manifests written when sweep still
        # had a thread pool, and "event_tol" from those written when the
        # event residual bound was an option
        derived = ("tool", "version", "initial_state", "epsilon",
                   "collision_time_bound", "points", "notes", "workers", "event_tol")
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


def _parse(argv: Sequence[str]) -> tuple:
    """(command, mapping) of ``COMMAND --flag value ...``: each flag maps to
    its key in ``FLAGS``, with the next token as its value, whatever it
    begins with, or the text after "=" in ``--flag=value``; the values of --s
    are listed, and the file of --config is kept under "config"."""
    command, mapping = None, {}
    tokens = iter(argv)
    for token in tokens:
        if token in ("-h", "--help", "--version"):
            print(f"peakonlab {__version__}" if token == "--version" else (__doc__ or "").rstrip())
            raise SystemExit(EXIT_OK)
        if command is None:
            if token not in COMMANDS:
                raise ValueError(f"argument command: invalid choice: {token!r} "
                                 f"(choose from {', '.join(map(repr, COMMANDS))})")
            command = token
            continue
        flag, joined, value = token.partition("=")
        name = FLAGS.get(flag)
        if name is None or (name in ("a_grid", "b_grid") and command != "sweep"):
            raise ValueError(f"unrecognized arguments: {token}")
        if not joined:
            value = next(tokens, None)
            if value is None:
                raise ValueError(f"argument {flag}: expected one argument")
        if name == "s_values":
            mapping.setdefault(name, []).append(value)
        else:
            mapping[name] = value
    if command is None:
        raise ValueError("the following arguments are required: command")
    return command, mapping


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, flags = _parse(argv)
        mapping = _load_config_file(flags.pop("config")) if "config" in flags else {}
        cfg = ExperimentConfig.from_mapping({**mapping, **flags})
        run = {"run-case": run_case, "certify": certify_nonuniqueness, "sweep": sweep}
        return run[command](cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"error: integration failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
