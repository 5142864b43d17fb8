"""The sweep as first written: each grid point resolved and integrated on
its own, and its row built from that run or from the error it raised.

Kept as the oracle for ``cli.sweep``, which integrates the points in
lockstep.
"""

import math
from dataclasses import replace

from peakonlab import EventKind, integrate
from peakonlab.cli import _resolve


def sweep_point(cfg, a: float, b: float) -> list:
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


def sweep_rows(cfg) -> list:
    return [sweep_point(cfg, a, b) for a in cfg.a_grid for b in cfg.b_grid]
