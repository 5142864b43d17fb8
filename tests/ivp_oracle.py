"""scipy's DOP853 on the two-peakon fields: the oracle for the package's stepper.

This is the solve path the package used before it owned its stepper:
``scipy.integrate.solve_ivp`` with method DOP853 and dense output, at the
tolerances of the given ``IntegrationConfig``, its terminal event search,
and a ``brentq`` refinement on the dense output wherever the located event
leaves |g| above ``event_tol``.  It integrates the numpy forms of the fields
(``full_rhs_array`` with the initial orientation, ``reduced_rhs_array`` with
q1' taken from the full field), so it shares the field formulas with the
package and nothing of its stepper, event search or interpolant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from peakonlab import EventKind, IntegrationConfig, PeakonState, Representation
from peakonlab.integrator import DEFAULT_HORIZON
from peakonlab.dynamics import full_rhs_array, reduced_rhs_array


@dataclass(frozen=True)
class OracleRun:
    kind: EventKind
    time: float
    sol: object  # scipy's OdeSolution on [0, time]
    to_array: object  # raw states (components first) -> [p1, p2, q1, q2] rows
    steps: int  # accepted steps
    rejected: int  # rejected step attempts

    def sample_array(self, ts) -> np.ndarray:
        return self.to_array(self.sol(np.asarray(ts, dtype=float))).T

    @property
    def state(self) -> np.ndarray:
        return self.sample_array([self.time])[0]


def _reduced_to_array(y) -> np.ndarray:
    q, h, w, _, q1 = y
    return np.array([0.5 * (w - h), 0.5 * (h + w), q1, q1 + q])


def _field(initial: PeakonState, a: float, b: float, representation: Representation):
    """(y0, rhs, to_array, [(kind, g)]) of one representation."""
    if representation is Representation.REDUCED:
        y0 = np.array([initial.q2 - initial.q1, initial.p2 - initial.p1,
                       initial.p1 + initial.p2, initial.p1 * initial.p2, initial.q1])

        def rhs(t, y):
            p1, p2 = 0.5 * (y[2] - y[1]), 0.5 * (y[1] + y[2])
            dq1 = full_rhs_array(np.array([p1, p2, 0.0, y[0]]), a, b, 1.0)[2]
            return np.append(reduced_rhs_array(y[:4], a, b), dq1)

        gs = [lambda t, y: y[0], lambda t, y: 0.5 * (y[2] - y[1]),
              lambda t, y: 0.5 * (y[1] + y[2])]
        to_array = _reduced_to_array
    else:
        y0 = initial.as_array()
        sigma = 1.0 if initial.q2 >= initial.q1 else -1.0
        rhs = lambda t, y: full_rhs_array(y, a, b, sigma)
        gs = [lambda t, y: y[3] - y[2], lambda t, y: y[0], lambda t, y: y[1]]
        to_array = lambda y: y
    kinds = (EventKind.COLLISION, EventKind.MOMENTUM_ZERO_1, EventKind.MOMENTUM_ZERO_2)
    events = [(k, g) for i, (k, g) in enumerate(zip(kinds, gs)) if i == 0 or g(0.0, y0) != 0.0]
    for _, g in events:
        g.terminal = True
    return y0, rhs, to_array, events


def _refine(dense, g, lo: float, hi: float, event_tol: float) -> float:
    glo, ghi = g(lo, dense(lo)), g(hi, dense(hi))
    if abs(glo) <= event_tol:
        return lo
    if abs(ghi) <= event_tol or glo * ghi > 0:
        return hi
    return float(brentq(lambda t: g(t, dense(t)), lo, hi, xtol=1e-15, rtol=8.9e-16))


def _run(y0, rhs, to_array, events, config: IntegrationConfig, t_end: float) -> OracleRun:
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(rhs, (0.0, t_end), y0, method="DOP853", rtol=config.rel_tol,
                        atol=config.abs_tol, dense_output=True,
                        events=[g for _, g in events] or None)
    assert sol.status != -1, sol.message
    # scipy's DOP853 evaluates the field twice to start, 12 times per step
    # attempt and 3 times per accepted step for the dense output
    steps = len(sol.t) - 1
    counts = dict(steps=steps, rejected=(sol.nfev - 2 - 3 * steps) // 12 - steps)
    for (kind, g), t_ev in zip(events, sol.t_events or ()):
        for t in t_ev:
            t = float(t)
            if abs(g(t, sol.sol(t))) > config.event_tol:
                slack = 10 * config.rel_tol * max(1.0, abs(t))
                t = _refine(sol.sol, g, max(0.0, t - slack - 1e-13),
                            min(t_end, t + slack + 1e-13), config.event_tol)
            return OracleRun(kind, t, sol.sol, to_array, **counts)
    return OracleRun(EventKind.HORIZON, t_end, sol.sol, to_array, **counts)


def integrate_oracle(initial: PeakonState, a: float, b: float,
                     config: IntegrationConfig) -> OracleRun:
    """``integrate`` through solve_ivp: the first event or the horizon."""
    y0, rhs, to_array, events = _field(initial, a, b, config.representation)
    t_end = config.max_time if config.max_time is not None else DEFAULT_HORIZON
    return _run(y0, rhs, to_array, events, config, t_end)


def reversed_oracle(state: PeakonState, a: float, b: float, config: IntegrationConfig,
                    duration: float) -> OracleRun:
    """``integrate_reversed`` through solve_ivp: the negated full field."""
    y0, rhs, to_array, _ = _field(state, a, b, Representation.FULL)
    return _run(y0, lambda t, y: -rhs(t, y), to_array, [], config, duration)
