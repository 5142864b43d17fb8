"""Adaptive integration with event detection for the two-peakon flow.

Runs either the full (p1, p2, q1, q2) system or the reduced (q, h, w, z)
system (carrying q1 alongside so states can always be reconstructed) with
an explicit 8th-order embedded pair, dense output and root-finding on the
three event functions

    g1 = q2 - q1   (collision),
    g2 = p1        (first momentum vanishing),
    g3 = p2        (second momentum vanishing).

Integration stops at the first event; continuation past it is left to the
caller, since that is exactly where the solution concept stops being
unique.  Momentum events are armed only for momenta that start nonzero,
so degenerate single-peakon runs do not fire them at t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from .dynamics import PeakonState, full_rhs_array, reduced_rhs_array
from .params import ABParams

DEFAULT_HORIZON = 100.0
_SOLVER_METHOD = "DOP853"


class Representation(Enum):
    FULL = "full"
    REDUCED = "reduced"


class EventKind(Enum):
    COLLISION = "collision"
    MOMENTUM_ZERO_1 = "p1-zero"
    MOMENTUM_ZERO_2 = "p2-zero"
    HORIZON = "horizon"


@dataclass(frozen=True)
class IntegrationConfig:
    """Solver tolerances, horizon and state representation."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_time: Optional[float] = None  # None resolves to DEFAULT_HORIZON
    event_tol: float = 1e-12
    representation: Representation = Representation.FULL

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0 or self.event_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_time is not None and self.max_time <= 0:
            raise ValueError("max_time must be positive")


@dataclass(frozen=True)
class EventRecord:
    """A located event: what fired, when, and the state there."""

    kind: EventKind
    time: float
    state: PeakonState


class IntegrationError(RuntimeError):
    """Solver failure, carrying the last state it could produce."""

    def __init__(self, message: str, last_time: float, last_state: PeakonState):
        super().__init__(f"{message} (last good state at t = {last_time:.6g})")
        self.last_time = last_time
        self.last_state = last_state


def _full_to_array(y) -> np.ndarray:
    return y


def _reduced_to_array(y) -> np.ndarray:
    """(q, h, w, z, q1) rows, with any trailing shape, to [p1, p2, q1, q2] rows."""
    q, h, w, _, q1 = y
    return np.array([0.5 * (w - h), 0.5 * (h + w), q1, q1 + q])


def _state(to_array: Callable, y) -> PeakonState:
    return PeakonState.from_array(to_array(y))


class Trajectory:
    """Accepted steps, located events and a dense interpolant.

    Immutable once produced.  ``sample`` evaluates the dense output and is
    valid on [t0, t_end]; ``sample_array`` does the same for a whole time
    vector in one interpolant call (the interpolant is elementwise in t, so
    its rows equal ``sample``'s bit for bit); ``sample_derivative`` returns
    the exact field at the sampled state, which for a genuine solution
    equals the curve's time derivative.
    """

    def __init__(
        self,
        params: ABParams,
        config: IntegrationConfig,
        times: np.ndarray,
        raw_states: np.ndarray,
        events: Sequence[EventRecord],
        dense,
        to_array: Callable,
        rhs: Callable,
        time_sign: float = 1.0,
    ):
        self.params = params
        self.config = config
        self.times = times
        self._raw = raw_states
        self.events = tuple(events)
        self._dense = dense
        self._to_array = to_array  # raw solver states -> [p1, p2, q1, q2]
        self._rhs = rhs
        self._time_sign = time_sign

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def states(self) -> tuple:
        return tuple(map(PeakonState.from_array, self._to_array(self._raw).T))

    @property
    def terminal_event(self) -> EventRecord:
        return self.events[-1]

    def sample(self, t: float) -> PeakonState:
        if not (self.t0 - 1e-12 <= t <= self.t_end + 1e-12):
            raise ValueError(f"t = {t} outside [{self.t0}, {self.t_end}]")
        return _state(self._to_array, self._dense(t))

    def sample_array(self, ts) -> np.ndarray:
        """States at the given times as an (n, 4) array [p1, p2, q1, q2]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        outside = (ts < self.t0 - 1e-12) | (ts > self.t_end + 1e-12)
        if outside.any():
            raise ValueError(f"t = {ts[outside][0]} outside [{self.t0}, {self.t_end}]")
        return self._to_array(self._dense(ts)).T

    def sample_derivative(self, t: float) -> np.ndarray:
        """d/dt of [p1, p2, q1, q2] along the trajectory at time t."""
        state = self.sample(t)
        return self._time_sign * full_rhs_array(state.as_array(), self.params.a, self.params.b)

    def separation(self, t: float) -> float:
        st = self.sample(t)
        return st.q2 - st.q1


def _event_functions(representation: Representation, y0) -> list:
    """Terminal event functions; momentum events armed only if p_i(0) != 0."""
    if representation is Representation.FULL:
        g_coll = lambda t, y: y[3] - y[2]
        g_p1 = lambda t, y: y[0]
        g_p2 = lambda t, y: y[1]
        p1_0, p2_0 = y0[0], y0[1]
    else:
        g_coll = lambda t, y: y[0]
        g_p1 = lambda t, y: 0.5 * (y[2] - y[1])
        g_p2 = lambda t, y: 0.5 * (y[1] + y[2])
        p1_0, p2_0 = 0.5 * (y0[2] - y0[1]), 0.5 * (y0[1] + y0[2])

    events = [(EventKind.COLLISION, g_coll)]
    if p1_0 != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_1, g_p1))
    if p2_0 != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_2, g_p2))
    for _, g in events:
        g.terminal = True
        g.direction = 0
    return events


def _refine_event(dense, g, t_lo: float, t_hi: float, event_tol: float) -> float:
    """Tighten an event time on the dense output until |g| <= event_tol."""
    glo, ghi = g(t_lo, dense(t_lo)), g(t_hi, dense(t_hi))
    if abs(glo) <= event_tol:
        return t_lo
    if abs(ghi) <= event_tol:
        return t_hi
    if glo * ghi > 0:
        return t_hi
    return float(brentq(lambda t: g(t, dense(t)), t_lo, t_hi, xtol=1e-15, rtol=8.9e-16))


def integrate(
    initial: PeakonState,
    params: ABParams,
    config: IntegrationConfig = IntegrationConfig(),
) -> Trajectory:
    """Integrate from ``initial`` until the first event or the horizon.

    The trajectory ends exactly at the located event time; a run that
    reaches the horizon gets a HORIZON event record rather than an error.
    Step-size failure raises IntegrationError with the last good state.
    """
    rep = config.representation
    if rep is Representation.REDUCED:
        if initial.q2 <= initial.q1:
            raise ValueError("reduced representation requires q2 > q1")
        y0 = np.array(
            [
                initial.q2 - initial.q1,
                initial.p2 - initial.p1,
                initial.p1 + initial.p2,
                initial.p1 * initial.p2,
                initial.q1,
            ]
        )

        def rhs(t, y):
            d = np.empty(5)
            d[:4] = reduced_rhs_array(y[:4], params.a, params.b)
            p1, p2 = 0.5 * (y[2] - y[1]), 0.5 * (y[1] + y[2])
            e1 = math.exp(-y[0])
            d[4] = (
                (1.0 - params.a) * p1 * p1
                + 2.0 * p1 * p2 * e1
                + (1.0 - 3.0 * params.a) * p2 * p2 * e1 * e1
            )
            return d

        to_array = _reduced_to_array
    else:
        y0 = initial.as_array()
        rhs = lambda t, y: full_rhs_array(y, params.a, params.b)
        to_array = _full_to_array

    t_max = config.max_time if config.max_time is not None else DEFAULT_HORIZON
    events = _event_functions(rep, y0)
    sol = solve_ivp(
        rhs,
        (0.0, t_max),
        y0,
        method=_SOLVER_METHOD,
        rtol=config.rel_tol,
        atol=config.abs_tol,
        dense_output=True,
        events=[g for _, g in events],
    )
    if sol.status == -1:
        raise IntegrationError(sol.message, float(sol.t[-1]), _state(to_array, sol.y[:, -1]))

    records = []
    for (kind, g), t_ev in zip(events, sol.t_events):
        for t in t_ev:
            t = float(t)
            if abs(g(t, sol.sol(t))) > config.event_tol:
                lo = max(0.0, t - 10 * config.rel_tol * max(1.0, abs(t)) - 1e-13)
                hi = min(t_max, t + 10 * config.rel_tol * max(1.0, abs(t)) + 1e-13)
                t = _refine_event(sol.sol, g, lo, hi, config.event_tol)
            state = _state(to_array, sol.sol(t))
            records.append(EventRecord(kind=kind, time=t, state=state))
    records.sort(key=lambda r: r.time)
    if sol.status == 0:
        state = _state(to_array, sol.sol(t_max))
        records.append(EventRecord(kind=EventKind.HORIZON, time=t_max, state=state))

    return Trajectory(
        params=params,
        config=config,
        times=sol.t,
        raw_states=sol.y,
        events=records,
        dense=sol.sol,
        to_array=to_array,
        rhs=rhs,
    )


def integrate_reversed(
    from_state: PeakonState,
    params: ABParams,
    config: IntegrationConfig,
    duration: float,
) -> Trajectory:
    """Run the time-reversed field for a fixed duration (no event stops).

    Composing a forward run to time tau with a reversed run of duration
    tau returns the initial state up to accumulated solver error.  The
    returned trajectory uses its own clock on [0, duration] and always
    integrates the full representation, whatever the forward run used.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    rep = config.representation
    if rep is Representation.REDUCED and from_state.q2 <= from_state.q1:
        raise ValueError("reduced representation requires q2 > q1")
    y0 = from_state.as_array()
    rhs = lambda t, y: -full_rhs_array(y, params.a, params.b)
    to_array = _full_to_array
    if duration == 0.0:
        times = np.array([0.0])
        dense = lambda t: np.multiply.outer(y0, np.ones(np.shape(t)))
        rec = EventRecord(EventKind.HORIZON, 0.0, from_state)
        return Trajectory(params, config, times, y0[:, None], [rec], dense, to_array, rhs,
                          time_sign=-1.0)

    sol = solve_ivp(
        rhs,
        (0.0, duration),
        y0,
        method=_SOLVER_METHOD,
        rtol=config.rel_tol,
        atol=config.abs_tol,
        dense_output=True,
    )
    if sol.status == -1:
        raise IntegrationError(sol.message, float(sol.t[-1]), _state(to_array, sol.y[:, -1]))
    rec = EventRecord(EventKind.HORIZON, duration, _state(to_array, sol.sol(duration)))
    return Trajectory(params, config, sol.t, sol.y, [rec], sol.sol, to_array, rhs,
                      time_sign=-1.0)


def locate_collision(traj: Trajectory) -> Optional[EventRecord]:
    """First collision event of the trajectory, or None."""
    for rec in traj.events:
        if rec.kind is EventKind.COLLISION:
            return rec
    return None
