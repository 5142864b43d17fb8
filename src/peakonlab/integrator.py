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

Which field is integrated.  The full field contains |q1 - q2| and
sgn(q2 - q1), which have a kink at the collision q1 = q2.  A run never
crosses that point (the collision event stops it), but the solver's trial
stages do reach past it, and a kink there makes the step controller reject
most attempts.  So the full representation integrates the analytic
continuation of the field on the initial side of the collision: the
orientation sigma = sgn(q2 - q1) at t = 0 (+1 when the peaks coincide) is
fixed once, and |q1 - q2| and sgn(q2 - q1) become sigma (q2 - q1) and
sigma.  Up to the terminal event sigma (q2 - q1) >= 0, so the field agrees
with the two-sided one there bit for bit and the solution is unchanged;
only trial stages past the collision see a different field, and a smooth
one.  The reduced field is smooth through q = 0 already.

Both representations, forward and time-reversed runs, go through one
solve path, driven by a ``_Field`` record of the initial vector, the
right-hand side, the map back to [p1, p2, q1, q2] and the event functions.
Floating-point overflow in trial stages of an overflowing input is left to
the step controller (the step is rejected, or the solve fails with
IntegrationError) and is not reported as numpy warnings.
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

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    max_time: Optional[float] = None  # None resolves to DEFAULT_HORIZON
    event_tol: float = 1e-12
    representation: Representation = Representation.FULL

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "event_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.max_time is not None and not self.max_time > 0:  # inf is a valid horizon
            raise ValueError(f"max_time must be positive, got {self.max_time}")


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
        time_sign: float = 1.0,
    ):
        self.params = params
        self.config = config
        self.times = times
        self._raw = raw_states
        self.events = tuple(events)
        self._dense = dense
        self._to_array = to_array  # raw solver states -> [p1, p2, q1, q2]
        self._time_sign = time_sign

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def state_array(self) -> np.ndarray:
        """States at the accepted step times as an (n, 4) array [p1, p2, q1, q2]."""
        return self._to_array(self._raw).T.copy()

    @property
    def states(self) -> tuple:
        return tuple(map(PeakonState.from_array, self.state_array))

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


@dataclass(frozen=True)
class _Field:
    """What the solve path needs of one representation: the initial vector,
    the right-hand side, the map of raw solver states to [p1, p2, q1, q2]
    rows, the terminal event functions with their kinds, and the direction
    of time (-1 for a reversed run)."""

    y0: np.ndarray
    rhs: Callable
    to_array: Callable
    events: tuple = ()
    time_sign: float = 1.0


def _armed(g_coll: Callable, g_p1: Callable, g_p2: Callable, y0: np.ndarray) -> tuple:
    """Terminal event functions; momentum events armed only if p_i(0) != 0."""
    events = [(EventKind.COLLISION, g_coll)]
    if g_p1(0.0, y0) != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_1, g_p1))
    if g_p2(0.0, y0) != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_2, g_p2))
    for _, g in events:
        g.terminal = True
        g.direction = 0
    return tuple(events)


def _full_field(initial: PeakonState, params: ABParams) -> _Field:
    """The full field, oriented once by the initial peak order (see the module
    docstring)."""
    a, b = params.a, params.b
    orientation = 1.0 if initial.q2 >= initial.q1 else -1.0
    rhs = lambda t, y: full_rhs_array(y, a, b, orientation)
    y0 = initial.as_array()
    events = _armed(lambda t, y: y[3] - y[2], lambda t, y: y[0], lambda t, y: y[1], y0)
    return _Field(y0, rhs, _full_to_array, events)


def _reduced_field(initial: PeakonState, params: ABParams) -> _Field:
    """The reduced field on (q, h, w, z), with q1 carried as a fifth component."""
    if initial.q2 <= initial.q1:
        raise ValueError("reduced representation requires q2 > q1")
    a, b = params.a, params.b
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
        d[:4] = reduced_rhs_array(y[:4], a, b)
        p1, p2 = 0.5 * (y[2] - y[1]), 0.5 * (y[1] + y[2])
        try:
            e1 = math.exp(-y[0])
        except OverflowError:  # a trial stage far past the collision
            e1 = math.inf
        d[4] = (1.0 - a) * p1 * p1 + 2.0 * p1 * p2 * e1 + (1.0 - 3.0 * a) * p2 * p2 * e1 * e1
        return d

    events = _armed(
        lambda t, y: y[0],
        lambda t, y: 0.5 * (y[2] - y[1]),
        lambda t, y: 0.5 * (y[1] + y[2]),
        y0,
    )
    return _Field(y0, rhs, _reduced_to_array, events)


def _field_may_overflow(initial: PeakonState, params: ABParams) -> bool:
    """Whether the field can overflow at the initial state.

    Both fields are sums of at most four terms, each a coefficient 1 - a,
    1 - 3a or 2 - b (or a small integer) times a monomial of degree at most
    four in the momenta (the reduced z' = (2-b) h w z e^{-2q} is quartic)
    times exponential factors that are at most 1 at t = 0.  If that bound
    is finite, so is the field; checking it evaluates no right-hand side.
    """
    a, b = params.a, params.b
    m = max(1.0, abs(initial.p1), abs(initial.p2))
    c = max(1.0, abs(1.0 - a), abs(1.0 - 3.0 * a), abs(2.0 - b))
    return not math.isfinite(64.0 * c * m * m * m * m)


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


def _solve(
    field: _Field,
    params: ABParams,
    config: IntegrationConfig,
    t_end: float,
) -> Trajectory:
    """Integrate ``field`` on [0, t_end] until its first event.

    The trajectory ends exactly at the located event time, or at t_end with
    a HORIZON record.  Step-size failure raises IntegrationError with the
    last good state.
    """
    to_array, time_sign = field.to_array, field.time_sign
    if t_end == 0.0:  # nothing to integrate: the constant trajectory
        y0 = field.y0
        dense = lambda t: np.multiply.outer(y0, np.ones(np.shape(t)))
        rec = EventRecord(EventKind.HORIZON, 0.0, _state(to_array, y0))
        return Trajectory(params, config, np.array([0.0]), y0[:, None], [rec], dense,
                          to_array, time_sign)
    initial = _state(to_array, field.y0)
    if _field_may_overflow(initial, params):
        raise IntegrationError("the field may overflow at the initial state", 0.0, initial)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        sol = solve_ivp(
            field.rhs,
            (0.0, t_end),
            field.y0,
            method=_SOLVER_METHOD,
            rtol=config.rel_tol,
            atol=config.abs_tol,
            dense_output=True,
            events=[g for _, g in field.events] or None,
        )
        if sol.status == -1:
            raise IntegrationError(sol.message, float(sol.t[-1]), _state(to_array, sol.y[:, -1]))

        records = []
        for (kind, g), t_ev in zip(field.events, sol.t_events or ()):
            for t in t_ev:
                t = float(t)
                if abs(g(t, sol.sol(t))) > config.event_tol:
                    slack = 10 * config.rel_tol * max(1.0, abs(t))
                    lo = max(0.0, t - slack - 1e-13)
                    hi = min(t_end, t + slack + 1e-13)
                    t = _refine_event(sol.sol, g, lo, hi, config.event_tol)
                records.append(EventRecord(kind=kind, time=t, state=_state(to_array, sol.sol(t))))
    records.sort(key=lambda r: r.time)
    if sol.status == 0:
        state = _state(to_array, sol.sol(t_end))
        records.append(EventRecord(kind=EventKind.HORIZON, time=t_end, state=state))
    return Trajectory(params, config, sol.t, sol.y, records, sol.sol, to_array, time_sign)


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
    if config.representation is Representation.REDUCED:
        field = _reduced_field(initial, params)
    else:
        field = _full_field(initial, params)
    t_max = config.max_time if config.max_time is not None else DEFAULT_HORIZON
    return _solve(field, params, config, t_max)


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
    integrates the full representation, whatever ``config`` names.
    """
    if duration < 0:
        raise ValueError("duration must be nonnegative")
    forward = _full_field(from_state, params)
    field = _Field(forward.y0, lambda t, y: -forward.rhs(t, y), forward.to_array, time_sign=-1.0)
    return _solve(field, params, config, duration)


def locate_collision(traj: Trajectory) -> Optional[EventRecord]:
    """First collision event of the trajectory, or None."""
    for rec in traj.events:
        if rec.kind is EventKind.COLLISION:
            return rec
    return None
