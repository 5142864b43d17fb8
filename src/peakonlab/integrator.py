"""Adaptive integration with event detection for the two-peakon flow.

Runs either the full (p1, p2, q1, q2) system or the reduced (q, h, w, z)
system (carrying q1 alongside so states can always be reconstructed) until
the first zero of one of the three event functions

    g1 = q2 - q1   (collision),
    g2 = p1        (first momentum vanishing),
    g3 = p2        (second momentum vanishing).

Integration stops at the first event; continuation past it is left to the
caller, since that is exactly where the solution concept stops being
unique.  Momentum events are armed only for momenta that start nonzero,
so degenerate single-peakon runs do not fire them at t = 0.

The stepper.  ``_Dop853`` is the explicit Runge-Kutta pair DOP853 of
Hairer, Norsett and Wanner (Solving Ordinary Differential Equations I,
2nd ed., Sec. II.5: the 12-stage 8th-order method with its 5th- and
3rd-order error estimators; Sec. II.6: the 7th-order dense output, three
more stages).  Its coefficients are those of Hairer's code dop853.f, under
the same names.  Step-size control is the usual one for that pair: the
error norm |err5|^2 / sqrt(|err5|^2 + 0.01 |err3|^2) in the mixed
tolerance atol + rtol max(|y_old|, |y_new|), a new step of 0.9 err^(-1/8)
times the old, kept within a factor 0.2 to 10 and not grown right after a
rejection, and the starting step of HNW Sec. II.4.  It works on Python
floats and calls the float-level fields of ``dynamics`` directly; it does
not care which autonomous field it integrates.  It counts its own field
evaluations and accepted and rejected steps, and gives up after
``MAX_STEPS`` accepted steps.

Events.  After each accepted step the armed event functions are evaluated
at the new state.  Where one changes sign (or reaches zero), the dense
output of that step is built and the event time found on it by a
bracketing root finder (the Illinois variant of regula falsi), narrowed to
roundoff; the earliest root wins.  The located event's residual |g(T)|
must not exceed ``event_tol``.  The dense output of the other steps is
built only when the trajectory is first sampled, so runs that only need
their event (a sweep) never pay for it.

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
one.  The reduced field is smooth through q = 0 already.  Both fields take
their coefficients, (1 - a, 1 - 3a, (2 - b) sigma, sigma) and
(1 - a, 1 - 3a, 2 - b), which ``start`` forms once per run (see
``dynamics``).

Each representation is described once (``_FieldDescription``): its field,
the map back to [p1, p2, q1, q2], its candidate events, and a ``start``
that gives the field's coefficients (sigma among them), the initial vector
and whether the point can run, in arithmetic and comparisons that act the
same on floats and on arrays over lanes.  One run calls it on floats, the
lane stepper on arrays; the overflow guard (``_may_overflow``) is shared
the same way.  Forward and time-reversed runs go through one solve path.
Floating-point overflow in trial stages of an overflowing input is left to
the step controller (the step is rejected, or the solve fails with
IntegrationError).

The lane stepper.  A sweep integrates about a thousand short runs, and a
scalar run spends its time in the interpreter, not in arithmetic.
``terminal_events`` therefore runs many points in lockstep
(``_lane_runs``): each state component is a numpy array over lanes, one
lane per point, and each lane keeps its own t, step size, rejection flag,
step count and armed events, retiring at its event or horizon.  Every lane
repeats the scalar run of its point bit for bit.  The stage arithmetic,
the error sums, the dense output and the interpolant are the same
elementwise code on floats and on arrays, and IEEE addition, subtraction,
multiplication, division and square root round the same in numpy as in
Python.  numpy's own ``exp`` and ``power`` do not: they differ from
``math.exp`` and from the ``**`` of floats in the last bit on a few percent
of inputs.  numpy's complex ``exp`` and its ``float_power`` call the C
library's ``exp`` and ``pow``, as Python does, so the fields' exponential
(``dynamics._exp``), the controller's err^(-1/8) and the starting step's
^(1/8) go through those over whole lanes.  Only the starting step's hypot
goes through ``math.hypot`` element by element, and Python's ``min`` and
``max`` become comparisons that keep their NaN behaviour.  The starting
step (``_initial_steps``) and the event's root search (``_locate_lanes``,
``_roots``) run over all lanes at once, their branches as masks: one
Illinois iteration over every crossed event of every lane, each bracket
reading only the state components its event reads.  Its last few brackets
(``ROOT_HANDOFF``), and every lane on which the scalar search would raise,
go through the scalar ``_locate``.  The points arrive as columns (one value
per point of a, b, p1, p2, q1, q2 and the horizon) and leave as columns
(time, event kind): the lanes are built by one call of the description's
``start`` on those arrays (``_lane_points``), ``_lane_runs`` returns end
times, event numbers and end states as arrays, and the scalar terminal
record's checks (event residual |g(T)| within ``event_tol``, a finite end
state) are array expressions, so no object is made per point.  A lane the
stepper cannot finish (a starting step the scalar code cannot take, a step
below the spacing of t, the step budget, a floating-point failure, a
non-finite dense output or end state, an event residual above
``event_tol``, or an initial field that may overflow) is run again through
``integrate``, so its error is the scalar run's.  A single run stays on the
scalar stepper: one lane costs over ten times a scalar run (the fixed numpy
cost of each attempt).  Measured on seeded sweep grids, lockstep is slower
than one scalar run after another below 32 points, about even at 32 and
faster from 40 on (``MIN_LANES``).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import (PeakonState, _full_coefficients, _full_rhs, _reduced_coefficients,
                       _reduced_rhs, full_rhs_array)
from .params import ABParams

DEFAULT_HORIZON = 100.0

#: smallest accepted rel_tol, 100 machine epsilons: below it the error
#: estimate is roundoff and the step-size control cannot meet the tolerance
MIN_REL_TOL = 100.0 * sys.float_info.epsilon


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
    event_tol: float = 1e-12  # bound on |g(T)| at a located event
    representation: Representation = Representation.FULL

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "event_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.rel_tol < MIN_REL_TOL:
            raise ValueError(f"rel_tol must be at least {MIN_REL_TOL:.3g} "
                             f"(100 machine epsilons), got {self.rel_tol}")
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


# ---------------------------------------------------------------------------
# DOP853 (HNW Sec. II.5-II.6; names and values of dop853.f).  Stage i uses
# k1 and, from stage 6 on, k4 .. k(i-1); stage 13 is the field at the new
# state.  The tableau's nodes c_i are not needed: the fields are autonomous.

A21 = 5.26001519587677318785587544488e-2
A31, A32 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A41, A43 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A51, A53, A54 = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                 9.24834003261792003115737966543e-1)
A61, A64, A65 = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                 1.25467687566822425016691814123e-1)
A71, A74, A75, A76 = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2)
A81, A84, A85, A86, A87 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A91, A94, A95, A96, A97, A98 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A101, A104, A105, A106, A107, A108, A109 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A111, A114, A115, A116, A117, A118, A119, A1110 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A121, A124, A125, A126, A127, A128, A129, A1210, A1211 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
# 8th-order weights (k2 .. k5 have weight 0)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
# error weights: err5 = sum ER_i k_i; err3 = sum (B_i - BHH_i) k_i
ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
BHH1, BHH2, BHH3 = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
E31, E39, E312 = B1 - BHH1, B9 - BHH2, B12 - BHH3
# dense output: stages 14-16, then rows d4 .. d7 of the interpolant, each as
# (stage, coefficient) pairs over k1 .. k16 (stage numbers from 1)
DENSE_STAGES = (
    ((1, 5.61675022830479523392909219681e-2), (7, 2.53500210216624811088794765333e-1),
     (8, -2.46239037470802489917441475441e-1), (9, -1.24191423263816360469010140626e-1),
     (10, 1.5329179827876569731206322685e-1), (11, 8.20105229563468988491666602057e-3),
     (12, 7.56789766054569976138603589584e-3), (13, -8.298e-3)),
    ((1, 3.18346481635021405060768473261e-2), (6, 2.83009096723667755288322961402e-2),
     (7, 5.35419883074385676223797384372e-2), (8, -5.49237485713909884646569340306e-2),
     (11, -1.08347328697249322858509316994e-4), (12, 3.82571090835658412954920192323e-4),
     (13, -3.40465008687404560802977114492e-4), (14, 1.41312443674632500278074618366e-1)),
    ((1, -4.28896301583791923408573538692e-1), (6, -4.69762141536116384314449447206),
     (7, 7.68342119606259904184240953878), (8, 4.06898981839711007970213554331),
     (9, 3.56727187455281109270669543021e-1), (13, -1.39902416515901462129418009734e-3),
     (14, 2.9475147891527723389556272149), (15, -9.15095847217987001081870187138)),
)
_D_STAGES = (1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16)
DENSE_ROWS = tuple(tuple(zip(_D_STAGES, row)) for row in (
    (-0.84289382761090128651353491142e+1, 0.56671495351937776962531783590,
     -0.30689499459498916912797304727e+1, 0.23846676565120698287728149680e+1,
     0.21170345824450282767155149946e+1, -0.87139158377797299206789907490,
     0.22404374302607882758541771650e+1, 0.63157877876946881815570249290,
     -0.88990336451333310820698117400e-1, 0.18148505520854727256656404962e+2,
     -0.91946323924783554000451984436e+1, -0.44360363875948939664310572000e+1),
    (0.10427508642579134603413151009e+2, 0.24228349177525818288430175319e+3,
     0.16520045171727028198505394887e+3, -0.37454675472269020279518312152e+3,
     -0.22113666853125306036270938578e+2, 0.77334326684722638389603898808e+1,
     -0.30674084731089398182061213626e+2, -0.93321305264302278729567221706e+1,
     0.15697238121770843886131091075e+2, -0.31139403219565177677282850411e+2,
     -0.93529243588444783865713862664e+1, 0.35816841486394083752465898540e+2),
    (0.19985053242002433820987653617e+2, -0.38703730874935176555105901742e+3,
     -0.18917813819516756882830838328e+3, 0.52780815920542364900561016686e+3,
     -0.11573902539959630126141871134e+2, 0.68812326946963000169666922661e+1,
     -0.10006050966910838403183860980e+1, 0.77771377980534432092869265740,
     -0.27782057523535084065932004339e+1, -0.60196695231264120758267380846e+2,
     0.84320405506677161018159903784e+2, 0.11992291136182789328035130030e+2),
    (-0.25693933462703749003312586129e+2, -0.15418974869023643374053993627e+3,
     -0.23152937917604549567536039109e+3, 0.35763911791061412378285349910e+3,
     0.93405324183624310003907691704e+2, -0.37458323136451633156875139351e+2,
     0.10409964950896230045147246184e+3, 0.29840293426660503123344363579e+2,
     -0.43533456590011143754432175058e+2, 0.96324553959188282948394950600e+2,
     -0.39177261675615439165231486172e+2, -0.14972683625798562581422125276e+3),
))


SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
#: accepted steps before a run is given up (dop853.f's NMAX, default 1e5, is
#: lowered: the presets and sweep grids need under 200, and each kept step
#: holds its stages for the dense output)
MAX_STEPS = 10_000
#: fewest points that ``terminal_events`` runs in lockstep: on seeded sweep
#: grids, full and reduced, 16 points took 10-14 ms in lockstep against
#: 8-9 ms one after another, 32 points about the same either way, and 64
#: points 19-24 ms against 34-39 ms.  Re-timed with the batched starting
#: step and root search (full / reduced, medians over seeds 1, 7 and 29; the
#: 2-vCPU guest ran slower than for the first timings, so compare within a
#: row only): 24 points 18.7 / 24.3 ms against 17.5 / 19.6 ms,
#: 32 points 16.6 / 23.1 ms against 19.1 / 22.8 ms, 40 points 22.7 / 27.9 ms
#: against 30.0 / 34.2 ms
MIN_LANES = 32
#: the lanes' event root search hands its last brackets to the scalar search
#: when fewer than this are still narrowing: on the seed-1 and seed-29 bench
#: grids the search took 6.8-6.9 ms (full) and 9.6-10.2 ms (reduced) at 8,
#: 8.8-8.9 and 10.0-10.6 ms at 4, 6.4-6.8 and 10.0-10.7 ms at 16, and
#: 8.8-9.3 and 15.1-15.8 ms at 128 (medians of 9 interleaved runs)
ROOT_HANDOFF = 8
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (1 + order of the error estimate)
_ROOT_TOL = 4.0 * sys.float_info.epsilon


class _StepFailure(Exception):
    """Raised by the stepper with the last accepted (t, y)."""

    def __init__(self, message: str, t: float, y):
        super().__init__(message)
        self.t, self.y = t, y


# The step's arithmetic is elementwise: each state component may be a float
# (one run) or an array over lanes (``_lane_runs``), with the same operations
# in the same order, so a lane gives the bits of the run on floats.


def _max(x, y):
    """Python's max(x, y) elementwise: y where y > x, else x (a NaN y loses,
    a NaN x wins)."""
    return np.where(y > x, y, x)


def _min(x, y):
    """Python's min(x, y) elementwise: y where y < x, else x."""
    return np.where(y < x, y, x)


def _rms(xs, scale) -> float:
    return math.hypot(*[x / s for x, s in zip(xs, scale)]) / len(scale) ** 0.5


def _initial_step(f: Callable, y, f0, t_end: float, rtol: float, atol: float) -> float:
    """HNW Sec. II.4 for an error estimate of order 7 (one field evaluation),
    on floats."""
    scale = [atol + abs(v) * rtol for v in y]
    d0, d1 = _rms(y, scale), _rms(f0, scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    f1 = f(*[v + h0 * d for v, d in zip(y, f0)])
    d2 = _rms([u - v for u, v in zip(f1, f0)], scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
    return min(100 * h0, h1, t_end)


def _rms_lanes(xs, scale) -> np.ndarray:
    """``_rms`` per lane of (component, lane) arrays; ``math.hypot`` element by
    element: Python's hypot of several arguments is its own algorithm, which
    numpy does not have."""
    return (np.fromiter(map(math.hypot, *(xs / scale).tolist()), float, xs.shape[-1])
            / len(scale) ** 0.5)


def _initial_steps(f: Callable, y, f0, t_end, rtol: float, atol: float) -> tuple:
    """``_initial_step`` for every lane at once, bit for bit: y and f0 are
    (component, lane) arrays, t_end is per lane and f the field on component
    arrays.  Returns (h, started); started is False where the scalar code
    raises ZeroDivisionError (h0 = 0, or max(d1, d2) = 0 where it divides by
    it) or h is not finite, and h is meaningless there."""
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms_lanes(y, scale), _rms_lanes(f0, scale)
    h0 = _min(np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1), t_end)
    f1 = np.array(f(*(y + h0 * f0)))
    d2 = _rms_lanes(f1 - f0, scale) / h0
    flat = (d1 <= 1e-15) & (d2 <= 1e-15)
    d_max = _max(d1, d2)
    # the C library's pow, which the ** of floats calls (see the step-size factor)
    h1 = np.where(flat, _max(1e-6, h0 * 1e-3), np.float_power(0.01 / d_max, 1.0 / 8.0))
    h = _min(_min(100 * h0, h1), t_end)
    return h, (h0 != 0.0) & (flat | (d_max != 0.0)) & np.isfinite(h)


def _stages(f: Callable, y, k1, h) -> tuple:
    """Stages k2 .. k12 of a step of size h from y, where k1 = f(y), and the
    8th-order solution y_new: returns (k2, ..., k12, y_new)."""
    k2 = f(*[v + h * (A21 * a) for v, a in zip(y, k1)])
    k3 = f(*[v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)])
    k4 = f(*[v + h * (A41 * a + A43 * c) for v, a, c in zip(y, k1, k3)])
    k5 = f(*[v + h * (A51 * a + A53 * c + A54 * d) for v, a, c, d in zip(y, k1, k3, k4)])
    k6 = f(*[v + h * (A61 * a + A64 * d + A65 * e) for v, a, d, e in zip(y, k1, k4, k5)])
    k7 = f(*[v + h * (A71 * a + A74 * d + A75 * e + A76 * s6)
             for v, a, d, e, s6 in zip(y, k1, k4, k5, k6)])
    k8 = f(*[v + h * (A81 * a + A84 * d + A85 * e + A86 * s6 + A87 * s7)
             for v, a, d, e, s6, s7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = f(*[v + h * (A91 * a + A94 * d + A95 * e + A96 * s6 + A97 * s7 + A98 * s8)
             for v, a, d, e, s6, s7, s8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = f(*[v + h * (A101 * a + A104 * d + A105 * e + A106 * s6 + A107 * s7
                       + A108 * s8 + A109 * s9)
              for v, a, d, e, s6, s7, s8, s9 in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = f(*[v + h * (A111 * a + A114 * d + A115 * e + A116 * s6 + A117 * s7
                       + A118 * s8 + A119 * s9 + A1110 * s10)
              for v, a, d, e, s6, s7, s8, s9, s10 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = f(*[v + h * (A121 * a + A124 * d + A125 * e + A126 * s6 + A127 * s7
                       + A128 * s8 + A129 * s9 + A1210 * s10 + A1211 * s11)
              for v, a, d, e, s6, s7, s8, s9, s10, s11
              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [v + h * (B1 * a + B6 * s6 + B7 * s7 + B8 * s8 + B9 * s9 + B10 * s10
                      + B11 * s11 + B12 * s12)
             for v, a, s6, s7, s8, s9, s10, s11, s12
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    return k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, y_new


def _error_sums(ks, scale) -> tuple:
    """The squared norms (e5, e3) of the 5th- and 3rd-order error estimates
    of a step with stages ``ks`` = (k1, ..., k12), each component divided by
    its tolerance ``scale``."""
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12 = ks
    e5 = e3 = 0.0
    for sc, a, s6, s7, s8, s9, s10, s11, s12 in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12):
        r5 = (ER1 * a + ER6 * s6 + ER7 * s7 + ER8 * s8 + ER9 * s9 + ER10 * s10
              + ER11 * s11 + ER12 * s12) / sc
        r3 = (E31 * a + B6 * s6 + B7 * s7 + B8 * s8 + E39 * s9 + B10 * s10
              + B11 * s11 + E312 * s12) / sc
        e5 += r5 * r5
        e3 += r3 * r3
    return e5, e3


def _crosses(u, v):
    """Whether an event function went from u to v through (or onto) zero."""
    return ((u <= 0.0) & (v >= 0.0)) | ((u >= 0.0) & (v <= 0.0))


def _combine(ks, row) -> list:
    """sum_j c_j k_j over the (stage, c_j) pairs of ``row``, per component,
    accumulated left to right from 0.0."""
    out = []
    for i in range(len(ks[0])):
        acc = 0.0
        for j, c in row:
            acc = acc + c * ks[j - 1][i]
        out.append(acc)
    return out


def _dense_coeffs(f: Callable, h, y, y_new, k) -> list:
    """Per component, the coefficients d1 .. d7 of the dense output of the
    step from y to y_new with stages k = (k1, ..., k13); three more field
    evaluations."""
    ks = list(k)
    for row in DENSE_STAGES:
        ks.append(f(*[v + h * c for v, c in zip(y, _combine(ks, row))]))
    rows = [_combine(ks, row) for row in DENSE_ROWS]
    out = []
    for v, w, f_old, f_new, *d in zip(y, y_new, ks[0], ks[12], *rows):
        dy = w - v
        out.append((dy, h * f_old - dy, 2 * dy - h * (f_new + f_old), *(h * c for c in d)))
    return out


def _interpolate(x, coeffs, y_old):
    """The 7th-order dense output at x = (t - t_old) / h of one component:
    ``coeffs`` are its d1 .. d7.  Works on floats and numpy arrays alike, so
    the event search and ``Trajectory.sample_array`` give the same bits."""
    d1, d2, d3, d4, d5, d6, d7 = coeffs
    x1 = 1.0 - x
    return x * (d1 + x1 * (d2 + x * (d3 + x1 * (d4 + x * (d5 + x1 * (d6 + x * d7)))))) + y_old


def _root(g, a: float, b: float) -> float:
    """A zero of g on [a, b], narrowed until the bracket is roundoff wide.

    Illinois variant of regula falsi: the endpoint kept twice in a row has
    its function value halved.  If g(a) and g(b) have the same strict sign,
    the crossing seen at the step states lies within roundoff of b, and b
    is returned.  A NaN value raises ValueError.
    """
    fa, fb = g(a), g(b)
    if fa != fa or fb != fb:
        raise ValueError(f"the dense output is not finite on [{a:.6g}, {b:.6g}]")
    if fa == 0.0 or (fb != 0.0 and (fa > 0.0) == (fb > 0.0)):
        return a if fa == 0.0 else b
    wa, wb, kept = fa, fb, 0
    for _ in range(200):
        if fb == 0.0 or b - a <= _ROOT_TOL * abs(b):
            break
        t = b - wb * (b - a) / (wb - wa)
        if not a < t < b:
            t = 0.5 * (a + b)
            if not a < t < b:  # a and b are adjacent floats
                break
        ft = g(t)
        if ft != ft:
            raise ValueError(f"the dense output is not finite at t = {t:.6g}")
        if (ft > 0.0) == (fb > 0.0) or ft == 0.0:
            b, fb, wb = t, ft, ft
            wa = 0.5 * wa if kept == 1 else wa
            kept = 1
        else:
            a, fa, wa = t, ft, ft
            wb = 0.5 * wb if kept == -1 else wb
            kept = -1
    return b if abs(fb) <= abs(fa) else a


def _roots(g: Callable, a, b, handoff: int = 0) -> tuple:
    """``_root`` on arrays of brackets [a, b] at once, each root with the
    scalar one's bits (the same IEEE operations in the same order, the
    branches as masks): g(t, i) gives the values at the times t of the
    functions numbered i.  Brackets leave the iteration as they converge;
    once fewer than ``handoff`` are left, those are left unfinished.

    Returns (roots, found).  ``found`` is False where ``_root`` raises (a
    NaN value, or a zero divisor wb - wa) and where a bracket was left
    unfinished: the scalar code decides those.
    """
    fa, fb = g(a, np.arange(a.size)), g(b, np.arange(a.size))
    found = (fa == fa) & (fb == fb)
    roots = np.where(fa == 0.0, a, b)
    i = np.flatnonzero(found & ~((fa == 0.0) | ((fb != 0.0) & ((fa > 0.0) == (fb > 0.0)))))
    a, b, fa, fb = a[i], b[i], fa[i], fb[i]
    wa, wb, kept = fa, fb, np.zeros(i.size, dtype=int)
    for _ in range(200):
        converged = (fb == 0.0) | (b - a <= _ROOT_TOL * np.abs(b))
        divisor = wb - wa
        t = b - wb * (b - a) / divisor
        outside = ~((a < t) & (t < b))
        t = np.where(outside, 0.5 * (a + b), t)
        failed = ~converged & (divisor == 0.0)
        stop = converged | (~failed & outside & ~((a < t) & (t < b)))  # or a, b adjacent
        go = ~(stop | failed)
        if not go.all():
            roots[i[stop]] = np.where(np.abs(fb) <= np.abs(fa), b, a)[stop]
            found[i[failed]] = False
            i, a, b, fa, fb, wa, wb, kept, t = (v[go] for v in (i, a, b, fa, fb, wa, wb, kept, t))
        if i.size < max(handoff, 1):
            found[i] = False
            return roots, found
        ft = g(t, i)
        to_b = ((ft > 0.0) == (fb > 0.0)) | (ft == 0.0)
        wa = np.where(to_b, np.where(kept == 1, 0.5 * wa, wa), ft)
        wb = np.where(to_b, ft, np.where(kept == -1, 0.5 * wb, wb))
        a, fa = np.where(to_b, a, t), np.where(to_b, fa, ft)
        b, fb = np.where(to_b, t, b), np.where(to_b, ft, fb)
        kept = np.where(to_b, 1, -1)
        nan = ft != ft
        if nan.any():
            found[i[nan]] = False
            i, a, b, fa, fb, wa, wb, kept = (v[~nan] for v in (i, a, b, fa, fb, wa, wb, kept))
    roots[i] = np.where(np.abs(fb) <= np.abs(fa), b, a)  # the iteration cap
    return roots, found


class _DenseState:
    """The state at x = (t - t_old) / h on a step's dense output, each
    component interpolated when an event function reads it."""

    __slots__ = ("x", "coeffs", "y_old")

    def __init__(self, x, coeffs, y_old):
        self.x, self.coeffs, self.y_old = x, coeffs, y_old

    def __getitem__(self, j):
        return _interpolate(self.x, self.coeffs[j], self.y_old[j])


def _locate(events, g_old, g_new, t_old: float, t_new: float, h: float, y_old,
            coeffs) -> tuple:
    """The earliest root of the events that crossed zero (from the values
    ``g_old`` to ``g_new``) on the accepted step [t_old, t_new] of size h,
    found on its dense output: returns (t_event, index of the event, state
    there).  Raises ValueError where the dense output is not finite, and
    ZeroDivisionError or OverflowError from the root finder's arithmetic."""
    at = lambda t: _DenseState((t - t_old) / h, coeffs, y_old)
    hits = [i for i, (u, v) in enumerate(zip(g_old, g_new)) if _crosses(u, v)]
    t_event, index = min((_root(lambda t: events[i](at(t)), t_old, t_new), i) for i in hits)
    state = at(t_event)
    return t_event, index, [state[j] for j in range(len(y_old))]


def _locate_lanes(events: tuple, armed, t_old, t_new, h, y_old, y_new, coeffs,
                  handoff: int) -> tuple:
    """``_locate`` for the event steps of many lanes at once, the lane on the
    last axis: ``events`` are the representation's (kind, g) pairs, ``armed``
    says per event which lanes arm it, and ``coeffs`` are the interpolants'
    (component, d1 .. d7, lane).  Every crossed event of every lane is one
    bracket of ``_roots``, which reads only the components its event reads;
    the earliest root wins, ties to the lower event.

    Returns (t_event, number of the event in ``events``, state there as
    (component, lane), found); where found is False, the
    root search of one of the lane's events raises or was handed off, and
    the other values are meaningless.
    """
    crossed = armed & _crosses(np.array([g(y_old) for _, g in events]),
                               np.array([g(y_new) for _, g in events]))
    event, lane = np.nonzero(crossed)  # by event, then lane

    def values(t, i):
        out = np.empty(i.size)
        ends = np.searchsorted(event[i], np.arange(len(events) + 1))  # i keeps that order
        for (_, g), lo, hi in zip(events, ends[:-1], ends[1:]):
            if lo < hi:
                j = lane[i[lo:hi]]
                out[lo:hi] = g(_DenseState((t[lo:hi] - t_old[j]) / h[j], coeffs[:, :, j],
                                           y_old[:, j]))
        return out

    roots, found = _roots(values, t_old[lane], t_new[lane], handoff)
    order = np.lexsort((event, roots, lane))
    first = order[np.diff(lane[order], prepend=-1) != 0]  # one per lane, in lane order
    ok = np.ones(h.size, dtype=bool)
    ok[lane[~found]] = False
    t_event = roots[first]
    state = _DenseState((t_event - t_old) / h, coeffs, y_old)
    return t_event, event[first], np.array([state[j] for j in range(len(y_old))]), ok


class _Dop853:
    """DOP853 for an autonomous field ``f(*y) -> sequence`` on float lists.

    ``solve`` integrates from 0 to the first event or ``t_end`` and keeps
    the accepted steps; ``dense(i)`` builds the interpolant of step i
    (three more field evaluations).
    """

    def __init__(self, f: Callable, rel_tol: float, abs_tol: float):
        self.f, self.rtol, self.atol = f, rel_tol, abs_tol
        self.nfev = self.rejected = 0
        self.steps = []  # (t, h, y, y_new, (k1 .. k13)) per accepted step
        self._dense = {}  # step index -> interpolant coefficients

    def solve(self, y, t_end: float, events: Sequence[Callable]):
        """Returns (times, states, index of the event that fired or None)."""
        f, rtol, atol, n = self.f, self.rtol, self.atol, len(y)
        t, ts, ys, steps = 0.0, [0.0], [y], self.steps
        g = [gi(y) for gi in events]
        try:
            k1 = f(*y)
            h_abs = _initial_step(f, y, k1, t_end, rtol, atol)
            self.nfev += 2
            while t < t_end:
                if len(steps) == MAX_STEPS:
                    raise _StepFailure(f"more than {MAX_STEPS} steps needed", t, y)
                min_step = 10.0 * (math.nextafter(t, math.inf) - t)
                h_abs = max(h_abs, min_step)
                rejected = False
                while True:
                    if not min_step <= h_abs < math.inf:
                        raise _StepFailure(
                            "Required step size is less than spacing between numbers.", t, y)
                    t_new = min(t + h_abs, t_end)
                    h = h_abs = t_new - t
                    *ks, y_new = _stages(f, y, k1, h)
                    self.nfev += 11
                    scale = [atol + max(abs(v), abs(w)) * rtol for v, w in zip(y, y_new)]
                    e5, e3 = _error_sums((k1, *ks), scale)
                    err = h * e5 / math.sqrt((e5 + 0.01 * e3) * n) if e5 else 0.0
                    if err < 1.0:
                        factor = MAX_FACTOR if err == 0.0 else min(
                            MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                        h_abs *= min(1.0, factor) if rejected else factor
                        break
                    h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                    rejected = True
                    self.rejected += 1
                k13 = f(*y_new)
                self.nfev += 1
                steps.append((t, h, y, y_new, (k1, *ks, k13)))
                t, y, k1 = t_new, y_new, k13
                g_new = [gi(y) for gi in events]
                if any(_crosses(u, v) for u, v in zip(g, g_new)):
                    t_old, y_old = steps[-1][0], steps[-1][2]
                    coeffs = self.dense(len(steps) - 1)
                    try:
                        t_event, index, y_event = _locate(events, g, g_new, t_old, t, h,
                                                          y_old, coeffs)
                    except ValueError as exc:
                        raise _StepFailure(str(exc), t_old, y_old) from None
                    return [*ts, t_event], [*ys, y_event], index
                g = g_new
                ts.append(t)
                ys.append(y)
        except (OverflowError, ZeroDivisionError) as exc:
            raise _StepFailure(f"floating-point failure: {exc}", t, y) from None
        return ts, ys, None

    def dense(self, i: int) -> list:
        """Per component, the coefficients d1 .. d7 of step i's interpolant
        (built once)."""
        if i not in self._dense:
            _, h, y, y_new, k = self.steps[i]
            self._dense[i] = _dense_coeffs(self.f, h, y, y_new, k)
            self.nfev += len(DENSE_STAGES)
        return self._dense[i]


class _Lanes:
    """Per-lane arrays of the lanes still running, the lane on the last axis
    (states, stages, coefficients and event values are 2-D: component, lane)."""

    def __init__(self, **arrays):
        self.__dict__.update(arrays)

    def keep(self, mask) -> None:
        for name, value in vars(self).items():
            setattr(self, name, value[..., mask])


def _lane_runs(fields: "_FieldDescription", args, y0, t_end, rtol: float,
               atol: float) -> tuple:
    """``_Dop853.solve`` for every lane at once.

    The lanes are points of the representation ``fields``, with the field's
    coefficients ``args`` (coefficient, lane), initial vectors ``y0``
    (component, lane) and horizons ``t_end``, as ``_lane_points`` builds
    them.  Every lane keeps its own t, step size, rejection flag and step
    counts, and retires at its event or horizon.  The starting steps are
    found for all lanes at once (``_initial_steps``).  The dense output and
    the root search of the event steps are done together once the stepping
    has stopped (``_locate_lanes``); the last few brackets of the search,
    and the lanes whose search fails, go through the scalar ``_locate``.

    Returns arrays over lanes (t, event, y, steps, rejected, ok): the end
    time, the number in ``fields.events`` of the event that fired (-1 at the
    horizon), the end state (component, lane), and the accepted and rejected
    steps; ok is False where the scalar stepper raises, and the other values
    are meaningless there.  The rejected steps are counted for the tests,
    which compare both counts with the scalar run's.
    """
    n = y0.shape[-1]
    t_out, y_out = np.full(n, math.nan), np.full(y0.shape, math.nan)
    event_out, steps_out, rejected_out, ok_out = (np.full(n, v) for v in (-1, 0, 0, False))
    func, events = fields.func, fields.events
    armed = np.array(_arming(events, y0))

    def whole(args):
        """The field on a (component, lane) array, taken as one component,
        so that the step arithmetic runs once over all components."""
        args = tuple(args)
        return lambda y: [np.array(func(*args, *y))]

    def finish(lane, t, event, y, steps, rejected) -> None:
        t_out[lane], event_out[lane], y_out[:, lane] = t, event, y
        steps_out[lane], rejected_out[lane], ok_out[lane] = steps, rejected, True

    with np.errstate(all="ignore"):
        k1 = np.array(func(*args, *y0))
        h_abs, started = _initial_steps(partial(func, *args), y0, k1, t_end, rtol, atol)
        min_step = np.full(n, 10.0 * math.nextafter(0.0, math.inf))
        live = _Lanes(
            lane=np.arange(n), t=np.zeros(n), t_end=t_end,
            steps=np.zeros(n, dtype=int), rejections=np.zeros(n, dtype=int),
            rejected=np.zeros(n, dtype=bool), min_step=min_step,
            h_abs=_max(h_abs, min_step), args=args, armed=armed,
            y=y0, k1=k1, g=np.array([g(y0) for _, g in events]))
        live.keep(started)
        pool = []  # per batch of event steps: lane, t_old, t_new, h, y_old, y_new, stages,
        #            accepted and rejected steps
        while live.lane.size:
            ok = (live.min_step <= live.h_abs) & (live.h_abs < math.inf)
            if not ok.all():  # the step size fell below the spacing of t
                live.keep(ok)
                if not live.lane.size:
                    break
            f, t, y, k1 = whole(live.args), live.t, live.y, live.k1
            t_new = _min(t + live.h_abs, live.t_end)
            h = t_new - t
            *ks, y_new = (k for k, in _stages(f, [y], [k1], h))
            scale = atol + _max(np.abs(y), np.abs(y_new)) * rtol
            # one pass over all components; the rows' squares are then added
            # in component order from 0, as the scalar loop adds them
            e5, e3 = (sum(s) for s in _error_sums([[k] for k in (k1, *ks)], [scale]))
            err = np.where(e5 != 0.0, h * e5 / np.sqrt((e5 + 0.01 * e3) * len(y)), 0.0)
            # the C library's pow, which the ** of floats calls (numpy's power
            # differs in the last bit); inf at err = 0, never read: that step
            # takes MAX_FACTOR and is accepted
            grow = SAFETY * np.float_power(err, ERROR_EXPONENT)
            accept = err < 1.0
            factor = np.where(err == 0.0, MAX_FACTOR, _min(MAX_FACTOR, grow))
            factor = np.where(live.rejected & ~(factor < 1.0), 1.0, factor)
            live.h_abs = h * np.where(accept, factor, _max(MIN_FACTOR, grow))
            live.rejections += ~accept
            live.rejected = ~accept
            live.steps += accept
            k13, = f(y_new)
            if accept.all():
                live.t, live.y, live.k1 = t_new, y_new, k13
            else:
                live.t = np.where(accept, t_new, t)
                live.y = np.where(accept, y_new, y)
                live.k1 = np.where(accept, k13, k1)
            g_new = np.array([g(live.y) for _, g in events])
            hit = accept & (live.armed & _crosses(live.g, g_new)).any(axis=0)
            live.g = g_new
            horizon = accept & ~hit & ~(live.t < live.t_end)
            exhausted = accept & ~hit & ~horizon & (live.steps == MAX_STEPS)
            if hit.any():
                pool.append((live.lane[hit], t[hit], t_new[hit], h[hit], y[:, hit],
                             y_new[:, hit], np.array([k[:, hit] for k in (k1, *ks, k13)]),
                             live.steps[hit], live.rejections[hit]))
            if horizon.any():
                finish(live.lane[horizon], live.t[horizon], -1, live.y[:, horizon],
                       live.steps[horizon], live.rejections[horizon])
            moved = accept & ~hit
            live.min_step = np.where(moved, 10.0 * (np.nextafter(live.t, math.inf) - live.t),
                                     live.min_step)
            live.h_abs = np.where(moved, _max(live.h_abs, live.min_step), live.h_abs)
            done = hit | horizon | exhausted
            if done.any():
                live.keep(~done)

        if pool:
            lane, t_old, t_new, h, y_old, y_new, ks, steps, rejections = (
                np.concatenate(col, axis=-1) for col in zip(*pool))
            coeffs, = _dense_coeffs(whole(args[:, lane]), h, [y_old], [y_new], ks[:, None])
            coeffs, armed = np.stack(coeffs, axis=1), armed[:, lane]
            t_event, event, y_event, found = _locate_lanes(
                events, armed, t_old, t_new, h, y_old, y_new, coeffs, ROOT_HANDOFF)
            finish(lane[found], t_event[found], event[found], y_event[:, found], steps[found],
                   rejections[found])
            for j in np.flatnonzero(~found).tolist():  # the scalar search, on the lane's floats
                numbers = np.flatnonzero(armed[:, j])
                fns = [events[e][1] for e in numbers.tolist()]
                y_a, y_b = y_old[:, j].tolist(), y_new[:, j].tolist()
                try:
                    t_b, hit, y_end = _locate(fns, [g(y_a) for g in fns], [g(y_b) for g in fns],
                                              float(t_old[j]), float(t_new[j]), float(h[j]),
                                              y_a, coeffs[:, :, j].tolist())
                except (ValueError, OverflowError, ZeroDivisionError):
                    continue
                finish(lane[j], t_b, numbers[hit], y_end, steps[j], rejections[j])
    return t_out, event_out, y_out, steps_out, rejected_out, ok_out


# ---------------------------------------------------------------------------
# trajectories


def _reduced_to_array(y) -> np.ndarray:
    """(q, h, w, z, q1) rows, with any trailing shape, to [p1, p2, q1, q2] rows."""
    q, h, w, _, q1 = y
    return np.array([0.5 * (w - h), 0.5 * (h + w), q1, q1 + q])


def _state(to_array: Callable, y) -> PeakonState:
    return PeakonState.from_array(to_array(y))


class Trajectory:
    """Accepted steps, located events and a dense interpolant.

    Immutable once produced, except that a step's interpolant is built the
    first time a sampled time falls in that step (three field evaluations,
    counted in ``nfev``; the event step's is built by the event search), and
    that ``sample`` keeps its last time and state.  ``sample`` evaluates
    the dense output and is valid on [t0, t_end]; ``sample_array`` does the
    same for a whole time vector (its rows equal ``sample``'s bit for bit,
    whichever steps were built before); ``sample_derivative`` returns the
    exact field at the sampled state, which for a genuine solution equals
    the curve's time derivative.  ``sample`` again at its last time, and
    ``sample_derivative`` or ``separation`` there, reuse the kept state
    instead of interpolating again.  ``nfev``, ``steps`` and ``rejected``
    count field evaluations and accepted and rejected steps.
    """

    def __init__(
        self,
        params: ABParams,
        config: IntegrationConfig,
        times: Sequence[float],
        raw_states: Sequence,
        events: Sequence[EventRecord],
        stepper: Optional[_Dop853],
        to_array: Callable,
        time_sign: float = 1.0,
    ):
        self.params = params
        self.config = config
        self.times = np.array(times)
        self._raw = raw_states
        self.events = tuple(events)
        self._stepper = stepper  # None for a zero-duration run
        self._to_array = to_array  # raw solver states -> [p1, p2, q1, q2]
        self._time_sign = time_sign
        self._tables = None  # per step t_old, h, y_old, coefficients; the steps built
        self._last = None  # ((t, sign of t), state) of the last ``sample``

    @property
    def nfev(self) -> int:
        return self._stepper.nfev if self._stepper else 0

    @property
    def steps(self) -> int:
        return len(self._stepper.steps) if self._stepper else 0

    @property
    def rejected(self) -> int:
        return self._stepper.rejected if self._stepper else 0

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    @property
    def state_array(self) -> np.ndarray:
        """States at the accepted step times as an (n, 4) array [p1, p2, q1, q2]."""
        return self._to_array(np.array(self._raw).T).T.copy()

    @property
    def states(self) -> tuple:
        return tuple(map(PeakonState.from_array, self.state_array))

    @property
    def terminal_event(self) -> EventRecord:
        return self.events[-1]

    def _segments(self, seg: np.ndarray) -> tuple:
        """t_old, h, y_old and the coefficients (d1 .. d7 first) of the steps
        ``seg``, building the interpolant of each of them not yet built."""
        if self._tables is None:
            t_old, h, y_old, _, _ = zip(*self._stepper.steps)
            coeffs = np.empty((7, len(h), len(y_old[0])))
            self._tables = np.array(t_old), np.array(h), np.array(y_old), coeffs, set()
        t_old, h, y_old, coeffs, built = self._tables
        for i in set(seg.tolist()) - built:
            coeffs[:, i] = np.array(self._stepper.dense(i)).T
            built.add(i)
        return t_old[seg], h[seg], y_old[seg], coeffs[:, seg]

    def sample(self, t: float) -> PeakonState:
        key = (t, math.copysign(1.0, t))  # -0.0 kept apart from 0.0
        if self._last is None or self._last[0] != key:
            self._last = key, PeakonState.from_array(self.sample_array([t])[0])
        return self._last[1]

    def sample_array(self, ts) -> np.ndarray:
        """States at the given times as an (n, 4) array [p1, p2, q1, q2]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        outside = ~((ts >= self.t0 - 1e-12) & (ts <= self.t_end + 1e-12))  # and nan
        if outside.any():
            raise ValueError(f"t = {ts[outside][0]} outside [{self.t0}, {self.t_end}]")
        if self._stepper is None:
            return self._to_array(np.repeat(np.array(self._raw), len(ts), axis=0).T).T
        last = len(self._stepper.steps) - 1
        seg = np.clip(np.searchsorted(self.times, ts, side="left") - 1, 0, last)
        t_old, h, y_old, coeffs = self._segments(seg)
        x = ((ts - t_old) / h)[:, None]
        return self._to_array(_interpolate(x, coeffs, y_old).T).T

    def sample_derivative(self, t: float) -> np.ndarray:
        """d/dt of [p1, p2, q1, q2] along the trajectory at time t."""
        state = self.sample(t)
        return self._time_sign * full_rhs_array(state.as_array(), self.params.a, self.params.b)

    def separation(self, t: float) -> float:
        st = self.sample(t)
        return st.q2 - st.q1


@dataclass(frozen=True)
class _FieldDescription:
    """One representation, as the scalar and the lane stepper both read it:
    the field ``func(*args, *y)``, the map ``to_array`` of its vectors to
    [p1, p2, q1, q2] rows, its candidate terminal events (kind, g(y)), and
    ``start(a, b, p1, p2, q1, q2) -> (args, y0, ok)``: the field's
    coefficients and initial vector at a point, and whether the
    representation can run it.  ``start`` and the event functions use only
    arithmetic and comparisons, so they give the same bits on floats (one
    run) and on arrays over lanes (``_lane_points``)."""

    func: Callable
    to_array: Callable
    events: tuple
    start: Callable


def _full_start(a, b, p1, p2, q1, q2) -> tuple:
    """The full field, oriented once by the initial peak order: sigma = +1
    where q2 >= q1 (the peaks coinciding too), else -1 (see the module
    docstring), with its coefficients formed once.  Every point can run."""
    return _full_coefficients(a, b, 2.0 * (q2 >= q1) - 1.0), [p1, p2, q1, q2], True


def _reduced_start(a, b, p1, p2, q1, q2) -> tuple:
    """The reduced field on (q, h, w, z), with q1 carried as a fifth
    component; it needs q2 > q1."""
    return _reduced_coefficients(a, b), [q2 - q1, p2 - p1, p1 + p2, p1 * p2, q1], q2 > q1


_FULL = _FieldDescription(_full_rhs, np.asarray, (
    (EventKind.COLLISION, lambda y: y[3] - y[2]),
    (EventKind.MOMENTUM_ZERO_1, lambda y: y[0]),
    (EventKind.MOMENTUM_ZERO_2, lambda y: y[1]),
), _full_start)
_REDUCED = _FieldDescription(_reduced_rhs, _reduced_to_array, (
    (EventKind.COLLISION, lambda y: y[0]),
    (EventKind.MOMENTUM_ZERO_1, lambda y: 0.5 * (y[2] - y[1])),
    (EventKind.MOMENTUM_ZERO_2, lambda y: 0.5 * (y[1] + y[2])),
), _reduced_start)


def _description(representation: Representation) -> _FieldDescription:
    return _REDUCED if representation is Representation.REDUCED else _FULL


def _arming(events: tuple, y0) -> list:
    """Per event, whether it is armed at the initial vector y0 (floats, or
    arrays over lanes): the collision always, a momentum event only where
    p_i(0) != 0."""
    return [(kind is EventKind.COLLISION) | (g(y0) != 0.0) for kind, g in events]


def _may_overflow(a, b, p1, p2, maximum: Callable = max):
    """Whether the field can overflow at momenta (p1, p2): on floats with
    ``max``, on arrays over lanes with ``_max``.

    Both fields are sums of at most four terms, each a coefficient 1 - a,
    1 - 3a or 2 - b (or a small integer) times a monomial of degree at most
    four in the momenta (the reduced z' = (2-b) h w z e^{-2q} is quartic)
    times exponential factors that are at most 1 at t = 0.  If that bound
    is finite, so is the field; checking it evaluates no right-hand side.
    ``integrate`` and ``terminal_events`` pass the momenta read back from
    the initial vector (for the reduced field, rebuilt from h and w, which
    can move them by an ulp), so they judge a point alike.
    """
    m = maximum(maximum(1.0, abs(p1)), abs(p2))
    c = maximum(maximum(maximum(1.0, abs(1.0 - a)), abs(1.0 - 3.0 * a)), abs(2.0 - b))
    return 64.0 * c * m * m * m * m == math.inf  # c, m >= 1: a NaN never wins the max


def _solve(rhs: Callable, y0: list, to_array: Callable, events: Sequence, params: ABParams,
           config: IntegrationConfig, t_end: float, time_sign: float = 1.0) -> Trajectory:
    """Integrate ``rhs`` from y0 on [0, t_end] until the first of ``events``.

    The trajectory ends exactly at the located event time, or at t_end with
    a HORIZON record.  Step-size failure, a non-finite dense output at an
    event, or an event residual |g(T)| above ``event_tol`` raises
    IntegrationError with the last good state, and a non-finite end state
    ValueError.
    """
    initial = _state(to_array, y0)
    if t_end == 0.0:  # nothing to integrate: the constant trajectory
        rec = EventRecord(EventKind.HORIZON, 0.0, initial)
        return Trajectory(params, config, [0.0], [y0], [rec], None, to_array, time_sign)
    if _may_overflow(params.a, params.b, initial.p1, initial.p2):
        raise IntegrationError("the field may overflow at the initial state", 0.0, initial)

    stepper = _Dop853(rhs, config.rel_tol, config.abs_tol)
    try:
        ts, ys, hit = stepper.solve(y0, t_end, [g for _, g in events])
    except _StepFailure as exc:
        raise IntegrationError(str(exc), exc.t, _state(to_array, exc.y)) from None
    kind, g = events[hit] if hit is not None else (EventKind.HORIZON, None)
    residual = abs(g(ys[-1])) if g else 0.0
    if not residual <= config.event_tol:
        raise IntegrationError(
            f"{kind.value} event located only to |g| = {residual:.3g} > event_tol "
            f"{config.event_tol:g}", ts[-2], _state(to_array, ys[-2]))
    record = EventRecord(kind, ts[-1] if g else t_end, _state(to_array, ys[-1]))
    return Trajectory(params, config, ts, ys, [record], stepper, to_array, time_sign)


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
    fields = _description(config.representation)
    args, y0, ok = fields.start(params.a, params.b, initial.p1, initial.p2, initial.q1,
                                initial.q2)
    if not ok:  # only the reduced representation refuses a point
        raise ValueError("reduced representation requires q2 > q1")
    events = [event for event, on in zip(fields.events, _arming(fields.events, y0)) if on]
    return _solve(partial(fields.func, *args), y0, fields.to_array, events, params, config,
                  _horizon(config))


def _horizon(config: IntegrationConfig) -> float:
    return config.max_time if config.max_time is not None else DEFAULT_HORIZON


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
    args, y0, _ = _FULL.start(params.a, params.b, from_state.p1, from_state.p2, from_state.q1,
                              from_state.q2)
    forward = partial(_FULL.func, *args)
    return _solve(lambda *y: [-v for v in forward(*y)], y0, _FULL.to_array, (), params,
                  config, duration, time_sign=-1.0)


def terminal_events(a, b, p1, p2, q1, q2, horizon, config: IntegrationConfig) -> tuple:
    """For each point, given as columns (one value per point), what
    ``integrate(PeakonState(p1, p2, q1, q2), ABParams(a, b),
    replace(config, max_time=horizon))`` ends with.

    Returns columns (times, kinds): the terminal event's time and kind, or
    NaN and the exception that the call raises.  ``config`` gives every
    point its tolerances and representation; its own max_time is not read.
    With at least ``MIN_LANES`` points, they run in lockstep on the lane
    stepper (see the module docstring); each lane repeats the scalar run bit
    for bit.  Fewer points and every point the lanes cannot finish go
    through ``integrate`` itself, so a failing point raises exactly what it
    raises alone.
    """
    columns = [np.asarray(c, dtype=float) for c in (a, b, p1, p2, q1, q2, horizon)]
    n = columns[0].size
    times, kinds = np.full(n, math.nan), np.full(n, None, dtype=object)
    if n >= MIN_LANES:
        fields = _description(config.representation)
        index, args, y0, t_end = _lane_points(fields, *columns)
        t, event, y, _, _, ok = _lane_runs(fields, args, y0, t_end, config.rel_tol,
                                           config.abs_tol)
        with np.errstate(invalid="ignore"):  # what the scalar terminal record refuses
            ok &= np.isfinite(fields.to_array(y)).all(axis=0)
            for number, (_, g) in enumerate(fields.events):
                fired = event == number
                ok[fired] &= np.abs(g(y[:, fired])) <= config.event_tol
        # the horizon's event number, -1, reads the last name
        names = np.array([kind for kind, _ in fields.events] + [EventKind.HORIZON], dtype=object)
        times[index[ok]], kinds[index[ok]] = t[ok], names[event[ok]]
    for i in np.flatnonzero(np.isnan(times)).tolist():  # the points no lane finished
        a_i, b_i, *state, t_end_i = (float(c[i]) for c in columns)
        try:
            end = integrate(PeakonState(*state), ABParams(a_i, b_i),
                            replace(config, max_time=t_end_i)).terminal_event
            times[i], kinds[i] = end.time, end.kind
        except Exception as exc:  # the point's own failure, returned as its result
            kinds[i] = exc.with_traceback(None)  # keeps no frame alive
    return times, kinds.tolist()


def _lane_points(fields: _FieldDescription, a, b, p1, p2, q1, q2, horizon) -> tuple:
    """The points that can run as lanes of ``fields``, as (their indices,
    the field's coefficients (coefficient, lane), the initial vectors
    (component, lane), the horizons), built by the ``start`` that
    ``integrate`` calls on each point's floats.  Left out, for ``integrate``
    to reject: a point that ``start`` refuses, parameters, a horizon or a
    state read back from the initial vector that ``integrate`` would not
    take, and a field that may overflow there."""
    with np.errstate(over="ignore", invalid="ignore"):
        args, y0, ok = fields.start(a, b, p1, p2, q1, q2)
        y0 = np.array(y0)
        state = fields.to_array(y0)
        ok = (ok & np.isfinite(state).all(axis=0) & np.isfinite(a) & np.isfinite(b)
              & (horizon > 0.0) & ~_may_overflow(a, b, *state[:2], _max))
    index = np.flatnonzero(ok)
    return index, np.array(args)[:, index], y0[:, index], horizon[index]
