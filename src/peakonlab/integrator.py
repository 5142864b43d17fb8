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
one.  The reduced field is smooth through q = 0 already.

Both representations, forward and time-reversed runs, go through one
solve path, driven by a ``_Field`` record of the initial vector, the
right-hand side, the map back to [p1, p2, q1, q2] and the event functions.
Floating-point overflow in trial stages of an overflowing input is left to
the step controller (the step is rejected, or the solve fails with
IntegrationError).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .dynamics import PeakonState, _full_rhs, _reduced_rhs, full_rhs_array
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
ERROR_EXPONENT = -1.0 / 8.0  # -1 / (1 + order of the error estimate)
_ROOT_TOL = 4.0 * sys.float_info.epsilon


class _StepFailure(Exception):
    """Raised by the stepper with the last accepted (t, y)."""

    def __init__(self, message: str, t: float, y):
        super().__init__(message)
        self.t, self.y = t, y


def _rms(xs, scale) -> float:
    return math.hypot(*[x / s for x, s in zip(xs, scale)]) / len(scale) ** 0.5


def _combine(ks, row) -> list:
    """sum_j c_j k_j over the (stage, c_j) pairs of ``row``, per component,
    accumulated left to right."""
    out = [0.0] * len(ks[0])
    for j, c in row:
        out = [o + c * v for o, v in zip(out, ks[j - 1])]
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

    def _initial_step(self, y, f0, t_end: float) -> float:
        """HNW Sec. II.4 for an error estimate of order 7."""
        scale = [self.atol + abs(v) * self.rtol for v in y]
        d0, d1 = _rms(y, scale), _rms(f0, scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
        f1 = self.f(*[v + h0 * d for v, d in zip(y, f0)])
        self.nfev += 1
        d2 = _rms([u - v for u, v in zip(f1, f0)], scale) / h0
        if d1 <= 1e-15 and d2 <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** (1.0 / 8.0)
        return min(100 * h0, h1, t_end)

    def solve(self, y, t_end: float, events: Sequence[Callable]):
        """Returns (times, states, index of the event that fired or None)."""
        f, rtol, atol, n = self.f, self.rtol, self.atol, len(y)
        t, ts, ys, steps = 0.0, [0.0], [y], self.steps
        g = [gi(y) for gi in events]
        try:
            k1 = f(*y)
            self.nfev += 1
            h_abs = self._initial_step(y, k1, t_end)
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
                    k2 = f(*[v + h * (A21 * a) for v, a in zip(y, k1)])
                    k3 = f(*[v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)])
                    k4 = f(*[v + h * (A41 * a + A43 * c) for v, a, c in zip(y, k1, k3)])
                    k5 = f(*[v + h * (A51 * a + A53 * c + A54 * d)
                             for v, a, c, d in zip(y, k1, k3, k4)])
                    k6 = f(*[v + h * (A61 * a + A64 * d + A65 * e)
                             for v, a, d, e in zip(y, k1, k4, k5)])
                    k7 = f(*[v + h * (A71 * a + A74 * d + A75 * e + A76 * s6)
                             for v, a, d, e, s6 in zip(y, k1, k4, k5, k6)])
                    k8 = f(*[v + h * (A81 * a + A84 * d + A85 * e + A86 * s6 + A87 * s7)
                             for v, a, d, e, s6, s7 in zip(y, k1, k4, k5, k6, k7)])
                    k9 = f(*[v + h * (A91 * a + A94 * d + A95 * e + A96 * s6 + A97 * s7
                                      + A98 * s8)
                             for v, a, d, e, s6, s7, s8 in zip(y, k1, k4, k5, k6, k7, k8)])
                    k10 = f(*[v + h * (A101 * a + A104 * d + A105 * e + A106 * s6 + A107 * s7
                                       + A108 * s8 + A109 * s9)
                              for v, a, d, e, s6, s7, s8, s9
                              in zip(y, k1, k4, k5, k6, k7, k8, k9)])
                    k11 = f(*[v + h * (A111 * a + A114 * d + A115 * e + A116 * s6 + A117 * s7
                                       + A118 * s8 + A119 * s9 + A1110 * s10)
                              for v, a, d, e, s6, s7, s8, s9, s10
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
                    k12 = f(*[v + h * (A121 * a + A124 * d + A125 * e + A126 * s6 + A127 * s7
                                       + A128 * s8 + A129 * s9 + A1210 * s10 + A1211 * s11)
                              for v, a, d, e, s6, s7, s8, s9, s10, s11
                              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
                    late = list(zip(k1, k6, k7, k8, k9, k10, k11, k12))
                    y_new = [v + h * (B1 * a + B6 * s6 + B7 * s7 + B8 * s8 + B9 * s9
                                      + B10 * s10 + B11 * s11 + B12 * s12)
                             for v, (a, s6, s7, s8, s9, s10, s11, s12) in zip(y, late)]
                    self.nfev += 11
                    e5 = e3 = 0.0
                    for v, w, (a, s6, s7, s8, s9, s10, s11, s12) in zip(y, y_new, late):
                        sc = atol + max(abs(v), abs(w)) * rtol
                        r5 = (ER1 * a + ER6 * s6 + ER7 * s7 + ER8 * s8 + ER9 * s9 + ER10 * s10
                              + ER11 * s11 + ER12 * s12) / sc
                        r3 = (E31 * a + B6 * s6 + B7 * s7 + B8 * s8 + E39 * s9 + B10 * s10
                              + B11 * s11 + E312 * s12) / sc
                        e5 += r5 * r5
                        e3 += r3 * r3
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
                steps.append((t, h, y, y_new, (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11,
                                               k12, k13)))
                t, y, k1 = t_new, y_new, k13
                g_new = [gi(y) for gi in events]
                hits = [i for i, (u, v) in enumerate(zip(g, g_new))
                        if u <= 0.0 <= v or u >= 0.0 >= v]
                if hits:
                    return self._locate(events, hits, t, ts, ys)
                g = g_new
                ts.append(t)
                ys.append(y)
        except (OverflowError, ZeroDivisionError) as exc:
            raise _StepFailure(f"floating-point failure: {exc}", t, y) from None
        return ts, ys, None

    def _locate(self, events, hits, t_new: float, ts, ys):
        """The earliest event root on the last step [t_old, t_new], found on
        its dense output."""
        t_old, h, y_old, _, _ = self.steps[-1]
        coeffs = self.dense(len(self.steps) - 1)
        at = lambda t: [_interpolate((t - t_old) / h, c, v) for c, v in zip(coeffs, y_old)]
        try:
            roots = [(_root(lambda t: events[i](at(t)), t_old, t_new), i) for i in hits]
        except ValueError as exc:
            raise _StepFailure(str(exc), t_old, y_old) from None
        t_event, index = min(roots)
        ts.append(t_event)
        ys.append(at(t_event))
        return ts, ys, index

    def dense(self, i: int) -> list:
        """Per component, the coefficients d1 .. d7 of step i's interpolant
        (built once)."""
        if i not in self._dense:
            self._dense[i] = self._build_dense(*self.steps[i])
        return self._dense[i]

    def _build_dense(self, t, h, y, y_new, k) -> list:
        ks = list(k)
        for row in DENSE_STAGES:
            ks.append(self.f(*[v + h * c for v, c in zip(y, _combine(ks, row))]))
        self.nfev += len(DENSE_STAGES)
        rows = [_combine(ks, row) for row in DENSE_ROWS]
        out = []
        for v, w, f_old, f_new, *d in zip(y, y_new, ks[0], ks[12], *rows):
            dy = w - v
            out.append((dy, h * f_old - dy, 2 * dy - h * (f_new + f_old), *(h * c for c in d)))
        return out


# ---------------------------------------------------------------------------
# trajectories


def _full_to_array(y) -> np.ndarray:
    return np.asarray(y)


def _reduced_to_array(y) -> np.ndarray:
    """(q, h, w, z, q1) rows, with any trailing shape, to [p1, p2, q1, q2] rows."""
    q, h, w, _, q1 = y
    return np.array([0.5 * (w - h), 0.5 * (h + w), q1, q1 + q])


def _state(to_array: Callable, y) -> PeakonState:
    return PeakonState.from_array(to_array(y))


class Trajectory:
    """Accepted steps, located events and a dense interpolant.

    Immutable once produced, except that the interpolant of each step is
    built on the first call of ``sample`` or ``sample_array`` (three field
    evaluations a step, counted in ``nfev``).  ``sample`` evaluates the
    dense output and is valid on [t0, t_end]; ``sample_array`` does the
    same for a whole time vector (its rows equal ``sample``'s bit for bit);
    ``sample_derivative`` returns the exact field at the sampled state,
    which for a genuine solution equals the curve's time derivative.
    ``nfev``, ``steps`` and ``rejected`` count field evaluations and
    accepted and rejected steps.
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
        self._tables = None  # (t_old, h, y_old, coefficients) per step, once sampled

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

    def _interpolant(self):
        if self._tables is None:
            stepper = self._stepper
            coeffs = [stepper.dense(i) for i in range(len(stepper.steps))]
            t_old, h, y_old, _, _ = zip(*stepper.steps)
            self._tables = (np.array(t_old), np.array(h), np.array(y_old),
                            np.moveaxis(np.array(coeffs), -1, 0))
        return self._tables

    def sample(self, t: float) -> PeakonState:
        return PeakonState.from_array(self.sample_array([t])[0])

    def sample_array(self, ts) -> np.ndarray:
        """States at the given times as an (n, 4) array [p1, p2, q1, q2]."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        outside = (ts < self.t0 - 1e-12) | (ts > self.t_end + 1e-12)
        if outside.any():
            raise ValueError(f"t = {ts[outside][0]} outside [{self.t0}, {self.t_end}]")
        if self._stepper is None:
            return self._to_array(np.repeat(np.array(self._raw), len(ts), axis=0).T).T
        t_old, h, y_old, coeffs = self._interpolant()
        seg = np.clip(np.searchsorted(self.times, ts, side="left") - 1, 0, len(h) - 1)
        x = ((ts - t_old[seg]) / h[seg])[:, None]
        return self._to_array(_interpolate(x, coeffs[:, seg], y_old[seg]).T).T

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
    the right-hand side f(*y), the map of raw solver states to
    [p1, p2, q1, q2] rows, the terminal event functions g(y) with their
    kinds, and the direction of time (-1 for a reversed run)."""

    y0: list
    rhs: Callable
    to_array: Callable
    events: tuple = ()
    time_sign: float = 1.0


def _armed(g_coll: Callable, g_p1: Callable, g_p2: Callable, y0) -> tuple:
    """Terminal event functions; momentum events armed only if p_i(0) != 0."""
    events = [(EventKind.COLLISION, g_coll)]
    if g_p1(y0) != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_1, g_p1))
    if g_p2(y0) != 0.0:
        events.append((EventKind.MOMENTUM_ZERO_2, g_p2))
    return tuple(events)


def _full_field(initial: PeakonState, params: ABParams) -> _Field:
    """The full field, oriented once by the initial peak order (see the module
    docstring)."""
    orientation = 1.0 if initial.q2 >= initial.q1 else -1.0
    rhs = partial(_full_rhs, params.a, params.b, orientation)
    y0 = [initial.p1, initial.p2, initial.q1, initial.q2]
    events = _armed(lambda y: y[3] - y[2], lambda y: y[0], lambda y: y[1], y0)
    return _Field(y0, rhs, _full_to_array, events)


def _reduced_field(initial: PeakonState, params: ABParams) -> _Field:
    """The reduced field on (q, h, w, z), with q1 carried as a fifth component."""
    if initial.q2 <= initial.q1:
        raise ValueError("reduced representation requires q2 > q1")
    y0 = [
        initial.q2 - initial.q1,
        initial.p2 - initial.p1,
        initial.p1 + initial.p2,
        initial.p1 * initial.p2,
        initial.q1,
    ]
    events = _armed(
        lambda y: y[0],
        lambda y: 0.5 * (y[2] - y[1]),
        lambda y: 0.5 * (y[1] + y[2]),
        y0,
    )
    return _Field(y0, partial(_reduced_rhs, params.a, params.b), _reduced_to_array, events)


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


def _solve(
    field: _Field,
    params: ABParams,
    config: IntegrationConfig,
    t_end: float,
) -> Trajectory:
    """Integrate ``field`` on [0, t_end] until its first event.

    The trajectory ends exactly at the located event time, or at t_end with
    a HORIZON record.  Step-size failure, a non-finite dense output at an
    event, or an event residual above ``event_tol`` raises IntegrationError
    with the last good state.
    """
    to_array, time_sign = field.to_array, field.time_sign
    initial = _state(to_array, field.y0)
    if t_end == 0.0:  # nothing to integrate: the constant trajectory
        rec = EventRecord(EventKind.HORIZON, 0.0, initial)
        return Trajectory(params, config, [0.0], [field.y0], [rec], None, to_array, time_sign)
    if _field_may_overflow(initial, params):
        raise IntegrationError("the field may overflow at the initial state", 0.0, initial)

    stepper = _Dop853(field.rhs, config.rel_tol, config.abs_tol)
    try:
        ts, ys, hit = stepper.solve(field.y0, t_end, [g for _, g in field.events])
    except _StepFailure as exc:
        raise IntegrationError(str(exc), exc.t, _state(to_array, exc.y)) from None
    if hit is None:
        record = EventRecord(EventKind.HORIZON, t_end, _state(to_array, ys[-1]))
    else:
        kind, g = field.events[hit]
        residual = abs(g(ys[-1]))
        if not residual <= config.event_tol:
            raise IntegrationError(
                f"{kind.value} event located only to |g| = {residual:.3g} > event_tol "
                f"{config.event_tol:g}", ts[-2], _state(to_array, ys[-2]))
        record = EventRecord(kind, ts[-1], _state(to_array, ys[-1]))
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
    rhs = lambda *y: [-v for v in forward.rhs(*y)]
    field = _Field(forward.y0, rhs, forward.to_array, time_sign=-1.0)
    return _solve(field, params, config, duration)


def locate_collision(traj: Trajectory) -> Optional[EventRecord]:
    """First collision event of the trajectory, or None."""
    for rec in traj.events:
        if rec.kind is EventKind.COLLISION:
            return rec
    return None
