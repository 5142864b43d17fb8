"""Equation parameters, quadrant classification and initial-data construction.

The two-parameter family is indexed by reals (a, b).  The sign pattern of
(a, b - 2) selects one of four collision scenarios, each with its own
two-peakon initial profile built from a magnitude scale ``alpha``, an
asymmetry ``delta`` and an initial peak separation ``mu``.  The separation
is tied to the design constant ``c`` through the factor

    L_a(q) = 1 - e^{-2q} + 3a e^{-2q} - a,

which multiplies h*w in the separation rate and keeps a fixed sign on the
interval swept before the collision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .dynamics import PeakonState

#: separation used when the mu formula does not apply (a = 1/3 and the
#: 0 < a < 1/3 range, where any small positive separation works)
DEFAULT_SMALL_MU = 0.1

#: default magnitude scale and asymmetry for canned experiments
DEFAULT_ALPHA = 1.0
DEFAULT_DELTA = 0.5

#: first candidate and scan step for the separation design constant
DEFAULT_C = 1.5
C_SCAN_STEP = 0.05

_THIRD_TOL = 1e-9  # |1 - 3a| below this selects the a = 1/3 branch


class CaseID(Enum):
    """Quadrant of the (a, b) plane, excluding a = 0 and b = 2."""

    CASE1 = "case1"  # a > 0, b > 2: peakon-antipeakon
    CASE2 = "case2"  # a > 0, b < 2: two peakons, taller one behind
    CASE3 = "case3"  # a < 0, b > 2: two peakons, taller one in front
    CASE4 = "case4"  # a < 0, b < 2: antipeakon-peakon
    B2_DEGENERATE = "b2"  # b = 2: momenta are frozen, no construction


@dataclass(frozen=True)
class ABParams:
    """Equation parameters (a, b).

    a = 0 is accepted here because the plain dynamics remain well defined;
    every construction that needs the collision mechanism rejects it.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("equation parameters must be finite")


@dataclass(frozen=True)
class CaseSpec:
    """Initial-data recipe for one collision case.

    ``c`` is None when the separation was not produced by the L_a(mu) = c*a
    design equation (the a = 1/3 branch and its 0 < a < 1/3 fallback).
    """

    case_id: CaseID
    alpha: float = DEFAULT_ALPHA
    delta: float = DEFAULT_DELTA
    mu: float = DEFAULT_SMALL_MU
    c: Optional[float] = None

    def __post_init__(self) -> None:
        if self.case_id is CaseID.B2_DEGENERATE:
            raise ValueError("b = 2 admits no collision construction")
        if not all(math.isfinite(v) and v > 0 for v in (self.alpha, self.delta)):
            raise ValueError("alpha and delta must be finite and positive")
        if not 0 < self.mu <= 1:
            raise ValueError(f"mu must lie in (0, 1], got {self.mu}")
        if self.c is not None and not 1 < self.c < 2:
            raise ValueError(f"c must lie in (1, 2), got {self.c}")


def classify(params: ABParams) -> CaseID:
    """Map (a, b) to its collision case.

    Returns the B2_DEGENERATE marker for b = 2 and raises ValueError for
    a = 0, where the construction does not apply.
    """
    if params.a == 0:
        raise ValueError("a = 0: collision construction does not apply")
    if params.b == 2:
        return CaseID.B2_DEGENERATE
    if params.a > 0:
        return CaseID.CASE1 if params.b > 2 else CaseID.CASE2
    return CaseID.CASE3 if params.b > 2 else CaseID.CASE4


def l_a(a: float, q) -> float:
    """Factor 1 - e^{-2q} + 3a e^{-2q} - a multiplying h*w in dq/dt.

    Tends to 2a as q -> 0 and to 1 - a as q -> infinity.  On the interval
    [0, mu] produced by ``compute_mu`` it is bounded between 2a and c*a and
    therefore carries the sign of a.  Accepts scalars or arrays.
    """
    e2 = np.exp(-2.0 * q)
    return (1.0 - a) - (1.0 - 3.0 * a) * e2


def _log_argument(a: float, c: float) -> tuple:
    """Argument ((c+1)a - 1)/(3a - 1) of ``compute_mu``'s logarithm, and
    whether it lies in (0, 1): whether c is admissible for a (a != 0, 1/3)."""
    arg = ((c + 1.0) * a - 1.0) / (3.0 * a - 1.0)
    return arg, 0 < arg < 1


def compute_mu(a: float, c: float) -> float:
    """Separation mu with L_a(mu) = c*a, via mu = -ln(((c+1)a-1)/(3a-1))/2.

    Raises ValueError when the logarithm argument falls outside (0, 1),
    which signals that this c is inadmissible for this a.
    """
    if a == 0:
        raise ValueError("a must be nonzero")
    if abs(1.0 - 3.0 * a) < _THIRD_TOL:
        raise ValueError("a = 1/3: use a small positive mu directly")
    if not 1 < c < 2:
        raise ValueError(f"c must lie in (1, 2), got {c}")
    arg, admissible = _log_argument(a, c)
    if not admissible:
        raise ValueError(
            f"c = {c} inadmissible for a = {a}: log argument {arg} not in (0, 1)"
        )
    return -0.5 * math.log(arg)


def admissible_c(a: float, first: float = DEFAULT_C, step: float = C_SCAN_STEP) -> Optional[float]:
    """First admissible design constant, or None if the scan finds none.

    Tries ``first``, then walks the open interval (1, 2) in ``step``
    increments.  For 0 < a < 1/3 (and at a = 0 and a = 1/3) no c is
    admissible and the caller falls back to a small fixed separation.
    """
    if a == 0 or abs(1.0 - 3.0 * a) < _THIRD_TOL:
        return None
    n = int(round((2.0 - 1.0) / step))
    for c in [first] + [1.0 + k * step for k in range(1, n)]:
        if 1 < c < 2 and _log_argument(a, c)[1]:
            return c
    return None


def case_spec_for(
    params: ABParams,
    alpha: float = DEFAULT_ALPHA,
    delta: float = DEFAULT_DELTA,
    mu: Optional[float] = None,
    c: Optional[float] = None,
) -> CaseSpec:
    """Resolve a full initial-data recipe for the given parameters.

    Separation policy: the a = 1/3 branch takes mu = 0.1 (any small value
    works there); other a use the L_a(mu) = c*a design with c = 1.5 or the
    first admissible value from a 0.05-step scan of (1, 2).  For
    0 < a < 1/3 no c is admissible and the small fixed separation is used,
    which still bounds L_a below by 2a > a on the swept interval.
    Explicit ``mu`` overrides are validated against the design equation
    when a < 0, where the collision-rate bound relies on it.  A given ``c``
    must lie in (1, 2) at every a, also where the design does not use it.
    """
    case = classify(params)
    if case is CaseID.B2_DEGENERATE:
        raise ValueError("b = 2: momenta are frozen and no case profile exists")
    a = params.a
    if c is not None and not 1 < c < 2:
        raise ValueError(f"c must lie in (1, 2), got {c}")

    if abs(1.0 - 3.0 * a) < _THIRD_TOL:
        return CaseSpec(case, alpha, delta, mu if mu is not None else DEFAULT_SMALL_MU, None)

    if mu is not None:
        # derive the effective c and check it sits in the open design interval
        c_eff = float(l_a(a, mu)) / a
        if not 1 < c_eff < 2:
            if not 0 < a < 1 / 3:
                raise ValueError(
                    f"mu = {mu} gives L_a(mu)/a = {c_eff:.6g} outside (1, 2); "
                    "the collision-rate bound needs the designed separation"
                )
            c_eff = None  # a in (0, 1/3): L_a >= 2a for any mu, a is a bound
        return CaseSpec(case, alpha, delta, mu, c_eff)

    c_use = c if c is not None else admissible_c(a)
    if c_use is None:
        if a < 0:  # every c in (1, 2) is admissible here in exact arithmetic
            raise ValueError(f"a = {a:g}: the separation design's log argument "
                             "((c+1)a - 1)/(3a - 1) overflows or rounds out of (0, 1) "
                             "for every c scanned")
        # 0 < a < 1/3, where no c is admissible, or a just above 1/3, where
        # the scan stops short of the c it needs; cases 1-2 need no c
        return CaseSpec(case, alpha, delta, DEFAULT_SMALL_MU, None)
    return CaseSpec(case, alpha, delta, compute_mu(a, c_use), c_use)


# (p1, p2) signs and magnitudes per case; q1 = 0 and q2 = mu always
_PROFILES = {
    CaseID.CASE1: lambda al, de: (al + de, -al),
    CaseID.CASE2: lambda al, de: (al + de, al),
    CaseID.CASE3: lambda al, de: (al, al + de),
    CaseID.CASE4: lambda al, de: (-al, al + de),
}


def make_initial_profile(spec: CaseSpec) -> PeakonState:
    """Two-peakon initial data for the case: q1 = 0, q2 = mu.

    Case 1: (alpha+delta, -alpha); Case 2: (alpha+delta, alpha);
    Case 3: (alpha, alpha+delta); Case 4: (-alpha, alpha+delta).
    The diagnostic p = p2^2 - p1^2 starts at -(2*alpha*delta + delta^2)
    for Cases 1-2 and at +(2*alpha*delta + delta^2) for Cases 3-4.
    """
    p1, p2 = _PROFILES[spec.case_id](spec.alpha, spec.delta)
    return PeakonState(p1=p1, p2=p2, q1=0.0, q2=spec.mu)


def case_epsilon(spec: CaseSpec, params: ABParams) -> float:
    """Guaranteed decrease rate of the separation: dq/dt <= -epsilon.

    Cases 1-2 use epsilon = a*(2*alpha*delta + delta^2); Cases 3-4 use
    epsilon = |c*a|*(2*alpha*delta + delta^2) and therefore require the
    designed separation.  Raises ValueError when alpha and delta are so
    small or so large that 2*alpha*delta + delta^2 under- or overflows.
    """
    gap = 2.0 * spec.alpha * spec.delta + spec.delta * spec.delta
    if not 0.0 < gap < math.inf:
        raise ValueError(f"2 alpha delta + delta^2 = {gap} is not a positive finite number")
    if spec.case_id in (CaseID.CASE1, CaseID.CASE2):
        return params.a * gap
    if spec.c is None:
        raise ValueError("cases 3-4 need the designed separation constant c")
    return abs(spec.c * params.a) * gap


def collision_time_bound(spec: CaseSpec, params: ABParams) -> float:
    """Upper bound mu/epsilon on the first collision or vanishing time."""
    return spec.mu / case_epsilon(spec, params)
