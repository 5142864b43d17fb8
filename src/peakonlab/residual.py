"""Pointwise verification of the wave equation for the two-peakon ansatz.

Away from the peak positions the ansatz is smooth, so every term of

    u_t + u^2 u_x - a u_x^3
        + D^{-2} d/dx [ (b/3) u^3 + (6-6a-b)/2 u u_x^2 ]
        + D^{-2} [ (2a+b-2)/2 u_x^3 ]

can be evaluated classically; the residual vanishes (to roundoff) exactly
when the momenta and positions move along the peakon field.
D^{-2} = (1 - d^2/dx^2)^{-1} acts by convolution with the kernel
e^{-|x-y|}/2, and both nonlocal terms are integrated in closed form.

The peaks cut the line into three pieces [y0, y1].  On each one
u = A e^{y-ya} + B e^{yb-y} and u_y = A e^{y-ya} - B e^{yb-y}, with the
anchors ya >= y1 and yb <= y0 at the ends of the piece (the outer pieces
carry only one of the two exponentials).  So both integrands are sums of
the four monomials A^j B^(3-j) e^{j(y-ya) + (3-j)(yb-y)}, j = 0..3.  Split
at y = x, the kernel times a monomial is one exponential with integer
slope 2j-2 (y < x) or 2j-4 (y > x).  The two zero slopes, the resonant
pairings, would integrate to lengths of intervals, but their coefficients
cancel between the two nonlocal terms for every (a, b), so each integral
is one expm1.  Each exponential is evaluated at the end of its interval
where it is largest, and that value is at most 1, so nothing overflows
however far x lies from the peaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .params import ABParams

DEFAULT_EXCLUSION_RADIUS = 0.1


@dataclass(frozen=True)
class ResidualReport:
    """Residual values at off-peak sample points."""

    sample_points: tuple
    residual_values: tuple
    max_abs_residual: float
    exclusion_radius: float


def _side_integral(x: float, c0: float, c1: float, slope: int, j: int, ya: float, yb: float) -> float:
    """int_{c0}^{c1} e^{-|x-y|} e^{j(y-ya) + (3-j)(yb-y)} dy for [c0, c1] on
    one side of x, where the whole exponent has the nonzero slope ``slope``."""
    if not c0 < c1:
        return 0.0
    c = c1 if slope > 0 else c0  # where the exponent is largest
    top = -abs(x - c) + j * (c - ya) + (3 - j) * (yb - c)
    m = abs(slope)
    return math.exp(top) * -math.expm1(-m * (c1 - c0)) / m


def _nonlocal_terms(p1: float, p2: float, q1: float, q2: float, x: float, a: float, b: float) -> float:
    """d/dx D^{-2}[g1] + D^{-2}[g2] at x, for g1 = (b/3) u^3 + (6-6a-b)/2 u u_x^2
    and g2 = (2a+b-2)/2 u_x^3.

    The kernels are e^{-|x-y|}/2 and sgn(y-x) e^{-|x-y|}/2, so the integrand
    is (g2 - g1)/2 left of x and (g2 + g1)/2 right of it.  With u = P + Q
    and u_y = P - Q,

        g2 - g1 =  k0 P^3 - k1 P^2 Q +  0 P Q^2 + k2 Q^3,
        g2 + g1 = -k2 P^3 +  0 P^2 Q + k1 P Q^2 - k0 Q^3,

    k0 = 4a + 2b/3 - 4, k1 = 3(2a + b - 2), k2 = 2a - b/3 - 2.  The two
    zeros are the resonant pairings, whose integrals would be lengths of
    intervals: they cancel between the two nonlocal terms for every (a, b).
    """
    (qlo, plo), (qhi, phi) = sorted(((q1, p1), (q2, p2)))
    tail = math.exp(qlo - qhi)
    pieces = (  # (y0, y1, A, ya, B, yb)
        (-math.inf, qlo, plo + phi * tail, qlo, 0.0, qlo),
        (qlo, qhi, phi, qhi, plo, qlo),
        (qhi, math.inf, 0.0, qhi, phi + plo * tail, qhi),
    )
    k0 = 4.0 * a + 2.0 * b / 3.0 - 4.0
    k1 = 3.0 * (2.0 * a + b - 2.0)
    k2 = 2.0 * a - b / 3.0 - 2.0
    terms = ((3, k0, -k2), (2, -k1, 0.0), (1, 0.0, k1), (0, k2, -k0))  # (j, left, right)
    total = 0.0
    for y0, y1, A, ya, B, yb in pieces:
        weights = (A * A * A, A * A * B, A * B * B, B * B * B)
        for (j, left, right), weight in zip(terms, weights):
            if weight == 0.0:  # absent on the outer pieces, where it would not decay
                continue
            # the kernel's slope in y is +1 left of x and -1 right of it; the
            # zero coefficients, at the slope-0 pairings, are skipped
            if left:
                total += left * weight * _side_integral(x, y0, min(y1, x), 2 * j - 2, j, ya, yb)
            if right:
                total += right * weight * _side_integral(x, max(y0, x), y1, 2 * j - 4, j, ya, yb)
    return 0.5 * total


def pde_residual(
    traj,
    t: float,
    x: float,
    params: ABParams,
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
) -> float:
    """Signed residual of the wave equation at an off-peak point (x, t).

    The time derivative comes from the trajectory's motion through the
    chain rule (no finite differencing of dense output); spatial
    derivatives are the exact piecewise exponentials; the two nonlocal
    terms are exact piecewise-exponential integrals.  ``traj`` needs
    ``sample`` and ``sample_derivative``; x must keep the exclusion
    distance from both peaks.
    """
    state = traj.sample(t)
    a, b = params.a, params.b
    dist = min(abs(x - state.q1), abs(x - state.q2))
    if dist < exclusion_radius:
        raise ValueError(
            f"x = {x} within exclusion radius {exclusion_radius} of a peak"
        )
    nonlocal_terms = _nonlocal_terms(state.p1, state.p2, state.q1, state.q2, x, a, b)

    dp1, dp2, dq1, dq2 = traj.sample_derivative(t)
    e1 = math.exp(-abs(x - state.q1))
    e2 = math.exp(-abs(x - state.q2))
    s1 = math.copysign(1.0, x - state.q1)
    s2 = math.copysign(1.0, x - state.q2)
    u = state.p1 * e1 + state.p2 * e2
    ux = -state.p1 * s1 * e1 - state.p2 * s2 * e2
    ut = dp1 * e1 + state.p1 * s1 * e1 * dq1 + dp2 * e2 + state.p2 * s2 * e2 * dq2

    return ut + u * u * ux - a * ux**3 + nonlocal_terms


def residual_report(
    traj,
    t: float,
    params: ABParams,
    points=None,
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
) -> ResidualReport:
    """Residuals at a set of off-peak abscissae (defaults: left of, between
    and right of the peaks).  Points inside the exclusion radius are
    dropped."""
    state = traj.sample(t)
    if points is None:
        lo, hi = sorted((state.q1, state.q2))
        points = [lo - 2.0, 0.5 * (lo + hi), hi + 2.0]
    kept = [
        float(x)
        for x in points
        if min(abs(x - state.q1), abs(x - state.q2)) >= exclusion_radius
    ]
    values = [pde_residual(traj, t, x, params, exclusion_radius) for x in kept]
    return ResidualReport(
        sample_points=tuple(kept),
        residual_values=tuple(values),
        max_abs_residual=max((abs(v) for v in values), default=0.0),
        exclusion_radius=exclusion_radius,
    )
