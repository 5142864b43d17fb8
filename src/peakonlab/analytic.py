"""Closed-form and quadrature invariants of the reduced flow.

Along any reduced trajectory the momentum product is an explicit function
of the separation,

    z(q) = z0 * (L_a(q) / L_a(mu)) ** ((2-b) / (2(1-3a))).

The exponent's pole at a = 1/3 is removable.  Writing the ratio as 1 + r,
with D = e^{-2q} - e^{-2mu} = e^{-2mu} expm1(2(mu-q)) and
r = -(1-3a) D / L_a(mu), gives one form for every a != 0,

    z(q) = z0 * exp(-(2-b) D / (2 L_a(mu)) * log1p(r)/r),

where log1p(r)/r is 1 at r = 0: a = 1/3 needs no second branch, and both
sides of it keep full accuracy (the power form loses about eps/|1 - 3a|).
Substituting z(q) into the h and w equations turns them into exact
differentials, so that

    h(t)^2 = h0^2 + 2*F1(q(t)),   w(t)^2 = w0^2 + 2*F2(q(t)),

where F1, F2 are integrals in the separation variable of the density
f(q) weighted by (1 + e^{-q}) and (1 - e^{-q}).  Since h^2 + 4z = w^2 is
conserved, F2 = F1 + 2(z(q) - z0), so only F1 needs a quadrature.  These
identities hold as long as the separation stays in the range where L_a
keeps a fixed sign (r > -1), and they bound the momenta up to the collision.
``InvariantContext.from_initial`` reads (mu, z0, h0, w0) off a state through
``dynamics.to_reduced``, and holds the state to the order q2 >= q1 under
which the reduced flow is derived.

The quadrature's integrand is a float-level copy of ``f_density``'s
formula (``math`` calls), since numpy's cost on a single float would
outweigh the arithmetic at each of its nodes.  ``f_density`` and
``z_closed_form`` keep their array form for every other caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import PeakonState, to_reduced
from .params import ABParams, l_a

_QUAD_ABS_TOL = 1e-12
_RANGE_ERROR = "separation left the sign-definite range of L_a"
_IDENTITY_TOL = 1e-9  # accepted violation of h0^2 + 4 z0 = w0^2
#: roundoff slack allowed on the q2 >= q1 orientation requirement
ORIENTATION_TOL = 1e-12


@dataclass(frozen=True)
class InvariantContext:
    """Initial reduced data (mu, z0, h0, w0) plus the equation parameters."""

    params: ABParams
    mu: float
    z0: float
    h0: float
    w0: float

    def __post_init__(self) -> None:
        # relative to the largest term: at large opposite momenta h0^2 and
        # 4 z0 cancel to a small w0^2, leaving their roundoff in the gap
        gap = abs(self.h0**2 + 4.0 * self.z0 - self.w0**2)
        if gap > _IDENTITY_TOL * max(1.0, self.h0**2, 4.0 * abs(self.z0), self.w0**2):
            raise ValueError(f"h0^2 + 4 z0 = w0^2 violated by {gap:.3e}")

    @classmethod
    def from_initial(cls, params: ABParams, state: PeakonState) -> "InvariantContext":
        """The context of a state with q2 >= q1, up to roundoff (a located
        collision state may cross by an ulp)."""
        if state.q2 < state.q1 - ORIENTATION_TOL * max(1.0, abs(state.q1)):
            raise ValueError(f"orientation q2 >= q1 violated: q1={state.q1}, q2={state.q2}")
        q, h, w, z = to_reduced(state.p1, state.p2, state.q1, state.q2)
        return cls(params=params, mu=q, z0=z, h0=h, w0=w)


def _z_constants(ctx: InvariantContext) -> tuple:
    """(e^{-2mu}, -(1-3a)/L_a(mu), -(2-b)/(2 L_a(mu))): with D as in the
    module docstring, r is the second times D, and ln(z/z0) the third times
    D log1p(r)/r."""
    a, b = ctx.params.a, ctx.params.b
    if a == 0:
        raise ValueError("a must be nonzero")
    e_mu = math.exp(-2.0 * ctx.mu)
    l_mu = (1.0 - a) - (1.0 - 3.0 * a) * e_mu
    if l_mu == 0:
        raise ValueError(_RANGE_ERROR)
    return e_mu, -(1.0 - 3.0 * a) / l_mu, -(2.0 - b) / (2.0 * l_mu)


def _z_parts(ctx: InvariantContext, q: np.ndarray) -> tuple:
    """(z, outside) on the float array q: z(q), and the mask of separations
    outside the range where L_a(q)/L_a(mu) = 1 + r stays positive, where z
    is nan."""
    if ctx.params.b == 2.0:
        # zero exponent: constant product, valid for every separation and a
        return np.full_like(q, ctx.z0), np.zeros(q.shape, dtype=bool)
    e_mu, s, rate = _z_constants(ctx)
    d = e_mu * np.expm1(2.0 * (ctx.mu - q))
    r = s * d
    outside = r <= -1.0
    with np.errstate(divide="ignore", invalid="ignore"):  # r <= -1 and r = 0, masked
        g = np.where(r == 0.0, 1.0, np.log1p(r) / r)
    return np.where(outside, math.nan, ctx.z0 * np.exp(rate * d * g)), outside


def z_closed_form(ctx: InvariantContext, q):
    """Momentum product as an explicit function of the separation.

    Equals z0 at q = mu and is constant when b = 2, for any a.  Accepts
    scalars or arrays, both through the same numpy expression, which serves
    every a != 0, a = 1/3 included.  Raises ValueError at a = 0 otherwise,
    and outside the range where L_a(q)/L_a(mu) stays positive, since the
    derivation integrates d(ln|z|) there.
    """
    val, outside = _z_parts(ctx, np.asarray(q, dtype=float))
    if outside.any():
        raise ValueError(_RANGE_ERROR)
    return float(val) if val.ndim == 0 else val


def f_density(ctx: InvariantContext, q):
    """Density f(q) = -(2-b) e^{-q} z(q) / L_a(q), smooth and bounded.

    Satisfies h h' = (1 + e^{-q}) f(q) q' and w w' = (1 - e^{-q}) f(q) q'
    pointwise along trajectories; identically zero when b = 2.
    """
    a, b = ctx.params.a, ctx.params.b
    q = np.asarray(q, dtype=float)
    if b == 2.0:
        val = np.zeros_like(q)
    else:
        val = -(2.0 - b) * np.exp(-q) * z_closed_form(ctx, q) / l_a(a, q)
    return float(val) if val.ndim == 0 else val


def _weighted_density(ctx: InvariantContext) -> Callable[[float], float]:
    """rho -> (1 + e^{-rho}) f(rho), the integrand of F1, on Python floats.

    ``f_density``'s formula with the constants and the expression of
    ``z_closed_form``, in ``math`` calls: numpy's handling of a single float
    would cost more than the arithmetic.  The values agree with
    ``f_density``'s to roundoff, and the same ValueError is raised outside
    the sign-definite range.  Where a float overflows, numpy's rules
    decide: that point is evaluated through ``f_density``, whose overflow
    warnings are silenced (``F1`` judges the value it integrates to).
    """
    a, b = ctx.params.a, ctx.params.b
    if b == 2.0:  # the weight stays, so a node past its overflow fails as before
        return lambda rho: (1.0 + math.exp(-rho)) * 0.0
    e_mu, s, rate = _z_constants(ctx)
    c, d3 = 1.0 - a, 1.0 - 3.0 * a
    head, z0, mu = -(2.0 - b), ctx.z0, ctx.mu

    def integrand(rho: float) -> float:
        try:
            d = e_mu * math.expm1(2.0 * (mu - rho))
            r = s * d
            if r <= -1.0:
                raise ValueError(_RANGE_ERROR)
            z = z0 * math.exp(rate * d * (math.log1p(r) / r if r else 1.0))
            e, e2 = math.exp(-rho), math.exp(-2.0 * rho)
            return (1.0 + e) * (head * e * z / (c - d3 * e2))
        except OverflowError:
            with np.errstate(all="ignore"):
                return (1.0 + math.exp(-rho)) * f_density(ctx, rho)

    return integrand


def F1(ctx: InvariantContext, q: float) -> float:
    """Integral of (1 + e^{-rho}) f(rho) from mu to q; F1(mu) = 0.

    A NaN q raises ValueError (the quadrature over [mu, nan] would return 0),
    and so does a q where the integral is not finite or the quadrature's
    own error estimate misses its tolerance (F2, h_sq and w_sq raise with
    it).  That estimate judges the quadrature, so scipy's own verdict is
    taken as a return value (``full_output``), not as a warning.
    """
    from scipy.integrate import quad  # imported on use, off the import path

    if math.isnan(q):
        raise ValueError("separation q is NaN")
    if q == ctx.mu:
        return 0.0
    try:
        val, err = quad(_weighted_density(ctx), ctx.mu, q, epsabs=_QUAD_ABS_TOL,
                        epsrel=_QUAD_ABS_TOL, limit=200, full_output=1)[:2]
    except OverflowError:  # a node's density overflows a float
        val = math.inf
    if not math.isfinite(val):  # far below mu, where e^{-2q} or z(q) overflows a float
        raise ValueError(f"F1 is not finite at separation q = {q:g}")
    if err > 100 * _QUAD_ABS_TOL * max(1.0, abs(val)):
        raise ValueError(f"F1 quadrature did not converge at separation q = {q:g}: "
                         f"estimated error {err:.3e}")
    return val


def F2(ctx: InvariantContext, q: float) -> float:
    """Integral of (1 - e^{-rho}) f(rho) from mu to q; F2(mu) = 0.

    Along the closed form dz/drho = -e^{-rho} f(rho), so the weights'
    difference -2 e^{-rho} f integrates to 2(z(q) - z0): F2 is F1 plus that.
    """
    return F1(ctx, q) + 2.0 * (z_closed_form(ctx, q) - ctx.z0)


def h_sq(ctx: InvariantContext, q: float) -> float:
    """h0^2 + 2*F1(q).

    Returned verbatim even when negative; a negative value means the
    requested separation lies outside the range actually swept by a
    trajectory with this initial data, where h would have to change sign.
    """
    return ctx.h0**2 + 2.0 * F1(ctx, q)


def w_sq(ctx: InvariantContext, q: float) -> float:
    """w0^2 + 2*F2(q), returned verbatim (may be negative, see h_sq)."""
    return ctx.w0**2 + 2.0 * F2(ctx, q)
