"""Closed-form and quadrature invariants of the reduced flow.

Along any reduced trajectory the momentum product is an explicit function
of the separation,

    z(q) = z0 * (L_a(q) / L_a(mu)) ** ((2-b) / (2(1-3a))),

with a removable singularity at a = 1/3 where the exponential limit form
applies.  Substituting z(q) into the h and w equations turns them into
exact differentials, so that

    h(t)^2 = h0^2 + 2*F1(q(t)),   w(t)^2 = w0^2 + 2*F2(q(t)),

where F1, F2 are integrals in the separation variable of the density
f(q) weighted by (1 + e^{-q}) and (1 - e^{-q}).  Since h^2 + 4z = w^2 is
conserved, F2 = F1 + 2(z(q) - z0), so only F1 needs a quadrature.  These
identities hold as long as the separation stays in the range where L_a
keeps a fixed sign, and they bound the momenta up to the collision.

The quadrature's integrand is a float-level copy of ``f_density``'s
formula (``math.exp`` and the float ``**``), since numpy's cost on a single
float would outweigh the arithmetic at each of its nodes.  ``f_density`` and
``z_closed_form`` keep their array form for every other caller.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import PeakonState, to_reduced
from .params import _THIRD_TOL, ABParams, l_a

_QUAD_ABS_TOL = 1e-12
_RANGE_ERROR = "separation left the sign-definite range of L_a"
_IDENTITY_TOL = 1e-9  # accepted violation of h0^2 + 4 z0 = w0^2


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
        red = to_reduced(state)
        return cls(params=params, mu=red.q, z0=red.z, h0=red.h, w0=red.w)


def _scalar_pow(base, exponent: float):
    """base ** exponent, evaluated with the scalar pow for every element.

    numpy's ``**`` on arrays uses a vectorised pow that can round the last
    bit differently; going through math.pow elementwise keeps
    z_closed_form(ctx, q)[i] identical to z_closed_form(ctx, q[i]).
    """
    if np.ndim(base) == 0:
        return base**exponent
    return np.frompyfunc(math.pow, 2, 1)(base, exponent).astype(float)


def z_closed_form(ctx: InvariantContext, q):
    """Momentum product as an explicit function of the separation.

    Equals z0 at q = mu and is constant when b = 2, for any a.  Accepts
    scalars or arrays.  Raises ValueError at a = 0 otherwise, and outside
    the range where L_a(q)/L_a(mu) stays positive, since the derivation
    integrates d(ln|z|) there.  Array and scalar calls agree bit for bit.
    """
    a, b = ctx.params.a, ctx.params.b
    q = np.asarray(q, dtype=float)
    if b == 2.0:
        # zero exponent: constant product, valid for every separation and a
        val = np.full_like(q, ctx.z0)
    elif a == 0:
        raise ValueError("a must be nonzero")
    elif abs(1.0 - 3.0 * a) < _THIRD_TOL:
        val = ctx.z0 * np.exp(
            -(3.0 * (2.0 - b) / 4.0) * (np.exp(-2.0 * q) - np.exp(-2.0 * ctx.mu))
        )
    else:
        ratio = l_a(a, q) / l_a(a, ctx.mu)
        if np.any(ratio <= 0):
            raise ValueError(_RANGE_ERROR)
        val = ctx.z0 * _scalar_pow(ratio, (2.0 - b) / (2.0 * (1.0 - 3.0 * a)))
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

    ``f_density``'s formula with ``math.exp`` and the float ``**``: numpy's
    handling of a single float would cost more than the arithmetic.  The
    values agree with ``f_density``'s to roundoff, and the same ValueError
    is raised outside the sign-definite range.  Where a float overflows,
    numpy's rules decide, as they did before: that point is evaluated
    through ``f_density``.
    """
    a, b = ctx.params.a, ctx.params.b
    if b == 2.0:  # the weight stays, so a node past its overflow fails as before
        return lambda rho: (1.0 + math.exp(-rho)) * 0.0
    if a == 0:
        raise ValueError("a must be nonzero")
    c, d = 1.0 - a, 1.0 - 3.0 * a
    head, z0 = -(2.0 - b), ctx.z0
    e_mu = math.exp(-2.0 * ctx.mu)
    if abs(d) < _THIRD_TOL:
        rate = -(3.0 * (2.0 - b) / 4.0)

        def z_of(e2):
            return z0 * math.exp(rate * (e2 - e_mu))
    else:
        l_mu, k = c - d * e_mu, (2.0 - b) / (2.0 * d)

        def z_of(e2):
            ratio = (c - d * e2) / l_mu
            if ratio <= 0:
                raise ValueError(_RANGE_ERROR)
            return z0 * ratio**k

    def integrand(rho: float) -> float:
        try:
            e, e2 = math.exp(-rho), math.exp(-2.0 * rho)
            return (1.0 + e) * (head * e * z_of(e2) / (c - d * e2))
        except OverflowError:
            return (1.0 + math.exp(-rho)) * f_density(ctx, rho)

    return integrand


def _potential(ctx: InvariantContext, q: float) -> float:
    from scipy.integrate import quad  # imported on use, off the import path

    if math.isnan(q):
        raise ValueError("separation q is NaN")
    if q == ctx.mu:
        return 0.0
    try:
        val, err = quad(
            _weighted_density(ctx),
            ctx.mu,
            q,
            epsabs=_QUAD_ABS_TOL,
            epsrel=_QUAD_ABS_TOL,
            limit=200,
        )
    except OverflowError:  # a node's density overflows a float
        val = math.inf
    if not math.isfinite(val):  # far below mu, where e^{-2q} or z(q) overflows a float
        raise ValueError(f"F1 is not finite at separation q = {q:g}")
    if err > 100 * _QUAD_ABS_TOL * max(1.0, abs(val)):
        warnings.warn(
            f"potential quadrature did not converge: estimated error {err:.3e}",
            stacklevel=3,
        )
    return val


def F1(ctx: InvariantContext, q: float) -> float:
    """Integral of (1 + e^{-rho}) f(rho) from mu to q; F1(mu) = 0.

    A NaN q raises ValueError (the quadrature over [mu, nan] would return 0),
    and so does a q where the integral is not finite (F2, h_sq and w_sq
    raise with it).
    """
    return _potential(ctx, q)


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
