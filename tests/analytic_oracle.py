"""Earlier forms of the analytic invariants, kept as oracles.

``potential_quadrature``: ``analytic.F1`` once integrated
(1 + e^{-rho}) f_density(ctx, rho) with ``f_density`` itself, a numpy call
per node.  It now integrates a float-level copy of that formula; this is the
old integrand, kept as the oracle that the copy is checked against.

``z_two_branch``: z(q) as ``analytic.z_closed_form`` computed it before it
had one form across a = 1/3: the power form z0 (L_a(q)/L_a(mu))^k,
k = (2-b)/(2(1-3a)), and the exponential limit form inside a band of width
1e-9 around a = 1/3.  The power form loses about eps/|1 - 3a| of relative
accuracy just outside the band, and inside it a is replaced by 1/3.
"""

import math

import numpy as np

from peakonlab import f_density
from peakonlab.params import l_a

THIRD_BAND = 1e-9  # |1 - 3a| below this took the a = 1/3 limit form


def potential_quadrature(ctx, q: float) -> float:
    """Integral of (1 + e^{-rho}) f(rho) from mu to q, with f from f_density."""
    from scipy.integrate import quad

    if q == ctx.mu:
        return 0.0
    return quad(lambda rho: (1.0 + math.exp(-rho)) * f_density(ctx, rho), ctx.mu, q,
                epsabs=1e-12, epsrel=1e-12, limit=200)[0]


def z_two_branch(ctx, q):
    """z(q) from the power form, or the limit form within THIRD_BAND of a = 1/3."""
    a, b = ctx.params.a, ctx.params.b
    q = np.asarray(q, dtype=float)
    if b == 2.0:
        val = np.full_like(q, ctx.z0)
    elif a == 0:
        raise ValueError("a must be nonzero")
    elif abs(1.0 - 3.0 * a) < THIRD_BAND:
        val = ctx.z0 * np.exp(
            -(3.0 * (2.0 - b) / 4.0) * (np.exp(-2.0 * q) - np.exp(-2.0 * ctx.mu))
        )
    else:
        ratio = l_a(a, q) / l_a(a, ctx.mu)
        if np.any(ratio <= 0):
            raise ValueError("separation left the sign-definite range of L_a")
        val = ctx.z0 * ratio ** ((2.0 - b) / (2.0 * (1.0 - 3.0 * a)))
    return float(val) if val.ndim == 0 else val
