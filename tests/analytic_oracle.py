"""F1 by adaptive quadrature of the numpy density.

``analytic._potential`` once integrated (1 + e^{-rho}) f_density(ctx, rho)
with ``f_density`` itself, a numpy call per node.  It now integrates a
float-level copy of that formula; this is the old integrand, kept as the
oracle that the copy is checked against.
"""

import math

from peakonlab import f_density


def potential_quadrature(ctx, q: float) -> float:
    """Integral of (1 + e^{-rho}) f(rho) from mu to q, with f from f_density."""
    from scipy.integrate import quad

    if q == ctx.mu:
        return 0.0
    return quad(lambda rho: (1.0 + math.exp(-rho)) * f_density(ctx, rho), ctx.mu, q,
                epsabs=1e-12, epsrel=1e-12, limit=200)[0]
