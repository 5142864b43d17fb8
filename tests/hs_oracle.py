"""Independent references for the closed-form H^s distances.

Three oracles, none of which shares code with ``peakonlab.sobolev``:

* ``pair_integral_quad`` / ``weight_integral_quad``: adaptive quadrature
  of the defining integrals.  This was the package's own implementation
  before the closed form replaced it; it is kept here, unchanged, as a
  check that does not rely on any Bessel-function identity.
* ``bessel_distance``: the direct 3 x 3 assembly
  sum_{jk} a_j a_k int (1+xi^2)^{s-2} cos(omega_jk xi) with scipy's kv, by
  Basset's integral (DLMF 10.32.11).  It cancels order-one terms, so it is
  only accurate while the distance is not small.
* ``pair_integral_mp`` / ``hs_distance_mp``: the same Basset form in mpmath,
  with the working precision raised by the digits the cancellation costs,
  so that the result carries at least ORACLE_DPS significant digits.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import gamma, kv

#: significant decimal digits the mpmath oracle keeps after cancellation
ORACLE_DPS = 40

#: below this frequency the Fourier weight and the oscillation live on
#: different scales and the quadrature is split at xi = 1/omega
_OMEGA_SPLIT = 1e-2
_QUAD_LIMIT = 300


def _quad(f, a, b, **kw):
    out = quad(f, a, b, full_output=1, **kw)
    return out[0], out[1]


def weight_integral_quad(s: float) -> tuple:
    """int_0^inf (1 + xi^2)^{s-2} dxi (finite for s < 3/2), with its error estimate."""
    return _quad(
        lambda xi: (1.0 + xi * xi) ** (s - 2.0),
        0.0,
        np.inf,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=_QUAD_LIMIT,
    )


def pair_integral_quad(omega: float, s: float) -> tuple:
    """G(omega) = int_0^inf (1 + xi^2)^{s-2} * 2 (1 - cos(omega xi)) dxi by quadrature.

    For omega above _OMEGA_SPLIT a Fourier-weighted rule on the whole
    half-line is accurate.  Below it the (1 - cos) factor turns on only
    near xi ~ 1/omega, far outside the weight's unit scale, so the
    integral is split there: a plain adaptive rule on the core and, in
    the scaled variable u = omega xi, weighted rules on the tail.
    Returns (value, error estimate).
    """
    omega = abs(omega)
    wt = lambda xi: (1.0 + xi * xi) ** (s - 2.0)
    if omega >= _OMEGA_SPLIT:
        i0, e0 = weight_integral_quad(s)
        ic, ec = _quad(
            wt, 0.0, np.inf, weight="cos", wvar=omega, epsabs=1e-13, limit=_QUAD_LIMIT
        )
        return 2.0 * (i0 - ic), 2.0 * (e0 + ec)
    cut = 1.0 / omega
    core, e_core = _quad(
        lambda xi: wt(xi) * 2.0 * (1.0 - math.cos(omega * xi)),
        0.0,
        cut,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=500,
    )
    # tail in u = omega xi, from u = 1: d xi = du / omega
    wtu = lambda u: (1.0 + (u / omega) ** 2) ** (s - 2.0)
    t_dc, e_dc = _quad(wtu, 1.0, np.inf, epsabs=1e-15, epsrel=1e-12, limit=_QUAD_LIMIT)
    t_cos, e_cos = _quad(
        wtu, 1.0, np.inf, weight="cos", wvar=1.0, epsabs=1e-16, limit=_QUAD_LIMIT
    )
    val = core + 2.0 * (t_dc - t_cos) / omega
    return val, e_core + 2.0 * (e_dc + e_cos) / omega


def bessel_distance(state, coll, s):
    """Closed-form H^s distance via modified Bessel functions (direct assembly)."""

    def weight_cos(omega):
        p = 2.0 - s
        if omega == 0.0:
            return 0.5 * math.sqrt(math.pi) * gamma(p - 0.5) / gamma(p)
        return math.sqrt(math.pi) / gamma(p) * (omega / 2.0) ** (p - 0.5) * kv(p - 0.5, omega)

    amps = (state.p1, state.p2, -coll.p_star)
    pos = (state.q1, state.q2, coll.q_star)
    total = 0.0
    for j in range(3):
        for k in range(3):
            total += amps[j] * amps[k] * weight_cos(abs(pos[j] - pos[k]))
    return math.sqrt(max(4.0 / math.pi * total, 0.0))


def _basset(omega, nu):
    """int_0^inf (1 + xi^2)^{-nu-1/2} cos(omega xi) dxi at the current precision."""
    if omega == 0:
        return mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / (2 * mpmath.gamma(nu + 0.5))
    return (
        mpmath.sqrt(mpmath.pi) / mpmath.gamma(nu + 0.5)
        * (omega / 2) ** nu * mpmath.besselk(nu, omega)
    )


def _guard_digits(omegas) -> int:
    """Digits lost to cancellation: G(omega) is O(omega^2) relative to its terms."""
    smallest = min((abs(float(w)) for w in omegas if w != 0), default=1.0)
    return ORACLE_DPS + 10 + int(2 * max(0.0, -math.log10(smallest / 2)))


def pair_integral_mp(omega: float, s: float) -> float:
    """G(omega) = 2 (I0 - Ic(omega)) from mpmath's besselk."""
    with mpmath.workdps(_guard_digits([omega])):
        nu = mpmath.mpf(3) / 2 - mpmath.mpf(s)
        om = abs(mpmath.mpf(omega))
        return float(2 * (_basset(0, nu) - _basset(om, nu)))


def hs_distance_mp(state, coll, s: float) -> float:
    """H^s distance by the direct 3 x 3 Basset assembly in mpmath.

    The state's floats enter exactly; the precision covers the cancellation
    between the order-one terms, so the result is correct to double precision.
    """
    amps_f = (state.p1, state.p2, -coll.p_star)
    pos_f = (state.q1, state.q2, coll.q_star)
    gaps = [a - b for a in pos_f for b in pos_f]
    scale = max(1.0, max(abs(a) for a in amps_f))
    with mpmath.workdps(_guard_digits(gaps) + int(2 * math.log10(scale)) + 20):
        amps = [mpmath.mpf(a) for a in amps_f]
        pos = [mpmath.mpf(q) for q in pos_f]
        nu = mpmath.mpf(3) / 2 - mpmath.mpf(s)
        total = mpmath.mpf(0)
        for j in range(3):
            for k in range(3):
                total += amps[j] * amps[k] * _basset(abs(pos[j] - pos[k]), nu)
        return float(mpmath.sqrt(max(4 / mpmath.pi * total, 0)))
