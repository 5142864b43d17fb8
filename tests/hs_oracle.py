"""Independent references for the closed-form H^s distances, and the
divergence probe above them.

Four oracles, none of which shares code with ``peakonlab.sobolev``:

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
* ``pair_integral_per_index`` / ``hs_distances_per_index``: the package's
  closed form as it stood when each index made its own pass, kept as it
  was: the separations, masks, ln y and powers of y formed per index, and
  the paired series summed term by term.  The package's one pass for
  every index must give these bits exactly, except at s = 1, where the
  package uses pi (1 - e^{-omega}) and must be no farther from mpmath
  than this series.

``divergence_probe`` is the squared-distance integral truncated at a
frequency cutoff, for s >= 3/2, where the closed form does not exist:
its growth with the cutoff is the obstruction at and above the critical
index (criterion 7).  ``truncated_distance_sq`` is the same integral at
any index.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import exprel, gamma, gammaln, kv, psi, rgamma, zeta

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


def truncated_distance_sq(state, coll, s: float, cutoff: float) -> float:
    """Squared H^s distance of ``state`` to ``coll`` with the frequency
    integral truncated to |xi| <= cutoff, by quadrature of each pair."""
    amps = (state.p1, state.p2, -coll.p_star)
    pos = (state.q1, state.q2, coll.q_star)
    wt = lambda xi: (1.0 + xi * xi) ** (s - 2.0)
    i0, _ = _quad(wt, 0.0, cutoff, epsabs=1e-12, epsrel=1e-12, limit=500)
    total_amp = sum(amps)
    total = total_amp * total_amp * i0
    for j in range(3):
        for k in range(j + 1, 3):
            if amps[j] == 0.0 or amps[k] == 0.0:
                continue
            omega = abs(pos[j] - pos[k])
            if omega == 0.0:
                continue
            ic, _ = _quad(wt, 0.0, cutoff, weight="cos", wvar=omega, epsabs=1e-12, limit=500)
            total -= amps[j] * amps[k] * 2.0 * (i0 - ic)
    return 4.0 / math.pi * total


def divergence_probe(state, coll, s: float, cutoff: float) -> float:
    """Truncated squared-distance integral over |xi| <= cutoff for s >= 3/2.

    For a profile distinct from C the value grows without bound as the
    cutoff increases, like cutoff^(2s-3) for s > 3/2 and logarithmically
    at s = 3/2; that growth is the obstruction to the collapse argument
    at and above the critical index.
    """
    if s < 1.5:
        raise ValueError(f"s = {s} < 3/2: the full integral converges; use hs_distances")
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    return truncated_distance_sq(state, coll, s, cutoff)


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


# ---------------------------------------------------------------------------
# the closed form, one pass per index

_SERIES_OMEGA = 1.0
_SERIES_TERMS = 12
_SLOPE_TERMS = 16
_SLOPE_TAYLOR = 0.1


def _lgamma_slope(a, t):
    """(ln Gamma(a + t) - ln Gamma(a)) / t, psi(a) at t = 0, Taylor below |t| = 0.1."""
    if abs(t) >= _SLOPE_TAYLOR:
        return (gammaln(a + t) - gammaln(a)) / t
    if t == 0.0:
        return psi(a)
    j = np.arange(2, _SLOPE_TERMS + 2, dtype=float)[:, None]
    return psi(a) - np.sum(zeta(j, a) * (-t) ** (j - 1) / j, axis=0)


def pair_series_per_index(omega, nu):
    """Gamma(nu)/2 - (omega/2)^nu K_nu(omega) for 0 < omega < 1 by the paired
    ascending series, one term at a time from the last."""
    n = int(round(nu))
    eps = nu - n
    x = 0.5 * omega
    y = x * x
    log_y = 2.0 * np.log(x)
    total = np.zeros_like(omega)
    m = np.arange(1 if n == 0 else 0, _SERIES_TERMS, dtype=float)
    s_up = _lgamma_slope(n + m + 1.0, eps)
    s_down = _lgamma_slope(m + 1.0, -eps)
    weight = (-1) ** n * np.exp(eps * s_down - gammaln(m + 1.0) - gammaln(n + m + 1.0)) / (
        2.0 * np.sinc(eps)
    )
    for mi, w, c in reversed(list(zip(m, weight, s_up + s_down))):
        l = log_y - c
        total += w * y ** (n + mi) * l * exprel(eps * l)
    if n == 0:
        total += math.pi / (2.0 * math.sin(math.pi * nu)) * rgamma(nu + 1.0) * y**nu
    k = np.arange(1, n, dtype=float)
    coeffs = -0.5 * (-1.0) ** k * gamma(nu - k) * rgamma(k + 1.0)
    return total + np.polynomial.polynomial.polyval(y, np.concatenate(([0.0], coeffs)))


def pair_integral_per_index(omega, s):
    """G(omega) at one index: the series below omega = 1, scipy's kv above."""
    nu = 1.5 - s
    omega = np.abs(np.asarray(omega, dtype=float))
    g = np.zeros_like(omega)
    small = (omega > 0.0) & (omega < _SERIES_OMEGA)
    if small.any():
        g[small] = pair_series_per_index(omega[small], nu)
    large = omega >= _SERIES_OMEGA
    if large.any():
        w = omega[large]
        g[large] = 0.5 * gamma(nu) - (0.5 * w) ** nu * kv(nu, w)
    g *= 2.0 * math.sqrt(math.pi) / math.gamma(nu + 0.5)
    return float(g) if g.ndim == 0 else g


def hs_distances_per_index(states, coll, s, pair_integral=pair_integral_per_index):
    """The n distances of (n, 4) rows [p1, p2, q1, q2] to ``coll`` at one index,
    with G from ``pair_integral(omega, s)``."""
    nu = 1.5 - s
    p1, p2, q1, q2 = np.asarray(states, dtype=float).reshape(-1, 4).T
    pc, qc = -coll.p_star, coll.q_star
    g12, g1c, g2c = pair_integral(np.stack([q2 - q1, qc - q1, qc - q2]), s)
    i0 = 0.5 * math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
    total = p1 + p2 + pc
    sq = total * total * i0 - p1 * p2 * g12 - p1 * pc * g1c - p2 * pc * g2c
    return np.sqrt(np.maximum(4.0 / math.pi * sq, 0.0))
