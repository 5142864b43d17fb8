"""Fourier-side H^s norms of peakon combinations and the collision profile.

A combination v = sum_j a_j e^{-|x - x_j|} has transform
v_hat = sum_j 2 a_j e^{-i xi x_j} / (1 + xi^2), so with the convention

    ||v||_{H^s}^2 = (1/2pi) int (1 + xi^2)^s |v_hat|^2 dxi

(under which ||c e^{-|x|}||_{H^1}^2 = 2 c^2) every norm reduces to

    (2/pi) int (1 + xi^2)^{s-2} |sum_j a_j e^{-i xi x_j}|^2 dxi.

The integrand is expanded into cosine pairs,

    |sum a_j E_j|^2 = (sum a_j)^2 - 2 sum_{j<k} a_j a_k (1 - cos(xi (x_j - x_k))),

so that, with nu = 3/2 - s,

    ||v||^2 = (4/pi) [(sum a_j)^2 I0 - sum_{j<k} a_j a_k G(|x_j - x_k|)],
    I0       = int_0^inf (1 + xi^2)^{s-2} dxi = sqrt(pi) Gamma(nu) / (2 Gamma(nu + 1/2)),
    G(omega) = int_0^inf (1 + xi^2)^{s-2} 2 (1 - cos(omega xi)) dxi
             = (2 sqrt(pi) / Gamma(nu + 1/2)) [Gamma(nu)/2 - (omega/2)^nu K_nu(omega)],

the last by Basset's integral (DLMF 10.32.11).  The weight has algebraic
decay 2(s-2) < -1 exactly when s < 3/2 (nu > 0), which is the
integrability threshold: at and above it the norm integral diverges.

Near a collision the two profiles almost coincide: sum a_j and every
separation are small, and the distance is what is left of order-one
terms.  G must therefore be computed as a small quantity.  Subtracting
(omega/2)^nu K_nu(omega) from Gamma(nu)/2 would cancel about
2 min(nu, 1) |log10 omega| digits, so below omega = 1 G is summed from
the ascending series of K_nu (DLMF 10.27.4 with 10.25.2), whose constant
term is exactly Gamma(nu)/2 and is dropped analytically.  When nu is
close to an integer n the two halves of that series each grow like
1/sin(pi nu) and cancel; there each term y^{n+m} of one half is combined
with its partner from the other half through exp/expm1 of a log-gamma
slope, which is finite and accurate through nu = n, where it reduces to
the logarithmic series of DLMF 10.31.1.  At omega >= 1 scipy's kv is
used; there the two terms differ by at least about 1/(4 nu) of their
size, so nothing cancels for s > 0, and an index far below 0 (nu up to
100) gives up a few digits.

At s = 1 (nu = 1/2), K_{1/2}(omega) = sqrt(pi / (2 omega)) e^{-omega}
(DLMF 10.39.2), so G(omega) = pi (1 - e^{-omega}) = -pi expm1(-omega)
exactly; that index takes this form on every separation, with neither
the series nor K_nu.  It is correctly rounded to within about 1.5 ulp,
and at the smallest subnormal omega it gives the rounded pi omega, where
the series underflows to 0.

Everything is array-valued, so a whole column of states costs a few
numpy calls, and ``hs_distances`` takes a sequence of indices in one
pass: the separations, the series/K_nu masks, ln y and every power y^p
are formed once and shared by all indices, and each index's paired terms
are one (terms x separations) array.  The rows are the single-index
results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrator import EventKind, Trajectory

H_S_LIMIT = 1.5  # peakon profiles lie in H^s exactly for s below this

#: nu = 3/2 - s above this overflows Gamma(nu) K_nu(1)
_NU_MAX = 100.0
#: the ascending series is used below this separation, K_nu at and above it
_SERIES_OMEGA = 1.0
#: paired series terms kept; at omega < 1 term m is below 4^-m / (m!)^2
_SERIES_TERMS = 12
#: Taylor terms of the log-gamma slope, used for |t| below _SLOPE_TAYLOR
_SLOPE_TERMS = 16
_SLOPE_TAYLOR = 0.1
#: a surviving momentum at or below this counts as zero (the profile vanishes)
_ZERO_MOMENTUM = 1e-12


@dataclass(frozen=True)
class CollisionFunction:
    """Single-peakon profile p* e^{-|x - q*|} that the flow collapses onto."""

    p_star: float
    q_star: float


def collision_function(traj: Trajectory) -> CollisionFunction:
    """Read the limiting profile off a trajectory's terminal event.

    Collision: p* = p1(T) + p2(T) at the common position q1(T).  Momentum
    vanishing: the surviving peakon's momentum and position.  When both
    momenta vanish the profile is zero and the position is immaterial
    (q1(T) is recorded).  A horizon-terminated run has no limiting
    profile and raises ValueError.
    """
    rec = traj.terminal_event
    st = rec.state
    if rec.kind is EventKind.COLLISION:
        return CollisionFunction(p_star=st.p1 + st.p2, q_star=st.q1)
    if rec.kind is EventKind.MOMENTUM_ZERO_1:
        if abs(st.p2) <= _ZERO_MOMENTUM:
            return CollisionFunction(p_star=0.0, q_star=st.q1)
        return CollisionFunction(p_star=st.p2, q_star=st.q2)
    if rec.kind is EventKind.MOMENTUM_ZERO_2:
        if abs(st.p1) <= _ZERO_MOMENTUM:
            return CollisionFunction(p_star=0.0, q_star=st.q1)
        return CollisionFunction(p_star=st.p1, q_star=st.q1)
    raise ValueError("trajectory ended at the horizon; no collision function")


def _check_index(s: float) -> None:
    """Reject an index at which the H^s quantities cannot be computed."""
    if not math.isfinite(s):
        raise ValueError(f"s = {s} is not a finite Sobolev index")
    if s >= H_S_LIMIT:
        raise ValueError(f"s = {s} >= 3/2 is outside the admissible range: the norm "
                         "integral diverges (up to |xi| = R it grows like R^(2s - 3), "
                         "like log R at s = 3/2)")
    if H_S_LIMIT - s > _NU_MAX:
        raise ValueError(f"s = {s} < {H_S_LIMIT - _NU_MAX:g}: Gamma(3/2 - s) overflows")


def _lgamma_slope(a: np.ndarray, t: float) -> np.ndarray:
    """(ln Gamma(a + t) - ln Gamma(a)) / t for a >= 1, |t| <= 1/2; psi(a) at t = 0.

    Small |t| uses the Taylor series psi(a) - sum_{j>=2} zeta(j, a) (-t)^{j-1} / j,
    where the difference quotient would lose digits.  At t = 0 every term of
    the sum is zero, so psi(a) is returned as it stands.
    """
    from scipy.special import gammaln, psi, zeta

    if abs(t) >= _SLOPE_TAYLOR:
        return (gammaln(a + t) - gammaln(a)) / t
    if t == 0.0:
        return psi(a)
    j = np.arange(2, _SLOPE_TERMS + 2, dtype=float)[:, None]
    return psi(a) - np.sum(zeta(j, a) * (-t) ** (j - 1) / j, axis=0)


def _series_exponents(nu: float) -> range:
    """The powers of y that carry the paired terms at nu: y^{n+m}, m from 0
    (from 1 when n = 0) to _SERIES_TERMS - 1, n the integer nearest nu."""
    n = int(round(nu))
    return range(n + (n == 0), n + _SERIES_TERMS)


def _pair_series(y: np.ndarray, log_y: np.ndarray, powers: np.ndarray, nu: float) -> np.ndarray:
    """Gamma(nu)/2 - (omega/2)^nu K_nu(omega) for 0 < omega < 1, as a small quantity.

    Takes y = x^2, x = omega/2, log_y = ln y and ``powers``, the rows y ** p
    for p in ``_series_exponents(nu)``.  With n the integer nearest nu
    (eps = nu - n), the ascending series (DLMF 10.27.4, 10.25.2) less its
    constant term is

        -1/2 sum_{k>=1} (-1)^k Gamma(nu - k) y^k / k!
        + pi / (2 sin(pi nu)) y^nu sum_{m>=0} y^m / (m! Gamma(m + nu + 1)).

    Terms k < n are summed as they stand (and m = 0 when n = 0).  Term
    k = n + m pairs with term m into

        (-1)^n y^{n+m} / (2 sinc(eps) m! (n+m)!) e^{L} expm1(eps l) / eps,
        l = ln y - S(n+m+1, eps) - S(m+1, -eps),   L = eps S(m+1, -eps),

    with S the log-gamma slope; at eps = 0 this is DLMF 10.31.1.  The paired
    terms form one (terms x separations) array, whose rows are added to
    zeros from the last term down.
    """
    from scipy.special import exprel, gamma, gammaln, rgamma

    n = int(round(nu))
    eps = nu - n
    m = np.arange(1 if n == 0 else 0, _SERIES_TERMS, dtype=float)
    s_up = _lgamma_slope(n + m + 1.0, eps)
    s_down = _lgamma_slope(m + 1.0, -eps)
    pi_eps = math.pi * eps
    sinc = np.sin(pi_eps) / pi_eps if pi_eps else 1.0  # np.sinc(eps)
    weight = (-1) ** n * np.exp(eps * s_down - gammaln(m + 1.0) - gammaln(n + m + 1.0)) / (
        2.0 * sinc
    )
    l = log_y - (s_up + s_down)[:, None]
    terms = weight[:, None] * powers * l
    # at eps = 0 (integer nu) the factor exprel(eps l) is exprel(+-0.0) = 1.0
    # wherever l is finite, and where l = -inf (x = 0) the term is NaN already.
    # Where y^p underflows to 0 (omega below about 1e-308) exprel(eps l) may
    # overflow; the term is 0 there, so its factor is taken as 1
    if eps:
        terms *= np.where(powers == 0.0, 1.0, exprel(eps * l))
    total = np.zeros_like(y)
    for row in terms[::-1]:
        total += row
    if n == 0:
        total += math.pi / (2.0 * math.sin(math.pi * nu)) * rgamma(nu + 1.0) * y**nu
    k = np.arange(1, n, dtype=float)
    coeffs = [0.0, *(-0.5 * (-1.0) ** k * gamma(nu - k) * rgamma(k + 1.0))]
    poly = coeffs[-1] + y * 0.0  # Horner's rule on the terms k < n, as polyval
    for c in reversed(coeffs[:-1]):
        poly = c + poly * y
    return total + poly


def _pair_integrals(omega, indices) -> list:
    """G(omega) at each of ``indices`` (already checked), elementwise over
    omega, in the closed form of the module docstring; even, G(0) = 0.  For
    the indices other than s = 1 the separations, their masks, ln y and each
    power y ** p are formed once and shared.
    """
    omega = np.abs(np.asarray(omega, dtype=float))
    ranges = {s: _series_exponents(H_S_LIMIT - s) for s in indices if H_S_LIMIT - s != 0.5}
    x = 0.5 * omega
    small = (x > 0.0) & (omega < _SERIES_OMEGA)  # G = 0 where omega / 2 underflows to 0
    large = omega >= _SERIES_OMEGA
    any_small = bool(ranges) and small.any()
    any_large = bool(ranges) and large.any()
    if any_small:
        x = x[small]
        y, log_y = x * x, 2.0 * np.log(x)
        exponents = sorted(set().union(*ranges.values()))  # each index's range is a run of these
        powers = np.array([y ** float(p) for p in exponents])
    if any_large:
        from scipy.special import gamma, kv  # imported on use: s = 1 alone needs none

        w = omega[large]
        half_w = 0.5 * w
    out = []
    for s in indices:
        nu = H_S_LIMIT - s
        if nu == 0.5:
            out.append(-math.pi * np.expm1(-omega))
            continue
        g = np.zeros_like(omega)
        if any_small:
            first = exponents.index(ranges[s][0])
            g[small] = _pair_series(y, log_y, powers[first:first + len(ranges[s])], nu)
        if any_large:
            # where K_nu(omega) underflows to 0, the K term is 0, though
            # (omega/2)^nu may overflow there (far below s = 0)
            k = kv(nu, w)
            with np.errstate(over="ignore", invalid="ignore"):
                g[large] = 0.5 * gamma(nu) - np.where(k == 0.0, 0.0, half_w ** nu * k)
        g *= 2.0 * math.sqrt(math.pi) / math.gamma(nu + 0.5)
        out.append(g)
    return out


def hs_distances(states, collision: CollisionFunction, s) -> np.ndarray:
    """H^s distances between two-peakon profiles and the collision profile.

    ``states`` is an (n, 4) array of [p1, p2, q1, q2] rows (or one such
    row).  For one index ``s`` this returns the n distances; for a
    sequence of indices, a (len(s), n) array with one row per index, each
    row equal bit for bit to that index's own call.  The indices share
    one pass over the separations (their masks, ln y and the powers of
    y).  Each distance is zero exactly when the profiles coincide as
    distributions, and carries the accuracy of the closed form (about
    1e-15 relative in the squared distance's terms).  Requires s < 3/2, and
    finite states and collision profile.
    """
    many = np.ndim(s) > 0
    indices = list(s) if many else [s]
    for index in indices:
        _check_index(index)
    states = np.asarray(states, dtype=float).reshape(-1, 4)
    pc, qc = -collision.p_star, collision.q_star
    if not (np.isfinite(states).all() and math.isfinite(pc) and math.isfinite(qc)):
        raise ValueError("H^s distances need finite states and a finite collision profile")
    p1, p2, q1, q2 = states.T
    gaps = np.array((q2 - q1, qc - q1, qc - q2))
    total = p1 + p2 + pc
    total_sq, a12, a1c, a2c = total * total, p1 * p2, p1 * pc, p2 * pc
    rows = []
    for index, (g12, g1c, g2c) in zip(indices, _pair_integrals(gaps, indices)):
        nu = H_S_LIMIT - index
        i0 = 0.5 * math.sqrt(math.pi) * math.gamma(nu) / math.gamma(nu + 0.5)
        sq = total_sq * i0 - a12 * g12 - a1c * g1c - a2c * g2c
        rows.append(np.sqrt(np.maximum(4.0 / math.pi * sq, 0.0)))
    return np.array(rows).reshape(len(indices), len(total)) if many else rows[0]
