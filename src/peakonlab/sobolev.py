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
the logarithmic series of DLMF 10.31.1.  Below omega of about 3e-154,
where y = (omega/2)^2 underflows, a term of size (omega/2)^{2 nu} or
(omega/2)^{2(nu + m)} is formed as that power of omega/2, so a term
that is a normal float stays one.

At omega >= 1, K_nu is the trapezoid rule on its integral over the whole
line (DLMF 10.32.9); there the two terms differ by at least about
1/(4 nu) of their size, so nothing cancels for s > 0, and an index far
below 0 (nu up to 100) gives up a few digits.  The special functions
are Python's ``math.gamma`` and ``math.factorial`` on the few scalars
of each index, expm1 for the relative exponential and Stirling's series
for the log-gamma slopes, so no index loads scipy.

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

import itertools
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
#: below this y = (omega/2)^2 is subnormal or 0, and the series' leading
#: terms are formed from omega/2
_SMALLEST_NORMAL = np.finfo(float).tiny
#: the log-gamma slopes step every argument up to this before Stirling's series
_STIRLING_FROM = 20
#: B_2k / (2k (2k - 1)), k = 1..6: Stirling's series for ln Gamma (DLMF 5.11.1),
#: whose next term is below 1e-20 from _STIRLING_FROM on
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
#: nodes of the trapezoid rule for K_nu, and the fall of its integrand
#: from the peak, e^-_K_DEPTH, at which the rule's window ends
_K_NODES = 65
_K_DEPTH = 40.0
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


def _stirling_slope(a: float, t: float) -> float:
    """(ln Gamma(a + t) - ln Gamma(a)) / t for a >= _STIRLING_FROM, |t| <= 1/2.

    The difference of the two Stirling series (DLMF 5.11.1), with c_k the
    coefficients in _STIRLING, l = log1p(t/a) / t and q = a / (a + t), is

        ln a - 1 + (a + t - 1/2) l - sum_k c_k a^(1-2k) (1 + q + ... + q^(2k-2)) / (a + t),

    since ((a + t)^(1-2k) - a^(1-2k)) / t = -a^(1-2k) (1 + q + ... + q^(2k-2)) / (a + t),
    a sum of positive terms: nothing cancels as t -> 0.  At t = 0, where
    l = 1/a and q = 1, it is psi's asymptotic series (DLMF 5.11.2).
    """
    ell = math.log1p(t / a) / t if t else 1.0 / a
    q = a / (a + t)
    series, geometric, q_power = 0.0, 1.0, 1.0
    for k, c in enumerate(_STIRLING, 1):
        series += c * a ** (1 - 2 * k) * geometric
        q_power *= q
        geometric += q_power
        q_power *= q
        geometric += q_power
    return math.log(a) - 1.0 + (a + t - 0.5) * ell - series / (a + t)


def _lgamma_slopes(first: int, count: int, t: float) -> np.ndarray:
    """(ln Gamma(a + t) - ln Gamma(a)) / t at the whole numbers a = first, ...,
    first + count - 1 (first >= 1), for |t| <= 1/2; psi(a) at t = 0.

    Stirling's series gives the slope at top = max(last a, _STIRLING_FROM);
    each whole number b below it steps down by ln Gamma(b + 1 + t) -
    ln Gamma(b + t) = ln(b + t), whose slope is log1p(t/b) / t (1/b at
    t = 0), these summed from the top before they are taken off.
    """
    top = max(first + count - 1, _STIRLING_FROM)
    head = _stirling_slope(float(top), t)
    slopes, below = [head], 0.0
    for b in range(top - 1, first - 1, -1):
        below += math.log1p(t / b) / t if t else 1.0 / b
        slopes.append(head - below)
    return np.array(slopes[::-1][:count])


def _series_exponents(nu: float) -> range:
    """The powers of y that carry the paired terms at nu: y^{n+m}, m from 0
    (from 1 when n = 0) to _SERIES_TERMS - 1, n the integer nearest nu."""
    n = int(round(nu))
    return range(n + (n == 0), n + _SERIES_TERMS)


def _pair_series(x: np.ndarray, y: np.ndarray, log_y: np.ndarray, powers: np.ndarray,
                 tiny: np.ndarray, nu: float) -> np.ndarray:
    """Gamma(nu)/2 - (omega/2)^nu K_nu(omega) for 0 < omega < 1, as a small quantity.

    Takes x = omega/2, y = x^2, log_y = ln y, ``powers``, the rows y ** p
    for p in ``_series_exponents(nu)``, and ``tiny``, where y is below the
    smallest normal float.  With n the integer nearest nu (eps = nu - n),
    the ascending series (DLMF 10.27.4, 10.25.2) less its constant term is

        -1/2 sum_{k>=1} (-1)^k Gamma(nu - k) y^k / k!
        + pi / (2 sin(pi nu)) y^nu sum_{m>=0} y^m / (m! Gamma(m + nu + 1)).

    Terms k < n are summed as they stand (and m = 0 when n = 0).  Term
    k = n + m pairs with term m into

        (-1)^n y^{n+m} / (2 sinc(eps) m! (n+m)!) e^{L} expm1(eps l) / eps,
        l = ln y - S(n+m+1, eps) - S(m+1, -eps),   L = eps S(m+1, -eps),

    with S the log-gamma slope; at eps = 0, where expm1(eps l) / eps is l,
    this is DLMF 10.31.1.  The paired terms form one (terms x separations)
    array, whose rows are added to zeros from the last term down.

    Where y is tiny, ln y < -708, so l < 0 and the term's size is y^{n+m}
    e^{eps l} ~ y^{nu+m} when eps < 0: it can be a normal float while y^p
    underflows and expm1(eps l) overflows.  There y^p expm1(eps l) is taken
    as -x^{2(nu+m)} e^{eps (l - ln y)} expm1(-eps l), the same product, and
    y^nu as x^{2 nu}.  For eps >= 0 each paired term is below y and stays
    as it is.
    """
    n = int(round(nu))
    eps = nu - n
    first = 1 if n == 0 else 0
    count = _SERIES_TERMS - first
    s_up = _lgamma_slopes(n + first + 1, count, eps)
    down = _lgamma_slopes(1, first + count, -eps)  # from a = 1, which n = 0 uses below
    s_down = down[first:]
    pi_eps = math.pi * eps
    sinc = np.sin(pi_eps) / pi_eps if pi_eps else 1.0  # np.sinc(eps)
    factorials = [float(math.factorial(k) * math.factorial(n + k))
                  for k in range(first, _SERIES_TERMS)]
    weight = (-1) ** n * np.exp(eps * s_down) / (2.0 * sinc * np.array(factorials))
    shift = s_up + s_down
    l = log_y - shift[:, None]
    if not eps:
        terms = weight[:, None] * powers * l
    else:
        z = eps * l
        if eps < 0.0 and tiny.any():
            m = np.arange(first, _SERIES_TERMS, dtype=float)
            powers = powers.copy()  # the rows are shared with the other indices
            powers[:, tiny] = -x[tiny] ** (2.0 * (nu + m))[:, None] * np.exp(-eps * shift)[:, None]
            z[:, tiny] *= -1.0
        terms = (weight / eps)[:, None] * powers * np.expm1(z)
    total = np.zeros_like(y)
    for row in terms[::-1]:
        total += row
    if n == 0:
        lead = y**nu
        lead[tiny] = x[tiny] ** (2.0 * nu)
        # pi / (2 sin(pi nu) Gamma(nu + 1)) = Gamma(1 - nu) / (2 nu) (DLMF 5.5.3),
        # with Gamma(1 - nu) = e^{-nu S(1, -nu)}
        total += math.exp(-nu * down[0]) / (2.0 * nu) * lead
    coeffs = [0.0, *(-0.5 * (-1.0) ** k * math.gamma(nu - k) / math.factorial(k)
                     for k in range(1, n))]
    poly = coeffs[-1] + y * 0.0  # Horner's rule on the terms k < n, as polyval
    for c in reversed(coeffs[:-1]):
        poly = c + poly * y
    return total + poly


def _bessel_k(nu: float, omega: np.ndarray) -> np.ndarray:
    """K_nu(omega) for omega >= 1 by the trapezoid rule on DLMF 10.32.9.

    K_nu(omega) = 1/2 int exp(nu t - omega cosh t) dt over the whole line
    (the odd part of e^{nu t} integrates to 0).  The exponent peaks at
    t* = asinh(nu/omega) with curvature sigma^2 = hypot(omega, nu), and
    at t* + u it has fallen by

        D(u) = sigma^2 (cosh u - 1) + nu (sinh u - u),

    at least sigma^2 (cosh u - 1) for u > 0, and for u < 0 at least
    (sigma^2 - nu)(cosh u - 1) and at least nu (|u| - 1).  Inverting those
    bounds at _K_DEPTH gives a window on which the rule's _K_NODES equally
    spaced nodes lose less than e^-_K_DEPTH of the peak at either end.
    e^{-omega} is factored out exactly, so each node's exponent,
    nu t - 2 omega sinh^2(t/2), is at most about nu t*; where e^{-omega}
    underflows, K is 0.
    """
    sigma2 = np.hypot(omega, nu)
    gap = omega * (omega / (sigma2 + nu))  # sigma^2 - nu, without cancellation
    right = np.arccosh(1.0 + _K_DEPTH / sigma2)
    left = np.minimum(np.arccosh(1.0 + _K_DEPTH / gap), 1.0 + _K_DEPTH / nu)
    step = (left + right) / (_K_NODES - 1)
    t = (np.arcsinh(nu / omega) - left)[:, None] + step[:, None] * np.arange(_K_NODES)
    f = np.exp(nu * t - 2.0 * omega[:, None] * np.sinh(0.5 * t) ** 2)
    return np.exp(-omega) * (0.5 * step) * (f.sum(axis=1) - 0.5 * (f[:, 0] + f[:, -1]))


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
        tiny = y < _SMALLEST_NORMAL
        wanted = set().union(*ranges.values())
        exponents = sorted(wanted)  # each index's range is a run of these
        # y^p = y^(p-1) y from p = 1 up: a multiply per power instead of a pow,
        # and a row's bits do not depend on which indices share the pass
        chain = itertools.accumulate(itertools.repeat(y, exponents[-1]), np.multiply)
        powers = np.array([row for p, row in enumerate(chain, 1) if p in wanted])
    if any_large:
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
            g[small] = _pair_series(x, y, log_y, powers[first:first + len(ranges[s])], tiny, nu)
        if any_large:
            # where K_nu(omega) underflows to 0, the K term is 0, though
            # (omega/2)^nu may overflow there (far below s = 0)
            k = _bessel_k(nu, w)
            with np.errstate(over="ignore", invalid="ignore"):
                g[large] = 0.5 * math.gamma(nu) - np.where(k == 0.0, 0.0, half_w ** nu * k)
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
