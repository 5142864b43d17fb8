"""Independent references for the benchmark's output checks.

Nothing here imports peakonlab or the test suite: each reference is built
from the definitions the package documents (README, module docstrings and
DLMF), so a faster implementation is checked against the mathematics
rather than against an older copy of itself.
"""

from __future__ import annotations

import math

import mpmath
from scipy.integrate import quad

#: working precision of the Bessel-K distance oracle (decimal digits)
ORACLE_DPS = 40

#: (p1, p2) of the two-peakon initial profile per case, q1 = 0, q2 = mu
PROFILES = {
    "case1": lambda al, de: (al + de, -al),
    "case2": lambda al, de: (al + de, al),
    "case3": lambda al, de: (al, al + de),
    "case4": lambda al, de: (-al, al + de),
}


def case_of(a: float, b: float) -> str:
    """Quadrant of (a, b), a != 0 and b != 2."""
    if a > 0:
        return "case1" if b > 2 else "case2"
    return "case3" if b > 2 else "case4"


def _basset(omega, s):
    """int_0^inf (1 + xi^2)^(s-2) cos(omega xi) dxi (DLMF 10.32.11)."""
    nu = mpmath.mpf(3) / 2 - s
    if omega == 0:
        return mpmath.sqrt(mpmath.pi) * mpmath.gamma(nu) / (2 * mpmath.gamma(nu + 0.5))
    return (
        mpmath.sqrt(mpmath.pi) / mpmath.gamma(nu + 0.5)
        * (omega / 2) ** nu * mpmath.besselk(nu, omega)
    )


def hs_distance_ref(p1, p2, q1, q2, p_star, q_star, s: str) -> float:
    """H^s distance between p1 e^{-|x-q1|} + p2 e^{-|x-q2|} and
    p_star e^{-|x-q_star|}, evaluated in ORACLE_DPS-digit arithmetic.

    Floats enter exactly (as the binary values the program wrote); ``s`` is
    a decimal string so the index is exact too.
    """
    with mpmath.workdps(ORACLE_DPS):
        amps = [mpmath.mpf(p1), mpmath.mpf(p2), -mpmath.mpf(p_star)]
        pos = [mpmath.mpf(q1), mpmath.mpf(q2), mpmath.mpf(q_star)]
        sm = mpmath.mpf(s)
        total = mpmath.mpf(0)
        for j in range(3):
            for k in range(3):
                total += amps[j] * amps[k] * _basset(abs(pos[j] - pos[k]), sm)
        return float(mpmath.sqrt(max(4 / mpmath.pi * total, 0)))


def collision_profile(kind: str, p1: float, p2: float, q1: float, q2: float):
    """(p*, q*) of the limiting single peakon at a terminal event."""
    if kind == "collision":
        return p1 + p2, q1
    if kind == "p1-zero":
        return p2, q2
    if kind == "p2-zero":
        return p1, q1
    raise ValueError(f"no limiting profile after a {kind!r} event")


class Invariants:
    """Reduced-flow invariants of the two-peakon data (p1, p2, 0, mu).

    z(q) = z0 (L_a(q)/L_a(mu))^((2-b)/(2(1-3a))) (at a = 1/3 its limit
    z0 exp(-3(2-b)(e^{-2q} - e^{-2mu})/4)) and, with
    f(q) = -(2-b) e^{-q} z(q)/L_a(q), the momentum identities
    h^2 = h0^2 + 2 int_mu^q (1 + e^{-r}) f,  w^2 = w0^2 + 2 int_mu^q (1 - e^{-r}) f.
    """

    def __init__(self, a: float, b: float, p1: float, p2: float, mu: float):
        self.a, self.b, self.mu = a, b, mu
        self.h0, self.w0, self.z0 = p2 - p1, p1 + p2, p1 * p2
        # at a = 1/3 the power law degenerates to its exponential limit
        self.third = abs(1.0 - 3.0 * a) < 1e-9
        self.gamma = None if self.third else (2.0 - b) / (2.0 * (1.0 - 3.0 * a))
        self.l_mu = self.l_a(mu)

    def l_a(self, q: float) -> float:
        return (1.0 - self.a) - (1.0 - 3.0 * self.a) * math.exp(-2.0 * q)

    def z(self, q: float) -> float:
        if self.third:
            return self.z0 * math.exp(
                -0.75 * (2.0 - self.b) * (math.exp(-2.0 * q) - math.exp(-2.0 * self.mu))
            )
        return self.z0 * (self.l_a(q) / self.l_mu) ** self.gamma

    def _f(self, r: float) -> float:
        return -(2.0 - self.b) * math.exp(-r) * self.z(r) / self.l_a(r)

    def _potential(self, q: float, sign: float) -> float:
        val, _ = quad(
            lambda r: (1.0 + sign * math.exp(-r)) * self._f(r),
            self.mu, q, epsabs=1e-14, epsrel=1e-13, limit=200,
        )
        return val

    def h_sq(self, q: float) -> float:
        return self.h0**2 + 2.0 * self._potential(q, +1.0)

    def w_sq(self, q: float) -> float:
        return self.w0**2 + 2.0 * self._potential(q, -1.0)

    def collision_time(self) -> float:
        """T_ref = int_0^mu dq / (sqrt(h^2(q) w^2(q)) |L_a(q)|), since
        q' = h w L_a(q) keeps its sign until the separation closes."""
        val, _ = quad(
            lambda q: 1.0 / (math.sqrt(self.h_sq(q) * self.w_sq(q)) * abs(self.l_a(q))),
            0.0, self.mu, epsabs=1e-15, epsrel=1e-13, limit=200,
        )
        return val


def collision_time_ref(case: str, a: float, b: float, mu: float,
                       alpha: float = 1.0, delta: float = 0.5) -> float:
    p1, p2 = PROFILES[case](alpha, delta)
    return Invariants(a, b, p1, p2, mu).collision_time()


def certify_verdict_errors(report: dict) -> list:
    """Deviations of a certify report from the expected verdict set.

    Expected for case1..case4 with s = 0.5, 1.0, 1.4: finite T, bounded
    momenta, monotone distances at every index, the 1e-3 threshold met at
    s = 0.5 only (the collapse rate dt^((3-2s)/2) cannot reach it at
    dt = 1e-6 for s = 1.0 and 1.4) and a passing time reversal.
    """
    errors = []
    for key in ("finite_T", "bounded", "reversal_ok"):
        if report.get(key) is not True:
            errors.append(f"{key} is {report.get(key)!r}")
    if report.get("monotone") != {"0.5": True, "1": True, "1.4": True}:
        errors.append(f"monotone verdicts {report.get('monotone')}")
    if report.get("below_threshold") != {"0.5": True, "1": False, "1.4": False}:
        errors.append(f"threshold verdicts {report.get('below_threshold')}")
    failures = report.get("failures", [])
    if len(failures) != 2 or not all(f.startswith("distance threshold at s = ")
                                     for f in failures):
        errors.append(f"failures {failures}")
    if report.get("passed") is not False:
        errors.append("passed should be false (threshold failures at s = 1, 1.4)")
    return errors
