"""Right-hand sides of the two-peakon system and its reduced form.

State of the wave ansatz u(x,t) = p1 e^{-|x-q1|} + p2 e^{-|x-q2|} is the
four-vector (p1, p2, q1, q2) of momenta and positions.  The reduced
coordinates (q, h, w, z) = (q2-q1, p2-p1, p1+p2, p1*p2) close on
themselves and carry the invariant structure used by the analytic module.
``to_reduced`` is that change of variables, and ``peak_momenta`` its
inverse on the momenta, p1 = (w-h)/2, p2 = (h+w)/2 (given the overall
position q1, q2 = q1 + q).  They are the one place the map is written: both
act elementwise, on floats and on arrays, like the fields.

Each field is written once (``_full_rhs``, ``_reduced_rhs``), as a function
of its coefficients, (1 - a, 1 - 3a, (2 - b) sigma, sigma) or
(1 - a, 1 - 3a, 2 - b), formed once per run, and of the state components;
the integrator's steppers call it on floats for one run, or on numpy arrays
holding one run per element for runs in lockstep.  ``full_rhs_array`` (the
two-sided field) and ``reduced_rhs_array`` wrap them for numpy vectors.
The full field reads the peaks' distance as sigma (q2 - q1): at a fixed
sigma = +1 or -1 it is the analytic continuation of one side of the
collision, and at sigma = sgn(q2 - q1), 0 where the peaks coincide, the
two-sided field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PeakonState:
    """Momenta and positions (p1, p2, q1, q2) of the two-peakon ansatz."""

    p1: float
    p2: float
    q1: float
    q2: float

    def __post_init__(self) -> None:
        for name in ("p1", "p2", "q1", "q2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"state component {name} must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.p1, self.p2, self.q1, self.q2], dtype=float)

    @classmethod
    def from_array(cls, y) -> "PeakonState":
        return cls(p1=float(y[0]), p2=float(y[1]), q1=float(y[2]), q2=float(y[3]))


def _exp(x):
    """e^x as ``math.exp`` gives it, with inf where that overflows; on an
    array, the same bits element by element, so that a run integrated as one
    element of an array repeats the run on floats.  numpy's real ``exp`` is
    its own SIMD kernel, a last bit off on a few percent of inputs; its
    complex ``exp`` calls the C library's ``exp`` (times cos 0 = 1), but
    rescales above 709, so those elements (and NaN) take ``math.exp``."""
    if not isinstance(x, np.ndarray):
        try:
            return math.exp(x)
        except OverflowError:  # a trial stage far past the collision
            return math.inf
    out = np.exp(x.astype(complex)).real
    big = ~(x <= 709.0)
    if big.any():
        out[big] = [_exp(v) for v in x[big].tolist()]
    return out


def _full_rhs(c1, c3, m0, sigma, p1, p2, q1, q2) -> tuple:
    """Float-level form of ``full_rhs_array``: the time derivative
    (dp1, dp2, dq1, dq2) at the state (p1, p2, q1, q2), given the
    coefficients (1 - a, 1 - 3a, (2 - b) sigma, sigma) of
    ``_full_coefficients``.  Every argument may also be an array over runs.

    The coefficients come first so that the integrator can bind them once
    with ``functools.partial`` and call the field on the unpacked state.
    """
    e1 = _exp(-(sigma * (q2 - q1)))  # inf on an oriented trial stage far past the collision
    e2 = e1 * e1
    pp = p1 * p2
    cross = 2.0 * pp * e1
    m = m0 * pp * e1
    dq1 = c1 * p1 * p1 + cross + c3 * p2 * p2 * e2
    dq2 = c1 * p2 * p2 + cross + c3 * p1 * p1 * e2
    return m * (p1 + p2 * e1), -(m * (p1 * e1 + p2)), dq1, dq2


def _full_coefficients(a, b, sigma) -> tuple:
    """``_full_rhs``'s coefficients, on floats or on arrays over runs."""
    return 1.0 - a, 1.0 - 3.0 * a, (2.0 - b) * sigma, sigma


def full_rhs_array(y: np.ndarray, a: float, b: float) -> np.ndarray:
    """Time derivative of [p1, p2, q1, q2]: the two-sided field, with
    sigma = sgn(q2 - q1) and sgn(0) = 0, total at the coincidence point.
    On the side where sgn(q2 - q1) = sigma it has the bits of the oriented
    field that the integrator integrates (see ``integrator``)."""
    p1, p2, q1, q2 = y.tolist()  # float arithmetic: same values, faster than numpy scalars
    sigma = math.copysign(1.0, q2 - q1) if q2 != q1 else 0.0
    return np.array(_full_rhs(*_full_coefficients(a, b, sigma), p1, p2, q1, q2))


def _reduced_rhs(c1, c3, c2, q, h, w, z, q1=0.0) -> tuple:
    """Float-level form of ``reduced_rhs_array`` with the position q1
    carried along: (dq, dh, dw, dz, dq1) at (q, h, w, z, q1), given the
    coefficients (1 - a, 1 - 3a, 2 - b) of ``_reduced_coefficients``.  Every
    argument may also be an array over runs.

    q1' is the full field's dq1 in reduced coordinates, at the momenta
    ``peak_momenta(h, w)``; no component depends on q1 itself.
    """
    e1 = _exp(-q)
    e2 = e1 * e1
    n2 = -c2
    dq = h * w * (c1 - c3 * e2)
    dh = n2 * w * z * (1.0 + e1) * e1
    dw = n2 * h * z * (1.0 - e1) * e1
    dz = c2 * h * w * z * e2
    p1, p2 = peak_momenta(h, w)
    dq1 = c1 * p1 * p1 + 2.0 * p1 * p2 * e1 + c3 * p2 * p2 * e2
    return dq, dh, dw, dz, dq1


def _reduced_coefficients(a, b) -> tuple:
    """``_reduced_rhs``'s coefficients, on floats or on arrays over runs."""
    return 1.0 - a, 1.0 - 3.0 * a, 2.0 - b


def reduced_rhs_array(y: np.ndarray, a: float, b: float) -> np.ndarray:
    """Time derivative of [q, h, w, z] for the closed reduced system:

        q' = h w (1 - a - (1-3a) e^{-2q})
        h' = -(2-b) w z (1 + e^{-q}) e^{-q}
        w' = -(2-b) h z (1 - e^{-q}) e^{-q}
        z' =  (2-b) h w z e^{-2q}
    """
    return np.array(_reduced_rhs(*_reduced_coefficients(a, b), *y.tolist())[:4])


def to_reduced(p1, p2, q1, q2) -> tuple:
    """Change of variables (p1, p2, q1, q2) -> (q, h, w, z), elementwise.

    States with h^2 + 4z = w^2 up to roundoff come out of it; the reduced
    flow conserves that combination.  The reduced system is derived under
    the orientation q2 >= q1, which is the caller's to require.
    """
    return q2 - q1, p2 - p1, p1 + p2, p1 * p2


def peak_momenta(h, w) -> tuple:
    """The momenta (p1, p2) = ((w - h)/2, (h + w)/2) of the reduced (h, w),
    elementwise: ``to_reduced``'s inverse on the momenta."""
    return 0.5 * (w - h), 0.5 * (h + w)
