"""The two-peakon fields as first written, kept as the bit-for-bit oracle
for ``dynamics._full_rhs`` and ``dynamics._reduced_rhs``.

Here the full field takes (a, b) and an orientation and has two branches:
with ``orientation`` None it computes |q1 - q2| and sgn(q2 - q1) itself
(sgn(0) = 0), otherwise it uses sigma = orientation.  Every coefficient
(1 - a, 1 - 3a, 2 - b) is formed on each call, and 2 p1 p2 e and
(2 - b) sigma p1 p2 e twice.  The package's fields take the coefficients
precomputed and form each product once, in the same IEEE operations and
order, so they must give the same bits: values, NaN positions and signed
zeros.  With an orientation, every argument may be an array over runs.
"""

import math

from peakonlab.dynamics import _exp


def full_rhs(a, b, orientation, p1, p2, q1, q2) -> tuple:
    if orientation is None:
        d = abs(q1 - q2)
        s = math.copysign(1.0, q2 - q1) if q2 != q1 else 0.0
    else:
        d = orientation * (q2 - q1)
        s = orientation
    e1 = _exp(-d)
    e2 = e1 * e1
    pp = p1 * p2
    dq1 = (1.0 - a) * p1 * p1 + 2.0 * pp * e1 + (1.0 - 3.0 * a) * p2 * p2 * e2
    dq2 = (1.0 - a) * p2 * p2 + 2.0 * pp * e1 + (1.0 - 3.0 * a) * p1 * p1 * e2
    dp1 = (2.0 - b) * s * pp * e1 * (p1 + p2 * e1)
    dp2 = -(2.0 - b) * s * pp * e1 * (p1 * e1 + p2)
    return dp1, dp2, dq1, dq2


def reduced_rhs(a, b, q, h, w, z, q1=0.0) -> tuple:
    e1 = _exp(-q)
    e2 = e1 * e1
    dq = h * w * ((1.0 - a) - (1.0 - 3.0 * a) * e2)
    dh = -(2.0 - b) * w * z * (1.0 + e1) * e1
    dw = -(2.0 - b) * h * z * (1.0 - e1) * e1
    dz = (2.0 - b) * h * w * z * e2
    p1, p2 = 0.5 * (w - h), 0.5 * (h + w)
    dq1 = (1.0 - a) * p1 * p1 + 2.0 * p1 * p2 * e1 + (1.0 - 3.0 * a) * p2 * p2 * e2
    return dq, dh, dw, dz, dq1
