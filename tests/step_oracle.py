"""Reference DOP853 step for ``peakonlab.integrator``'s generated one.

These were the integrator's own stage, error-sum and dense-output
functions before the step was generated from the tableau as straight-line
code per state dimension; they are kept here, unchanged but for their
names (no leading underscore), as the bit-for-bit reference.  Each is written once for any number of components,
with the tableau's coefficients by name, and, like the generated code,
works on floats and on numpy arrays alike.
"""

from typing import Callable

from peakonlab.integrator import (
    A21, A31, A32, A41, A43, A51, A53, A54, A61, A64, A65, A71, A74, A75, A76, A81, A84,
    A85, A86, A87, A91, A94, A95, A96, A97, A98, A101, A104, A105, A106, A107, A108,
    A109, A111, A114, A115, A116, A117, A118, A119, A1110, A121, A124, A125, A126, A127,
    A128, A129, A1210, A1211, B1, B6, B7, B8, B9, B10, B11, B12, DENSE_ROWS, DENSE_STAGES,
    E31, E39, E312, ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12,
)


def stages(f: Callable, y, k1, h) -> tuple:
    """Stages k2 .. k12 of a step of size h from y, where k1 = f(y), and the
    8th-order solution y_new: returns (k2, ..., k12, y_new)."""
    k2 = f(*[v + h * (A21 * a) for v, a in zip(y, k1)])
    k3 = f(*[v + h * (A31 * a + A32 * b) for v, a, b in zip(y, k1, k2)])
    k4 = f(*[v + h * (A41 * a + A43 * c) for v, a, c in zip(y, k1, k3)])
    k5 = f(*[v + h * (A51 * a + A53 * c + A54 * d) for v, a, c, d in zip(y, k1, k3, k4)])
    k6 = f(*[v + h * (A61 * a + A64 * d + A65 * e) for v, a, d, e in zip(y, k1, k4, k5)])
    k7 = f(*[v + h * (A71 * a + A74 * d + A75 * e + A76 * s6)
             for v, a, d, e, s6 in zip(y, k1, k4, k5, k6)])
    k8 = f(*[v + h * (A81 * a + A84 * d + A85 * e + A86 * s6 + A87 * s7)
             for v, a, d, e, s6, s7 in zip(y, k1, k4, k5, k6, k7)])
    k9 = f(*[v + h * (A91 * a + A94 * d + A95 * e + A96 * s6 + A97 * s7 + A98 * s8)
             for v, a, d, e, s6, s7, s8 in zip(y, k1, k4, k5, k6, k7, k8)])
    k10 = f(*[v + h * (A101 * a + A104 * d + A105 * e + A106 * s6 + A107 * s7
                       + A108 * s8 + A109 * s9)
              for v, a, d, e, s6, s7, s8, s9 in zip(y, k1, k4, k5, k6, k7, k8, k9)])
    k11 = f(*[v + h * (A111 * a + A114 * d + A115 * e + A116 * s6 + A117 * s7
                       + A118 * s8 + A119 * s9 + A1110 * s10)
              for v, a, d, e, s6, s7, s8, s9, s10 in zip(y, k1, k4, k5, k6, k7, k8, k9, k10)])
    k12 = f(*[v + h * (A121 * a + A124 * d + A125 * e + A126 * s6 + A127 * s7
                       + A128 * s8 + A129 * s9 + A1210 * s10 + A1211 * s11)
              for v, a, d, e, s6, s7, s8, s9, s10, s11
              in zip(y, k1, k4, k5, k6, k7, k8, k9, k10, k11)])
    y_new = [v + h * (B1 * a + B6 * s6 + B7 * s7 + B8 * s8 + B9 * s9 + B10 * s10
                      + B11 * s11 + B12 * s12)
             for v, a, s6, s7, s8, s9, s10, s11, s12
             in zip(y, k1, k6, k7, k8, k9, k10, k11, k12)]
    return k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, y_new


def error_sums(ks, scale) -> tuple:
    """The squared norms (e5, e3) of the 5th- and 3rd-order error estimates
    of a step with stages ``ks`` = (k1, ..., k12), each component divided by
    its tolerance ``scale``."""
    k1, _, _, _, _, k6, k7, k8, k9, k10, k11, k12 = ks
    e5 = e3 = 0.0
    for sc, a, s6, s7, s8, s9, s10, s11, s12 in zip(scale, k1, k6, k7, k8, k9, k10, k11, k12):
        r5 = (ER1 * a + ER6 * s6 + ER7 * s7 + ER8 * s8 + ER9 * s9 + ER10 * s10
              + ER11 * s11 + ER12 * s12) / sc
        r3 = (E31 * a + B6 * s6 + B7 * s7 + B8 * s8 + E39 * s9 + B10 * s10
              + B11 * s11 + E312 * s12) / sc
        e5 += r5 * r5
        e3 += r3 * r3
    return e5, e3


def combine(ks, row) -> list:
    """sum_j c_j k_j over the (stage, c_j) pairs of ``row``, per component,
    accumulated left to right from 0.0."""
    out = []
    for i in range(len(ks[0])):
        acc = 0.0
        for j, c in row:
            acc = acc + c * ks[j - 1][i]
        out.append(acc)
    return out


def dense_coeffs(f: Callable, h, y, y_new, k) -> list:
    """Per component, the coefficients d1 .. d7 of the dense output of the
    step from y to y_new with stages k = (k1, ..., k13); three more field
    evaluations."""
    ks = list(k)
    for row in DENSE_STAGES:
        ks.append(f(*[v + h * c for v, c in zip(y, combine(ks, row))]))
    rows = [combine(ks, row) for row in DENSE_ROWS]
    out = []
    for v, w, f_old, f_new, *d in zip(y, y_new, ks[0], ks[12], *rows):
        dy = w - v
        out.append((dy, h * f_old - dy, 2 * dy - h * (f_new + f_old), *(h * c for c in d)))
    return out
