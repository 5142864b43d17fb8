"""Reference DOP853 step for ``peakonlab.integrator``'s generated one.

These were the integrator's own stage, error-sum and dense-output
functions before the step was generated from the tableau as straight-line
code per state dimension; they are kept here, unchanged but for their
names (no leading underscore), as the bit-for-bit reference, with the
tableau's named coefficients, which the integrator no longer holds.  Each
is written once for any number of components and, like the generated
code, works on floats and on numpy arrays alike.
"""

from typing import Callable

from peakonlab.integrator import DENSE_ROWS, DENSE_STAGES

# The tableau of dop853.f under its names, as the integrator wrote it before
# it kept only the rows (``A_ROWS``, ``B_ROW``, ``ER_ROW``, ``E3_ROW``) from
# which its step is generated.  Stage i uses k1 and, from stage 6 on,
# k4 .. k(i-1).
A21 = 5.26001519587677318785587544488e-2
A31, A32 = 1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2
A41, A43 = 2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2
A51, A53, A54 = (2.41365134159266685502369798665e-1, -8.84549479328286085344864962717e-1,
                 9.24834003261792003115737966543e-1)
A61, A64, A65 = (3.7037037037037037037037037037e-2, 1.70828608729473871279604482173e-1,
                 1.25467687566822425016691814123e-1)
A71, A74, A75, A76 = (3.7109375e-2, 1.70252211019544039314978060272e-1,
                      6.02165389804559606850219397283e-2, -1.7578125e-2)
A81, A84, A85, A86, A87 = (
    3.70920001185047927108779319836e-2, 1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3)
A91, A94, A95, A96, A97, A98 = (
    6.24110958716075717114429577812e-1, -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1)
A101, A104, A105, A106, A107, A108, A109 = (
    4.77662536438264365890433908527e-1, -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2)
A111, A114, A115, A116, A117, A118, A119, A1110 = (
    -9.3714243008598732571704021658e-1, 5.18637242884406370830023853209,
    1.09143734899672957818500254654, -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
    2.49360555267965238987089396762, -3.0467644718982195003823669022)
A121, A124, A125, A126, A127, A128, A129, A1210, A1211 = (
    2.27331014751653820792359768449, -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
    -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1)
# 8th-order weights (k2 .. k5 have weight 0)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    5.42937341165687622380535766363e-2, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1, -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2)
# error weights: err5 = sum ER_i k_i; err3 = sum (B_i - BHH_i) k_i
ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12 = (
    0.1312004499419488073250102996e-1, -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952, 0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290, 0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1)
BHH1, BHH2, BHH3 = (0.244094488188976377952755905512, 0.733846688281611857341361741547,
                    0.220588235294117647058823529412e-1)
E31, E39, E312 = B1 - BHH1, B9 - BHH2, B12 - BHH3


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
