"""Independent reference for the closed-form off-peak residual.

``pde_residual_grid`` evaluates the same residual as
``peakonlab.residual.pde_residual``, but applies D^{-2} = (1 - d^2/dx^2)^{-1}
by a composite Simpson rule on a grid of about 60k nodes instead of exact
integrals.  This was the package's own implementation before the closed
form replaced it; it is kept here, unchanged, as a check that shares no
code with the closed form.  The grid carries the kernel kink at y = x and
the peak positions as nodes, where the integrands lose smoothness; jumps
(the u_x factors jump at the peaks) are represented by repeated grid
nodes carrying one-sided values, which keeps the composite rule at full
order.  ``d_minus2`` and ``d_minus2_dx`` apply the rule to any sampled f.
"""

import math
import warnings
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from peakonlab.dynamics import PeakonState
from peakonlab.params import ABParams
from peakonlab.residual import DEFAULT_EXCLUSION_RADIUS

DEFAULT_HALF_WIDTH = 30.0  # grid reach beyond the outermost peak
DEFAULT_SPACING = 1e-3
_TAIL_FRACTION = 1e-10
_NODE_SNAP = 1e-12


def _pieces(xs: np.ndarray):
    """Split a grid into strictly increasing runs (duplicates mark jumps)."""
    splits = np.flatnonzero(np.diff(xs) == 0.0)
    start = 0
    for idx in splits:
        yield start, idx + 1
        start = idx + 1
    yield start, len(xs)


def _exp_convolve(xs: np.ndarray, fs: np.ndarray, x: float, signed: bool) -> float:
    xs = np.asarray(xs, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if xs.shape != fs.shape or xs.ndim != 1 or len(xs) < 3:
        raise ValueError("need matching 1-d sample arrays with at least 3 nodes")
    total = 0.0
    for i0, i1 in _pieces(xs):
        ys = xs[i0:i1]
        vs = fs[i0:i1]
        if len(ys) < 2:
            continue
        # split the piece at x so the kernel kink sits on a boundary
        if ys[0] < x < ys[-1]:
            j = int(np.searchsorted(ys, x))
            if abs(ys[j - 1] - x) < _NODE_SNAP:
                j = j - 1
                sub = [(ys[: j + 1], vs[: j + 1]), (ys[j:], vs[j:])]
            elif j < len(ys) and abs(ys[j] - x) < _NODE_SNAP:
                sub = [(ys[: j + 1], vs[: j + 1]), (ys[j:], vs[j:])]
            else:
                # x between nodes: insert it with an interpolated value
                fx = float(np.interp(x, ys, vs))
                sub = [
                    (np.append(ys[:j], x), np.append(vs[:j], fx)),
                    (np.insert(ys[j:], 0, x), np.insert(vs[j:], 0, fx)),
                ]
        else:
            sub = [(ys, vs)]
        for yy, vv in sub:
            if len(yy) < 2:
                continue
            mid = 0.5 * (yy[0] + yy[-1])
            kern = 0.5 * np.exp(-np.abs(x - yy))
            if signed:
                kern = kern * (-math.copysign(1.0, x - mid))
            total += simpson(kern * vv, x=yy)
    tail = 0.5 * (
        abs(fs[0]) * math.exp(-abs(x - xs[0])) + abs(fs[-1]) * math.exp(-abs(x - xs[-1]))
    )
    if tail > _TAIL_FRACTION * max(abs(total), 1e-300):
        warnings.warn(
            f"convolution grid may be too narrow: kernel tail mass ~ {tail:.3e}",
            stacklevel=3,
        )
    return total


def d_minus2(xs, fs, x: float) -> float:
    """(1 - d^2/dx^2)^{-1} f at x: (1/2) int e^{-|x-y|} f(y) dy.

    ``fs`` holds samples of f on the grid ``xs``; a jump in f is
    represented by repeating the node with its left and right values.
    Linear in f.
    """
    return _exp_convolve(xs, fs, x, signed=False)


def d_minus2_dx(xs, fs, x: float) -> float:
    """d/dx of d_minus2: -(1/2) int sgn(x-y) e^{-|x-y|} f(y) dy."""
    return _exp_convolve(xs, fs, x, signed=True)


def _piecewise_nodes(edges: Sequence[float], spacing: float):
    for lo, hi in zip(edges[:-1], edges[1:]):
        n = max(2, int(math.ceil((hi - lo) / spacing)))
        yield np.linspace(lo, hi, n + 1)


def convolution_grid(
    state: PeakonState,
    x: float,
    half_width: float = DEFAULT_HALF_WIDTH,
    spacing: float = DEFAULT_SPACING,
) -> np.ndarray:
    """Grid on [-L, L], L = max(|q1|, |q2|) + half_width, with the peak
    positions and x as exact (repeated) nodes."""
    L = max(abs(state.q1), abs(state.q2)) + half_width
    breaks = sorted({v for v in (state.q1, state.q2, x) if -L < v < L})
    edges = [-L, *breaks, L]
    return np.concatenate(list(_piecewise_nodes(edges, spacing)))


def _sided_fields(state: PeakonState, ys: np.ndarray, mid: float):
    """u and u_x on one smooth piece, with peak-side signs fixed by mid."""
    s1 = math.copysign(1.0, mid - state.q1)
    s2 = math.copysign(1.0, mid - state.q2)
    e1 = np.exp(-s1 * (ys - state.q1))
    e2 = np.exp(-s2 * (ys - state.q2))
    u = state.p1 * e1 + state.p2 * e2
    ux = -state.p1 * s1 * e1 - state.p2 * s2 * e2
    return u, ux


def pde_residual_grid(
    traj,
    t: float,
    x: float,
    params: ABParams,
    exclusion_radius: float = DEFAULT_EXCLUSION_RADIUS,
    half_width: float = DEFAULT_HALF_WIDTH,
    spacing: float = DEFAULT_SPACING,
) -> float:
    """Signed residual of the wave equation at an off-peak point (x, t).

    The time derivative comes from the trajectory's motion through the
    chain rule (no finite differencing of dense output); spatial
    derivatives are the exact piecewise exponentials; the two nonlocal
    terms go through d_minus2 on a kink-aware grid.  ``traj`` needs
    ``sample`` and ``sample_derivative``; x must keep the exclusion
    distance from both peaks.
    """
    state = traj.sample(t)
    a, b = params.a, params.b
    dist = min(abs(x - state.q1), abs(x - state.q2))
    if dist < exclusion_radius:
        raise ValueError(
            f"x = {x} within exclusion radius {exclusion_radius} of a peak"
        )

    L = max(abs(state.q1), abs(state.q2)) + half_width
    breaks = sorted({v for v in (state.q1, state.q2, x) if -L < v < L})
    edges = [-L, *breaks, L]
    xs_parts, g1_parts, g2_parts = [], [], []
    for ys in _piecewise_nodes(edges, spacing):
        u, ux = _sided_fields(state, ys, 0.5 * (ys[0] + ys[-1]))
        g1_parts.append((b / 3.0) * u**3 + 0.5 * (6.0 - 6.0 * a - b) * u * ux**2)
        g2_parts.append(0.5 * (2.0 * a + b - 2.0) * ux**3)
        xs_parts.append(ys)
    xs = np.concatenate(xs_parts)
    nonlocal_flux = d_minus2_dx(xs, np.concatenate(g1_parts), x)
    nonlocal_cubic = d_minus2(xs, np.concatenate(g2_parts), x)

    dp1, dp2, dq1, dq2 = traj.sample_derivative(t)
    e1 = math.exp(-abs(x - state.q1))
    e2 = math.exp(-abs(x - state.q2))
    s1 = math.copysign(1.0, x - state.q1)
    s2 = math.copysign(1.0, x - state.q2)
    u = state.p1 * e1 + state.p2 * e2
    ux = -state.p1 * s1 * e1 - state.p2 * s2 * e2
    ut = dp1 * e1 + state.p1 * s1 * e1 * dq1 + dp2 * e2 + state.p2 * s2 * e2 * dq2

    return ut + u * u * ux - a * ux**3 + nonlocal_flux + nonlocal_cubic
