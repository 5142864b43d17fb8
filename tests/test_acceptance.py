"""Acceptance suite: one printed verdict per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
line of every criterion.

Criterion 5 samples the H^s distance from the two-peakon profile to the
limiting peakon at dt = T - t = 10^-k, k = 2..6, and asserts at every
index that it decreases.  What else it asserts depends on the index,
because the collapse rate does.  By Basset's integral (DLMF 10.32.11) the
pair integral G(omega) behind the distance is c omega^2 log(1/omega) to
leading order at s = 1/2 (DLMF 10.31.1) and c_s omega^(3-2s) for
1/2 < s < 3/2 (DLMF 10.27.4, 10.25.2), and at a collision the peak
separation closes like epsilon dt.  The distance therefore decays like
dt sqrt(log(1/dt)) at s = 1/2 and exactly like dt^((3-2s)/2) above it:

* s = 1/2: the k = 6 distance is at most DISTANCE_THRESHOLD = 1e-3.  The
  bound is reachable there, and it pins the amplitude p*.
* 1/2 < s < 3/2: the exponent log10(d_5/d_6) over the last sampled decade
  equals (3-2s)/2 within EXPONENT_TOL.  The paper promises convergence,
  not a size at a given time, and no fixed bound is reachable here: at
  s = 1.4 a distance of 1e-3 would need dt near 1e-40, far below the
  spacing of doubles near T.

``peakonlab certify`` still reports the 1e-3 threshold verdict per index.
"""

import math

import numpy as np
import pytest

from peakonlab import (
    ABParams,
    CollisionFunction,
    EventKind,
    InvariantContext,
    IntegrationConfig,
    PeakonState,
    Representation,
    case_epsilon,
    collision_function,
    collision_time_bound,
    divergence_probe,
    h_sq,
    hs_distance,
    hs_norm,
    integrate,
    integrate_reversed,
    pde_residual,
    residual_report,
    to_reduced,
    w_sq,
    z_closed_form,
)
from peakonlab.dynamics import full_rhs_array

from conftest import CASE_PRESETS

S_VALUES = (0.5, 1.0, 1.4)
DISTANCE_THRESHOLD = 1e-3

#: Absolute tolerance on the last-decade collapse exponent for 1/2 < s < 3/2.
#: Write d = K dt^r (1 + delta(dt)) with r = (3-2s)/2.  With the momenta held
#: at their limits p1(T), p2(T), the series of G gives delta = O(dt) +
#: O(dt^(2s-1)).  Letting them move changes d by at most
#: (|p1 - p1(T)| + |p2 - p2(T)|) ||e^{-|x|}||_{H^s} = O(dt) (triangle
#: inequality), a relative O(dt^(1-r)); that is the next-order term to allow
#: for.  At s = 1 it is 10^-2.5 at k = 5 and 10^-3 at k = 6, so log10(d_5/d_6)
#: may differ from r by (3.2e-3 + 1.0e-3) / ln 10 = 1.8e-3 with constants of
#: order one; at s = 1.4 by 2e-5.  Quadrature error (below 1e-10 in d^2) and
#: the event-time error (|g(T)| <= 1e-12) add less than 1e-4.
EXPONENT_TOL = 2e-3


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _collapse_distances(traj, coll, s, t_collision):
    """H^s distances to ``coll`` at the sample times t_collision - 10^-k."""
    ks = [k for k in range(2, 7) if t_collision - 10.0**-k > 0.0]
    return [hs_distance(traj.sample(t_collision - 10.0**-k), coll, s) for k in ks]


def _decade_exponents(dists):
    """log10(d_k / d_{k+1}) for consecutive sampled decades."""
    return [math.log10(a / b) for a, b in zip(dists, dists[1:])]


def _exponent_check(dists, s):
    """(ok, measured, target): last-decade exponent against (3-2s)/2."""
    measured = _decade_exponents(dists)[-1]
    target = (3.0 - 2.0 * s) / 2.0
    return abs(measured - target) <= EXPONENT_TOL, measured, target


def test_criterion_1_z_invariant(grid_runs):
    """Integrated z(t) tracks the closed form over the 16-point grid."""
    worst = 0.0
    worst_pt = None
    for (a, b), (params, spec, initial, traj) in grid_runs.items():
        ctx = InvariantContext.from_initial(params, initial)
        arr = traj.state_array
        z_num = arr[:, 0] * arr[:, 1]
        q_num = arr[:, 3] - arr[:, 2]
        rel = float(np.max(np.abs(z_num - z_closed_form(ctx, q_num)))) / max(
            1.0, abs(ctx.z0)
        )
        if rel > worst:
            worst, worst_pt = rel, (a, b)
    ok = worst <= 1e-6
    _verdict("criterion 1 (z invariant, 16 points)", ok,
             f"max rel err {worst:.3e} at {worst_pt}")
    assert ok


def test_criterion_2_momentum_square_identities(grid_runs):
    """|h^2 - h0^2 - 2F1| and |w^2 - w0^2 - 2F2| below 1e-6 along the grid."""
    worst = 0.0
    for (a, b), (params, spec, initial, traj) in grid_runs.items():
        ctx = InvariantContext.from_initial(params, initial)
        for t in np.linspace(0.0, traj.t_end, 12):
            red = to_reduced(traj.sample(float(t)))
            worst = max(worst, abs(red.h**2 - h_sq(ctx, red.q)))
            worst = max(worst, abs(red.w**2 - w_sq(ctx, red.q)))
    ok = worst <= 1e-6
    _verdict("criterion 2 (h^2/w^2 identities)", ok, f"max residual {worst:.3e}")
    assert ok


def test_criterion_3_collision_lemma(case_runs):
    """Each preset stops at an event within mu/eps, approaching at rate eps."""
    details = []
    ok = True
    for name, (params, spec, initial, traj) in case_runs.items():
        eps = case_epsilon(spec, params)
        bound = collision_time_bound(spec, params)
        rec = traj.terminal_event
        stopped = rec.kind in (
            EventKind.COLLISION, EventKind.MOMENTUM_ZERO_1, EventKind.MOMENTUM_ZERO_2
        )
        within = rec.time <= bound
        rate_ok = all(
            full_rhs_array(st.as_array(), params.a, params.b)[3]
            - full_rhs_array(st.as_array(), params.a, params.b)[2]
            <= -eps + 1e-9
            for st in traj.states
        )
        ok = ok and stopped and within and rate_ok
        details.append(f"{name}: T={rec.time:.4f}<= {bound:.4f} {rec.kind.value}")
    _verdict("criterion 3 (finite-time collision, 4 cases)", ok, "; ".join(details))
    assert ok


def test_criterion_4_boundedness(grid_runs):
    """Momenta stay finite; collision runs end at |q| <= 1e-10."""
    ok = True
    worst_q = 0.0
    for (a, b), (params, spec, initial, traj) in grid_runs.items():
        arr = traj.state_array
        ok = ok and bool(np.all(np.isfinite(arr)))
        rec = traj.terminal_event
        ok = ok and all(map(math.isfinite, rec.state.as_array()))
        if rec.kind is EventKind.COLLISION:
            worst_q = max(worst_q, abs(rec.state.q2 - rec.state.q1))
    ok = ok and worst_q <= 1e-10
    _verdict("criterion 4 (boundedness + event accuracy)", ok,
             f"worst |q(T)| = {worst_q:.3e}")
    assert ok


@pytest.mark.parametrize("s", S_VALUES)
@pytest.mark.parametrize("case", sorted(CASE_PRESETS))
def test_criterion_5_distance_collapse(case, s, case_runs):
    """H^s distance to the limiting profile collapses through the sample
    times T - 10^-k, k = 2..6.

    At every index the distances decrease.  At s = 1/2 the k = 6 distance
    is at most DISTANCE_THRESHOLD, which dt sqrt(log(1/dt)) reaches.  For
    1/2 < s < 3/2 the distance is K dt^((3-2s)/2) to leading order (Basset's
    integral, DLMF 10.32.11), so a fixed bound says nothing about
    convergence; there the exponent over the last decade, k = 5 to 6, must
    equal (3-2s)/2 within EXPONENT_TOL.
    """
    params, spec, initial, traj = case_runs[case]
    T = traj.terminal_event.time
    coll = collision_function(traj)
    dists = _collapse_distances(traj, coll, s, T)
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    if s > 0.5:
        collapse_ok, measured, target = _exponent_check(dists, s)
        check = (f"last-decade exponent {measured:.6f} vs (3-2s)/2 = {target:g} "
                 f"+- {EXPONENT_TOL:g}")
        failure = (f"{case} s={s}: last-decade exponent {measured:.6f} differs "
                   f"from (3-2s)/2 = {target:g} by more than {EXPONENT_TOL:g}")
    else:
        collapse_ok = dists[-1] <= DISTANCE_THRESHOLD
        check = f"final distance {dists[-1]:.3e} <= {DISTANCE_THRESHOLD:g}"
        failure = f"{case} s={s}: final distance {dists[-1]:.3e} > {DISTANCE_THRESHOLD}"
    _verdict(
        f"criterion 5 ({case}, s={s}, distance collapse)",
        decreasing and collapse_ok,
        f"dists={['%.3e' % d for d in dists]}, "
        f"exponents={['%.5f' % e for e in _decade_exponents(dists)]}; {check}",
    )
    assert decreasing, f"{case} s={s}: distances not decreasing: {dists}"
    assert collapse_ok, failure


@pytest.mark.parametrize("s", [s for s in S_VALUES if s > 0.5])
@pytest.mark.parametrize("case", sorted(CASE_PRESETS))
def test_criterion_5_exponent_check_has_teeth(case, s, case_runs):
    """The exponent check rejects two corrupted inputs.

    Sampling around a collision time moved early by 1e-6 turns the sampled
    (dt_5, dt_6) into (1.1e-5, 2e-6), so the exponent becomes
    r log10(5.5) = 0.74 r with r = (3-2s)/2: off by 0.13 at s = 1.0 and
    0.026 at s = 1.4.
    Moving q* by 1e-5 leaves a distance that does not vanish as dt -> 0,
    which flattens the last decade.
    """
    params, spec, initial, traj = case_runs[case]
    T = traj.terminal_event.time
    coll = collision_function(traj)
    corrupted = {
        "T - 1e-6": _collapse_distances(traj, coll, s, T - 1e-6),
        "q* + 1e-5": _collapse_distances(
            traj, CollisionFunction(coll.p_star, coll.q_star + 1e-5), s, T
        ),
    }
    for label, dists in corrupted.items():
        ok, measured, target = _exponent_check(dists, s)
        assert not ok, (
            f"{case} s={s}: {label} passes the exponent check "
            f"({measured:.6f} vs {target:g} +- {EXPONENT_TOL:g})"
        )


@pytest.mark.parametrize("case", sorted(CASE_PRESETS))
def test_criterion_5_time_reversal(case, case_runs):
    """Round trip from T - 1e-3 recovers the initial profile within 1e-6."""
    params, spec, initial, traj = case_runs[case]
    tau = traj.terminal_event.time - 1e-3
    back = integrate_reversed(traj.sample(tau), params, traj.config, tau)
    err = float(np.max(np.abs(back.terminal_event.state.as_array() - initial.as_array())))
    ok = err <= 1e-6
    _verdict(f"criterion 5 ({case}, time reversal)", ok, f"round-trip err {err:.3e}")
    assert ok


def test_criterion_6_norm_anchor():
    """Quadrature value of ||e^{-|x|}||_{H^1}^2 is 2 within 1e-8."""
    value = hs_norm(PeakonState(1.0, 0.0, 0.0, 10.0), 1.0) ** 2
    ok = abs(value - 2.0) <= 1e-8
    _verdict("criterion 6 (H^1 norm anchor)", ok, f"value {value:.12f}")
    assert ok


def test_criterion_7_divergence_probe():
    """s = 2 truncated integrals grow ~10x per cutoff decade."""
    state = PeakonState(1.5, -1.0, 0.0, 0.1)
    coll = CollisionFunction(0.5, 0.0)
    vals = [divergence_probe(state, coll, 2.0, c) for c in (1e2, 1e3, 1e4)]
    ratios = [vals[1] / vals[0], vals[2] / vals[1]]
    ok = all(8.0 <= r <= 12.0 for r in ratios)
    _verdict("criterion 7 (divergence probe)", ok,
             f"ratios {ratios[0]:.3f}, {ratios[1]:.3f}")
    assert ok


def test_criterion_8_pde_residual(case_runs):
    """Single peakon <= 1e-6 off-peak; case-1 pair <= 1e-5 at T/2;
    corrupting p1 by 1e-3 inflates the residual >= 10x."""
    params = ABParams(1 / 3, 3.0)
    single = integrate(
        PeakonState(1.0, 0.0, 0.0, 25.0), params, IntegrationConfig(max_time=0.5)
    )
    single_worst = max(
        abs(pde_residual(single, 0.3, x, params)) for x in (-2.0, 0.8, 2.5)
    )

    params1, spec1, initial1, traj1 = case_runs["case1"]
    t_half = 0.5 * traj1.terminal_event.time
    pair = residual_report(traj1, t_half, params1)

    class _Shifted:
        def sample(self, t):
            st = traj1.sample(t)
            return PeakonState(st.p1 + 1e-3, st.p2, st.q1, st.q2)

        def sample_derivative(self, t):
            return traj1.sample_derivative(t)

    corrupted = residual_report(_Shifted(), t_half, params1)
    teeth = corrupted.max_abs_residual / max(pair.max_abs_residual, 1e-300)
    ok = single_worst <= 1e-6 and pair.max_abs_residual <= 1e-5 and teeth >= 10.0
    _verdict(
        "criterion 8 (wave-equation residual)", ok,
        f"single {single_worst:.3e}, pair {pair.max_abs_residual:.3e}, teeth {teeth:.1e}x",
    )
    assert ok


def test_criterion_9_degenerate_checks():
    """b = 2 freezes momenta to 1e-12; p2 = 0 runs at speed (1-a) p1^2."""
    frozen = integrate(
        PeakonState(1.5, 1.0, 0.0, 0.1), ABParams(1 / 3, 2.0),
        IntegrationConfig(max_time=5.0),
    )
    arr = frozen.state_array
    drift = max(float(np.max(np.abs(arr[:, 0] - 1.5))),
                float(np.max(np.abs(arr[:, 1] - 1.0))))

    lone = integrate(
        PeakonState(1.0, 0.0, 0.0, 20.0), ABParams(1 / 3, 3.0),
        IntegrationConfig(max_time=10.0),
    )
    pos_err = max(
        abs(lone.sample(t).q1 - (2 / 3) * t) for t in np.linspace(0.0, 10.0, 21)
    )
    ok = drift <= 1e-12 and pos_err <= 1e-8
    _verdict("criterion 9 (degenerate checks)", ok,
             f"momentum drift {drift:.3e}, position err {pos_err:.3e}")
    assert ok


def test_criterion_10_reduced_full_agreement(case_runs):
    """Separation histories from the two representations match to 1e-8."""
    worst = 0.0
    for name, (params, spec, initial, traj_full) in case_runs.items():
        cfg = IntegrationConfig(
            representation=Representation.REDUCED,
            max_time=10.0 * collision_time_bound(spec, params),
        )
        traj_red = integrate(initial, params, cfg)
        t_end = min(traj_full.t_end, traj_red.t_end)
        for t in np.linspace(0.0, t_end, 40):
            worst = max(worst, abs(traj_full.separation(t) - traj_red.separation(t)))
    ok = worst <= 1e-8
    _verdict("criterion 10 (reduced/full agreement)", ok, f"max |dq| {worst:.3e}")
    assert ok
