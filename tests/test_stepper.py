"""The package's own DOP853 stepper.

Checked against scipy's DOP853 through ``solve_ivp`` (``ivp_oracle``) on
the four case presets, the 16-point (a, b) grid and three points with
several rejected steps, in both representations: event kinds and times,
accepted and rejected step counts, states sampled from the dense output,
and time-reversed runs.  The bounds on states are pinned at ten
times the agreement measured when the stepper was written.  Also checked:
its tables against scipy's copy of dop853.f's, the step generated from them
per state dimension against ``step_oracle`` (the same step written as loops
over components) bit for bit, its work counters, the root finder, and what
a non-finite dense output at an event becomes.

The lane stepper, which runs many points in lockstep, is checked against
the scalar stepper itself: every lane must give the scalar run's event
kind, time and state bit for bit, with the same numbers of accepted and
rejected steps, and every lane that cannot finish must end with the error
the scalar run raises.
"""

import math
import os
import random
import subprocess
import sys
from dataclasses import astuple, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from peakonlab import (
    ABParams,
    EventKind,
    EventRecord,
    IntegrationConfig,
    IntegrationError,
    PeakonState,
    Representation,
    case_spec_for,
    collision_time_bound,
    integrate,
    integrate_reversed,
    make_initial_profile,
)
import peakonlab.integrator as integrator_module
from peakonlab.integrator import MIN_REL_TOL, _root, terminal_events

import step_oracle
from conftest import CASE_PRESETS, GRID_A, GRID_B, run_point
from ivp_oracle import integrate_oracle, reversed_oracle

#: sweep points with 2-4 rejected steps, where the rule that a step does not
#: grow right after a rejection changes the step counts
REJECTING = [(1.7, -1.0), (0.09, -1.0), (0.19, 1.26)]
POINTS = [*CASE_PRESETS.values(), *((a, b) for a in GRID_A for b in GRID_B), *REJECTING]
EVENT_TIME_TOL = 1e-12  # measured: 5.8e-16
STATE_TOL = 8.5e-13  # measured: 8.3e-14 (reduced run at a = 0.19, b = 1.26)
REVERSED_TOL = 4e-15  # measured: 3.7e-16


def _runs(rep: Representation):
    for a, b in POINTS:
        params, _, initial, base = run_point(a, b)
        cfg = replace(base.config, representation=rep)
        yield (a, b), integrate(initial, params, cfg), integrate_oracle(initial, a, b, cfg)


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
class TestAgainstSolveIvp:
    def test_event_times(self, rep):
        for ab, traj, oracle in _runs(rep):
            assert traj.terminal_event.kind is oracle.kind, ab
            assert abs(traj.terminal_event.time - oracle.time) <= EVENT_TIME_TOL, ab

    def test_same_step_size_control(self, rep):
        """Same starting step, error norm and step-size rule: the same
        numbers of accepted and rejected steps on every run."""
        for ab, traj, oracle in _runs(rep):
            assert (traj.steps, traj.rejected) == (oracle.steps, oracle.rejected), ab

    def test_sampled_states(self, rep):
        for ab, traj, oracle in _runs(rep):
            t_end = min(traj.t_end, oracle.time)
            ts = np.concatenate([np.linspace(0.0, t_end, 57),
                                 [t_end - 10.0**-k for k in range(2, 7)]])
            err = np.max(np.abs(traj.sample_array(ts) - oracle.sample_array(ts)))
            assert err <= STATE_TOL, ab


def test_reversed_round_trip_against_solve_ivp(case_runs):
    for name, (params, _, initial, traj) in case_runs.items():
        for tau in (traj.t_end - 1e-3, 0.5 * traj.t_end):
            start = traj.sample(tau)
            back = integrate_reversed(start, params, traj.config, tau)
            oracle = reversed_oracle(start, params.a, params.b, traj.config, tau)
            assert back.terminal_event.kind is EventKind.HORIZON
            assert back.t_end == tau
            err = np.max(np.abs(back.terminal_event.state.as_array() - oracle.state))
            assert err <= REVERSED_TOL, (name, tau)


def test_tableau_is_dop853():
    """The coefficients equal scipy's tables of dop853.f bit for bit, both
    the rows the step's code is generated from and the named constants of
    the reference step ``step_oracle``."""
    from scipy.integrate._ivp import dop853_coefficients as ref

    mod = vars(step_oracle)

    def dense(rows, width: int) -> np.ndarray:
        out = np.zeros((len(rows), width))
        for r, row in enumerate(rows):
            for j, c in row:
                out[r, j - 1] = c
        return out

    a = np.zeros((16, 16))
    for i in range(2, 13):
        for j in range(1, i):
            a[i - 1, j - 1] = mod.get(f"A{i}{j}", 0.0)
    a[13:] = dense(integrator_module.DENSE_STAGES, 16)
    b = [mod.get(f"B{i}", 0.0) for i in range(1, 13)]
    a[12, :12] = b
    assert np.array_equal(a, ref.A)
    a_rows = np.zeros((16, 16))
    a_rows[1:12] = dense(integrator_module.A_ROWS, 16)
    a_rows[12] = dense([integrator_module.B_ROW], 16)
    a_rows[13:] = dense(integrator_module.DENSE_STAGES, 16)
    assert np.array_equal(a_rows, ref.A)
    e5 = [mod.get(f"ER{i}", 0.0) for i in range(1, 13)] + [0.0]
    assert np.array_equal(e5, ref.E5)
    assert np.array_equal(dense([integrator_module.ER_ROW], 13)[0], ref.E5)
    e3 = [*b, 0.0]
    e3[0], e3[8], e3[11] = step_oracle.E31, step_oracle.E39, step_oracle.E312
    assert np.array_equal(e3, ref.E3)
    assert np.array_equal(dense([integrator_module.E3_ROW], 13)[0], ref.E3)
    assert np.array_equal(dense(integrator_module.DENSE_ROWS, 16), ref.D)


def _hex(values) -> list:
    """float.hex of every float in nested sequences; bytes of arrays."""
    if isinstance(values, np.ndarray):
        return [values.shape, values.dtype.str, values.tobytes()]
    if isinstance(values, float):
        return float.hex(values)
    return [_hex(v) for v in values]


#: the step's (stages, error sums, dense output), generated and as first written
GENERATED = (integrator_module._stages, integrator_module._error_sums,
             integrator_module._dense_coeffs)
ORACLE = (step_oracle.stages, step_oracle.error_sums, step_oracle.dense_coeffs)


def _step_parts(f, h, y, y_new, k, scale) -> list:
    """The bits of one step through the integrator's generated functions
    and through ``step_oracle``'s: [generated, oracle]."""
    out = []
    for stages, error_sums, dense_coeffs in (GENERATED, ORACLE):
        ks = stages(f, y, k[0], h)
        out.append(_hex([ks, error_sums((k[0], *ks[:-1]), scale),
                         dense_coeffs(f, h, y, y_new, k)]))
    return out


def _lane_call(f):
    """The lane stepper's field: the whole (component, lane) state taken as
    one component."""
    return lambda y: [np.array(f(*y))]


class TestDenseCoefficients:
    """The generated ``_dense_coeffs`` against ``step_oracle.dense_coeffs``,
    bit for bit."""

    def test_every_preset_step(self, case_runs):
        for rep in Representation:
            for params, _, initial, base in case_runs.values():
                traj = integrate(initial, params, replace(base.config, representation=rep))
                stepper = traj._stepper
                for _, h, y, y_new, k in stepper.steps:
                    got, want = (dense_coeffs(stepper.f, h, y, y_new, k)
                                  for *_, dense_coeffs in (GENERATED, ORACLE))
                    assert _hex(got) == _hex(want)

    def test_component_lane_arrays(self, case_runs):
        """The lane path's call: the whole (component, lane) state as one
        component, one lane per accepted step of the case1 run."""
        params, _, initial, traj = case_runs["case1"]
        stepper = traj._stepper
        _, h, y, y_new, k = (np.array(col) for col in zip(*stepper.steps))
        whole = _lane_call(stepper.f)  # the full field, which also takes arrays over lanes
        args = whole, h, [y.T], [y_new.T], np.moveaxis(k, 0, -1)[:, None]
        got, want = (dense_coeffs(*args) for *_, dense_coeffs in (GENERATED, ORACLE))
        assert len(got) == 1 and len(got[0]) == 7
        for g, w in zip(got[0], want[0]):
            assert g.shape == (4, len(h)) and g.tobytes() == w.tobytes()


class TestGeneratedStep:
    """The step generated per state dimension (stages and y_new, error sums,
    dense output) against ``step_oracle``, the same step written as loops
    over components, bit for bit: on every accepted step of every preset in
    both representations (4 and 5 components), on the same steps as lane
    arrays (1 component), and on states made of signed zeros, infinities,
    NaN, subnormals and 1e300."""

    POOL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
            2.2250738585072014e-308 / 3.0, 1e300, -1e300, 1.0, -0.75, 3.0]

    @pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
    def test_every_preset_step(self, case_runs, rep):
        for params, _, initial, base in case_runs.values():
            cfg = replace(base.config, representation=rep)
            stepper = integrate(initial, params, cfg)._stepper
            assert len(stepper.steps[0][2]) == (5 if rep is Representation.REDUCED else 4)
            for _, h, y, y_new, k in stepper.steps:
                scale = [cfg.abs_tol + max(abs(v), abs(w)) * cfg.rel_tol
                         for v, w in zip(y, y_new)]
                got, want = _step_parts(stepper.f, h, y, y_new, k, scale)
                assert got == want

    @pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
    def test_lane_arrays(self, case_runs, rep):
        """Each preset's accepted steps as the lanes of one (component, lane)
        array, called as the lane stepper calls the step."""
        for params, _, initial, base in case_runs.values():
            cfg = replace(base.config, representation=rep)
            stepper = integrate(initial, params, cfg)._stepper
            _, h, y, y_new, k = (np.moveaxis(np.array(col), 0, -1)
                                 for col in zip(*stepper.steps))  # the lane last
            scale = cfg.abs_tol + np.maximum(np.abs(y), np.abs(y_new)) * cfg.rel_tol
            got, want = _step_parts(_lane_call(stepper.f), h, [y], [y_new], k[:, None],
                                    [scale])
            assert got == want

    def _field(self):
        """A field that keeps its inputs' special values: each component a
        multiple of another."""
        weights = self.POOL[-3:] * 2
        return lambda *y: [c * v for c, v in zip(weights, reversed(y))]

    @pytest.mark.parametrize("n", [4, 5])
    def test_special_values(self, n):
        rng = random.Random(n)
        f = self._field()
        for _ in range(300):
            y, y_new, scale = ([rng.choice(self.POOL) for _ in range(n)] for _ in range(3))
            k = [[rng.choice(self.POOL) for _ in range(n)] for _ in range(13)]
            h = rng.choice(self.POOL)
            try:
                got, want = _step_parts(f, h, y, y_new, k, scale)
            except ZeroDivisionError:  # a zero scale; the oracle raises too
                with pytest.raises(ZeroDivisionError):
                    step_oracle.error_sums(k[:12], scale)
                scale = [1.0] * n
                got, want = _step_parts(f, h, y, y_new, k, scale)
            assert got == want

    def test_special_values_in_lanes(self):
        rng = np.random.default_rng(1)
        pool = np.array(self.POOL)
        y, y_new, scale = (pool[rng.integers(len(pool), size=(4, 500))] for _ in range(3))
        k = pool[rng.integers(len(pool), size=(13, 4, 500))]
        h = pool[rng.integers(len(pool), size=500)]
        f = _lane_call(self._field())
        with np.errstate(all="ignore"):
            got, want = _step_parts(f, h, [y], [y_new], k[:, None], [scale])
        assert got == want

    @pytest.mark.parametrize("n", [1, 4, 5])
    def test_signed_zero_sums(self, n):
        """Per row of the tableau, stages whose terms in that row are all
        -0.0, so that the row sums to -0.0 from its first term and to +0.0
        from 0.0: the stage inputs (recorded by the field), y_new and the
        dense output show which.  n = 1 is the lane call, on arrays."""
        def vector(v):
            return [np.full((4, 3), v)] if n == 1 else [v] * n

        for row in (*integrator_module.A_ROWS, integrator_module.B_ROW,
                    *integrator_module.DENSE_STAGES, *integrator_module.DENSE_ROWS):
            k = [vector(1.0) for _ in range(16)]
            for j, c in row:
                k[j - 1] = vector(-math.copysign(0.0, c))
            y = vector(-0.0)
            got, want = [], []
            for (stages_of, _, dense_coeffs), seen in ((GENERATED, got), (ORACLE, want)):
                stages = iter(k[1:12])

                def f(*state):
                    seen.append(_hex(list(state)))
                    return next(stages)

                ks = stages_of(f, y, k[0], 1.0)
                stages = iter(k[13:])
                seen.append(_hex([ks, dense_coeffs(f, 1.0, y, y, k[:13])]))
            assert got == want, row

    def test_generated_on_first_use(self):
        """Importing the integrator generates no code; a step of n components
        generates the code for n."""
        script = ("import peakonlab.integrator as m; assert not m._STEP_CODE; "
                  "from peakonlab import *; "
                  "integrate(PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0)); "
                  "assert list(m._STEP_CODE) == [4], list(m._STEP_CODE)")
        src = Path(integrator_module.__file__).parents[1]
        subprocess.run([sys.executable, "-c", script], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})


class TestCounters:
    def test_evaluations_per_step(self, case_runs, grid_runs):
        """2 to start, 11 per attempt, the new state's field per accepted
        step and 3 for the event step's dense output; sampling adds 3 per
        remaining step, once."""
        for params, _, initial, base in [*case_runs.values(), *grid_runs.values()]:
            traj = integrate(initial, params, base.config)
            assert traj.steps == len(traj.times) - 1
            dense = 3 if traj.terminal_event.kind is not EventKind.HORIZON else 0
            attempts = traj.steps + traj.rejected
            assert traj.nfev == 2 + 11 * attempts + traj.steps + dense
            traj.sample_array(traj.times)
            traj.sample(traj.t_end)
            assert traj.nfev == 2 + 11 * attempts + 4 * traj.steps

    def test_sampling_builds_only_the_sampled_steps(self):
        """Each step's interpolant is built the first time a sampled time
        falls in it, once; the event step's comes from the event search."""
        params, _, initial, base = run_point(*CASE_PRESETS["case1"])
        traj = integrate(initial, params, base.config)
        start = traj.nfev
        assert traj.steps >= 4
        traj.sample(0.5 * (traj.times[1] + traj.times[2]))
        traj.sample_array([traj.times[2], traj.times[1], traj.t_end])
        traj.sample_array([traj.times[1], traj.times[0]])
        assert traj.nfev == start + 3 * 2  # steps 0 and 1; the last is the event step

    def test_horizon_run_builds_no_dense_output(self):
        traj = integrate(PeakonState(1.0, 0.0, 0.0, 20.0), ABParams(1 / 3, 3.0),
                         IntegrationConfig(max_time=3.0))
        assert traj.terminal_event.kind is EventKind.HORIZON
        assert traj.nfev == 2 + 12 * traj.steps + 11 * traj.rejected

    def test_zero_duration_run(self):
        back = integrate_reversed(PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0),
                                  IntegrationConfig(), 0.0)
        assert (back.nfev, back.steps, back.rejected) == (0, 0, 0)


class TestSamplingOrder:
    """Dense output is built per sampled step and ``sample`` keeps its last
    state; neither may change a sampled bit."""

    @pytest.mark.parametrize("case", sorted(CASE_PRESETS))
    def test_any_subset_equals_a_full_build(self, case):
        params, _, initial, base = run_point(*CASE_PRESETS[case])
        full = integrate(initial, params, base.config)
        mid = 0.5 * (full.times[:-1] + full.times[1:])
        ts = np.concatenate([full.times, mid, np.linspace(0.0, full.t_end, 41)])
        want = full.sample_array(ts)  # builds every step
        rng = np.random.default_rng(len(case))
        for _ in range(4):
            traj = integrate(initial, params, base.config)
            order = rng.permutation(len(ts))
            for chunk in np.array_split(order, rng.integers(1, 8)):
                if len(chunk) == 1 or rng.random() < 0.3:
                    for i in chunk:
                        assert traj.sample(ts[i]).as_array().tobytes() == want[i].tobytes()
                else:
                    assert traj.sample_array(ts[chunk]).tobytes() == want[chunk].tobytes()
            assert traj.nfev == full.nfev

    def test_kept_state_is_per_time(self):
        params, _, initial, base = run_point(*CASE_PRESETS["case3"])
        traj = integrate(initial, params, base.config)
        fresh = integrate(initial, params, base.config)
        t1, t2 = 0.25 * traj.t_end, 0.75 * traj.t_end
        for t in (t1, t2, t1, t1, t2, 0.0, -0.0, 0.0):
            assert traj.sample(t).as_array().tobytes() == fresh.sample_array([t])[0].tobytes()
            assert (traj.sample_derivative(t).tobytes()
                    == fresh.sample_derivative(t).tobytes())
            assert traj.separation(t) == fresh.separation(t)


class TestRootFinder:
    @pytest.mark.parametrize("root", [0.1, 0.5, 0.999, 1e-9])
    def test_polynomial_roots_to_roundoff(self, root):
        g = lambda t: (t - root) * (1.0 + t * t) * (3.0 - t)
        found = _root(g, 0.0, 1.0)
        assert abs(found - root) <= 8 * math.ulp(root)

    def test_scale_free(self):
        """The bracket is narrowed relative to its own size: a root near
        1e-90 is found to roundoff, not to an absolute 1e-15."""
        found = _root(lambda t: t - 3e-91, 1e-91, 9e-91)
        assert found == pytest.approx(3e-91, rel=1e-15)

    def test_endpoints(self):
        assert _root(lambda t: t, 0.0, 1.0) == 0.0
        assert _root(lambda t: t - 1.0, 0.0, 1.0) == 1.0
        assert _root(lambda t: 1.0 + t, 0.0, 1.0) == 1.0  # no sign change: the step end

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="not finite"):
            _root(lambda t: math.nan if t > 0.3 else t - 0.5, 0.0, 1.0)


def _batch(functions):
    """g(t, i) for ``_roots``: function i at time t, on floats, as ``_root``
    evaluates it."""
    return lambda t, i: np.array([functions[k](v) for k, v in zip(i.tolist(), t.tolist())])


def _scalar_root(g, a, b):
    try:
        return _root(g, a, b)
    except (ValueError, ZeroDivisionError):
        return None


def _root_brackets(seed: int, count: int):
    """Seeded (g, a, b): cubics (t - r)(s + t^2)(3 - t) - e with the root r
    inside, outside or at an end of the bracket, and shifted sines."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a = rng.uniform(-2.0, 2.0)
        b = a + 10.0 ** rng.uniform(-12, 1)
        r = rng.choice([rng.uniform(a, b), rng.uniform(a - 1.0, b + 1.0), a, b])
        s, e = rng.uniform(0.1, 3.0), rng.choice([0.0, rng.uniform(-1e-3, 1e-3)])
        w, p = rng.uniform(0.5, 40.0), rng.uniform(0.0, 6.3)
        out.append(rng.choice([
            (lambda t, r=r, s=s, e=e: (t - r) * (s + t * t) * (3.0 - t) - e, a, b),
            (lambda t, w=w, p=p, e=e: math.sin(w * t + p) + e, a, b)]))
    return out


class TestLaneRootSearch:
    """``_roots`` finds every bracket's root with ``_root``'s bits, and fails
    exactly the brackets where ``_root`` raises."""

    def _check(self, brackets, handoff=0):
        functions, a, b = zip(*brackets)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrator_module, "ROOT_HANDOFF", handoff)
            roots, found = integrator_module._roots(_batch(functions), np.array(a), np.array(b))
        want = [_scalar_root(*bracket) for bracket in brackets]
        for got, ok, root in zip(roots.tolist(), found.tolist(), want):
            if handoff == 0:
                assert ok == (root is not None)
            if ok:
                assert float.hex(got) == float.hex(root)
        return found

    def test_root_finder_cases_as_one_batch(self):
        cubic = lambda root: (lambda t: (t - root) * (1.0 + t * t) * (3.0 - t))
        brackets = [(cubic(root), 0.0, 1.0) for root in (0.1, 0.5, 0.999, 1e-9)]
        brackets += [(lambda t: t - 3e-91, 1e-91, 9e-91),
                     (lambda t: t, 0.0, 1.0), (lambda t: t - 1.0, 0.0, 1.0),
                     (lambda t: 1.0 + t, 0.0, 1.0)]
        assert self._check(brackets).all()

    def test_seeded_brackets(self):
        assert self._check(_root_brackets(3, 400)).all()

    def test_endpoint_roots_and_no_sign_change(self):
        functions = [lambda t: t, lambda t: t - 1.0, lambda t: 1.0 + t, lambda t: -1.0 - t]
        roots, found = integrator_module._roots(_batch(functions), np.zeros(4), np.ones(4))
        assert found.all()
        assert roots.tolist() == [0.0, 1.0, 1.0, 1.0]  # no sign change: the step end

    def test_nan_fails_only_its_bracket(self):
        brackets = _root_brackets(4, 40)
        brackets[7] = (lambda t: math.nan if t > 0.3 else t - 0.5, 0.0, 1.0)
        brackets[19] = (lambda t: math.nan, 0.0, 1.0)
        found = self._check(brackets)
        assert np.flatnonzero(~found).tolist() == [7, 19]

    def test_handoff_leaves_the_last_brackets_unfinished(self):
        brackets = _root_brackets(5, 200)
        found = self._check(brackets, handoff=16)
        assert 0 < (~found).sum() < 16


def test_lane_event_search_equals_locate():
    """``_locate_lanes`` against ``_locate``, lane by lane and bit for bit, on
    linear interpolants of the full state (p1, p2, q1, q2) over [1, 1.5]:
    the collision and p1 = 0 at the same instant (the lower event wins), p2
    before the collision, and a crossing p1 that the lane does not arm."""
    y_old = np.array([[-0.5, 0.5, 0.3], [1.0, -0.25, 1.0], [0.0, 0.0, 0.0], [-0.5, -0.75, -0.6]])
    slope = np.array([[1.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    coeffs = np.zeros((4, 7, 3))
    coeffs[:, 0, :] = slope  # d1; the interpolant is y_old + x d1
    armed = np.array([[True] * 3, [True, True, False], [True] * 3])
    t_old, t_new, h = np.full(3, 1.0), np.full(3, 1.5), np.full(3, 0.5)
    events = integrator_module._FULL.events
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(integrator_module, "ROOT_HANDOFF", 0)
        t_event, index, state, found = integrator_module._locate_lanes(
            events, armed, t_old, t_new, h, y_old, y_old + slope, coeffs)
    assert found.all()
    assert index.tolist() == [0, 2, 0]
    for j in range(3):
        fns = [g for (_, g), on in zip(events, armed[:, j]) if on]
        y0, y1 = y_old[:, j].tolist(), (y_old + slope)[:, j].tolist()
        want = integrator_module._locate(fns, [g(y0) for g in fns], [g(y1) for g in fns],
                                         1.0, 1.5, 0.5, y0, coeffs[:, :, j].tolist())
        # ``_locate`` numbers the lane's armed events, ``_locate_lanes`` all events
        want = (want[0], int(np.flatnonzero(armed[:, j])[want[1]]), want[2])
        got = (float(t_event[j]), int(index[j]), state[:, j].tolist())
        assert got == want
        assert list(map(float.hex, [got[0], *got[2]])) == list(map(float.hex, [want[0], *want[2]]))


class TestLaneStartingStep:
    """``_initial_steps`` gives every lane ``_initial_step``'s bits, and leaves
    unstarted exactly the lanes where it raises or is not finite."""

    @staticmethod
    def _check(func, args, y, f0, t_end):
        with np.errstate(all="ignore"):
            h, started = integrator_module._initial_steps(
                partial(func, *args), y, f0, t_end, 1e-12, 1e-14)
        for k in range(y.shape[1]):
            try:
                want = integrator_module._initial_step(
                    partial(func, *args[:, k].tolist()), y[:, k].tolist(), f0[:, k].tolist(),
                    float(t_end[k]), 1e-12, 1e-14)
            except ZeroDivisionError:
                want = None
            if want is None or not math.isfinite(want):
                assert not started[k], k
            else:
                assert started[k] and float.hex(float(h[k])) == float.hex(want), k
        return started

    @pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
    def test_sweep_grid_points(self, rep):
        points = [p for p in (_design(a, b, rep) for a, b in _sweep_grid(8)[::4]) if p]
        func, args, y0, t_end = _lanes(points)
        f0 = np.array(func(*args, *y0))
        t_end[::7] = 1e-9  # the horizon caps h0
        assert self._check(func, args, y0, f0, t_end).all()

    def test_failing_lanes_are_not_started(self):
        """Lane 1 has d1 = 0 and d2 = NaN, where the scalar code divides by
        max(d1, d2) = 0; lane 2 has d1 = inf, so h0 = 0 and the scalar code
        divides by it; lane 3's field is NaN, and so is its step.  Lane 4's
        field overflows to inf and its step is 0, as in the scalar code; the
        other lanes are ordinary."""
        field = lambda c, x: (c * x * x,)
        c = np.array([[1.0, math.nan, 1.0, 1.0, 1e300, 0.5, 2.0]])
        y = np.array([[1.0, 1.0, 1.0, 1.0, 1e10, 0.0, -3.0]])
        f0 = np.array([[1.0, 0.0, math.inf, math.nan, 1e300, 0.0, 18.0]])
        started = self._check(field, c, y, f0, np.full(7, 5.0))
        assert started.tolist() == [True, False, False, False, True, True, True]


@pytest.mark.parametrize("exponent", [integrator_module.ERROR_EXPONENT, 1.0 / 8.0])
def test_float_power_has_the_bits_of_the_float_power_operator(exponent):
    """The lanes' step-size factor err^(-1/8) and starting step's ^(1/8) use
    ``np.float_power``, which calls the C library's pow as ``**`` on floats
    does (``np.power`` differs in the last bit on a few percent of inputs):
    equal bits over 10^[-300, 300], on subnormals, at inf and at NaN."""
    rng = np.random.default_rng(16)
    x = np.concatenate([10.0 ** rng.uniform(-300.0, 300.0, 200_000),
                        10.0 ** rng.uniform(-323.0, -308.0, 20_000),
                        [5e-324, 1.0, math.inf, math.nan]])
    want = np.array([v ** exponent for v in x.tolist()])
    assert np.array_equal(np.float_power(x, exponent).view(np.int64), want.view(np.int64))


def test_non_finite_dense_output_is_an_integration_error(monkeypatch):
    params, _, initial, base = run_point(*CASE_PRESETS["case1"])
    monkeypatch.setattr(integrator_module, "_interpolate", lambda x, coeffs, y: math.nan)
    with pytest.raises(IntegrationError, match="not finite"):
        integrate(initial, params, base.config)


def test_rel_tol_floor():
    assert MIN_REL_TOL == 100 * np.finfo(float).eps
    IntegrationConfig(rel_tol=MIN_REL_TOL)
    with pytest.raises(ValueError, match="2.22e-14"):
        IntegrationConfig(rel_tol=1e-300)
    with pytest.raises(ValueError, match="2.22e-14"):
        IntegrationConfig(rel_tol=0.5 * MIN_REL_TOL)


# ---------------------------------------------------------------------------
# the lane stepper


def _sweep_grid(seed: int):
    """A 32 x 32 (a, b) grid over all four quadrants: |a| log-spaced in
    [0.05, 2] on both sides of 0, b in [-1, 1.8] and [2.2, 5], every node
    jittered by a seeded 3% (a) or 0.04 (b)."""
    rng = random.Random(seed)
    mags = [0.05 * 40.0 ** (k / 15) for k in range(16)]
    a_vals = [v * (1.0 + rng.uniform(-0.03, 0.03)) for v in sorted([-m for m in mags] + mags)]
    b_vals = [v + rng.uniform(-0.04, 0.04)
              for v in [-1.0 + 2.8 * k / 15 for k in range(16)]
              + [2.2 + 2.8 * k / 15 for k in range(16)]]
    return [(a, b) for a in a_vals for b in b_vals]


def _design(a: float, b: float, rep: Representation):
    """(initial, params, config) of the case design at (a, b), as a sweep
    point resolves it; None where no design exists."""
    params = ABParams(a, b)
    try:
        spec = case_spec_for(params, 1.0, 0.5)
    except ValueError:
        return None
    config = IntegrationConfig(max_time=10.0 * collision_time_bound(spec, params),
                               representation=rep)
    return make_initial_profile(spec), params, config


def _bits(record):
    """An event record as exact text: kind, time and state, with -0.0 kept."""
    return (record.kind, *map(float.hex, (record.time, *astuple(record.state))))


def _outcome(kind, time):
    """What a run ended with, comparable exactly: its event kind and the bits
    of its time, or the type and text of the exception it raised."""
    if isinstance(kind, Exception):
        return type(kind), str(kind)
    return kind, float.hex(time)


def _scalar(initial, params, config):
    try:
        return integrate(initial, params, config)
    except Exception as exc:  # compared with the lane's outcome
        return exc


def _scalar_outcome(point):
    """``_outcome`` of ``integrate`` at an (initial, params, config) point."""
    end = _scalar(*point)
    if isinstance(end, Exception):
        return _outcome(end, math.nan)
    return _outcome(end.terminal_event.kind, end.terminal_event.time)


def _columns(points):
    """(initial, params, config) points as the columns (a, b, p1, p2, q1, q2,
    horizon) that ``terminal_events`` takes."""
    rows = [(params.a, params.b, *astuple(initial), config.max_time)
            for initial, params, config in points]
    return [np.array(col, dtype=float) for col in (zip(*rows) if rows else [()] * 7)]


def _column_outcomes(points):
    """``_outcome`` per point of one ``terminal_events`` call on the points,
    whose configs differ in their horizons at most."""
    times, kinds = terminal_events(*_columns(points), points[0][2])
    return [_outcome(kind, time) for kind, time in zip(kinds, times.tolist())]


def _lanes(points):
    """(initial, params, config) points of one representation as lanes:
    the field and its (coefficient, lane) and (component, lane) arrays and
    the horizons, from the builder that ``terminal_events`` uses.  Every
    point must run."""
    fields = integrator_module._description(points[0][2].representation)
    index, args, y0, t_end = integrator_module._lane_points(fields, *_columns(points))
    assert index.tolist() == list(range(len(points)))
    return fields.func, args, y0, t_end


def _assert_lanes_repeat_scalar(points):
    """Run (initial, params, config) points of one representation and one
    set of tolerances as lanes until every lane has retired, and compare
    each lane with the scalar run of its point: event kind, time and end
    state bit for bit, the event residual within EVENT_TOL, and the numbers
    of accepted and rejected steps.  The lanes run three times: with the
    module's hand-off cutoff, with every lane resumed on the scalar stepper
    after one lockstep attempt (the cutoff at the number of lanes), and with
    no lane resumed (the cutoff at 0)."""
    config = points[0][2]
    fields = integrator_module._description(config.representation)
    _, args, y0, t_end = _lanes(points)
    trajectories = [integrate(*point) for point in points]
    solve = integrator_module._Dop853.solve
    for cutoff in (integrator_module._LANE_HANDOFF, len(points), 0):
        resumed = []

        def recording(stepper, y, t_end, events, lane=None):
            resumed.append(lane)
            return solve(stepper, y, t_end, events, lane)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrator_module, "_LANE_HANDOFF", cutoff)
            patch.setattr(integrator_module._Dop853, "solve", recording)
            t, event, y, steps, rejected, ok, failed = integrator_module._lane_runs(
                fields, args, y0, t_end, config.rel_tol, config.abs_tol)
        assert failed == []
        if cutoff == 0:
            assert resumed == []
        elif cutoff == len(points):
            assert resumed and all(lane[5] <= 1 for lane in resumed)  # lane[5]: accepted steps
        kinds = set()
        for j, ((initial, params, _), traj) in enumerate(zip(points, trajectories)):
            assert ok[j], (initial, params)
            if event[j] < 0:
                kind = EventKind.HORIZON
            else:
                kind, g = fields.events[event[j]]
                assert abs(g(y[:, j])) <= integrator_module.EVENT_TOL, (initial, params)
            record = EventRecord(kind, float(t[j]),
                                 PeakonState.from_array(fields.to_array(y[:, j])))
            assert _bits(record) == _bits(traj.terminal_event), (initial, params, cutoff)
            assert (steps[j], rejected[j]) == (traj.steps, traj.rejected), (initial, params)
            kinds.add(record.kind)
    return kinds


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
class TestLanesRepeatTheScalarRun:
    def test_seeded_32x32_grid(self, rep):
        points = [p for p in (_design(a, b, rep) for a, b in _sweep_grid(8)) if p]
        assert len(points) > 950  # the rest have no design with mu <= 1
        assert _assert_lanes_repeat_scalar(points) == {EventKind.COLLISION}

    def test_sixteen_point_grid(self, rep):
        points = [_design(a, b, rep) for a in GRID_A for b in GRID_B]
        assert _assert_lanes_repeat_scalar(points)

    def test_public_call_equals_integrate(self, rep):
        """``terminal_events`` on every 16th point of a seeded grid."""
        points = [p for p in (_design(a, b, rep) for a, b in _sweep_grid(9)[::16]) if p]
        assert _column_outcomes(points) == list(map(_scalar_outcome, points))


def _bench_grid(seed: int):
    """The benchmark's seeded 32 x 32 sweep grid (a-major): |a| log-spaced
    around 0.395 on both sides of 0, b in [-1, 1.8] and [2.2, 5], jittered
    by at most 3% (a) or 0.04 (b)."""
    rng = random.Random(seed)
    ratio = (2.0 / 0.05) ** (1 / 15)
    mags = [0.395 * ratio ** (k - 8) for k in range(16)]
    a_vals = [v * (1.0 + rng.uniform(-0.03, 0.03)) for v in sorted([-m for m in mags] + mags)]
    b_vals = [v + rng.uniform(-0.04, 0.04)
              for v in [-1.0 + 2.8 * k / 15 for k in range(16)]
              + [2.2 + 2.8 * k / 15 for k in range(16)]]
    return [(a, b) for a in a_vals for b in b_vals]


#: the command line's failure grid: the small fallback separation at a = 0.395
#: (its scanned c designs mu > 1), a field that may overflow or a step that
#: fails at b = 1e300, and a slow column at a = 1e-9
FAILURE_GRID = [(a, b) for a in (0.3, -1.0, 0.395, 1e-9, -0.2, 0.7, -1.6)
                for b in (3.0, -1.0, 0.0, 1e300, 4.5, 1.2)]


def _resolved_points(grid, **settings):
    """(initial, params, config) of every grid point that the command line
    resolves on its own (``cli._resolve``), with the given settings."""
    from peakonlab.cli import ExperimentConfig, _resolve

    cfg = ExperimentConfig(**settings)
    points = []
    for a, b in grid:
        try:
            run = _resolve(replace(cfg, case="custom", a=a, b=b), require_case=True)
        except ValueError:
            continue
        points.append((run.initial, run.params, run.integration))
    return points


@pytest.mark.parametrize("grid, settings, failures", [
    pytest.param(_bench_grid(1), {}, 0, id="bench-seed-1"),
    pytest.param(_bench_grid(7), {}, 0, id="bench-seed-7"),
    pytest.param(_bench_grid(29), {}, 0, id="bench-seed-29"),
    pytest.param(FAILURE_GRID, {"alpha": 1e76}, 8, id="alpha-1e76-full"),
    pytest.param(FAILURE_GRID, {"alpha": 1e76, "representation": "reduced"}, 42,
                 id="alpha-1e76-reduced"),
    pytest.param(FAILURE_GRID, {}, 7, id="b-1e300"),
    pytest.param([(-1.6, 1e300)], {}, 1, id="a--1.6-b-1e300-alone"),
])
def test_column_call_equals_integrate_point_by_point(grid, settings, failures):
    """The column ``terminal_events`` on the points a sweep integrates: each
    point's time and event kind, or its error's type and text, are those of
    ``integrate`` at that point."""
    points = _resolved_points(grid, **settings)
    want = list(map(_scalar_outcome, points))
    assert _column_outcomes(points) == want
    assert sum(isinstance(kind, type) for kind, _ in want) == failures


def test_nan_inside_the_event_step_fails_as_integrate_does(monkeypatch):
    """A dense output that is NaN strictly inside every step, and finite at
    its ends: the lanes' root search drops each bracket at its first NaN
    iterate, the scalar search refuses that iterate, and every point ends
    with ``integrate``'s error, point by point."""
    points = _resolved_points(_bench_grid(1))
    interpolate = integrator_module._interpolate

    def nan_inside(x, coeffs, y_old):
        value = interpolate(x, coeffs, y_old)
        inside = (x > 0.0) & (x < 1.0)
        if isinstance(value, np.ndarray):
            return np.where(inside, math.nan, value)
        return math.nan if inside else value

    monkeypatch.setattr(integrator_module, "_interpolate", nan_inside)
    want = list(map(_scalar_outcome, points))
    assert {kind for kind, _ in want} == {IntegrationError}
    assert all("the dense output is not finite at t = " in text for _, text in want)
    assert _column_outcomes(points) == want


def test_resumed_failures_are_not_run_again(monkeypatch):
    """On the failure grid at alpha 1e76, reduced, every point fails: seven
    at the overflow guard, before they become lanes; the rest at a step below
    the spacing of t, two of them after creeping for about 1,000 and 7,000
    steps.  The
    lanes end on the scalar stepper from their own state with their scalar
    runs' errors, so ``integrate`` runs only the seven points that were
    never lanes."""
    points = _resolved_points(FAILURE_GRID, alpha=1e76, representation="reduced")
    want = list(map(_scalar_outcome, points))
    assert all(isinstance(kind, type) for kind, _ in want)
    lanes = integrator_module._lane_points(integrator_module._REDUCED, *_columns(points))[0]
    assert lanes.size == len(points) - 7
    calls = []
    scalar_integrate = integrator_module.integrate
    monkeypatch.setattr(integrator_module, "integrate",
                        lambda *p: calls.append(p) or scalar_integrate(*p))
    assert _column_outcomes(points) == want
    assert len(calls) == 7


@pytest.mark.parametrize("settings", [{"alpha": 1e76, "representation": "reduced"}, {}],
                         ids=["alpha-1e76-reduced", "b-1e300"])
def test_returned_errors_keep_no_frame(settings):
    """The errors ``terminal_events`` returns, from lanes that failed on the
    scalar stepper (alpha 1e76, reduced) or from the ``integrate`` fallback
    (b = 1e300), carry no traceback, so they hold no frame alive."""
    points = _resolved_points(FAILURE_GRID, **settings)
    _, kinds = terminal_events(*_columns(points), points[0][2])
    errors = [kind for kind in kinds if isinstance(kind, Exception)]
    assert errors and all(exc.__traceback__ is None for exc in errors)


def test_lanes_cover_every_ending():
    """Reversed peak order (sigma = -1), a lane stopped at a tiny horizon,
    a vanishing momentum, and a zero momentum that is not armed, in one
    batch with ordinary collisions."""
    cfg = IntegrationConfig(max_time=5.0)
    points = [
        (PeakonState(0.5, 1.5, 0.1, 0.0), ABParams(1 / 3, 3.0), cfg),  # sigma = -1
        (PeakonState(-1.0, 1.5, 0.05, 0.0), ABParams(-1.0, 0.0), cfg),  # sigma = -1
        (PeakonState(1.5, -1.0, 0.0, 0.1), ABParams(1 / 3, 3.0), replace(cfg, max_time=1e-3)),
        (PeakonState(-1.9236922751240804, -1.4803211942178187, 0.0, 0.5835482436363378),
         ABParams(-0.08290509943933122, -0.8394101791196349), cfg),  # p2 reaches 0
        (PeakonState(1.0, 0.0, 0.0, 20.0), ABParams(1 / 3, 3.0), cfg),  # p2 = 0, unarmed
        *[_design(a, b, Representation.FULL) for a, b in CASE_PRESETS.values()],
    ]
    kinds = _assert_lanes_repeat_scalar(points)
    assert kinds == {EventKind.COLLISION, EventKind.HORIZON, EventKind.MOMENTUM_ZERO_2}


def test_failing_lanes_raise_what_integrate_raises(monkeypatch):
    """A batch in which some points fail: the overflow guard, a creeping
    novikov-reduced run that exhausts the step budget, a NaN dense output
    at the event, and a reduced point with the peaks in reverse order.  Each
    carries the exception text of its scalar run; its neighbours still run
    as lanes and give the scalar results bit for bit.  The creeping lane
    goes on from its own state on the scalar stepper, which raises there,
    so it is not run again through ``integrate``."""
    rep = Representation.REDUCED
    neighbours = [_design(a, b, rep) for a in GRID_A for b in GRID_B]
    marked = neighbours[5]
    marker = integrate(*marked)._stepper.steps[-1][2][0]  # q at the event step's start
    interpolate = integrator_module._interpolate

    def nan_for_marked_step(x, coeffs, y_old):
        """NaN for the marked component: a float, or its elements of an array
        over lanes, where the lanes' root search reads it."""
        if isinstance(y_old, float):
            return math.nan if y_old == marker else interpolate(x, coeffs, y_old)
        return np.where(y_old == marker, math.nan, interpolate(x, coeffs, y_old))

    cfg = IntegrationConfig(max_time=100.0, representation=rep)
    failing = [
        (PeakonState(1e80, -1e80, 0.0, 0.1), ABParams(1 / 3, 3.0), cfg),
        (PeakonState(-0.5, 0.5, 0.0, 0.1), ABParams(0.0, 3.0), cfg),
        (PeakonState(1.5, -1.0, 0.1, 0.0), ABParams(1 / 3, 3.0), cfg),
    ]
    points = neighbours[:3] + failing[:1] + neighbours[3:9] + failing[1:] + neighbours[9:]
    monkeypatch.setattr(integrator_module, "MAX_STEPS", 60)  # the creeping run needs more
    monkeypatch.setattr(integrator_module, "_interpolate", nan_for_marked_step)
    ends = [_scalar(*p) for p in points]
    want = list(map(_scalar_outcome, points))
    errors = [str(end) for end in ends if isinstance(end, Exception)]
    for phrase, error in zip(["may overflow", "not finite", "more than 60 steps",
                              "requires q2 > q1"], errors, strict=True):
        assert phrase in error
    reruns = []
    scalar_integrate = integrator_module.integrate
    monkeypatch.setattr(integrator_module, "integrate",
                        lambda *p: reruns.append(p) or scalar_integrate(*p))
    assert _column_outcomes(points) == want
    assert len(reruns) == 3  # the overflow, the NaN event search and the reversed peaks


#: (p1, p2, q1, q2, a, b) points at the edges of the field's start and its
#: overflow guard, with the verdicts (ok, may overflow) of the full and the
#: reduced representation
START_EDGES = [
    ((1.5, -1.0, 0.3, 0.3, 1 / 3, 3.0), (True, False), (False, False)),  # q1 == q2: sigma = +1
    ((-1.0, 1.5, 0.1, 0.0, -1.0, 0.0), (True, False), (False, False)),  # sigma = -1
    ((1.5, -1.0, 0.0, 0.1, 1 / 3, 3.0), (True, False), (True, False)),
    # the guard's edge: the own momenta pass, the ones rebuilt from (h, w) do not
    ((2.8948022309329046e+76, -2.8948022309328946e+76, 0.0, 0.5, 1 / 3, 6.0),
     (True, False), (True, True)),
    # momenta that do not read back finite from (h, w)
    ((1e308, -1e308, 0.0, 1.0, 1 / 3, 3.0), (True, True), (True, True)),
]


@pytest.mark.parametrize("rep", list(Representation), ids=lambda r: r.value)
def test_one_builder_on_floats_and_on_arrays(rep):
    """The field's ``start``, its event arming and the overflow guard give
    each lane the bits they give the point's floats, where ``integrate``
    calls them: args, y0, armed events, ok and the overflow verdict, on the
    seeded 32 x 32 grid and at the edge points.  ``_lane_points`` keeps
    exactly the points that are ok, read back finite and do not overflow."""
    fields = integrator_module._description(rep)
    designs = [p for p in (_design(a, b, rep) for a, b in _sweep_grid(8)) if p]
    grid = [(*astuple(initial), params.a, params.b) for initial, params, _ in designs]
    points = grid + [point for point, _, _ in START_EDGES]

    def built(p1, p2, q1, q2, a, b, maximum):
        args, y0, ok = fields.start(a, b, p1, p2, q1, q2)
        state = fields.to_array(np.array(y0))
        over = integrator_module._may_overflow(a, b, state[0], state[1], maximum)
        return args, y0, integrator_module._arming(fields.events, y0), ok, over, state

    with np.errstate(over="ignore", invalid="ignore"):  # the state read back is numpy's
        lanes = built(*np.array(points).T, integrator_module._max)
        floats = [built(*point, max) for point in points]
    hexes = lambda values: [float.hex(float(v)) for v in values]
    verdicts, runnable = [], []
    for j, (point, (args, y0, arming, ok, over, state)) in enumerate(zip(points, floats)):
        assert hexes(args) == hexes(v[j] for v in lanes[0]), point
        assert hexes(y0) == hexes(v[j] for v in lanes[1]), point
        assert arming == [bool(on[j]) for on in lanes[2]], point
        assert ok == bool(np.broadcast_to(lanes[3], len(points))[j]), point
        assert over == bool(lanes[4][j]), point
        verdicts.append((ok, over))
        runnable.append(ok and np.isfinite(state).all() and not over)
    full = rep is Representation.FULL
    assert verdicts[len(grid):] == [want[0] if full else want[1] for _, *want in START_EDGES]
    if full:  # the orientation sigma of each edge point, the last coefficient
        assert [args[3] for args, *_ in floats[len(grid):]] == [1.0, -1.0, 1.0, 1.0, 1.0]
    p1, p2, q1, q2, a, b = np.array(points).T
    index, args, y0, _ = integrator_module._lane_points(fields, a, b, p1, p2, q1, q2,
                                                        np.full(len(points), 100.0))
    assert index.tolist() == np.flatnonzero(runnable).tolist()
    assert hexes(args.ravel()) == hexes(np.array(lanes[0])[:, index].ravel())
    assert hexes(y0.ravel()) == hexes(np.array(lanes[1])[:, index].ravel())


def test_overflow_guard_reads_the_state_integrate_reads(monkeypatch):
    """A reduced point at the edge of the overflow guard: its own momenta
    pass the guard, the ones rebuilt from (h, w) are an ulp larger and do
    not.  ``integrate`` rejects it, and so does the lockstep batch, before
    the point becomes a lane."""
    params = ABParams(1 / 3, 6.0)
    edge = PeakonState(2.8948022309329046e+76, -2.8948022309328946e+76, 0.0, 0.5)
    assert not integrator_module._may_overflow(params.a, params.b, edge.p1, edge.p2)
    cfg = IntegrationConfig(representation=Representation.REDUCED)
    with pytest.raises(IntegrationError, match="may overflow") as raised:
        integrate(edge, params, cfg)
    points = [(edge, params, cfg), *(_design(a, b, cfg.representation) for a in GRID_A
                                     for b in GRID_B)]
    lane_points = []
    lane_runs = integrator_module._lane_runs

    def recording(fields, args, y0, *rest):
        lane_points.extend(y0.T.tolist())
        return lane_runs(fields, args, y0, *rest)

    monkeypatch.setattr(integrator_module, "_lane_runs", recording)
    got = _column_outcomes(points)
    assert got[0] == (IntegrationError, str(raised.value))
    assert len(lane_points) == len(points) - 1  # every point but the edge one
    assert got[1:] == list(map(_scalar_outcome, points[1:]))


def test_unreadable_reduced_point_fails_alone():
    """A reduced point whose momenta, read back from (h, w), overflow: the
    batch returns the ValueError that ``integrate`` raises for it, and its
    neighbours still run (the batch used to raise it for every point)."""
    cfg = IntegrationConfig(representation=Representation.REDUCED)
    points = [(PeakonState(1e308, -1e308, 0.0, 1.0), ABParams(1 / 3, 3.0), cfg),
              *(p for p in (_design(a, b, cfg.representation) for a, b in _sweep_grid(9)[::16])
                if p)]
    got = _column_outcomes(points)
    assert got[0] == (ValueError, "state component p1 must be finite")
    assert got[1:] == list(map(_scalar_outcome, points[1:]))


def test_batch_without_a_runnable_point():
    """A batch in which the lane builder keeps no point (every reduced point
    has its peaks in reverse order): no lane runs, and every point carries
    the error ``integrate`` raises."""
    cfg = IntegrationConfig(representation=Representation.REDUCED)
    points = [(PeakonState(1.5, -1.0, 0.1 + 0.01 * k, 0.0), ABParams(1 / 3, 3.0), cfg)
              for k in range(32)]
    assert integrator_module._lane_points(
        integrator_module._REDUCED, *_columns(points))[0].size == 0
    assert _column_outcomes(points) == [(ValueError, "reduced representation requires q2 > q1")
                                        ] * len(points)


def test_points_must_share_tolerances_and_representation():
    """One config gives every point its tolerances and representation, and
    the horizon column its own horizon; the config's max_time is not read."""
    point = _design(*CASE_PRESETS["case1"], Representation.FULL)
    short = (*point[:2], replace(point[2], max_time=1e-3))
    for change in ({"rel_tol": 1e-10}, {"abs_tol": 1e-12},
                   {"representation": Representation.REDUCED}):
        config = replace(point[2], **change)
        times, kinds = terminal_events(*_columns([point, short]), replace(config, max_time=7.0))
        want = [_scalar_outcome((*p[:2], replace(config, max_time=p[2].max_time)))
                for p in (point, short)]
        assert [_outcome(k, t) for k, t in zip(kinds, times.tolist())] == want
        assert kinds == [EventKind.COLLISION, EventKind.HORIZON]
    times, kinds = terminal_events(*_columns([]), point[2])
    assert times.size == 0 and kinds == []


def test_single_runs_stay_scalar(monkeypatch, tmp_path):
    """run-case and certify never start the lane stepper."""
    from peakonlab.cli import main

    def no_lanes(*args, **kwargs):
        raise AssertionError("lane stepper started")

    monkeypatch.setattr(integrator_module, "_lane_runs", no_lanes)
    assert main(["run-case", "--sample-count", "5", "--out", str(tmp_path / "r")]) == 0
    assert main(["certify", "--s", "0.5", "--out", str(tmp_path / "c")]) == 0
