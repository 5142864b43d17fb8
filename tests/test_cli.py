"""Command-line pipeline: file outputs, manifests, determinism, rejection."""

import contextlib
import csv
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import warnings
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hs_oracle import bessel_distance, hs_distance_mp
from sweep_oracle import sweep_rows
from table_oracle import write_table as oracle_write_table

from peakonlab import (
    ABParams,
    CollisionFunction,
    IntegrationConfig,
    InvariantContext,
    PeakonState,
    hs_distances,
    integrate,
    z_closed_form,
)
import peakonlab.cli as cli
import peakonlab.integrator as integrator_module
from peakonlab.cli import _z_column, main


SRC = Path(__file__).resolve().parents[1] / "src"

#: values for the parameter fuzz: negative and extreme floats, lists, empty
FUZZ_VALUES = ["nan", "-inf", "-1e308", "-1", "-1e-9", "0", "1e-300", "0.5", "1.4", "3",
               "1e155", "-1,0.5", "0.3333333333333333,-1e-9", ""]


SWEEP_COLUMNS = ["a", "b", "case", "mu", "epsilon", "T", "T_within_bound", "event", "status"]


def _run(*argv):
    return main(list(argv))


def _run_captured(argv, seconds=5.0):
    """main(argv) with stdout and stderr captured; a run that takes longer
    than ``seconds`` fails instead of hanging the suite."""
    def expire(signum, frame):
        raise TimeoutError(f"{argv} did not return within {seconds} s")

    err = io.StringIO()
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


def _reject_non_json_constant(name):
    """``parse_constant`` for json.loads: NaN and +-Infinity are not JSON."""
    raise ValueError(f"{name} is not JSON")


def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunCase:
    def test_writes_tables_and_manifest(self, tmp_path):
        out = tmp_path / "c1"
        assert _run("run-case", "--case", "case1", "--s", "0.5",
                    "--sample-count", "40", "--out", str(out)) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        assert header == ["t", "q1", "q2", "p1", "p2", "q", "h", "w", "z",
                          "z_closed_form", "dist_s0.5"]
        assert len(rows) >= 40
        # first row is the initial profile
        first = [float(v) for v in rows[0]]
        assert first[:5] == [0.0, 0.0, 0.1, 1.5, -1.0]
        # z and its closed form agree everywhere in the table
        for row in rows:
            assert abs(float(row[8]) - float(row[9])) <= 1e-6
        ev_header, ev_rows = _read_csv(out / "events.csv")
        assert ev_header == ["kind", "time", "p1", "p2", "q1", "q2"]
        assert ev_rows[0][0] == "collision"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_case"] == "case1"
        assert manifest["epsilon"] == pytest.approx(1.25 / 3)

    @pytest.mark.parametrize("case", ["case2", "case3"])
    def test_manifest_reproduces_run(self, tmp_path, case):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run("run-case", "--case", case, "--s", "1.0",
                    "--sample-count", "25", "--out", str(out1)) == 0
        assert _run("run-case", "--config", str(out1 / "manifest.json"),
                    "--out", str(out2)) == 0
        assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()
        assert (out1 / "events.csv").read_text() == (out2 / "events.csv").read_text()

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert _run("run-case", "--case", "case4", "--sample-count", "30",
                        "--out", str(out)) == 0
        assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()

    def test_flat_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("case = case2\nsample_count = 20\n# comment\nalpha = 1.0\n")
        out = tmp_path / "out"
        assert _run("run-case", "--config", str(cfg), "--sample-count", "15",
                    "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["case"] == "case2"
        assert manifest["sample_count"] == 15  # flag beats file

    def test_forq_preset_keeps_momenta(self, tmp_path):
        out = tmp_path / "forq"
        assert _run("run-case", "--case", "forq", "--sample-count", "30",
                    "--out", str(out)) == 0
        _, rows = _read_csv(out / "trajectory.csv")
        for row in rows:
            assert float(row[3]) == pytest.approx(1.5, abs=1e-12)
            assert float(row[4]) == pytest.approx(1.0, abs=1e-12)

    def test_novikov_preset_runs_reduced(self, tmp_path):
        out = tmp_path / "nov"
        assert _run("run-case", "--case", "novikov-reduced", "--sample-count", "20",
                    "--max-time", "2.0", "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_representation"] == "reduced"
        assert manifest["resolved_a"] == 0.0

    def test_case4_terminal_row(self, tmp_path):
        """case4's located collision is written with q = q2 - q1 = -2.78e-17.
        Its closed-form z is finite there and equals the value at q = 0, and
        its distances are the exact ones of the written state: 0.128 at
        s = 1.4 (not 0), pinned against the mpmath oracle and, at s = 1.4
        where the value is not small, the direct Bessel assembly."""
        out = tmp_path / "c4"
        assert _run("run-case", "--case", "case4", "--s", "0.5", "--s", "1.0", "--s", "1.4",
                    "--sample-count", "40", "--out", str(out)) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        col = {name: i for i, name in enumerate(header)}
        last = [float(v) for v in rows[-1]]
        assert -1e-15 < last[col["q"]] < 0.0  # the collision as located
        manifest = json.loads((out / "manifest.json").read_text())
        ctx = InvariantContext.from_initial(
            ABParams(manifest["resolved_a"], manifest["resolved_b"]),
            PeakonState(*manifest["initial_state"]),
        )
        zc = last[col["z_closed_form"]]
        assert math.isfinite(zc)
        assert abs(zc - z_closed_form(ctx, 0.0)) <= 1e-12

        _, events = _read_csv(out / "events.csv")
        p1, p2, q1, q2 = (float(v) for v in events[-1][2:])
        coll = CollisionFunction(p_star=p1 + p2, q_star=q1)
        state = PeakonState(*(last[col[k]] for k in ("p1", "p2", "q1", "q2")))
        for s in (0.5, 1.0, 1.4):
            written = last[col[f"dist_s{s:g}"]]
            assert written == pytest.approx(hs_distance_mp(state, coll, s), rel=1e-12, abs=0)
        assert last[col["dist_s1.4"]] == pytest.approx(0.1285, abs=1e-4)
        assert last[col["dist_s1.4"]] == pytest.approx(
            bessel_distance(state, coll, 1.4), rel=1e-9)

    def test_distance_columns_equal_scalar_distances(self, tmp_path):
        """Each batched distance cell is the one-row distance of its row's state."""
        out = tmp_path / "c3"
        assert _run("run-case", "--case", "case3", "--s", "0.5", "--s", "1.4",
                    "--sample-count", "30", "--out", str(out)) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        col = {name: i for i, name in enumerate(header)}
        _, events = _read_csv(out / "events.csv")
        p1, p2, q1, _ = (float(v) for v in events[-1][2:])
        coll = CollisionFunction(p_star=p1 + p2, q_star=q1)
        for row in rows:
            values = [float(v) for v in row]
            state = [values[col[k]] for k in ("p1", "p2", "q1", "q2")]
            for s in (0.5, 1.4):
                assert values[col[f"dist_s{s:g}"]] == hs_distances(state, coll, s)[0]

    def test_z_column_marks_only_rows_outside_the_sign_definite_range(self):
        """L_a for a = -1 changes sign at q = ln(2)/2; rows beyond it get nan,
        every other row its scalar closed-form value, bit for bit, also on
        both sides of a = 1/3."""
        def z_or_nan(ctx, q):
            try:
                return z_closed_form(ctx, q)
            except ValueError:
                return math.nan

        near = np.linspace(-0.1, 0.2, 31)
        for a, b, q, outside in [(-1.0, 3.0, np.array([0.0, 0.05, 0.1, 0.5, 0.2, 0.34, 0.35]), 2),
                                 (1 / 3, 1.0, near, 0),
                                 ((1 - 1.5e-9) / 3, 1.0, near, 0),
                                 ((1 + 1.5e-9) / 3, 3.0, near, 0)]:
            ctx = InvariantContext.from_initial(ABParams(a, b), PeakonState(1.0, 1.5, 0.0, 0.1))
            column = _z_column(ctx, q)
            np.testing.assert_array_equal(column, [z_or_nan(ctx, v) for v in q.tolist()])
            assert np.isnan(column).sum() == outside
        assert np.isnan(_z_column(None, near)).all()

    @pytest.mark.parametrize("argv", [
        ["--case", "case1"], ["--case", "case2"], ["--case", "case3"], ["--case", "case4"],
        ["--case", "custom", "--a", str((1 - 1.5e-9) / 3), "--b", "1"],
    ])
    def test_z_column_equals_scalar_calls_on_every_row(self, tmp_path, argv):
        """The written column is, row by row, the scalar closed form at the
        written separation."""
        out = tmp_path / "z"
        assert _run("run-case", *argv, "--out", str(out)) == 0
        header, rows = _read_csv(out / "trajectory.csv")
        table = dict(zip(header, np.array(rows, dtype=float).T))
        manifest = json.loads((out / "manifest.json").read_text())
        ctx = InvariantContext.from_initial(
            ABParams(manifest["resolved_a"], manifest["resolved_b"]),
            PeakonState(*manifest["initial_state"]),
        )
        assert len(rows) > 400
        assert table["z_closed_form"].tolist() == [
            z_closed_form(ctx, v) for v in table["q"].tolist()]

    def test_mismatched_case_rejected(self, tmp_path):
        # (a, b) = (1/3, 1) classifies as case2, not case1
        code = _run("run-case", "--case", "case1", "--b", "1.0",
                    "--out", str(tmp_path / "x"))
        assert code == 2

    def test_unknown_case_rejected(self, tmp_path):
        assert _run("run-case", "--case", "case9", "--out", str(tmp_path / "x")) == 2


class TestCertify:
    def test_pass_at_low_index(self, tmp_path):
        out = tmp_path / "cert"
        assert _run("certify", "--case", "case1", "--s", "0.5",
                    "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["event"] == "collision"
        assert report["finite_T"] and report["bounded"] and report["reversal_ok"]
        dists = report["distances"]["0.5"]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert dists[-1] <= 1e-3

    def test_builds_dense_output_only_for_sampled_steps(self, tmp_path, monkeypatch):
        """certify samples T - 10^-k and its reversal start; only the steps
        holding those times get an interpolant, besides the event step's."""
        runs = []
        integrate_ = cli.integrate
        monkeypatch.setattr(cli, "integrate", lambda *args: runs.append(integrate_(*args))
                            or runs[-1])
        assert _run("certify", "--case", "case1", "--out", str(tmp_path / "x")) == 1
        traj, = runs
        T = traj.t_end
        ts = [T - 10.0**-k for k in cli.APPROACH_EXPONENTS] + [T - 1e-3]
        sampled = set(np.searchsorted(traj.times, ts, side="left") - 1) | {traj.steps - 1}
        attempts = traj.steps + traj.rejected
        assert traj.nfev == 2 + 11 * attempts + traj.steps + 3 * len(sampled)
        assert len(sampled) < traj.steps

    def test_supercritical_s_rejected(self, tmp_path):
        assert _run("certify", "--case", "case1", "--s", "1.6",
                    "--out", str(tmp_path / "x")) == 2

    def test_integration_failure_is_a_clean_error(self, tmp_path, capsys):
        """A solver failure exits 1 with one error line: no traceback and no
        overflow warnings from the trial stages before it."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = _run("certify", "--case", "case4", "--alpha", "1e150",
                        "--out", str(tmp_path / "x"))
        assert code == 1
        assert caught == []
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: integration failed:")
        assert err == lines[0] + "\n"

    def test_forq_rejected(self, tmp_path):
        assert _run("certify", "--case", "forq", "--out", str(tmp_path / "x")) == 2

    def test_horizon_before_the_event_fails_the_certificate(self, tmp_path):
        out = tmp_path / "x"
        code, err = _run_captured(["certify", "--case", "case1", "--max-time", "1e-3",
                                   "--out", str(out)])
        assert (code, err) == (1, "certificate FAILED: finite stopping time: run reached "
                                  "the horizon\n  also: no terminal event, certificate "
                                  "cannot be assembled\n")
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=_reject_non_json_constant)
        assert report["passed"] is False and report["event"] == "horizon"
        assert report["reversal_error"] is None and report["reversal_ok"] is False

    def test_round_trip_failure_is_named(self, tmp_path, monkeypatch):
        """A reversed run that misses the initial state by 1e-3 fails the
        round-trip link, and only that link."""
        reversed_ = cli.integrate_reversed

        def moved(*args):
            end = reversed_(*args).terminal_event
            state = replace(end.state, q1=end.state.q1 + 1e-3)
            return SimpleNamespace(terminal_event=replace(end, state=state))

        monkeypatch.setattr(cli, "integrate_reversed", moved)
        out = tmp_path / "x"
        code, err = _run_captured(["certify", "--case", "case1", "--s", "0.5",
                                   "--out", str(out)])
        assert code == 1
        assert re.fullmatch(r"certificate FAILED: time-reversal round trip: "
                            r"error 1\.000e-03 > 1e-06\n", err), err
        report = json.loads((out / "report.json").read_text())
        assert report["reversal_ok"] is False and len(report["failures"]) == 1

    def test_non_monotone_distances_fail_the_certificate(self, tmp_path, monkeypatch):
        """Distances that grow between two approach times fail the
        monotonicity link, and only that link."""
        distances = cli.hs_distances

        def swapped(*args):
            rows = distances(*args)
            rows[:, [0, 1]] = rows[:, [1, 0]]
            return rows

        monkeypatch.setattr(cli, "hs_distances", swapped)
        out = tmp_path / "x"
        code, err = _run_captured(["certify", "--case", "case1", "--s", "0.5",
                                   "--out", str(out)])
        assert (code, err) == (1, "certificate FAILED: distance monotonicity at s = 0.5\n")
        report = json.loads((out / "report.json").read_text())
        assert report["monotone"] == {"0.5": False} and len(report["failures"]) == 1

    def test_report_records_threshold_failures(self, tmp_path):
        """Indices with slow collapse rates are reported honestly as failed."""
        out = tmp_path / "cert14"
        code = _run("certify", "--case", "case4", "--s", "1.4", "--out", str(out))
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["monotone"]["1.4"] is True  # collapse happens, slowly
        assert report["below_threshold"]["1.4"] is False
        assert any("threshold" in f for f in report["failures"])


class TestFailurePaths:
    """Inputs that once hung or ended in a traceback end within 5 s with an
    exit code and one stderr line."""

    @pytest.mark.parametrize("command", ["run-case", "certify"])
    @pytest.mark.parametrize("flag", ["--rel-tol=nan", "--rel-tol=inf", "--abs-tol=nan",
                                      "--max-time=nan"])
    def test_non_finite_integration_setting_rejected(self, tmp_path, command, flag):
        code, err = _run_captured([command, flag, "--out", str(tmp_path / "x")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("command", ["run-case", "certify", "sweep"])
    @pytest.mark.parametrize("argv", [["--event-tol", "1e-12"], ["--event-tol=nan"]],
                             ids=["value", "nan"])
    def test_retired_event_tol_flag_is_refused(self, tmp_path, command, argv):
        """The event residual bound is the constant EVENT_TOL, not a flag."""
        out = tmp_path / "x"
        code, err = _run_captured([command, *argv, "--out", str(out)])
        assert (code, err) == (2, f"error: unrecognized arguments: {argv[0]}\n")
        assert not out.exists()

    def test_infinite_horizon_accepted(self, tmp_path):
        code, _ = _run_captured(["run-case", "--max-time=inf", "--sample-count", "10",
                                 "--out", str(tmp_path / "x")])
        assert code == 0

    @pytest.mark.parametrize("case", ["case1", "case4"])
    def test_overflowing_initial_field_is_a_clean_error(self, tmp_path, case):
        """p^2 overflows at t = 0; the run stops before the solver, which
        would loop on nan step sizes."""
        code, err = _run_captured(["run-case", "--case", case, "--alpha", "1e155",
                                   "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: integration failed:")

    @pytest.mark.parametrize("flags", [["--delta=1e155"], ["--alpha=1e-300", "--delta=1e-300"]],
                             ids=["overflow", "underflow"])
    def test_rate_bound_out_of_range_is_a_config_error(self, tmp_path, flags):
        """2 alpha delta + delta^2 overflowed (a traceback) or underflowed to
        0 (a division by zero) in the collision-time bound."""
        code, err = _run_captured(["run-case", *flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_collision_before_the_approach_times(self, tmp_path):
        """mu = 1e-300 collides at T = 2e-300, before T - 10^-k for any k:
        certify reports that no distance sequence exists (exit 1) instead
        of indexing an empty one."""
        out = tmp_path / "x"
        code, err = _run_captured(["certify", "--alpha", "0.5", "--delta", "0.5",
                                   "--mu", "1e-300", "--out", str(out)])
        assert code == 1
        assert "Traceback" not in err
        report = json.loads((out / "report.json").read_text())
        assert report["T"] == pytest.approx(2e-300, rel=1e-12)
        assert report["distances"] == {}
        assert any("no approach time" in f for f in report["failures"])

    @pytest.mark.parametrize("flags", [["--delta=1e45"], ["--alpha=0.5", "--delta=-1"]])
    def test_step_budget_ends_a_creeping_run(self, tmp_path, flags):
        """novikov-reduced runs whose separation creeps towards 0 without
        crossing it, with steps shrinking to 1e-12 or 1e-89, used to run
        without end; the step budget ends them with exit 1."""
        code, err = _run_captured(["run-case", "--case=novikov-reduced", *flags,
                                   "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.count("\n") == 1 and "more than 10000 steps" in err

    @pytest.mark.parametrize("case", ["case1", "case2"])
    @pytest.mark.parametrize("c", ["5", "-3"])
    def test_c_out_of_range_rejected_at_a_third(self, tmp_path, case, c):
        """At a = 1/3 the design takes no c, but a given one is still checked
        against (1, 2), as at every other a."""
        code, err = _run_captured(["run-case", "--case", case, "--c", c,
                                   "--out", str(tmp_path / "x")])
        assert code == 2
        assert err == f"error: c must lie in (1, 2), got {float(c)}\n"

    def test_valid_c_unused_at_a_third(self, tmp_path):
        """A valid c leaves the a = 1/3 run as it is without one."""
        files = ("trajectory.csv", "events.csv")
        for name, flags in (("plain", []), ("c", ["--c", "1.5"])):
            assert _run("run-case", "--case", "case1", *flags, "--sample-count", "20",
                        "--out", str(tmp_path / name)) == 0
        for file in files:
            assert (tmp_path / "c" / file).read_bytes() == (tmp_path / "plain" / file).read_bytes()

    def test_rel_tol_below_the_floor_is_a_config_error(self, tmp_path):
        """The stepper cannot meet a relative tolerance below 100 machine
        epsilons; asking for one is rejected instead of silently raised."""
        code, err = _run_captured(["run-case", "--rel-tol=1e-300", "--out", str(tmp_path / "x")])
        assert code == 2
        assert err.count("\n") == 1 and err.startswith("error: ") and "2.22e-14" in err
        assert not (tmp_path / "x" / "manifest.json").exists()

    def test_non_finite_dense_output_is_an_integration_failure(self, tmp_path, monkeypatch):
        """A NaN on the event bracket ends the run with exit 1, the
        integration-failure code, and one line."""
        monkeypatch.setattr(integrator_module, "_interpolate", lambda x, coeffs, y: math.nan)
        code, err = _run_captured(["run-case", "--case", "case4", "--out", str(tmp_path / "x")])
        assert code == 1
        assert err.count("\n") == 1 and err.startswith("error: integration failed:")
        assert "not finite" in err

    def test_huge_momenta_collide_on_their_own_time_scale(self, tmp_path):
        """case4 at alpha = 1e45 (momenta near 1e45) once ended with exit 2
        from a NaN far outside the event step.  The event search stays inside
        the step and narrows it relative to its size, so the run succeeds,
        and T alpha^2 is the same as at alpha = 1e30."""
        times = {}
        for alpha in (1e30, 1e45):
            out = tmp_path / f"a{alpha:g}"
            code, _ = _run_captured(["run-case", "--case", "case4", "--alpha", repr(alpha),
                                     "--sample-count", "10", "--out", str(out)])
            assert code == 0
            _, events = _read_csv(out / "events.csv")
            assert events[-1][0] == "collision"
            times[alpha] = float(events[-1][1]) * alpha * alpha
        assert times[1e45] == pytest.approx(times[1e30], rel=1e-12)

    @pytest.mark.parametrize("alpha", ["1e5", "1e10", "3e12", "1e30"])
    def test_large_momenta_pass_the_invariant_check(self, tmp_path, alpha):
        """h0^2 and 4 z0 grow like alpha^2 and cancel to w0^2 = 1/4; the
        identity check once took their roundoff for a violation (exit 2 at
        alpha = 1e10 and 3e12)."""
        out = tmp_path / "x"
        code, err = _run_captured(["run-case", "--case", "case1", "--alpha", alpha,
                                   "--sample-count", "10", "--out", str(out)])
        assert (code, err) == (0, "")
        _, events = _read_csv(out / "events.csv")
        assert events[-1][0] == "collision"

    def test_negative_sample_count_rejected_before_the_run(self, tmp_path):
        """numpy refused the count after the run had integrated and created
        the output directory."""
        out = tmp_path / "x"
        code, err = _run_captured(["run-case", "--case", "case1", "--sample-count", "-1",
                                   "--out", str(out)])
        assert (code, err) == (2, "error: sample count must be non-negative, got -1\n")
        assert not out.exists()

    def test_huge_sample_count_rejected_before_the_run(self, tmp_path):
        """np.linspace once tried to allocate 10^15 times after the run and
        ended in a numpy MemoryError traceback."""
        out = tmp_path / "x"
        code, err = _run_captured(["run-case", "--case", "case1", "--sample-count",
                                   str(10**15), "--out", str(out)])
        assert (code, err) == (2, "error: sample count must be at most 1000000, "
                                  "got 1000000000000000\n")
        assert not out.exists()

    @pytest.mark.parametrize("message, line", [
        ("Unable to allocate 7.1 PiB", "error: out of memory: Unable to allocate 7.1 PiB\n"),
        ("", "error: out of memory\n"),
    ])
    def test_memory_error_is_one_line(self, tmp_path, monkeypatch, message, line):
        def exhaust(cfg):
            raise MemoryError(message) if message else MemoryError

        monkeypatch.setattr(cli, "run_case", exhaust)
        code, err = _run_captured(["run-case", "--out", str(tmp_path / "x")])
        assert (code, err) == (1, line)

    @pytest.mark.parametrize("key", ["to_manifest", "from_mapping", "_INT"])
    def test_config_key_naming_no_field_rejected(self, tmp_path, key):
        """A key naming a method or class constant of the config passed as a
        field: to_manifest = 1 shadowed the method and ended in a traceback
        after the run."""
        cfg, out = tmp_path / "run.cfg", tmp_path / "x"
        cfg.write_text(f"case = case1\n{key} = 1\n")
        code, err = _run_captured(["run-case", "--config", str(cfg), "--out", str(out)])
        assert (code, err) == (2, f"error: unknown configuration key: {key}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, flags", [
        ("run-case", ["--case", "case3"]),
        ("certify", ["--case", "case3"]),
        ("sweep", ["--a-grid=-1", "--b-grid=3"]),
    ])
    def test_mu_with_c_is_a_config_error(self, tmp_path, command, flags):
        """A given mu determines c through L_a(mu) = c a; a c given with it
        was recorded in the manifest and silently dropped from the run."""
        out = tmp_path / "x"
        code, err = _run_captured([command, *flags, "--mu", "0.05", "--c", "1.5",
                                   "--out", str(out)])
        assert (code, err) == (2, "error: --mu and --c cannot be given together: "
                                  "mu determines c\n")
        assert not out.exists()

    def test_reversed_initial_order_leaves_z_closed_form_nan(self, tmp_path):
        """forq with mu = -1 starts with q2 < q1, outside the order the closed
        form z(q) is derived for; the invariant check refused that after the
        run.  The column is nan, and every other column is the run itself."""
        out = tmp_path / "x"
        code, err = _run_captured(["run-case", "--case", "forq", "--mu", "-1",
                                   "--sample-count", "30", "--out", str(out)])
        assert (code, err) == (0, "")
        header, rows = _read_csv(out / "trajectory.csv")
        table = dict(zip(header, np.array(rows, dtype=float).T))
        assert np.all(np.isnan(table["z_closed_form"]))
        initial = PeakonState(1.5, 1.0, 0.0, -1.0)
        traj = integrate(initial, ABParams(1 / 3, 2.0),
                         IntegrationConfig(max_time=integrator_module.DEFAULT_HORIZON))
        p1, p2, q1, q2 = traj.sample_array(table["t"]).T
        expected = {"q1": q1, "q2": q2, "p1": p1, "p2": p2, "q": q2 - q1,
                    "h": p2 - p1, "w": p1 + p2, "z": p1 * p2}
        for name, values in expected.items():
            assert np.array_equal(table[name], values), name

    @pytest.mark.parametrize("command", ["run-case", "certify"])
    def test_nan_sobolev_index_is_a_config_error(self, tmp_path, command):
        """A NaN index passed the s >= 3/2 check and failed after the run;
        it is now rejected before any output is written."""
        out = tmp_path / "x"
        code, err = _run_captured([command, "--case", "case1", "--s", "nan", "--out", str(out)])
        assert (code, err) == (2, "error: s = nan is not a finite Sobolev index\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-case", "certify"])
    @pytest.mark.parametrize("s, message", [
        ("-1e308", "s = -1e+308 < -98.5: Gamma(3/2 - s) overflows"),
        ("-inf", "s = -inf is not a finite Sobolev index"),
        ("inf", "s = inf is not a finite Sobolev index"),
        ("2", "s = 2.0 >= 3/2 is outside the admissible range: the norm integral "
              "diverges (up to |xi| = R it grows like R^(2s - 3), like log R at s = 3/2)"),
    ])
    def test_sobolev_index_checked_before_the_run(self, tmp_path, command, s, message):
        """Every index the distances reject is rejected before the run, with
        the distances' own message; s = -1e308 used to integrate, create the
        output directory and only then exit 2."""
        out = tmp_path / "x"
        code, err = _run_captured([command, "--case", "case1", f"--s={s}", "--out", str(out)])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-case", "certify"])
    @pytest.mark.parametrize("first, second, label", [
        ("1", "1.0", "1.0 and 1.0 share the label s1"),
        ("0.1234567", "0.1234568", "0.1234567 and 0.1234568 share the label s0.123457"),
    ], ids=["1-and-1.0", "one-label-at-six-digits"])
    def test_repeated_sobolev_index_is_a_config_error(self, tmp_path, command, first,
                                                      second, label):
        """Two indices with one label wrote the header "...,dist_s1,dist_s1",
        and certify reported the index twice under a single distances key."""
        out = tmp_path / "x"
        code, err = _run_captured([command, "--case", "case3", "--s", first, "--s", "0.5",
                                   "--s", second, "--out", str(out)])
        assert (code, err) == (2, f"error: argument --s: the indices {label}\n")
        assert not out.exists()

    def test_repeated_sobolev_index_in_a_config_file(self, tmp_path):
        path, out = tmp_path / "run.json", tmp_path / "x"
        path.write_text(json.dumps({"case": "case1", "s_values": [1.4, 0.5, 1.4]}))
        code, err = _run_captured(["run-case", "--config", str(path), "--out", str(out)])
        assert (code, err) == (2, "error: argument --s: the indices 1.4 and 1.4 share "
                                  "the label s1.4\n")
        assert not out.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["run-case", "certify"]),
        flags=st.dictionaries(
            st.sampled_from(["--alpha", "--delta", "--mu", "--c", "--rel-tol",
                             "--abs-tol", "--max-time"]),
            st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e-300", "1e155",
                             "1e308", "0.5", "1.5"]),
        ),
    )
    def test_float_flags_never_crash(self, tmp_path, command, flags):
        """Any mix of extreme values exits 0, 1 or 2 without a traceback or
        a warning."""
        argv = [command, *(f"{k}={v}" for k, v in flags.items()),
                "--sample-count", "20", "--out", str(tmp_path / "fuzz")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        command=st.sampled_from(["run-case", "certify", "sweep"]),
        flags=st.dictionaries(
            st.sampled_from(["--a", "--b", "--s", "--sample-count", "--a-grid", "--b-grid"]),
            st.sampled_from(FUZZ_VALUES),
        ),
        joined=st.booleans(),
        config=st.dictionaries(
            st.sampled_from(["a", "b", "s_values", "sample_count", "a_grid", "b_grid",
                             "alpha", "mu"]),
            st.sampled_from(FUZZ_VALUES),
        ),
    )
    def test_parameter_flags_and_config_files_never_crash(self, tmp_path, command, flags,
                                                          joined, config):
        """Parameters, indices and grids, as "--flag=value", as "--flag value"
        or from a flat config file, exit 0, 1 or 2 without a traceback or a
        warning; a configuration error is one line."""
        argv = [command]
        if config:
            path = tmp_path / "fuzz.cfg"
            path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
            argv += ["--config", str(path)]
        for k, v in flags.items():
            argv += [f"{k}={v}"] if joined else [k, v]
        argv += ["--out", str(tmp_path / "fuzz")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _run_captured(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code == 2:
            assert err.count("\n") == 1 and err.startswith("error: ")


class TestParser:
    """Flags as configuration keys; negative values; one-line usage errors."""

    def test_successive_calls_share_no_state(self, tmp_path):
        """The --s of the first run-case call does not leak into the second."""
        for s in ("0.5", "1.0"):
            out = tmp_path / s
            assert _run("run-case", "--case", "case1", "--s", s, "--sample-count", "10",
                        "--out", str(out)) == 0
            header, _ = _read_csv(out / "trajectory.csv")
            assert [h for h in header if h.startswith("dist_")] == [f"dist_s{float(s):g}"]

    @pytest.mark.parametrize("argv, code", [
        (["run-case", "--case", "custom", "--a", "-1e-9", "--b", "3"], 0),
        (["run-case", "--s", "-1e308"], 2),
        (["sweep", "--a-grid", "-1,0.5", "--b-grid", "3"], 0),
    ], ids=["a", "s", "a-grid"])
    def test_negative_value_as_its_own_token(self, tmp_path, argv, code):
        """"--flag -1e-9" means "--flag=-1e-9": same exit code, messages and
        tables.  argparse alone reads -1e-9 as an unknown option."""
        joined = [f"{t}={v}" for t, v in zip(argv[1::2], argv[2::2])]
        results = []
        for spelling, name in ((argv, "split"), ([argv[0], *joined], "joined")):
            out = tmp_path / name
            results.append(_run_captured([*spelling, "--out", str(out)]))
        assert results[0] == results[1]
        assert results[0][0] == code
        tables = sorted(p.name for p in (tmp_path / "joined").glob("*.csv"))
        assert tables == sorted(p.name for p in (tmp_path / "split").glob("*.csv"))
        for name in tables:
            assert (tmp_path / "split" / name).read_bytes() == (tmp_path / "joined" / name).read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["run-case", "--bogus"], "unrecognized arguments: --bogus"),
        (["run-case", "--s"], "argument --s: expected one argument"),
        (["run-case", "--sample-count", "-1e3"],
         "argument --sample-count: invalid int value: '-1e3'"),
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate' "
                         "(choose from 'run-case', 'certify', 'sweep')"),
        (["run-case", "--format", "xml"], "format must be csv or json, got 'xml'"),
        (["run-case", "--representation", "diagonal"], "unknown representation 'diagonal'"),
        (["run-case", "--case", "custom", "--a", "1"], "custom runs need both --a and --b"),
    ])
    def test_usage_error_is_one_line(self, argv, message):
        assert _run_captured(argv) == (2, f"error: {message}\n")

    def test_config_line_without_equals_is_one_line(self, tmp_path):
        path, out = tmp_path / "run.cfg", tmp_path / "x"
        path.write_text("case = case1\nbogus line\n")
        code, err = _run_captured(["run-case", "--config", str(path), "--out", str(out)])
        assert (code, err) == (2, f"error: {path}:2: expected 'key = value'\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--help", "--version"])
    def test_help_and_version_exit_0(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([flag])
        assert exc.value.code == 0
        assert "peakonlab" in capsys.readouterr().out

    def test_help_names_every_flag(self, capsys):
        """The help text cannot drift from the configuration fields."""
        with pytest.raises(SystemExit):
            main(["run-case", "--help"])
        text = capsys.readouterr().out
        assert [f for f in cli.FLAGS if not re.search(rf"{f}(?![\w-])", text)] == []

    @pytest.mark.parametrize("argv, token", [
        (["run-case", "--a-grid", "1"], "--a-grid"),
        (["certify", "--b-grid=3"], "--b-grid=3"),
        (["run-case", "--sample", "10"], "--sample"),
    ], ids=["grid-outside-sweep", "joined-grid", "abbreviation"])
    def test_flag_outside_the_table_is_unrecognized(self, tmp_path, argv, token):
        """The grids are sweep's alone, and a flag is never abbreviated."""
        out = tmp_path / "x"
        code, err = _run_captured([*argv, "--out", str(out)])
        assert (code, err) == (2, f"error: unrecognized arguments: {token}\n")
        assert not out.exists()

    @pytest.mark.parametrize("entry, message", [
        ({"s_values": 5}, "argument --s: invalid list value: 5"),
        ({"s_values": [0.5, "x"]}, "argument --s: invalid float value: 'x'"),
        ({"a": [1]}, "argument --a: invalid float value: [1]"),
        ({"mu": {"x": 1}}, "argument --mu: invalid float value: {'x': 1}"),
        ({"sample_count": "ten"}, "argument --sample-count: invalid int value: 'ten'"),
        ({"sample_count": 1e400}, "argument --sample-count: invalid int value: inf"),
        ({"sample_count": 2.7}, "argument --sample-count: invalid int value: 2.7"),
        ({"sample_count": True}, "argument --sample-count: invalid int value: True"),
        ({"alpha": True}, "argument --alpha: invalid float value: True"),
        ({"s_values": [0.5, False]}, "argument --s: invalid float value: False"),
    ], ids=["number-for-list", "string-in-list", "list", "dict", "string", "infinity",
            "fraction", "boolean-count", "boolean", "boolean-in-list"])
    def test_wrongly_typed_config_value_is_one_line(self, tmp_path, entry, message):
        """A JSON value of the wrong type ended in a TypeError traceback; a
        boolean for a number and a fraction for the sample count were
        silently read as 1.0 and truncated."""
        path, out = tmp_path / "run.json", tmp_path / "x"
        path.write_text(json.dumps({"case": "case1", **entry}))
        code, err = _run_captured(["run-case", "--config", str(path), "--out", str(out)])
        assert (code, err) == (2, f"error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run-case", "certify", "sweep"])
    def test_unusable_out_is_one_line(self, tmp_path, monkeypatch, command):
        """An output directory under a regular file ended in a
        NotADirectoryError traceback, exit 1; it is refused before any run."""
        def refuse(*args):
            raise AssertionError("integrated")

        monkeypatch.setattr(cli, "integrate", refuse)
        monkeypatch.setattr(cli, "terminal_events", refuse)
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, err = _run_captured([command, "--out", str(blocker / "x")])
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Not a directory" in err


class TestTableWriter:
    """The column-typed writer against the row-by-row oracle it replaced."""

    FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
              1 / 3, -2.7755575615628914e-17, 1e22]
    TEXT = ["ok", "a,b", 'say "x"', "two\nlines", "", "%s %d", "error: mu must lie in (0, 1], got 1.2"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nrows", [10, 1, 0])
    def test_bytes_equal_the_oracle(self, tmp_path, fmt, nrows):
        floats = self.FLOATS[:nrows]
        text = (self.TEXT * 2)[:nrows]
        columns = ["x", "label", "y", "z"]
        data = [np.array(floats), text, [np.float64(v) for v in floats], floats[::-1]]
        rows = [[*row] for row in zip(floats, text, data[2], data[3])]
        cli._write_table(tmp_path / "new", columns, data, fmt, text=("label",))
        oracle_write_table(tmp_path / "old", columns, rows, fmt)
        new, old = (tmp_path / f"{n}.{fmt}" for n in ("new", "old"))
        assert new.read_bytes() == old.read_bytes()
        if nrows == 0:  # no columns at all is a table without rows too
            cli._write_table(tmp_path / "bare", columns, [], fmt, text=("label",))
            assert (tmp_path / f"bare.{fmt}").read_bytes() == old.read_bytes()

    #: the edges of the vectorized range and the doubles just below them
    EDGES = [1e-4, np.nextafter(1e-4, 0.0), 1e16, np.nextafter(1e16, 0.0)]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nrows", [20_000, 405, 10, 1, 0])
    def test_float_table_bytes_equal_the_oracle(self, tmp_path, fmt, nrows):
        """A table without a text column goes through the one-pass formatter,
        in blocks of 2^16 cells (20,000 rows of 4 take two)."""
        rng = np.random.default_rng(nrows)
        values = [*self.FLOATS, *self.EDGES, *(-v for v in self.EDGES)]
        values += (10.0 ** rng.uniform(-6, 18, 4 * nrows) * rng.choice([-1, 1], 4 * nrows)).tolist()
        columns = ["t", "x", "y", "z"]
        data = [np.array(values[j * nrows:(j + 1) * nrows]) for j in range(4)]
        cli._write_table(tmp_path / "new", columns, data, fmt)
        oracle_write_table(tmp_path / "old", columns, [list(r) for r in zip(*data)], fmt)
        new, old = (tmp_path / f"{n}.{fmt}" for n in ("new", "old"))
        assert new.read_bytes() == old.read_bytes()
        if nrows == 0:
            cli._write_table(tmp_path / "bare", columns, [], fmt)
            assert (tmp_path / f"bare.{fmt}").read_bytes() == old.read_bytes()

    def test_float_rows_equal_percent_17g(self):
        """``_float_rows`` against '%.17g' on over a million doubles: random
        magnitudes and bit patterns, exact 17-digit ties, powers of ten and
        their neighbours, integers, zeros, nan, infinities and subnormals."""
        rng = np.random.default_rng(19)
        # x = j 2^(D-17) with j odd and x in [10^D, 10^(D+1)), D = -4 .. 15:
        # x 10^(16-D) = j 5^(16-D) / 2 lies halfway between two integers
        scale = [Fraction(10) ** D * 2 ** (17 - D) for D in range(-4, 16)]
        low = np.array([math.ceil(f) for f in scale]) // 2
        high = np.array([min(math.ceil(10 * f), 2**53) for f in scale]) // 2
        D = rng.integers(0, 20, 50_000)
        ties = np.ldexp(2.0 * rng.integers(low[D], high[D]) + 1.0, D - 21)
        powers = 10.0 ** np.arange(-30, 31)
        subnormal = rng.integers(1, 2**52, 5_000, dtype=np.uint64).view(np.float64)
        values = np.concatenate([
            10.0 ** rng.uniform(-30, 30, 100_000) * rng.choice([-1.0, 1.0], 100_000),
            10.0 ** rng.uniform(-5, 17, 700_000) * rng.choice([-1.0, 1.0], 700_000),
            rng.integers(0, 2**64, 50_000, dtype=np.uint64).view(np.float64),
            ties, -ties,
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf), -powers,
            rng.integers(-10**16, 10**16, 50_000).astype(float),
            np.arange(-10_000, 10_000, dtype=float),
            subnormal, -subnormal,
            [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308],
        ])
        assert values.size >= 10**6
        values = np.concatenate([values, np.zeros(-values.size % 8)])
        for chunk in np.split(values, range(131_072, values.size, 131_072)):
            text = cli._float_rows(chunk.reshape(-1, 8).copy())
            assert text.count("\n") == chunk.size // 8
            assert text.replace("\n", ",").split(",")[:-1] == list(map("%.17g".__mod__,
                                                                       chunk.tolist()))

    def test_run_case_tables_equal_the_oracle(self, tmp_path, monkeypatch):
        """run-case's trajectory table, written by the one-pass formatter,
        against the row-by-row oracle: case4 with three indices, and a run
        that ends at its horizon, whose distance columns are all nan."""
        tables = []
        write = cli._write_table

        def spy(path, columns, data, fmt, text=()):
            tables.append((path, list(columns), [list(col) for col in data], fmt, text))
            write(path, columns, data, fmt, text)

        monkeypatch.setattr(cli, "_write_table", spy)
        for fmt in ("csv", "json"):
            for name, flags in (("c4", ["--case", "case4", "--s", "0.5", "--s", "1",
                                        "--s", "1.4"]),
                                ("horizon", ["--case", "case1", "--max-time", "0.01",
                                             "--s", "0.5", "--s", "1"])):
                assert _run("run-case", *flags, "--format", fmt,
                            "--out", str(tmp_path / f"{name}-{fmt}")) == 0
        trajectories = [t for t in tables if t[0].name == "trajectory"]
        assert len(trajectories) == 4
        for path, columns, data, fmt, text in trajectories:
            assert text == ()
            oracle_write_table(path.with_name("oracle"), columns, list(zip(*data)), fmt)
            assert (path.with_suffix(f".{fmt}").read_bytes()
                    == path.with_name(f"oracle.{fmt}").read_bytes())
            if "horizon" in str(path):
                assert all(math.isnan(v) for v in data[-1])

    def test_carriage_return_is_quoted(self, tmp_path):
        """csv.writer with a "\n" line end leaves a lone "\r" unquoted, and a
        reader then splits the field there; the writer quotes it."""
        cli._write_table(tmp_path / "t", ["label", "x"], [["a\rb"], [1.0]], "csv",
                         text=("label",))
        assert (tmp_path / "t.csv").read_bytes() == b'label,x\n"a\rb",1\n'
        with open(tmp_path / "t.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["label", "x"], ["a\rb", "1"]]


class TestSweep:
    def test_two_point_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert _run("sweep", "--a-grid", "0.3333333333333333,-1",
                    "--b-grid", "3", "--out", str(out)) == 0
        header, rows = _read_csv(out / "sweep.csv")
        assert header[:3] == ["a", "b", "case"]
        assert len(rows) == 2
        cases = {row[2] for row in rows}
        assert cases == {"case1", "case3"}
        for row in rows:
            assert row[6] == "yes"  # T within mu/epsilon
            assert row[8] == "ok"
            assert math.isfinite(float(row[5]))

    def test_default_grid_all_points_collide(self, tmp_path):
        """The canned 4x4 grid: every point stops within its rate bound."""
        out = tmp_path / "full"
        assert _run("sweep", "--out", str(out)) == 0
        _, rows = _read_csv(out / "sweep.csv")
        assert len(rows) == 16
        for row in rows:
            assert row[6] == "yes" and row[8] == "ok"
            assert row[7] in ("collision", "p1-zero", "p2-zero")

    def test_failed_point_status_is_one_csv_field(self, tmp_path):
        """A failed point's status contains a comma; the CSV quotes it, so
        every row reads back as 9 fields.  At a = 0.395 the explicit c = 1.55
        designs mu > 1; a given c is never replaced by the small fallback
        separation, so both points fail and the sweep exits 1."""
        out = tmp_path / "band"
        assert _run("sweep", "--c", "1.55", "--a-grid=0.395", "--b-grid=1,3",
                    "--out", str(out)) == 1
        with open(out / "sweep.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 9 and len(rows) == 2
        assert all(len(row) == 9 for row in rows)
        assert [row[8] for row in rows] == [
            "error: mu must lie in (0, 1], got 1.6196771781058723"] * 2

    def test_every_point_above_a_third_resolves(self, tmp_path):
        """The band of a just above 1/3 where the scanned c designs mu > 1
        (0.3397 <= a <= 0.4111 among these nodes), and larger a, on both
        sides of b = 2: every point gets initial data, collides, and within
        its bound mu/epsilon."""
        a_grid = [*np.linspace(0.3334, 0.4573, 60).tolist(), 0.5, 0.7, 1.0, 1.5, 2.0, 2.9]
        out = tmp_path / "band"
        assert _run("sweep", "--a-grid", ",".join(map(repr, a_grid)),
                    "--b-grid=0.5,1.5,3,5", "--out", str(out)) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 264
        assert {(row["T_within_bound"], row["event"], row["status"]) for row in rows} == {
            ("yes", "collision", "ok")}

    def test_manifest_with_workers_key_still_loads(self, tmp_path):
        """Manifests written when sweep had a thread pool carry "workers";
        the key is ignored and the run reproduces."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run("sweep", "--a-grid", "1", "--b-grid", "3", "--out", str(out1)) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["workers"] = 1
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        assert _run("sweep", "--config", str(old), "--out", str(out2)) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert "workers" not in json.loads((out2 / "manifest.json").read_text())

    def test_manifest_with_event_tol_key_still_loads(self, tmp_path):
        """Manifests written when the event residual bound was an option carry
        "event_tol"; the key is ignored and the run reproduces."""
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert _run("run-case", "--case", "case3", "--s", "1.0", "--out", str(out1)) == 0
        manifest = json.loads((out1 / "manifest.json").read_text())
        manifest["event_tol"] = 1e-12
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        assert _run("run-case", "--config", str(old), "--out", str(out2)) == 0
        for name in ("trajectory.csv", "events.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert "event_tol" not in json.loads((out2 / "manifest.json").read_text())

    def test_case2_manifest_notes_leapfrog(self, tmp_path):
        out = tmp_path / "c2"
        assert _run("run-case", "--case", "case2", "--sample-count", "10",
                    "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "leapfrog" in manifest["notes"]

    def test_every_point_failed_exits_1(self, tmp_path):
        """At b = 1e300 the field divides by zero at the first step."""
        out = tmp_path / "huge"
        assert _run("sweep", "--a-grid=-1.6", "--b-grid=1e300", "--out", str(out)) == 1
        _, rows = _read_csv(out / "sweep.csv")
        assert len(rows) == 1 and rows[0][8].startswith("error:")

    @pytest.mark.parametrize("grid", [
        ["--a-grid=0.5,nan", "--b-grid=3"], ["--a-grid=inf", "--b-grid=3"],
        ["--a-grid=1", "--b-grid=3,-inf"]], ids=["a-nan", "a-inf", "b-inf"])
    def test_non_finite_grid_value_rejected(self, tmp_path, grid):
        """Exit 2 with one line before anything is written, whatever the
        rest of the grid (a NaN beside a finite a used to exit 0, and a lone
        inf 1), as run-case does for --a nan."""
        out = tmp_path / "x"
        code, err = _run_captured(["sweep", *grid, "--out", str(out)])
        assert code == 2
        assert err == "error: sweep grid contains a value that is not finite\n"
        assert not out.exists()

    def test_negative_a_without_a_float_design_names_it(self, tmp_path):
        """At a = -1e308 the design's log argument overflows for every c; the
        row says so (it said that cases 3-4 need c)."""
        out = tmp_path / "huge"
        assert _run("sweep", "--a-grid=-1e308", "--b-grid=3", "--out", str(out)) == 1
        with open(out / "sweep.csv", newline="") as fh:
            _, row = list(csv.reader(fh))
        assert row[8] == ("error: a = -1e+308: the separation design's log argument "
                          "((c+1)a - 1)/(3a - 1) overflows or rounds out of (0, 1) "
                          "for every c scanned")

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "empty"
        assert _run("sweep", "--a-grid", "", "--b-grid", "", "--out", str(out)) == 0
        _, rows = _read_csv(out / "sweep.csv")
        assert rows == []

    def test_zero_a_rejected(self, tmp_path):
        assert _run("sweep", "--a-grid", "0,1", "--b-grid", "3",
                    "--out", str(tmp_path / "x")) == 2

    def test_b_two_rejected(self, tmp_path):
        assert _run("sweep", "--a-grid", "1", "--b-grid", "2",
                    "--out", str(tmp_path / "x")) == 2

    @pytest.mark.parametrize("rep, design, fmt", [
        pytest.param("full", {}, "csv", id="full"),
        pytest.param("reduced", {}, "csv", id="reduced"),
        pytest.param("full", {"mu": "0.05"}, "csv", id="full-mu"),
        pytest.param("full", {"c": "1.3"}, "csv", id="full-c"),
        pytest.param("full", {}, "json", id="full-json"),
        pytest.param("reduced", {}, "json", id="reduced-json"),
    ])
    def test_bytes_equal_the_per_point_oracle(self, tmp_path, rep, design, fmt):
        """A 56-point grid, with points designed by the small-separation
        fallback (a = 0.395), points whose integration fails at once
        (b = 1e300), a small-|a| column that needs many more steps than its
        neighbours, a repeated a and b = -0: the table equals, byte for
        byte, the one the point-by-point sweep writes, whose cells
        ``_write_table`` formats from floats; also where --mu or --c
        overrides the design that the sweep finds once per a and case."""
        a_grid = "0.3,-1,0.395,1e-9,-0.2,0.7,-1.6,-1"
        b_grid = "3,-1,0,1e300,4.5,1.2,-0.0"
        out = tmp_path / "lanes"
        flags = [f"--{key}={value}" for key, value in design.items()]
        assert _run("sweep", f"--a-grid={a_grid}", f"--b-grid={b_grid}", *flags,
                    "--representation", rep, "--format", fmt, "--out", str(out)) == 0
        cfg = cli.ExperimentConfig.from_mapping(
            {"a_grid": a_grid, "b_grid": b_grid, "representation": rep, **design})
        rows = sweep_rows(cfg)
        statuses = {row[8] for row in rows}
        assert "ok" in statuses
        assert any(status.startswith("error: floating-point failure") for status in statuses)
        cli._write_table(tmp_path / "oracle", SWEEP_COLUMNS, list(zip(*rows)), fmt,
                         text=("case", "T_within_bound", "event", "status"))
        written = (out / f"sweep.{fmt}").read_bytes()
        assert written == (tmp_path / f"oracle.{fmt}").read_bytes()
        assert (b",-0," if fmt == "csv" else b'"-0"') in written


def test_import_loads_no_scipy(tmp_path):
    """No command and no H^s distance loads scipy: the special functions
    are math's, numpy's and the module's own, so a bare import, a sweep,
    run-case and certify at every index, and distances whose separations
    reach omega >= 1 run without it.  Each case runs in a fresh process."""
    cases = (
        "import peakonlab",
        "assert main(['run-case', '--case', 'case1', '--s', '1.0', '--out', OUT]) == 0",
        "assert main(['run-case', '--case', 'case1', '--s', '0.5', '--s', '1.0', '--s', '1.4', "
        "'--out', OUT]) == 0",
        # exit 1: the 1e-3 threshold fails at s = 1 and 1.4; the report is complete
        "assert main(['certify', '--case', 'case1', '--out', OUT]) == 1",
        "assert main(['sweep', '--out', OUT]) == 0",
        # separations on both sides of omega = 1, so K_nu is evaluated too
        "assert hs_distances([[0.5, -0.3, 0.0, 0.2], [0.9, 0.4, -1.0, 2.5]], "
        "CollisionFunction(0.6, 3.0), [0.5, -2.3]).all()",
    )
    scipy = "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    for case in cases:
        code = (f"import sys\nfrom peakonlab import CollisionFunction, hs_distances\n"
                f"from peakonlab.cli import main\nOUT = {str(tmp_path)!r}\n{case}\n{scipy}")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": str(SRC)})
        assert out.returncode == 0, (case, out.stderr)
        assert out.stdout.splitlines()[-1] == "[]", case


def test_python_m_runs_from_the_source_tree(tmp_path):
    """``python -m peakonlab`` runs the command line without an installed
    entry point, with only the source directory on the path."""
    out = subprocess.run(
        [sys.executable, "-m", "peakonlab", "sweep", "--a-grid=0.1", "--b-grid=3",
         "--out", str(tmp_path)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "sweep.csv").is_file()
