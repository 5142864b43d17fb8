"""Command-line pipeline: file outputs, manifests, determinism, rejection."""

import json
import math

import numpy as np
import pytest
from hs_oracle import bessel_distance, hs_distance_mp

from peakonlab import (
    ABParams,
    CollisionFunction,
    InvariantContext,
    PeakonState,
    hs_distance,
    z_closed_form,
)
from peakonlab.cli import _z_column, main


def _run(*argv):
    return main(list(argv))


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
        """case4's located collision is written with q = q2 - q1 = -5.55e-17.
        Its closed-form z is finite there and equals the value at q = 0, and
        its distances are the exact ones of the written state: 0.138 at
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
        assert last[col["dist_s1.4"]] == pytest.approx(0.1377, abs=1e-4)
        assert last[col["dist_s1.4"]] == pytest.approx(
            bessel_distance(state, coll, 1.4), rel=1e-9)

    def test_distance_columns_equal_scalar_distances(self, tmp_path):
        """Each batched distance cell is hs_distance of its row's state."""
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
            state = PeakonState(*(values[col[k]] for k in ("p1", "p2", "q1", "q2")))
            for s in (0.5, 1.4):
                assert values[col[f"dist_s{s:g}"]] == hs_distance(state, coll, s)

    def test_z_column_marks_only_rows_outside_the_sign_definite_range(self):
        """L_a for a = -1 changes sign at q = ln(2)/2; rows beyond it get nan,
        the others their scalar closed-form value."""
        ctx = InvariantContext.from_initial(ABParams(-1.0, 3.0), PeakonState(1.0, 1.5, 0.0, 0.1))
        q = np.array([0.0, 0.05, 0.1, 0.5])
        column = _z_column(ctx, q)
        assert column[:3].tolist() == [z_closed_form(ctx, v) for v in q[:3]]
        assert math.isnan(column[3])
        assert np.isnan(_z_column(None, q)).all()

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

    def test_supercritical_s_rejected(self, tmp_path):
        assert _run("certify", "--case", "case1", "--s", "1.6",
                    "--out", str(tmp_path / "x")) == 2

    # the overflow RuntimeWarnings that precede the error are a separate open item
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_integration_failure_is_a_clean_error(self, tmp_path, capsys):
        """A solver failure exits 1 with one error line, not a traceback."""
        code = _run("certify", "--case", "case4", "--alpha", "1e150",
                    "--out", str(tmp_path / "x"))
        assert code == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: integration failed:")

    def test_forq_rejected(self, tmp_path):
        assert _run("certify", "--case", "forq", "--out", str(tmp_path / "x")) == 2

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


class TestSweep:
    def test_two_point_sweep(self, tmp_path):
        out = tmp_path / "sw"
        assert _run("sweep", "--a-grid", "0.3333333333333333,-1",
                    "--b-grid", "3", "--workers", "2", "--out", str(out)) == 0
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
        assert _run("sweep", "--workers", "4", "--out", str(out)) == 0
        _, rows = _read_csv(out / "sweep.csv")
        assert len(rows) == 16
        for row in rows:
            assert row[6] == "yes" and row[8] == "ok"
            assert row[7] in ("collision", "p1-zero", "p2-zero")

    def test_case2_manifest_notes_leapfrog(self, tmp_path):
        out = tmp_path / "c2"
        assert _run("run-case", "--case", "case2", "--sample-count", "10",
                    "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "leapfrog" in manifest["notes"]

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
