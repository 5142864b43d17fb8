"""The three benchmark workloads: seeded inputs, one operation, output checks.

A workload's *round* is its fixed list of operations for a seed; every
round repeats the same inputs, so outputs and work counters repeat
exactly.  ``op`` is the timed part.  ``collect`` (untimed) reads what the
operation wrote.  ``check`` (untimed, once per distinct operation) compares
those outputs with the references in ``oracles``; later repetitions must
reproduce the first one's bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from pathlib import Path

import oracles

#: (a, b) of the four collision cases, as the command line's presets define them
CASE_AB = {"case1": (1.0 / 3.0, 3.0), "case2": (1.0 / 3.0, 1.0),
           "case3": (-1.0, 3.0), "case4": (-1.0, 0.0)}
S_INDICES = ("0.5", "1", "1.4")  # column suffixes of dist_s<s> for --s 0.5/1.0/1.4

# Accuracy gates of the output checks: roughly 100x the largest error seen
# at the baseline, so roundoff drift passes and a real loss does not.
TOL_EVENT_TIME = 1e-8     # |T - T_ref|, absolute
TOL_DIST_REL = 1e-4       # H^s distance against the Bessel-K oracle, relative
TOL_INVARIANT = 1e-8      # h^2, w^2 and z identities, relative to max(1, |value|)
TOL_RESIDUAL = 1e-8       # |pde_residual| off the peaks
TOL_REVERSAL = 1e-9       # certify's round-trip error


@dataclass
class Output:
    """What one operation produced, read back outside the timed region."""

    digest: str
    items: int
    bytes_out: int


@dataclass
class Check:
    """Result of comparing one operation's outputs with the references.

    ``errors`` make the operation fail: a wrong, malformed or missing
    output.  ``defects`` are the program's own failure outcomes inside an
    output that is otherwise right (a sweep point whose status is not ok, a
    non-finite value written to a table); they count against ``error_rate``
    in units of ``units`` (sweep: grid points, otherwise the operation).
    """

    units: int = 1
    errors: list = field(default_factory=list)
    defects: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)   # name -> largest error
    notes: list = field(default_factory=list)

    @property
    def failed_units(self) -> int:
        return len(self.defects) if self.units > 1 else min(1, len(self.defects))

    def worst(self, name: str, value: float) -> None:
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), value)

    def gate(self, what: str, value: float, tol: float) -> None:
        if not value <= tol:
            self.errors.append(f"{what}: {value:.3e} exceeds {tol:g}")


def _csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else repr(p).encode())
        h.update(b"\0")
    return h.hexdigest()


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.kinds = []

    def outdir(self, kind: str) -> Path:
        return self.workdir / self.name / kind

    def out_arg(self, kind: str) -> str:
        """--out as a path relative to the working directory, so the manifest
        and the byte counts do not depend on where the checkout lives."""
        return os.path.relpath(self.outdir(kind))


# ---------------------------------------------------------------------------
# export: run-case with three Sobolev indices

class Export(Workload):
    """run-case --s 0.5 --s 1.0 --s 1.4 on case1..case4 and one seeded
    small-|a| custom point; items are trajectory rows written."""

    name = "export"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        a = -self.rng.uniform(0.02, 0.1)
        b = self.rng.uniform(2.5, 3.5)
        self.argv = {c: ["--case", c] for c in CASE_AB}
        self.argv["custom"] = ["--case", "custom", "--a", repr(a), "--b", repr(b)]
        self.kinds = list(self.argv)

    def op(self, kind, main):
        argv = ["run-case", *self.argv[kind], "--s", "0.5", "--s", "1.0", "--s", "1.4",
                "--out", self.out_arg(kind)]
        return {"rc": main(argv)}

    def collect(self, kind, result, stdout: str) -> Output:
        d = self.outdir(kind)
        files = [(d / n).read_bytes() for n in ("trajectory.csv", "events.csv", "manifest.json")]
        rows = files[0].count(b"\n") - 1
        return Output(_digest(result["rc"], stdout, *files), rows,
                      sum(map(len, files)) + len(stdout.encode()))

    def check(self, kind, result) -> Check:
        chk = Check()
        if result["rc"] != 0:
            chk.errors.append(f"exit code {result['rc']}")
            return chk
        d = self.outdir(kind)
        header, rows = _csv((d / "trajectory.csv").read_text())
        _, events = _csv((d / "events.csv").read_text())
        manifest = json.loads((d / "manifest.json").read_text())
        expected = ["t", "q1", "q2", "p1", "p2", "q", "h", "w", "z", "z_closed_form",
                    *(f"dist_s{s}" for s in S_INDICES)]
        if header != expected:
            chk.errors.append(f"trajectory columns {header}")
            return chk
        try:
            table = [[float(v) for v in r] for r in rows]
        except ValueError as exc:
            chk.errors.append(f"malformed trajectory row: {exc}")
            return chk
        if len(table) < 400 or any(len(r) != len(header) for r in table):
            chk.errors.append("trajectory has missing rows or fields")
            return chk
        col = {name: i for i, name in enumerate(header)}
        for i, r in enumerate(table):
            bad = [name for name, v in zip(header, r) if not math.isfinite(v)]
            if bad:
                chk.defects.append(f"non-finite {', '.join(bad)} in trajectory row {i} "
                                   f"(q = {r[col['q']]:.3g})")

        a, b = manifest["resolved_a"], manifest["resolved_b"]
        mu = manifest["resolved_mu"]
        case = oracles.case_of(a, b)
        p1, p2 = oracles.PROFILES[case](1.0, 0.5)
        if manifest["initial_state"] != [p1, p2, 0.0, mu]:
            chk.errors.append(f"initial state {manifest['initial_state']}")

        kind_t, t_end = events[-1][0], float(events[-1][1])
        ev = [float(v) for v in events[-1][2:]]
        if kind_t != "collision":
            chk.errors.append(f"terminal event {kind_t}, expected a collision")
            return chk
        if table[-1][col["t"]] != t_end:
            chk.errors.append("last trajectory row is not at the terminal event time")
        t_err = abs(t_end - oracles.collision_time_ref(case, a, b, mu))
        chk.worst("event_time_err", t_err)
        chk.gate("|T - T_ref|", t_err, TOL_EVENT_TIME)

        inv = oracles.Invariants(a, b, p1, p2, mu)
        p_star, q_star = oracles.collision_profile(kind_t, *ev)
        # every 20th row plus the approach rows; the terminal row is excluded
        last = len(table) - 1
        subset = sorted(set(range(0, last, 20)) | set(range(last - 10, last)))
        for i in subset:
            r = table[i]
            q, z = r[col["q"]], r[col["z"]]
            z_ref = inv.z(q)
            for value in (z, r[col["z_closed_form"]]):
                chk.worst("invariant_err", abs(value - z_ref) / max(1.0, abs(z_ref)))
            for s in S_INDICES:
                ref = oracles.hs_distance_ref(r[col["p1"]], r[col["p2"]], r[col["q1"]],
                                              r[col["q2"]], p_star, q_star, s)
                chk.worst("dist_rel_err", abs(r[col[f"dist_s{s}"]] - ref) / ref)
        chk.gate("z against z(q)", chk.accuracy["invariant_err"], TOL_INVARIANT)
        chk.gate("H^s distance relative error", chk.accuracy["dist_rel_err"], TOL_DIST_REL)

        r = table[last]
        for s in S_INDICES:
            ref = oracles.hs_distance_ref(r[col["p1"]], r[col["p2"]], r[col["q1"]],
                                          r[col["q2"]], p_star, q_star, s)
            if abs(r[col[f"dist_s{s}"]] - ref) > 1e-6:
                chk.notes.append(
                    f"terminal row dist_s{s} = {r[col[f'dist_s{s}']]:.3g}, Bessel-K value "
                    f"{ref:.3g} at the written separation {r[col['q']]:.3g}")
        return chk


# ---------------------------------------------------------------------------
# sweep: one 32 x 32 (a, b) grid

def sweep_grid(rng: random.Random):
    """32 a-values and 32 b-values covering all four quadrants.

    Log-spaced |a| in [0.055, 2.2] on each side of 0, placed so that one
    positive node sits at 0.395, inside the band 0.378 <= a <= 0.412 where
    every c in the design scan gives mu > 1 and the point fails with
    "mu must lie in (0, 1]"; b spans [-1, 1.8] and [2.2, 5].  The seed
    jitters every node by at most 3% of itself (a) or 0.04 (b), which keeps
    a != 0, a != 1/3, b != 2 and the failing node inside its band.
    """
    ratio = (2.0 / 0.05) ** (1 / 15)
    mags = [0.395 * ratio ** (k - 8) for k in range(16)]
    a_vals = sorted([-m for m in mags] + mags)
    a_vals = [v * (1.0 + rng.uniform(-0.03, 0.03)) for v in a_vals]
    lo = [-1.0 + 2.8 * k / 15 for k in range(16)]
    hi = [2.2 + 2.8 * k / 15 for k in range(16)]
    b_vals = [v + rng.uniform(-0.04, 0.04) for v in lo + hi]
    return a_vals, b_vals


class Sweep(Workload):
    """sweep over a seeded 32 x 32 grid; items are grid points."""

    name = "sweep"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.a_grid, self.b_grid = sweep_grid(self.rng)
        self.kinds = ["grid"]

    def op(self, kind, main):
        argv = ["sweep", "--a-grid=" + ",".join(map(repr, self.a_grid)),
                "--b-grid=" + ",".join(map(repr, self.b_grid)),
                "--out", self.out_arg(kind)]
        return {"rc": main(argv)}

    def collect(self, kind, result, stdout: str) -> Output:
        d = self.outdir(kind)
        files = [(d / "sweep.csv").read_bytes(), (d / "manifest.json").read_bytes()]
        rows = files[0].count(b"\n") - 1
        return Output(_digest(result["rc"], stdout, *files), rows,
                      sum(map(len, files)) + len(stdout.encode()))

    def check(self, kind, result) -> Check:
        chk = Check(units=len(self.a_grid) * len(self.b_grid))
        header, rows = _csv((self.outdir(kind) / "sweep.csv").read_text())
        if header != ["a", "b", "case", "mu", "epsilon", "T", "T_within_bound", "event",
                      "status"]:
            chk.errors.append(f"sweep columns {header}")
            return chk
        grid = [(a, b) for a in self.a_grid for b in self.b_grid]
        if len(rows) != len(grid) or any(len(r) < 9 for r in rows):
            chk.errors.append(f"{len(rows)} sweep rows for {len(grid)} grid points")
            return chk
        split = sum(len(r) > 9 for r in rows)
        if split:
            chk.notes.append(f"{split} failed-point statuses contain an unquoted comma, "
                             "so their rows have more than 9 CSV fields")
        rows = [r[:8] + [",".join(r[8:])] for r in rows]
        for r, (a, b) in zip(rows, grid):
            if (float(r[0]), float(r[1])) != (a, b):
                chk.errors.append(f"row ({r[0]}, {r[1]}) is not grid point ({a!r}, {b!r})")
                return chk
            if r[8] != "ok":
                if not r[8].startswith("error: "):
                    chk.errors.append(f"malformed status {r[8]!r}")
                chk.defects.append(r[8].split(", got")[0])
                continue
            mu, eps, t_end = float(r[3]), float(r[4]), float(r[5])
            case = oracles.case_of(a, b)
            if not (r[2] == case and r[7] == "collision" and 0 < mu <= 1 and eps > 0
                    and math.isfinite(t_end)):
                chk.errors.append(f"row {r} inconsistent with a {case} collision")
                continue
            if r[6] != ("yes" if t_end <= mu / eps else "no"):
                chk.errors.append(f"T_within_bound {r[6]} wrong at ({a:g}, {b:g})")
            chk.worst("event_time_err",
                      abs(t_end - oracles.collision_time_ref(case, a, b, mu)))
        chk.gate("|T - T_ref|", chk.accuracy.get("event_time_err", 0.0), TOL_EVENT_TIME)
        if result["rc"] != 0:
            chk.errors.append(f"exit code {result['rc']}")
        elif chk.defects:
            chk.notes.append(f"exit code 0 although {len(chk.defects)} of {chk.units} "
                             "points failed")
        return chk


# ---------------------------------------------------------------------------
# verify: certificate, residuals, identities and the reduced path for one case

class Verify(Workload):
    """certify, residual_report at seeded times, the analytic identities at
    those times and a reduced-representation run, for one case per op;
    items are cases verified."""

    name = "verify"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.kinds = list(CASE_AB)
        self.samples = {}
        for case in self.kinds:
            fractions = sorted(self.rng.uniform(0.05, 0.95) for _ in range(3))
            offsets = [(self.rng.uniform(0.15, 3.0), self.rng.uniform(0.15, 3.0),
                        self.rng.choice((-1.0, 1.0)) * self.rng.uniform(3.0, 6.0))
                       for _ in fractions]
            self.samples[case] = list(zip(fractions, offsets))

    def op(self, kind, main):
        import peakonlab as pk

        rc = main(["certify", "--case", kind, "--out", self.out_arg(kind)])
        params = pk.ABParams(*CASE_AB[kind])
        spec = pk.case_spec_for(params)
        initial = pk.make_initial_profile(spec)
        config = pk.IntegrationConfig(max_time=10.0 * pk.collision_time_bound(spec, params))
        traj = pk.integrate(initial, params, config)
        ctx = pk.InvariantContext.from_initial(params, initial)
        samples = []
        for fraction, (left, right, far) in self.samples[kind]:
            t = fraction * traj.t_end
            st = traj.sample(t)
            lo, hi = sorted((st.q1, st.q2))
            far_x = lo + far if far < 0 else hi + far
            report = pk.residual_report(traj, t, params, points=[lo - left, hi + right, far_x])
            q = st.q2 - st.q1
            samples.append({
                "t": t, "state": (st.p1, st.p2, st.q1, st.q2),
                "points": report.sample_points, "residuals": report.residual_values,
                "h_sq": pk.h_sq(ctx, q), "w_sq": pk.w_sq(ctx, q),
                "z_closed_form": pk.z_closed_form(ctx, q),
            })
        reduced = pk.integrate(initial, params, pk.IntegrationConfig(
            max_time=config.max_time, representation=pk.Representation.REDUCED))
        return {"rc": rc, "traj": traj, "samples": samples, "mu": spec.mu,
                "T_full": traj.t_end, "T_reduced": reduced.t_end,
                "reduced_event": reduced.terminal_event.kind.value}

    def collect(self, kind, result, stdout: str) -> Output:
        d = self.outdir(kind)
        files = [(d / "report.json").read_bytes(), (d / "manifest.json").read_bytes()]
        values = {k: v for k, v in result.items() if k != "traj"}
        return Output(_digest(stdout, values, *files), 1,
                      sum(map(len, files)) + len(stdout.encode()))

    def check(self, kind, result) -> Check:
        chk = Check()
        if result["rc"] != 1:  # threshold failures at s = 1, 1.4 are the documented outcome
            chk.errors.append(f"certify exit code {result['rc']}, expected 1")
        report = json.loads((self.outdir(kind) / "report.json").read_text())
        chk.errors += [f"certify: {e}" for e in oracles.certify_verdict_errors(report)]
        a, b = CASE_AB[kind]
        if (report["a"], report["b"]) != (a, b) or report["mu"] != result["mu"]:
            chk.errors.append("certify resolved different parameters")
            return chk
        if result["reduced_event"] != "collision":
            chk.errors.append(f"reduced run ended with {result['reduced_event']}")
        t_ref = oracles.collision_time_ref(kind, a, b, result["mu"])
        for t_end in (report["T"], result["T_full"], result["T_reduced"]):
            chk.worst("event_time_err", abs(t_end - t_ref))
        chk.gate("|T - T_ref|", chk.accuracy["event_time_err"], TOL_EVENT_TIME)

        # certify's distances at T - 10^-k against the Bessel-K oracle
        traj, coll = result["traj"], report["collision_point"]
        ks = [k for k in range(2, 7) if report["T"] - 10.0**-k > 0.0]
        for s in S_INDICES:
            for k, value in zip(ks, report["distances"][s]):
                st = traj.sample(report["T"] - 10.0**-k)
                ref = oracles.hs_distance_ref(st.p1, st.p2, st.q1, st.q2,
                                              coll["p_star"], coll["q_star"], s)
                chk.worst("dist_rel_err", abs(value - ref) / ref)
        chk.gate("H^s distance relative error", chk.accuracy["dist_rel_err"], TOL_DIST_REL)

        p1, p2 = oracles.PROFILES[kind](1.0, 0.5)
        inv = oracles.Invariants(a, b, p1, p2, result["mu"])
        for smp in result["samples"]:
            sp1, sp2, sq1, sq2 = smp["state"]
            if len(smp["points"]) != 3:
                chk.errors.append(f"residual points dropped at t = {smp['t']:.6g}")
            for v in smp["residuals"]:
                chk.worst("residual_abs", abs(v))
            q = sq2 - sq1
            h_ref, w_ref, z_ref = inv.h_sq(q), inv.w_sq(q), inv.z(q)
            for value, ref in (((sp2 - sp1) ** 2, h_ref), (smp["h_sq"], h_ref),
                               ((sp1 + sp2) ** 2, w_ref), (smp["w_sq"], w_ref),
                               (sp1 * sp2, z_ref), (smp["z_closed_form"], z_ref)):
                chk.worst("invariant_err", abs(value - ref) / max(1.0, abs(ref)))
        chk.gate("|pde_residual|", chk.accuracy.get("residual_abs", math.inf), TOL_RESIDUAL)
        chk.gate("invariant identities", chk.accuracy["invariant_err"], TOL_INVARIANT)
        chk.worst("reversal_err", report["reversal_error"])
        chk.gate("certify round trip", report["reversal_error"], TOL_REVERSAL)
        return chk


WORKLOADS = {w.name: w for w in (Export, Sweep, Verify)}
