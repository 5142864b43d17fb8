"""Benchmark of the peakonlab pipeline: python3 bench/run.py --workload NAME
--seed N --seconds S --trace 0|1, run from the repository root.

One closed-loop client in one process calls the command line's ``main``
with generated arguments (and, for ``verify``, the library functions with
generated inputs).  A run fills caches with one untimed round, checks that
round's outputs against the references in ``oracles``, then repeats
complete rounds until S seconds of operations have been timed; every
repetition must reproduce the first round's output bytes.

--trace 0 prints the end-to-end metrics; --trace 1 alternates traced and
untraced rounds and prints the per-layer metrics of one traced round, the
tracing overhead, and checks that the counters of all traced rounds agree.
The last line of standard output is one JSON object; the lines before it
explain the figures.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import io
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
import traceback
import warnings
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

SETUP_RUNS = 5
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import peakonlab; "
                 "print(time.perf_counter() - t)")
DIGITS_FLOOR = 1e-16  # errors below this count as 16 correct digits


def _digits(err: float) -> float:
    """Correct decimal digits of an error: 0 for err >= 1, 16 at most."""
    return max(0.0, -math.log10(max(err, DIGITS_FLOOR)))


class SpeedProbe:
    """Samples the machine's current speed while operations run.

    The reference machine, a 2-vCPU KVM guest, shares its cores with other
    tenants, and its speed drifts by up to 70% for seconds at a time; every
    operation slows by about the same factor.

    A sample times two fixed kernels of about 0.1-0.2 ms, scalar Python
    arithmetic and a numpy pass over 20k doubles, and weighs their
    slowdowns 0.6 : 0.4.  That blend tracked all three workloads'
    operations best on the reference machine; either kernel alone leaves
    one of them with twice the spread.  Samples are taken before and after
    each operation and, from a SIGALRM handler, every INTERVAL_S during it.

    An operation's *rescaled* time is its wall time, less the time spent in
    samples, divided by the mean slowdown relative to REF_S of the samples
    from PAD_S before it to PAD_S after it.  The speed drifts over seconds,
    so the padding gives the short operations enough samples.  Reported
    seconds are therefore seconds on the reference machine in its fast
    state, where the kernels take REF_S.
    """

    INTERVAL_S = 0.05
    PAD_S = 0.5
    REF_S = (9.5e-5, 1.65e-4)
    WEIGHTS = (0.6, 0.4)

    def __init__(self):
        self.samples = []  # (time, slowdown factor), in time order
        self.spent = 0.0
        self._busy = False
        self._x = np.linspace(0.0, 1.0, 20000)

    def sample(self, *_signal) -> None:
        if self._busy:  # the timer fired inside a sample
            return
        self._busy = True
        t0 = perf_counter()
        s = 0.0
        for i in range(600):
            s += math.exp(-i * 1e-3) * math.sqrt(i + 1.0)
        t1 = perf_counter()
        np.exp(-np.abs(self._x - 0.3)).sum()
        t2 = perf_counter()
        self.samples.append((t0, self.WEIGHTS[0] * (t1 - t0) / self.REF_S[0]
                             + self.WEIGHTS[1] * (t2 - t1) / self.REF_S[1]))
        self.spent += t2 - t0
        self._busy = False

    @contextlib.contextmanager
    def periodic(self):
        """Sample every INTERVAL_S until the block ends."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, fn):
        """Run fn() between two samples; returns (its result, wall seconds
        without the samples taken during it, (start, end))."""
        self.sample()
        spent = self.spent
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            t1 = perf_counter()
            wall = t1 - t0 - (self.spent - spent)
            self.sample()
        return result, wall, (t0, t1)

    def slowdown(self, start: float, end: float) -> float:
        times = [t for t, _ in self.samples]
        lo = bisect.bisect_left(times, start - self.PAD_S)
        hi = bisect.bisect_right(times, end + self.PAD_S)
        return statistics.fmean(f for _, f in self.samples[lo:hi])


def measure_setup(probe: SpeedProbe):
    """Seconds to import peakonlab in each of SETUP_RUNS fresh interpreters:
    (raw, rescaled by probe samples just before and after each import)."""
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):  # the first one warms the file cache
        proc, _, span = probe.timed(lambda: subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True))
        if i:
            raw.append(float(proc.stdout))
            scaled.append(raw[-1] / probe.slowdown(*span))
    return raw, scaled


def _last_line() -> str:
    return traceback.format_exc().strip().splitlines()[-1]


def tail(samples: list):
    """Highest percentile with at least 10 samples beyond it, or the maximum
    when fewer than 20 samples leave that percentile below the median."""
    xs = sorted(samples)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n
    return xs[-1], 100.0


class Runner:
    """Runs rounds of one workload and keeps every figure the report needs."""

    def __init__(self, workload, main, probe, tracer=None):
        self.w = workload
        self.main = main
        self.probe = probe
        self.tracer = tracer
        self.reference = {}   # kind -> digest of the checked first output
        self.checks = {}      # kind -> Check
        self.attempted = self.failed = 0
        self.units = self.failed_units = 0
        self.reasons = []
        self.warnings = []

    def _showwarning(self, message, category, filename, lineno, file=None, line=None):
        self.warnings.append(f"{category.__name__}: {message}")
        if self.tracer is not None:
            self.tracer.on_warning()

    def run_op(self, kind, traced: bool):
        """Run and time one operation.

        Returns (wall seconds, (start, end), Output), or None if it failed.
        """
        out_buf, err_buf = io.StringIO(), io.StringIO()
        self.attempted += 1
        try:
            with contextlib.redirect_stdout(out_buf), contextlib.redirect_stderr(err_buf), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                warnings.showwarning = self._showwarning
                if self.tracer is not None:
                    self.tracer.enabled = traced
                try:
                    result, elapsed, span = self.probe.timed(
                        lambda: self.w.op(kind, self.main))
                finally:
                    if self.tracer is not None:
                        self.tracer.enabled = False
            output = self.w.collect(kind, result, out_buf.getvalue() + err_buf.getvalue())
        except Exception:  # one failed operation is recorded, the run goes on
            known = self.checks.get(kind)
            self._fail(kind, _last_line(), units=known.units if known else 1)
            return None
        if kind not in self.reference:
            try:
                self.checks[kind] = self.w.check(kind, result)
            except Exception:  # an output the checks cannot even read
                self.checks[kind] = workloads.Check(errors=[f"check raised {_last_line()}"])
            self.reference[kind] = output.digest
            errors = self.checks[kind].errors
        elif output.digest != self.reference[kind]:
            errors = ["output differs from the first run of this operation"]
        else:
            errors = []
        check = self.checks[kind]
        if errors:
            self._fail(kind, "; ".join(errors), units=check.units)
            return None
        self.units += check.units
        self.failed_units += check.failed_units
        self.reasons += [f"{kind}: {d}" for d in check.defects]
        return elapsed, span, output

    def _fail(self, kind, reason, units=1):
        self.failed += 1
        self.units += units
        self.failed_units += units
        self.reasons.append(f"{kind}: failed: {reason}")

    def run_round(self, traced: bool) -> "Round":
        """One pass over the workload's operations."""
        rnd = Round()
        for kind in self.w.kinds:
            done = self.run_op(kind, traced)
            if done is not None:
                elapsed, span, output = done
                rnd.wall.append(elapsed)
                rnd.spans.append(span)
                rnd.items += output.items
                rnd.bytes_out += output.bytes_out
        return rnd

    def accuracy(self) -> dict:
        worst = {}
        for check in self.checks.values():
            for name, value in check.accuracy.items():
                worst[name] = max(worst.get(name, 0.0), value)
        return worst


@dataclass
class Round:
    wall: list = field(default_factory=list)    # seconds per successful op
    spans: list = field(default_factory=list)   # (start, end) of each
    scaled: list = field(default_factory=list)  # wall rescaled, see SpeedProbe
    items: int = 0
    bytes_out: int = 0

    def rescale(self, probe: SpeedProbe) -> None:
        self.scaled = [w / probe.slowdown(*sp) for w, sp in zip(self.wall, self.spans)]

    @property
    def scale(self) -> float:
        return sum(self.scaled) / sum(self.wall) if self.wall else 1.0


def _reasons_summary(reasons: list) -> str:
    counts = sorted(Counter(reasons).items())
    return "; ".join(f"{n} x {r}" for r, n in counts) or "none"


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _median(xs):
    return statistics.median(xs) if xs else math.nan


def end_to_end(plain, setup, accuracy, error_rate) -> dict:
    scaled = [t for r in plain for t in r.scaled]
    wall = [t for r in plain for t in r.wall]
    tail_s, tail_pct = tail(scaled) if scaled else (math.nan, math.nan)
    print(f"# op_p50_s over n = {len(scaled)} timed ops; op_tail_s is p{tail_pct:.4g} "
          f"of n = {len(scaled)}; unscaled wall p50 {_median(wall):.4g} s, "
          f"mean slowdown {sum(wall) / sum(scaled) if wall else math.nan:.4g}")
    raw_setup, scaled_setup = setup
    print(f"# setup_s samples {[round(t, 4) for t in scaled_setup]} "
          f"(unscaled {[round(t, 4) for t in raw_setup]})")
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    worst = max(accuracy.values()) if accuracy else math.inf
    return {
        "setup_s": _metric(_median(scaled_setup), "s"),
        "op_p50_s": _metric(_median(scaled), "s"),
        "op_tail_s": _metric(tail_s, "s"),
        "items_per_s": _metric(sum(r.items for r in plain) / sum(scaled) if scaled else 0.0,
                               "1/s"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        "ok_rate": _metric(1.0 - error_rate, "ratio"),
        "event_time_err_digits": _metric(_digits(accuracy.get("event_time_err", math.inf)),
                                         "digits"),
        "worst_err_digits": _metric(_digits(worst), "digits"),
    }


def per_layer(args, tracer, plain, traced, layer_rounds, accuracy) -> dict:
    WORK.mkdir(parents=True, exist_ok=True)
    spans_path = WORK / f"spans-{args.workload}-{args.seed}.csv"
    tracer.write_spans(spans_path)
    print(f"# spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    metrics = {}
    for name, (_, unit) in layer_rounds[0].items():
        if unit == "s":  # rescaled like the end-to-end times, median over rounds
            value = _median([lr[name][0] * r.scale for lr, r in zip(layer_rounds, traced)])
        else:
            value = layer_rounds[0][name][0]
        metrics[name] = _metric(value, unit)
    p50 = lambda rounds: _median([t for r in rounds for t in r.scaled])
    metrics["trace.overhead_s"] = _metric(p50(traced) - p50(plain), "s")
    for name, key in (("integrator.event_time_err_max", "event_time_err"),
                      ("integrator.reversal_err_max", "reversal_err"),
                      ("sobolev.dist_rel_err_max", "dist_rel_err"),
                      ("analytic.invariant_err_max", "invariant_err"),
                      ("residual.abs_max", "residual_abs")):
        metrics[name] = _metric(accuracy.get(key, 0.0), "1")
    return metrics


def run(args) -> int:
    if not (SRC / "peakonlab" / "__init__.py").is_file():
        print(f"error: no peakonlab sources under {SRC}", file=sys.stderr)
        return 2
    probe = SpeedProbe()
    setup = None if args.trace else measure_setup(probe)
    sys.path.insert(0, str(SRC))
    import peakonlab.cli

    workload = workloads.WORKLOADS[args.workload](args.seed, WORK)
    for kind in workload.kinds:
        workload.outdir(kind).mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    # looked up per call, so the traced rounds see the wrapped main
    runner = Runner(workload, lambda argv: peakonlab.cli.main(argv), probe, tracer)

    runner.run_round(traced=False)  # caches filled, outputs checked
    if tracer is not None:
        tracer.install()
    plain, traced, layer_rounds, counters = [], [], [], []
    deadline = perf_counter() + args.seconds
    with probe.periodic():
        while perf_counter() < deadline or len(layer_rounds) == 1:
            if tracer is not None:
                tracer.reset()
                tracer.round += 1
                traced.append(runner.run_round(traced=True))
                layer_rounds.append(tracer.layer_metrics(traced[-1].bytes_out))
                counters.append(tracer.counters())
            plain.append(runner.run_round(traced=False))
    if tracer is not None:
        tracer.uninstall()
    for rnd in plain + traced:  # every sample around the last op exists now
        rnd.rescale(probe)

    accuracy = runner.accuracy()
    correct = runner.failed == 0
    error_rate = runner.failed_units / max(runner.units, 1)
    print(f"# workload {args.workload}, seed {args.seed}: {runner.attempted} ops "
          f"({len(workload.kinds)} per round), {runner.failed} failed")
    print(f"# error_rate {error_rate:.6g} ({runner.failed_units} of {runner.units} "
          f"{'grid points' if args.workload == 'sweep' else 'ops'}): "
          f"{_reasons_summary(runner.reasons)}")
    for name, value in sorted(accuracy.items()):
        print(f"# {name}_max {value:.3e}")
    for kind, check in runner.checks.items():
        for note in check.notes:
            print(f"# finding ({kind}): {note}")
    if runner.warnings:
        print(f"# warnings: {_reasons_summary(runner.warnings)}")
    if tracer is None:
        metrics = end_to_end(plain, setup, accuracy, error_rate)
    else:
        repeat = all(c == counters[0] for c in counters[1:])
        correct = correct and repeat
        print(f"# traced rounds {len(counters)}, counters repeat exactly: {repeat}")
        metrics = per_layer(args, tracer, plain, traced, layer_rounds, accuracy)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("export", "sweep", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
