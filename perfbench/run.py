#!/usr/bin/env python3
"""Benchmark of the waveline CLI: time to a verified answer.

    python3 perfbench/run.py --workload verify-default --seed 7 --seconds 40 --trace 0

Run it from anywhere inside a checkout; it imports the package from the
checkout's own ``src/`` and reads and writes nothing outside the checkout.
Scratch output goes to ``.perfbench/work-<pid>/`` (removed at exit) and the
full result set, with machine metadata and every raw sample, to
``.perfbench/results/`` (or ``--results DIR``).

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json:

* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: a fresh ``python -m waveline.cli``
  subprocess per sample, wall clock around it and ``os.wait4`` usage.
* ``solve_s``: ``waveline.cli.main(argv)`` in this process after a warm-up.
* ``setup_s``: a fresh ``python -c "import waveline.cli"``.

The host's speed drifts by up to 1.7x over tens of seconds (other guests on
the same cores), which moves raw times more than any bound could allow.  So
a fixed calibration workload runs between every two timed samples, and
each time is scaled to the speed at which that workload takes
CALIBRATION_REF_S: ``t * CALIBRATION_REF_S / c``, where ``c`` is the mean of
the CALIBRATION_SPAN calibrations on either side of the sample (one round of
samples each way).  The raw times and calibrations are kept in the result
record.

With ``--trace 1`` it reports the per-layer metrics, from traced in-process
calls (see spans.py) and from ``python -X importtime``.

Every sample of both modes passes the correctness gate: exit code 0, every
check in run_report.json passing, every check the workload must run present,
and a run_report.json byte-identical across all samples of the run.  Timings
are medians over the samples; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_DIR = BENCH / "workloads"

# Workload -> CLI command; the inputs are workloads/<name>.json plus --seed.
WORKLOADS = {
    "verify-default": "verify",
    "flow-sweep": "flow",
    "phase-resample": "phase",
}

PHASE_CHECKS = (
    "phase_two_clock_consistency",
    "phase_trajectory_independence",
    "phase_center_identity",
)
VERIFY_CHECKS = (
    "flow_accuracy[sigma2_0=-0.4]",
    "flow_accuracy[sigma2_0=0]",
    "flow_accuracy[sigma2_0=0.5]",
    "flow_accuracy[sigma2_0=2]",
    "flow_step_halving_contraction",
    "lambda_three_form_agreement",
    "lambda_worldline_independence_order",
    "lambda_violation_detected",
    "stationary_duration",
    "stationary_eigenvalue",
    "curvature_degeneracy",
    "classical_limit_identity[branch=+1]",
    "classical_limit_identity[branch=-1]",
    "operator_exact_free",
    "operator_phase_only",
    "operator_phase_and_modulus",
    "operator_imaginary_part",
) + PHASE_CHECKS

IMPORTTIME_REPEATS = 3  # -X importtime runs per traced run
MIN_SAMPLES = 3  # samples per timed quantity, however short --seconds is
CHILD_TIMEOUT_S = 60.0
CALIBRATION_REF_S = 0.05  # the calibration workload's time at the reference speed
CALIBRATION_SPAN = 3  # calibrations on each side of a sample that set its speed


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing program or inputs)."""


def required_checks(workload, config):
    if workload == "verify-default":
        return VERIFY_CHECKS
    if workload == "phase-resample":
        return PHASE_CHECKS
    return tuple(
        f"flow_accuracy[sigma2_0={v:g}]" for v in config["sigma2_values"]
    ) + ("flow_step_halving_contraction",)


class Gate:
    """Correctness of every CLI execution of one run.

    A non-zero exit or an unreadable report counts every required check as
    attempted and failed; a report that differs from the run's first one is
    a reproducibility failure.
    """

    def __init__(self, required):
        self.required = tuple(required)
        self.attempted = 0
        self.failed = 0
        self.executions = 0
        self.reference = None
        self.problems = []

    def record(self, code, report_path):
        self.executions += 1
        try:
            data = report_path.read_bytes()
            checks = json.loads(data)["checks"]
            names = {c["name"] for c in checks}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            data, checks = None, None
            self.problems.append(f"no readable run_report.json: {exc}")
        if code != 0:
            self.problems.append(f"CLI exited with code {code}")
        if code != 0 or checks is None:
            self.attempted += len(self.required)
            self.failed += len(self.required)
            return
        missing = [n for n in self.required if n not in names]
        if missing:
            self.problems.append(f"required checks missing: {missing}")
        self.attempted += len(checks) + len(missing)
        self.failed += sum(c.get("status") != "pass" for c in checks) + len(missing)
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            self.problems.append("run_report.json differs between runs of the same seed")

    @property
    def correct(self):
        return not self.problems and self.failed == 0

    @property
    def failed_frac(self):
        return self.failed / self.attempted if self.attempted else 1.0


# --------------------------------------------------------------------------
# running the program


def child_env():
    env = dict(os.environ)
    paths = [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(args, env, log_path):
    """Run ``python <args>``; return (exit code, wall s, cpu s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def solve_in_process(run, out, gate):
    """Time ``run(out)``, one in-process CLI call writing to ``out``; gate it."""
    gc.collect()
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        code = run(out)
        elapsed = time.perf_counter() - start
    gate.record(code, out / "run_report.json")
    shutil.rmtree(out, ignore_errors=True)
    return elapsed


def import_program():
    if not (SRC / "waveline" / "cli.py").is_file():
        raise BenchError(f"no waveline package under {SRC}")
    sys.path.insert(0, str(SRC))
    import waveline.cli

    if Path(waveline.cli.__file__).resolve().parent != (SRC / "waveline").resolve():
        raise BenchError(f"imported waveline from {waveline.cli.__file__}, not {SRC}")
    return waveline.cli


def import_breakdown(env, work):
    """numpy, scipy and waveline's own share of ``import waveline.cli``, in s.

    ``-X importtime`` prints each module when its import finishes, children
    before their parent, indented two spaces per nesting level.  A numpy or
    scipy module counts with its cumulative time unless an ancestor is
    already counted; waveline's share is the rest of its top-level imports.
    """
    log = work / "importtime.log"
    code, *_ = run_child(["-X", "importtime", "-c", "import waveline.cli"], env, log)
    if code != 0:
        raise BenchError(f"import waveline.cli failed:\n{log.read_text()[-2000:]}")
    rows = []
    for line in log.read_text().splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum_us, name = line[len("import time:"):].split("|", 2)
        name = name[1:]  # the space after the separator
        depth = (len(name) - len(name.lstrip(" "))) // 2
        rows.append((depth, name.strip(), int(cum_us)))
    totals = {"numpy": 0, "scipy": 0, "waveline": 0}
    ancestors = []  # (depth, root package) of the enclosing imports
    for depth, name, cum_us in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        root = name.split(".")[0]
        counted = any(r in ("numpy", "scipy") for _, r in ancestors)
        if root in ("numpy", "scipy") and not counted:
            totals[root] += cum_us
        elif root == "waveline" and depth == 0:
            totals["waveline"] += cum_us
        ancestors.append((depth, root))
    return {
        "setup.numpy_s": totals["numpy"] / 1e6,
        "setup.scipy_s": totals["scipy"] / 1e6,
        "setup.waveline_self_s": (totals["waveline"] - totals["numpy"] - totals["scipy"]) / 1e6,
    }


def calibration_work():
    """Fixed work unrelated to the program, in the same mix of operations.

    Small-array numpy calls from a Python loop (as the RK4 flow makes them),
    vector ops on arrays of the default grid size (as the lattice sums), and
    dict and string work (as imports and reports do).
    """
    import numpy as np

    y = np.linspace(0.0, 1.0, 5)
    acc = 0.0
    for _ in range(6000):
        y = np.concatenate([y[:4] * 0.999, [y[4] + 1e-3]])
        acc += float(y[1])
    v = np.linspace(0.0, 1.0, 10001)
    for _ in range(200):
        v = np.sin(v) * 0.5 + np.cumsum(v) * 1e-6
    table = {}
    for i in range(60000):
        table[f"k{i}"] = i * 0.5
    return acc + float(v[-1]) + len(table)


class Calibrated:
    """Timed samples, each scaled by the nearby calibrations on either side."""

    def __init__(self):
        self.calibrations = []
        self.samples = {}  # name -> [(raw seconds, index of the next calibration)]

    def calibrate(self):
        start = time.perf_counter()
        calibration_work()
        self.calibrations.append(time.perf_counter() - start)

    def add(self, name, seconds):
        self.samples.setdefault(name, []).append((seconds, len(self.calibrations)))

    def scaled(self, name):
        cal, k = self.calibrations, CALIBRATION_SPAN
        return [t * CALIBRATION_REF_S / statistics.mean(cal[max(0, i - k):i + k])
                for t, i in self.samples[name]]


# --------------------------------------------------------------------------
# machine metadata


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cpu_times():
    """Aggregate (total, steal) jiffies from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def machine_metadata():
    import numpy
    import scipy

    model = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            model = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "thread_env": {k: os.environ[k] for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
        "loadavg_start": os.getloadavg(),
    }


# --------------------------------------------------------------------------
# the two modes


def timed_loop(deadline, steps):
    """Run rounds of every step in turn until ``deadline`` (a perf_counter time).

    A round starts only if a round of average length still fits, so a run
    ends near the deadline rather than up to one round past it; each step
    runs at least MIN_SAMPLES times however close the deadline is.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        now = time.perf_counter()
        if rounds >= MIN_SAMPLES and now + (now - start) / rounds > deadline:
            break
        for step in steps:
            step(rounds)
        rounds += 1


def end_to_end(solve, argv_for, gate, env, work, deadline):
    timed = Calibrated()
    samples = {"peak_rss_mb": []}

    def fresh_import():
        code, wall, _, _ = run_child(["-c", "import waveline.cli"], env, work / "import.log")
        if code != 0:
            raise BenchError(f"import waveline.cli failed:\n{(work / 'import.log').read_text()}")
        return wall

    fresh_import()  # untimed warm-ups
    solve_in_process(solve, work / "warm", gate)
    calibration_work()
    for _ in range(CALIBRATION_SPAN - 1):  # with the loop's first, a full span before
        timed.calibrate()

    def fresh_process(k):
        out = work / f"cli-{k}"
        code, wall, cpu, rss = run_child(["-m", "waveline.cli", *argv_for(out)], env,
                                         work / f"cli-{k}.log")
        gate.record(code, out / "run_report.json")
        if code != 0:
            sys.stderr.write((work / f"cli-{k}.log").read_text()[-2000:])
        shutil.rmtree(out, ignore_errors=True)
        timed.add("wall_s", wall)
        timed.add("cpu_s", cpu)
        samples["peak_rss_mb"].append(rss)

    def calibrate(k):
        timed.calibrate()

    timed_loop(deadline, (
        calibrate,
        lambda k: timed.add("setup_s", fresh_import()),
        calibrate,
        fresh_process,
        calibrate,
        lambda k: timed.add("solve_s", solve_in_process(solve, work / f"main-{k}", gate)),
    ))
    for _ in range(CALIBRATION_SPAN):  # a full span after the last sample
        timed.calibrate()
    for name in ("setup_s", "wall_s", "cpu_s", "solve_s"):
        samples[name] = timed.scaled(name)
        samples[f"{name}.raw"] = [t for t, _ in timed.samples[name]]
    samples["calibration_s"] = timed.calibrations
    metrics = {name: statistics.median(samples[name])
               for name in ("setup_s", "wall_s", "cpu_s", "solve_s", "peak_rss_mb")}
    return metrics, samples


def per_layer(solve, gate, env, work, deadline, workload):
    import spans

    imports = [import_breakdown(env, work) for _ in range(IMPORTTIME_REPEATS)]
    samples = {name: [row[name] for row in imports] for name in imports[0]}
    untraced, traced, layers = [], [], []

    def with_spans(k):
        tracer = spans.Tracer()
        with spans.installed(tracer):
            traced.append(solve_in_process(
                lambda out: tracer.call(spans.ROOT_SPAN, solve, (out,), {}),
                work / f"traced-{k}", gate,
            ))
        layers.append(spans.layer_metrics(tracer.spans, workload))

    solve_in_process(solve, work / "warm", gate)
    timed_loop(deadline, (
        lambda k: untraced.append(solve_in_process(solve, work / f"plain-{k}", gate)),
        with_spans,
    ))
    for name in layers[0]:
        samples[name] = [row[name] for row in layers]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics["checks_failed_frac"] = gate.failed_frac
    samples["solve_s.untraced"], samples["solve_s.traced"] = untraced, traced
    return metrics, samples


# --------------------------------------------------------------------------


def parse_args(argv, run_seconds):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7,
                        help="seed passed to the CLI as --seed (default 7)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help=f"length of the run, warm-ups included (default {run_seconds})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics")
    parser.add_argument("--results", default=None, metavar="DIR",
                        help="directory for the full result set "
                        "(default .perfbench/results in the checkout)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def main(argv=None):
    spec = load_spec()
    args = parse_args(argv, spec["run_seconds"])
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    config_path = WORKLOAD_DIR / f"{args.workload}.json"
    config = json.loads(config_path.read_text())
    cli = import_program()
    metadata = machine_metadata()
    steal_start = _cpu_times()

    command = WORKLOADS[args.workload]
    gate = Gate(required_checks(args.workload, config))
    env = child_env()
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)

    def argv_for(out):
        return [command, "--config", str(config_path), "--seed", str(args.seed),
                "--out", str(out)]

    def solve(out):
        return cli.main(argv_for(out))

    started = time.perf_counter()
    deadline = started + args.seconds
    try:
        if args.trace:
            metrics, samples = per_layer(solve, gate, env, work, deadline, args.workload)
        else:
            metrics, samples = end_to_end(solve, argv_for, gate, env, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.perf_counter() - started

    if set(metrics) != set(units):
        raise BenchError(
            f"measured metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    steal_end = _cpu_times()
    if steal_start and steal_end and steal_end[0] > steal_start[0]:
        metadata["cpu_steal_frac"] = (steal_end[1] - steal_start[1]) / (steal_end[0] - steal_start[0])
    metadata["loadavg_end"] = os.getloadavg()

    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    results_dir = Path(args.results) if args.results else ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = results_dir / f"{args.workload}-trace{args.trace}-seed{args.seed}-{stamp}-{os.getpid()}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "command": command, "seed": args.seed,
        "trace": args.trace, "seconds": args.seconds, "elapsed_s": elapsed,
        "executions": gate.executions, "problems": gate.problems,
        "machine": metadata, "samples": samples, "result": result,
    }, indent=2) + "\n")

    for problem in dict.fromkeys(gate.problems):
        print(f"correctness: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {gate.executions} CLI runs "
          f"in {elapsed:.1f}s, load {metadata['loadavg_start'][0]:.2f}; {record}",
          file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
