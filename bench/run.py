"""Benchmark of ``multiport run`` on three scenario workloads.

Run from the repository root:

    python3 bench/run.py --workload su_miso_n33 --seed 2 --seconds 30 --trace 0

Each workload runs as a closed loop in this one process: one
``multiport.cli.main(["run", ...])`` call at a time, one worker,
BLAS/OpenMP threads pinned to 1. Outputs of every call are checked.
Throughput and set-up time are reported on a calibrated clock (see
calibrate.py), because the speed of a shared host drifts by more than
any useful bound.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--workload all`` runs every workload in its own process
and prints a summary table instead. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Pin the thread pools before numpy is imported anywhere in the process.
THREAD_PINS = {
    var: "1"
    for var in (
        "OPENBLAS_NUM_THREADS",
        "OMP_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
PACKAGE = "multiport"

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, content_cycle, load_run_config, write_chunk  # noqa: E402

SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
SUBPROCESS_TIMEOUT_S = 170

END_TO_END = {
    "calibrated_realizations_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}
# Printed with the end-to-end metrics but kept out of the result line.
# Wall-clock throughput and set-up time drift with the host's speed by
# more than any bound the benchmark may set. failed_frac is 0 at a
# correct commit, and the result line carries the same numbers as
# ``failed`` / ``attempted``.
INFO = {
    "realizations_per_s": "1/s",
    "setup_wall_s": "s",
    "failed_frac": "ratio",
}

TRACED_FUNCTIONS = (
    "channel_model.build_bundle",
    "numerics.waterfill",
    "strategies.mac_sum_capacity",
    "numerics.project_psd_trace",
)
MAC = "strategies.mac_sum_capacity"
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    **{f"{layer}.calls": "count" for layer in spans.LAYERS},
    **{f"{fn}.calls": "count" for fn in TRACED_FUNCTIONS},
    **{f"{fn}.self_s": "s" for fn in TRACED_FUNCTIONS},
    f"{MAC}.call_ms.p50": "ms",
    f"{MAC}.call_ms.p99": "ms",
    f"{MAC}.iterations.p50": "count",
    f"{MAC}.iterations.max": "count",
    f"{MAC}.unconverged": "count",
    "strategies.greedy_zf.self_s": "s",
    "montecarlo.read_coupling_file.self_s": "s",
    "em_arrays.sine_cosine_integrals.calls": "count",
    "cli.output_bytes": "bytes",
    "trace.overhead_frac": "ratio",
}

# Impedance assembly a `multiport run` performs before its first
# realization, timed in a fresh interpreter from the first import on.
# The same interpreter then times the calibration kernel, which runs on
# the same core at nearly the same moment; it prints both.
SETUP_CODE = """
import json, statistics, sys, time
t0 = time.perf_counter()
import multiport
from multiport import (
    array_impedance_matrix, config_from_dict, dipole_self_impedance,
    uniform_circular_array,
)
config = config_from_dict(json.loads(sys.argv[1]))
array_impedance_matrix(uniform_circular_array(config.n_tx, config.tx_spacing))
for m in config.rx_partition:
    if m == 1:
        dipole_self_impedance()
    else:
        array_impedance_matrix(uniform_circular_array(m, config.rx_spacing))
setup_s = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import calibrate
kernel = calibrate.Kernel()
print(repr(setup_s), repr(statistics.median(kernel.run() for _ in range(3))))
"""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def environment() -> dict:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "thread_pins": {var: os.environ.get(var) for var in THREAD_PINS},
    }


def measure_setup(scenario: dict) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, and its kernel seconds."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, json.dumps(scenario), HERE],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    setup_s, kernel_s = done.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(kernel_s)


def file_digests(paths: list[str]) -> dict[str, str]:
    digests = {}
    for path in paths:
        with open(path, "rb") as fh:
            digests[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
    return digests


class Runner:
    """One benchmark run of one workload: calls, checks and counters."""

    def __init__(self, mp, workload, seed: int, n_realizations: int, work_dir: str, reference):
        from multiport import cli, montecarlo

        self.mp, self.cli, self.montecarlo = mp, cli, montecarlo
        self.workload = workload
        self.seed = seed
        self.n = n_realizations
        self.work_dir = work_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.base = load_run_config(ROOT, workload)
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.output_bytes: list[int] = []
        self.n_results = 0
        self.last_result = None
        self.digests: dict[int, dict[str, str]] = {}
        self.chunk_paths: dict[int, str] = {}

    def __enter__(self):
        # Keep every ScenarioResult for the per-realization checks. The
        # lookup happens at call time, so a traced run_scenario is used
        # when tracing is on.
        montecarlo = self.montecarlo

        def run_scenario(*args, **kwargs):
            result = montecarlo.run_scenario(*args, **kwargs)
            self.n_results += 1
            self.last_result = result
            return result

        self._original = self.cli.run_scenario
        self.cli.run_scenario = run_scenario
        return self

    def __exit__(self, *exc):
        self.cli.run_scenario = self._original

    def config_path(self, content: int) -> str:
        if content not in self.chunk_paths:
            self.chunk_paths[content] = write_chunk(
                self.mp, self.workload, self.base, self.seed, content, self.n, self.work_dir
            )
        return self.chunk_paths[content]

    def drop(self, content: int) -> None:
        """Remove the generated inputs of a chunk content that will not run again."""
        os.remove(self.chunk_paths.pop(content))
        coupling = os.path.join(self.work_dir, f"coupling_{content}.csv")
        if os.path.exists(coupling):
            os.remove(coupling)

    def call(self, content: int) -> tuple[float, int, list[str], str]:
        """Run one ``multiport run``; return (seconds, exit code, stdout lines, stderr)."""
        argv = ["run", self.config_path(content), "--output-dir", self.out_dir]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:
                traceback.print_exc()
                code = -1
            elapsed = perf_counter() - t0
        return elapsed, code, out.getvalue().splitlines(), err.getvalue()

    def check(self, content: int, code: int, lines: list[str], stderr: str, n_results: int) -> list[str]:
        """Check one call's outputs; count its realizations as attempted and failed."""
        problems = []
        reported = 0
        paths = [line for line in lines if not line.startswith("failures:")]
        if code != 0:
            problems.append(f"exit code {code}: {stderr.strip()[-500:]}")
        elif self.n_results != n_results + 1:
            problems.append("run_scenario was not called exactly once")
        else:
            result = self.last_result
            config = result.config
            failure_lines = [line for line in lines if line.startswith("failures:")]
            try:
                (failure_line,) = failure_lines
                reported = int(failure_line.split(":", 1)[1])
            except ValueError:
                problems.append(f"expected one failures: line on stdout, got {failure_lines}")
            emit = self.base.get("emit", [])
            by_target = {
                target: os.path.join(self.out_dir, f"{config.name}_{target[:-4]}.csv")
                for target in emit
            }
            missing = [p for p in by_target.values() if p not in paths]
            if missing:
                problems.append(f"outputs not reported on stdout: {missing}")
            problems += checks.check_csvs(
                by_target,
                n_powers=len(config.power_grid_dbw),
                n_strategies=len(config.strategies),
                n_realizations=config.n_realizations,
                kde_points=self.montecarlo.KDE_GRID_POINTS,
                max_streams=min(config.n_tx, config.n_rx_total),
            )
            problems += checks.check_result(result)
            if result.n_failures != reported:
                problems.append(
                    f"failures: line says {reported}, result holds {result.n_failures}"
                )
            ref = self.reference
            if (
                not problems
                and content == 0
                and ref is not None
                and ref["seed"] == self.seed
                and ref["realizations"] == self.n
            ):
                problems += checks.check_reference(by_target["rates_csv"], ref["rates"])
            if not problems:
                self.output_bytes.append(sum(os.path.getsize(p) for p in paths))
                digests = file_digests(paths)
                if self.digests.setdefault(content, digests) != digests:
                    problems.append("repeated call produced different outputs")
        self.attempted += self.n
        self.failed += self.n if problems else reported
        self.problems += [f"chunk {content}: {p}" for p in problems]
        return problems

    def timed(self, content: int) -> float:
        n_results = self.n_results
        elapsed, code, lines, stderr = self.call(content)
        self.check(content, code, lines, stderr, n_results)
        return elapsed


def contents(runner: Runner):
    """Chunk ``c`` runs content ``c % content_cycle(workload)``, or ``c`` when that is 0."""
    cycle = content_cycle(runner.workload)
    return (c % cycle if cycle else c for c in itertools.count())


def finish(runner: Runner, content: int) -> None:
    if content > 0 and not content_cycle(runner.workload):
        runner.drop(content)


def run_timed(runner: Runner, seconds: float, scenario: dict):
    """Time chunks until ``seconds`` of call and kernel time are spent.

    Content 0 runs once untimed first, as warm-up and as the repeat that
    the timed content 0 is checked against. The calibration kernel runs
    before the first timed call and after every one, so call ``i`` lies
    between kernel runs ``i`` and ``i + 1``. ``SETUP_REPEATS`` set-ups
    in fresh interpreters are spread evenly over the measured time, so
    their median covers the same stretch of the host's speed as the
    calls. Returns (call seconds, kernel seconds, set-up seconds and
    kernel seconds of each set-up interpreter).
    """
    kernel = calibrate.Kernel()
    runner.timed(0)
    calls, kernel_times, setup = [], [kernel.run()], []
    spent = kernel_times[0]
    for content in contents(runner):
        calls.append(runner.timed(content))
        kernel_times.append(kernel.run())
        spent += calls[-1] + kernel_times[-1]
        finish(runner, content)
        while len(setup) < SETUP_REPEATS and spent >= len(setup) * seconds / SETUP_REPEATS:
            setup.append(measure_setup(scenario))
        if spent >= seconds:
            break
    return calls, kernel_times, setup


def calibrated_seconds(calls: list[float], kernel_times: list[float]) -> np.ndarray:
    """Each call's seconds scaled by ``REFERENCE_S`` over the kernel time around it."""
    kernel = np.asarray(kernel_times)
    return np.asarray(calls) * calibrate.REFERENCE_S / (0.5 * (kernel[:-1] + kernel[1:]))


def run_traced(runner: Runner, seconds: float):
    """Run each content once untraced and once traced until ``seconds`` are spent.

    The pair is the repeat and gives the tracing overhead on equal work.
    Returns (untraced call seconds, traced call seconds, recorder).
    """
    recorder = spans.SpanRecorder()
    observers = {MAC: lambda sol: (sol.iterations, sol.converged)}
    plain, with_trace = [], []
    spent = 0.0
    for content in contents(runner):
        plain.append(runner.timed(content))
        replaced = spans.install(recorder, PACKAGE, observers)
        try:
            with_trace.append(runner.timed(content))
        finally:
            spans.uninstall(replaced)
        spent += plain[-1] + with_trace[-1]
        finish(runner, content)
        if spent >= seconds:
            break
    return plain, with_trace, recorder


def layer_metrics(recorder: spans.SpanRecorder, plain: list[float], traced: list[float], output_bytes: float) -> dict:
    """Per-layer metrics; counts and self times are per traced call."""
    arrays = recorder.arrays()
    name_id = arrays["name_id"]
    self_time = spans.self_times(arrays["parent"], arrays["start"], arrays["end"])
    n_names = len(recorder.names)
    n_calls = len(traced)
    calls_of = dict(zip(recorder.names, np.bincount(name_id, minlength=n_names) / n_calls))
    self_of = dict(
        zip(recorder.names, np.bincount(name_id, weights=self_time, minlength=n_names) / n_calls)
    )

    metrics = {}
    for layer in spans.LAYERS:
        names = [name for name in recorder.names if name.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = float(sum(self_of[name] for name in names))
        metrics[f"{layer}.calls"] = float(sum(calls_of[name] for name in names))
    for fn in recorder.names:
        metrics[f"{fn}.calls"] = float(calls_of[fn])
        metrics[f"{fn}.self_s"] = float(self_of[fn])
    mac_spans = name_id == recorder.intern(MAC)
    mac_ms = 1e3 * (arrays["end"] - arrays["start"])[mac_spans]
    solves = recorder.observations.get(MAC, [])
    iterations = np.array([it for it, _ in solves], dtype=float)
    metrics[f"{MAC}.call_ms.p50"] = float(np.percentile(mac_ms, 50)) if mac_ms.size else 0.0
    metrics[f"{MAC}.call_ms.p99"] = float(np.percentile(mac_ms, 99)) if mac_ms.size else 0.0
    metrics[f"{MAC}.iterations.p50"] = float(np.median(iterations)) if iterations.size else 0.0
    metrics[f"{MAC}.iterations.max"] = float(iterations.max()) if iterations.size else 0.0
    metrics[f"{MAC}.unconverged"] = float(sum(not ok for _, ok in solves)) / n_calls
    metrics["cli.output_bytes"] = output_bytes
    # Pairs of equal work: every traced call and the untraced call before it.
    ratios = [t / p for t, p in zip(traced, plain)]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    # A function the program no longer has was called 0 times.
    return {name: metrics.get(name, 0.0) for name in PER_LAYER}


def dominant_share(recorder: spans.SpanRecorder, group: tuple[str, ...]) -> tuple[float, str, float]:
    """Share of traced time under the predicted spans, and the largest other layer.

    Time under a span of ``group`` (a layer or a function name) counts for
    the group, including the time of the spans it calls.
    """
    arrays = recorder.arrays()
    names = recorder.names
    self_time = spans.self_times(arrays["parent"], arrays["start"], arrays["end"])
    total = float(self_time.sum())
    in_group_name = np.array(
        [name in group or name.split(".", 1)[0] in group for name in names], dtype=bool
    )
    in_group = in_group_name[arrays["name_id"]].copy()
    parent = arrays["parent"]
    for i in range(in_group.size):  # parents precede their children
        if not in_group[i] and parent[i] >= 0 and in_group[parent[i]]:
            in_group[i] = True
    share = float(self_time[in_group].sum()) / total
    layer_of = np.array([spans.LAYERS.index(name.split(".", 1)[0]) for name in names])
    other = np.bincount(
        layer_of[arrays["name_id"][~in_group]],
        weights=self_time[~in_group],
        minlength=len(spans.LAYERS),
    ) / total
    top = int(np.argmax(other))
    return share, spans.LAYERS[top], float(other[top])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def load_reference(workload: str):
    try:
        with open(REFERENCE_PATH) as fh:
            return json.load(fh).get(workload)
    except FileNotFoundError:
        return None


def import_package():
    """Import the package from this checkout's sources, never an installed copy."""
    init = os.path.join(SRC, PACKAGE, "__init__.py")
    if not os.path.exists(init):
        raise ImportError(f"{init} does not exist")
    sys.path.insert(0, SRC)
    import multiport

    if os.path.abspath(multiport.__file__) != init:
        raise ImportError(f"{PACKAGE} was imported from {multiport.__file__}")
    return multiport


def run_one(args) -> int:
    try:
        mp = import_package()
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    try:
        base = load_run_config(ROOT, workload)
    except (OSError, ValueError) as exc:
        print(f"cannot read the bundled config {workload.config}: {exc}", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else int(base["scenario"]["seed"])
    n = args.realizations or workload.realizations
    traced = bool(args.trace)
    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{workload.name}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    setup, kernel_times, with_trace, recorder = [], [], [], None
    try:
        with Runner(mp, workload, seed, n, work_dir, load_reference(workload.name)) as runner:
            if traced:
                plain, with_trace, recorder = run_traced(runner, args.seconds)
            else:
                plain, kernel_times, setup = run_timed(runner, args.seconds, base["scenario"])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lo, med, hi = quartiles(plain)
    print(
        f"calls: {len(plain)} untraced x {n} realizations, seconds per call "
        f"median {med:.4f} quartiles {lo:.4f}..{hi:.4f} max {max(plain):.4f}"
    )
    for problem in runner.problems:
        print(f"problem: {problem}")
    failed_frac = runner.failed / runner.attempted
    tag = f"{workload.name}-seed{seed}-trace{int(traced)}"
    info = {}
    if traced:
        output_bytes = statistics.median(runner.output_bytes) if runner.output_bytes else 0.0
        values = layer_metrics(recorder, plain, with_trace, output_bytes)
        units = PER_LAYER
        trace_path = os.path.join(OUT, f"trace-{tag}.npz")
        recorder.save(trace_path)
        print(f"trace: {len(recorder.start)} spans written to {os.path.relpath(trace_path, ROOT)}")
        share, other, other_share = dominant_share(recorder, workload.dominant)
        verdict = "met" if share > other_share else "NOT met"
        print(
            f"prediction {verdict}: {'+'.join(workload.dominant)} holds {share:.1%} of traced "
            f"time; largest other layer {other} holds {other_share:.1%}"
        )
    else:
        lo, med, hi = quartiles(kernel_times)
        print(
            f"kernel: {len(kernel_times)} runs, seconds median {med:.4f} "
            f"quartiles {lo:.4f}..{hi:.4f} (reference {calibrate.REFERENCE_S})"
        )
        values = {
            "calibrated_realizations_per_s": float(
                np.median(n / calibrated_seconds(plain, kernel_times))
            ),
            "setup_s": statistics.median(
                t * calibrate.REFERENCE_S / k for t, k in setup
            ),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        info = {
            "realizations_per_s": statistics.median(n / t for t in plain),
            "setup_wall_s": statistics.median(t for t, _ in setup),
            "failed_frac": failed_frac,
        }
    for name, value in values.items():
        print(f"metric {name} = {value!r} {units[name]}")
    for name, value in info.items():
        print(f"metric {name} = {value!r} {INFO[name]}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    line = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(
            {**line, **info, "failed_frac": failed_frac, "call_seconds": plain,
             "kernel_seconds": kernel_times, "traced_call_seconds": with_trace,
             "setup_seconds": setup, "environment": env, "problems": runner.problems},
            fh,
            indent=1,
        )
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Run every workload in a fresh process and print one summary table."""
    rows, status = [], 0
    for name in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.realizations:
            argv += ["--realizations", str(args.realizations)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            status = done.returncode
            continue
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        metric_lines = [line[len("metric "):] for line in lines if line.startswith("metric ")]
        rows.append((name, result, metric_lines))
    print()
    for name, result, metric_lines in rows:
        print(f"{name}: " + "  ".join(metric_lines))
        if not result["correct"]:
            status = status or 1
    return status


def write_reference() -> int:
    """Record the non-naive ergodic rates of chunk 0 at every default seed."""
    mp = import_package()
    from multiport.cli import RATE_COLUMNS

    reference = {}
    for workload in WORKLOADS.values():
        base = load_run_config(ROOT, workload)
        seed = int(base["scenario"]["seed"])
        work_dir = os.path.join(OUT, f"reference-{workload.name}")
        os.makedirs(work_dir, exist_ok=True)
        try:
            with Runner(mp, workload, seed, workload.realizations, work_dir, None) as runner:
                runner.timed(0)
            if runner.problems:
                print("\n".join(runner.problems), file=sys.stderr)
                return 1
            config = runner.last_result.config
            rates_path = os.path.join(runner.out_dir, f"{config.name}_rates.csv")
            header, rows = checks.read_rows(rates_path)
            columns = [RATE_COLUMNS[s] for s in config.strategies if "hyp" not in s]
            reference[workload.name] = {
                "seed": seed,
                "realizations": workload.realizations,
                "rates": {c: [float(row[header.index(c)]) for row in rows] for c in columns},
            }
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(REFERENCE_PATH)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the config's seed")
    parser.add_argument("--seconds", type=float, default=30.0, help="call and kernel time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--realizations", type=int, default=None,
        help="realizations per call (default: the workload's); the reference "
        "check applies only at the default",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="record the reference rates at the default seeds and exit",
    )
    args = parser.parse_args(argv)
    if args.write_reference:
        return write_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.realizations is not None and args.realizations < 2:
        parser.error("--realizations must be at least 2")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
