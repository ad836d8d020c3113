"""flowescape benchmark: one closed-loop workload per process.

Usage (from the repository root):

    python3 bench/run.py --workload tall-tower --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --trace 0

One caller runs the workload's seeded case list in order, each case starting
only after the previous one returns, and repeats the whole list while another
pass fits in ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json) and
until at least 100 cases have passed their checks. Every case is checked
against an independent route; a raised error or a missed check is a failed
case. ``--trace 0`` prints the end-to-end metrics, whose times are
normalized to a fixed host speed by a probe read between cases (HostProbe),
beside the raw ones; ``--trace 1`` makes three
passes over the case list, untraced, traced (every public library function
wrapped in a span recorder) and untraced again, and prints the per-layer
metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The library is
imported from ``src/`` next to this directory; without it the run exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))

# One BLAS thread: the whole run is then one thread on one core, which the
# single-threaded host probe tracks. This must be settled before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("tall-tower", "zeta-grid", "survival-dp")
MIN_TIMED = 100  # passing cases per run, so that ten lie beyond the p90
SETUP_REPEATS = 10
SETUP_PROBES = 7
# HostProbe.run's median on the machine described in README.md; times are
# reported at that probe speed.
REF_PROBE_S = 0.005
MIN_WINDOW_S = 0.05
END_TO_END = {
    "throughput_norm_cases_per_s": "1/s",
    "case_norm_ms_p50": "ms",
    "case_norm_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
RAW = {
    "throughput_cases_per_s": "1/s",
    "case_ms_p50": "ms",
    "case_ms_p90": "ms",
    "setup_raw_s": "s",
    "failed_frac": "ratio",
    "host_level_median": "ratio",
}


def _run_seconds() -> float:
    """``run_seconds`` of BENCHMARK.json, the run length the bounds were set on."""
    try:
        return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 35.0


def _load_library():
    """Import the library from src/; None when the source tree is missing."""
    if not (SRC / "flowescape" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import flowescape  # noqa: F401

    import workloads

    return workloads


# ===========================================================================
# Machine and input records
# ===========================================================================

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None if not found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "platform": platform.platform(),
    }


def input_record(cases) -> dict:
    """Case counts by kind and the range of each dimension the cases carry."""
    kinds: dict[str, int] = {}
    ranges: dict[str, list[int]] = {}
    for case in cases:
        kinds[case.kind] = kinds.get(case.kind, 0) + 1
        for key, value in case.dims.items():
            lo_hi = ranges.setdefault(key, [value, value])
            lo_hi[0] = min(lo_hi[0], value)
            lo_hi[1] = max(lo_hi[1], value)
    return {"cases": len(cases), "kinds": kinds, "dim_ranges": ranges}


def _label(case) -> str:
    return f"{case.kind} " + json.dumps(case.spec, separators=(",", ":"))[:160]


# ===========================================================================
# The closed loop
# ===========================================================================

def execute(case, fe, check_failed) -> str:
    """Run one case; 'pass' or the name of the exception or missed check."""
    try:
        case.run()
    except check_failed as exc:
        return exc.name
    except fe.DomainError as exc:
        return type(exc).__name__
    except Exception as exc:  # report any crash as a failed case, keep going
        traceback.print_exc(file=sys.stderr)
        return type(exc).__name__
    return "pass"


class Tally:
    """Outcome counts of the executed cases; every outcome but a pass is a
    failure, recorded with its exception or check name and the case."""

    def __init__(self):
        self.attempted = 0
        self.passed = 0
        self.failures: list[str] = []
        self.failure_names: dict[str, int] = {}

    def add(self, case, outcome) -> bool:
        self.attempted += 1
        if outcome == "pass":
            self.passed += 1
            return True
        self.failures.append(f"{outcome}: {_label(case)}")
        self.failure_names[outcome] = self.failure_names.get(outcome, 0) + 1
        return False


class HostProbe:
    """A fixed mix of interpreter and small-LAPACK work that uses no library
    code, timed between cases to read the host's current speed.

    On a shared host the speed of the workloads moves by up to 1.8 times
    over seconds to minutes (see README.md); dividing a case's time by the
    probe's time read around it cancels most of that. Of the kernels tried,
    this pair tracked all three workloads best; memory-bound kernels
    (matrix-vector products, array passes) tracked them worse.
    """

    def __init__(self):
        import numpy as np

        self.matrix = np.random.default_rng(0).random((64, 64))
        self.readings: list[tuple[float, float]] = []  # (end time, seconds)
        self.run()
        self.readings.clear()  # the first reading warms caches up

    def run(self) -> float:
        import numpy as np

        clock = time.perf_counter
        start = clock()
        total = 0
        for i in range(25_000):
            total += i * i
        np.linalg.eigvals(self.matrix)
        np.linalg.eigvals(self.matrix.T)
        end = clock()
        self.readings.append((end, end - start))
        return end - start

    def since(self, begin: float) -> float:
        """Seconds the probe itself took after ``begin``."""
        return sum(seconds for end, seconds in self.readings if end > begin)

    def levels(self, spans):
        """Host slowness over each (start, end) span, relative to REF_PROBE_S:
        the median of the readings that end within the span widened on each
        side by its own length (at least MIN_WINDOW_S), and at least the
        readings just before and after it. A ten-second case is so judged by
        the host over some thirty seconds, not by the two readings at its
        ends, which differ from its own average by up to 1.3 times."""
        import bisect

        ends = [end for end, _ in self.readings]
        out = []
        for start, end in spans:
            pad = max(end - start, MIN_WINDOW_S)
            lo = min(bisect.bisect_left(ends, start - pad), max(bisect.bisect_left(ends, start) - 1, 0))
            hi = max(bisect.bisect_right(ends, end + pad), bisect.bisect_left(ends, end) + 1)
            window = [seconds for _, seconds in self.readings[lo:hi]]
            out.append(statistics.median(window) / REF_PROBE_S)
        return out


def one_pass(cases, fe, check_failed, tally, probe=None):
    """Run the case list once, reading the host probe at the start and after
    every case. Returns the pass's wall time less the probe's own time, and
    each case's (start, end, passed)."""
    clock = time.perf_counter
    begin = clock()
    if probe is not None:
        probe.run()
    times = []
    for case in cases:
        start = clock()
        outcome = execute(case, fe, check_failed)
        end = clock()
        times.append((start, end, tally.add(case, outcome)))
        if probe is not None:
            probe.run()
    if probe is not None:
        return clock() - begin - probe.since(begin), times
    return clock() - begin, times


def timed_loop(cases, fe, check_failed, seconds, min_timed=MIN_TIMED, probe=None):
    """Repeat whole passes over the case list while the next one is expected
    to end within ``seconds`` and until ``min_timed`` cases have passed;
    returns the tally and, per pass, its wall time and case times."""
    tally = Tally()
    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(one_pass(cases, fe, check_failed, tally, probe))
        elapsed = time.perf_counter() - begin
        fits = elapsed + elapsed / len(passes) <= seconds
        if tally.passed == 0 or not (fits or tally.passed < min_timed):
            return tally, passes


def setup_seconds(workload: str, seed: int, repeats: int) -> list[tuple[float, float]]:
    """Process start to first-case readiness, measured on fresh processes;
    (raw, normalized) seconds for each.

    Each child imports the library, generates the cases and notes its
    monotonic clock reading (system-wide on Linux) when it is ready; it then
    reads the host probe SETUP_PROBES times and prints both. The child's own
    probe tracks the speed its set-up ran at better than the parent's does.
    """
    out = []
    for _ in range(repeats):
        begin = time.monotonic()
        child = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
             "--setup-only"],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        ready, probe_s = (float(v) for v in child.stdout.split()[-2:])
        seconds = ready - begin
        out.append((seconds, seconds * REF_PROBE_S / probe_s))
    return out


def quantile(values, q):
    """Harrell-Davis estimate of the q-quantile: the mean of all order
    statistics weighted by a Beta((n+1)q, (n+1)(1-q)) density over their
    ranks (Harrell and Davis, Biometrika 1982). Case times are lumpy, with
    a few distinct cases 1.2-1.5 times apart around each quantile; on them
    this estimate spreads between runs about half as much as the single
    order statistic does."""
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    if n <= 1:  # no passing case: nan, and correct is false anyway
        return float(x[0]) if n else float("nan")
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    steps = 32  # midpoint rule, per rank interval [i/n, (i+1)/n]
    mid = (np.arange(n * steps) + 0.5) / (n * steps)
    log_pdf = (a - 1.0) * np.log(mid) + (b - 1.0) * np.log1p(-mid)
    weight = np.exp(log_pdf - log_pdf.max()).reshape(n, steps).sum(axis=1)
    return float(weight @ x / weight.sum())


def end_to_end(workload, seed, seconds, cases, fe, check_failed, min_timed=MIN_TIMED):
    # Half the set-up processes run before the timed loop and half after, so
    # their median spans the run rather than one moment of the host.
    setups = setup_seconds(workload, seed, SETUP_REPEATS // 2)
    probe = HostProbe()
    tally, passes = timed_loop(cases, fe, check_failed, seconds, min_timed, probe)
    setups += setup_seconds(workload, seed, SETUP_REPEATS - SETUP_REPEATS // 2)
    executions = [t for _, case_times in passes for t in case_times]
    levels = probe.levels([(start, end) for start, end, _ in executions])
    norm = [(end - start) / level for (start, end, _), level in zip(executions, levels)]
    passed = [end - start for start, end, ok in executions if ok]
    passed_norm = [t for t, (_, _, ok) in zip(norm, executions) if ok]
    metrics = {
        "throughput_norm_cases_per_s": len(passed_norm) / sum(norm),
        "case_norm_ms_p50": 1e3 * quantile(passed_norm, 0.5),
        "case_norm_ms_p90": 1e3 * quantile(passed_norm, 0.9),
        "setup_s": statistics.median(norm_setup for _, norm_setup in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = sum(w for w, _ in passes)
    extra = {
        "throughput_cases_per_s": len(passed) / wall,
        "case_ms_p50": 1e3 * quantile(passed, 0.5),
        "case_ms_p90": 1e3 * quantile(passed, 0.9),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "failed_frac": len(tally.failures) / tally.attempted,
        "host_level_median": statistics.median(levels),
        "probe_readings_s": probe.readings,
        "pass_walls_s": [w for w, _ in passes],
        "pass_case_s": [[end - start for start, end, _ in case_times] for _, case_times in passes],
        "case_norm_s": norm,
        "timed_cases": len(passed),
        "setup_runs_s": setups,
    }
    return tally, metrics, extra


def traced(cases, fe, check_failed):
    """One traced pass between two untraced ones; the overhead is the traced
    wall time minus the mean of the untraced ones, which cancels a linear
    drift of the host."""
    from tracer import Tracer

    tally = Tally()
    before, _ = one_pass(cases, fe, check_failed, tally)
    tracer = Tracer()
    with tracer:
        traced_wall, _ = one_pass(cases, fe, check_failed, tally)
    after, _ = one_pass(cases, fe, check_failed, tally)
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = traced_wall - 0.5 * (before + after)
    walls = {"untraced_wall_s": [before, after], "traced_wall_s": traced_wall}
    return tally, metrics, walls, tracer


def run_workload(workload, seed, seconds, trace, tiny=False, min_timed=MIN_TIMED, save=True):
    """Generate, run and check one workload; returns the result record."""
    import flowescape as fe
    import workloads

    cases = workloads.generate(workload, seed, tiny=tiny)
    if trace:
        tally, metrics, extra, tracer = traced(cases, fe, workloads.CheckFailed)
    else:
        tally, metrics, extra = end_to_end(
            workload, seed, seconds, cases, fe, workloads.CheckFailed, min_timed
        )
        tracer = None
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(),
        "inputs": input_record(cases),
        "metrics": metrics,
        "extra": extra,
        "attempted": tally.attempted,
        "passed": tally.passed,
        "failure_names": tally.failure_names,
        "failures": tally.failures,
    }
    if save:
        OUT.mkdir(exist_ok=True)
        stem = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
        stem.with_suffix(".json").write_text(json.dumps(record, indent=1, sort_keys=True))
        if tracer is not None:
            tracer.save(stem.with_suffix(".spans.npz"))
    return record


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def report(record) -> dict:
    """Print the human-readable lines; return the JSON result object."""
    m = record["machine"]
    inputs = record["inputs"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(
        f"machine  nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
        f"blas {m['blas']}  blas_threads {m['blas_threads']}"
    )
    print(f"inputs   {inputs['cases']} cases {inputs['kinds']}  dims {inputs['dim_ranges']}")
    for name, value in record["metrics"].items():
        print(f"  {name:52s} {value:14.6g} {_unit(name)}")
    if not record["trace"]:
        for name, unit in RAW.items():
            print(f"  {name:52s} {record['extra'][name]:14.6g} {unit}")
        print(
            f"timed    {record['extra']['timed_cases']} passing case executions "
            f"in {len(record['extra']['pass_walls_s'])} passes"
        )
    for name, count in sorted(record["failure_names"].items()):
        print(f"failed x{count}  {name}")
    for label in sorted(set(record["failures"]))[:20]:
        print(f"FAILED  {label}")
    failed = len(record["failures"])
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in record["metrics"].items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__)), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            raise SystemExit(child.returncode)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=_run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if _load_library() is None:
        print(f"flowescape source not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        import workloads

        workloads.generate(args.workload, args.seed)
        ready = time.monotonic()
        probe = HostProbe()
        for _ in range(SETUP_PROBES):
            probe.run()
        print(ready, statistics.median(seconds for _, seconds in probe.readings))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = report(run_workload(args.workload, args.seed, args.seconds, args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
