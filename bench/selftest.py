"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Checks that the same seed yields the same case list (and another seed
another one), that a rate shifted by 1e-6 fails the tight checks, that the
benchmark's own survival DP matches the library's and flags a hole whose
slope-fit window is biased, that a library error counts as a failed case, and
that every workload runs end to end and traced at a tiny size, printing
exactly the metrics BENCHMARK.json names.
Prints one line per check; exits 1 on any miss.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import sys

import run

FAILED: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        FAILED.append(what)


@contextlib.contextmanager
def shifted_rate(fe, delta):
    """Make ``flowescape.escape_rate_flow`` return its value plus ``delta``."""
    original = fe.escape_rate_flow
    fe.escape_rate_flow = lambda *args, **kwargs: original(*args, **kwargs) + delta
    try:
        yield
    finally:
        fe.escape_rate_flow = original


def main() -> int:
    workloads = run._load_library()
    if workloads is None:
        print(f"flowescape source not found under {run.SRC}", file=sys.stderr)
        return 2
    import flowescape as fe
    import numpy as np

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    for name in workloads.WORKLOADS:
        first = [json.dumps(c.spec) for c in workloads.generate(name, 7)]
        again = [json.dumps(c.spec) for c in workloads.generate(name, 7)]
        other = [json.dumps(c.spec) for c in workloads.generate(name, 8)]
        check(first == again, f"{name}: seed 7 gives the same case list twice")
        check(first != other, f"{name}: seed 8 gives another case list")

    # (workload, case kind, rate shift): the shift beats the check's tolerance.
    for name, kind, delta in (
        ("tall-tower", "tower", 1e-6),
        ("zeta-grid", "lattice", 1e-6),
        ("zeta-grid", "grid", 1e-6),
        ("survival-dp", "slope", 1e-5),
    ):
        case = next(c for c in workloads.generate(name, 7, tiny=True) if c.kind == kind)
        clean = run.execute(case, fe, workloads.CheckFailed)
        with shifted_rate(fe, delta):
            shifted = run.execute(case, fe, workloads.CheckFailed)
        check(clean == "pass", f"{name}/{kind}: unshifted rate passes")
        check(shifted != "pass", f"{name}/{kind}: rate + {delta:g} fails ({shifted})")

    # The benchmark's own survival DP, which screens slope holes, agrees with
    # the library's, and flags a hole whose fit window is biased.
    golden = [[0.5, 0.5], [1.0, 0.0]]
    gm = fe.build_markov_shift(golden)
    for hole in ((0, 0), (0, 1, 0, 0, 1), (0, 0, 1, 0, 1, 0, 1, 0)):
        own = workloads._log_survival(np.array(golden), hole, 30)
        lib = [math.log(fe.survival_measure_exact(gm, hole, n)) for n in (len(hole), 20, 30)]
        gap = max(abs(own[n] - v) for n, v in zip((len(hole), 20, 30), lib))
        check(gap < 1e-12, f"survival-dp: own survival DP matches the library on {hole} ({gap:.1e})")
    bias = workloads.slope_window_bias(np.array(golden), (0, 0, 1, 0, 1, 0, 1, 0))
    check(
        bias > workloads.SLOPE_BIAS_MAX,
        f"survival-dp: the window-bias screen flags 00101010 on the golden mean ({bias:.1e})",
    )

    # A slope case that makes the library raise (a golden-mean hole of length
    # 14: 2^14 states exceed its cap) counts as failed.
    long_case = workloads.Case(
        kind="slope",
        spec={"P": golden, "hole": (0, 1) * 7},
        run=functools.partial(workloads._slope_case, gm, (0, 1) * 7),
    )
    tally = run.Tally()
    outcome = run.execute(long_case, fe, workloads.CheckFailed)
    tally.add(long_case, outcome)
    check(
        tally.passed == 0 and len(tally.failures) == 1,
        f"survival-dp: a slope case on which the library raises counts as failed ({outcome})",
    )

    for name in workloads.WORKLOADS:
        for trace, wanted in ((0, end_to_end), (1, per_layer)):
            with contextlib.redirect_stdout(io.StringIO()):
                record = run.run_workload(name, 3, 0.0, trace, tiny=True, min_timed=1, save=False)
                result = run.report(record)
            label = f"{name}: tiny run trace {trace}"
            check(result["correct"] and result["failed"] == 0, f"{label} is correct")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            check(units == wanted, f"{label} prints the listed metrics and units")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
