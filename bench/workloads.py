"""Seeded inputs and checked cases for the three benchmark workloads.

Every case is generated here from the workload seed before timing starts, as
plain library inputs (shifts, ceilings, hole words). ``Case.run`` makes the
library calls of one case and checks each result against an independent
route, raising ``CheckFailed`` on a miss. Library functions are looked up on
the ``flowescape`` package at call time, so the tracer can swap them for span
recorders without touching this file.

Generation uses only this file's own code (admissible words, irreducibility,
reducedness, whether any hole-avoiding cycle survives, and a survival DP that
screens slope holes) and the library's input constructors; no library rate or
matrix routine runs before timing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

import flowescape as fe

WORKLOADS = ("tall-tower", "zeta-grid", "survival-dp")

# Structures (shift, jittered ceiling, hole) of the tall-tower cases and of
# the zeta-grid lattice pairs are drawn once from the continuity property
# suite's seed; the workload seed perturbs every transition probability by up
# to 10% on them. Refined-radius cost is set by the tower structure and the
# spectral gap, and spans three orders of magnitude (1 ms to 7 s): fresh
# structures per seed make the median and p90 of a run swing by 40-75%
# between seeds. The perturbation leaves each case's cost within ~10%.
STRUCTURE_SEED = 1005
# The first 100 usable draws of the continuity suite: refined dimensions
# 39-1255, 64% of them with every surviving component small enough for
# matrix_spectral_radius to take dense eigenvalues, the rest power iteration.
# Case costs spread over four decades; with the first 60 draws the p50 fell
# between cases 1.7x apart (7 and 12 ms), so noise flipped it between them.
TOWER_CASES = 100

LATTICE_EPSILON = 0.1  # rationalization step; lattice = epsilon / 2 = 0.05
JITTER = 0.04

NAMED_SHIFTS = {
    "full2": [[0.5, 0.5], [0.5, 0.5]],
    "gm": [[0.5, 0.5], [1.0, 0.0]],
    "biased2": [[0.9, 0.1], [0.2, 0.8]],
    "full3": [[1.0 / 3.0] * 3] * 3,
}
GRID_CEILINGS = ("unit", "step0", "order2")

# Criteria 5-9 shrinking-hole families: (shift, ceiling, periodic base word).
FAMILY_SPECS = (
    ("full2", "unit", (0,)),
    ("full2", "unit", (0, 1)),
    ("full2", "step0", (0, 1)),
    ("gm", "step0", (0, 1)),
    ("gm", "unit", (0,)),
    ("full3", "step1", (0,)),
    ("full2", "const2", (0,)),
)
FAMILY_NUS = tuple(range(4, 11))

# zeta-grid part (b): one lattice-0.05 pair per bordered-dimension bin, so
# the Faddeev-LeVerrier passes (cost ~ dim^4) span the dense range.
BORDERED_BINS = tuple(range(60, 321, 20))  # [60, 80), ..., [300, 320)

# survival-dp plan: (shift kind, hole length) per slope case. Every part of
# the workload has two seeded cases per setting, so case times lie close
# enough together around the p50 and p90 that a seed moves them little.
# Golden-mean-type holes stop at length 12: from 13 on the slope route raises
# RefinementTooLargeError on every hole (it charges 2^m states against its
# cap of 4096), and a benchmark workload must run without failures.
SLOPE_PLAN = tuple(
    (kind, m)
    for kind, lengths in (("full2", range(6, 11)), ("full3", range(4, 7)), ("gm-type", range(8, 13)))
    for m in lengths
    for _ in range(2)
)
# The slope route fits log survival over n in [20, 60]. Holes whose survival
# tail is not yet geometric there (on golden-mean-type shifts, about one hole
# in ten of length 8-12, such as 00101010) give a slope that misses the rate
# by up to 1.2e-4, beyond the 1e-6 check. The benchmark's own survival DP
# measures that window bias at generation, and a hole whose bias exceeds
# SLOPE_BIAS_MAX is redrawn; the count of redraws goes into the case spec.
SLOPE_WINDOW = (20, 60)
SLOPE_TAIL_N = 600
SLOPE_BIAS_MAX = 2e-7
PRESSURE_T_MAX = 200.0
PRESSURE_CASES = 12
DEVIATION_L_MAX = (100, 100, 200, 200, 400, 400)
DEVIATION_KS = (5, 10, 20, 40)
DEVIATION_EPSILON = 0.25
DEVIATION_SAMPLES = 20_000
# Two survival cases per named shift; every length-3 hole keeps at least 400
# of the 1e5 samples alive to t = 16.
SURVIVAL_PLAN = (("full2", "step1"), ("gm", "step0"), ("biased2", "unit"), ("full3", "step0"))
SURVIVAL_T_MAX = 16
SURVIVAL_SAMPLES = 100_000
MC_SIGMAS = 5.0

class CheckFailed(Exception):
    """A case result missed its independent check."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name = name


@dataclass
class Case:
    """One closed-loop unit of work with its check.

    ``spec`` is a JSON-able record of the generated inputs (the self-test
    compares it across generations); ``dims`` holds the state-space sizes the
    benchmark computed for it.
    """

    kind: str
    spec: dict
    run: Callable[[], None]
    dims: dict = field(default_factory=dict)


def _expect(ok: bool, name: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(name, detail)


# ===========================================================================
# Graph helpers (the benchmark's own, independent of the library)
# ===========================================================================

def _successors(pattern, a):
    return [b for b in range(len(pattern)) if pattern[a][b]]


def _irreducible(pattern) -> bool:
    n = len(pattern)

    def reaches_all(step):
        seen, stack = {0}, [0]
        while stack:
            a = stack.pop()
            for b in range(n):
                if step(a, b) and b not in seen:
                    seen.add(b)
                    stack.append(b)
        return len(seen) == n

    return reaches_all(lambda a, b: pattern[a][b]) and reaches_all(lambda a, b: pattern[b][a])


def _words(pattern, length):
    words = [(a,) for a in range(len(pattern))]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in _successors(pattern, w[-1])]
    return words


def _reduced(pattern, word) -> bool:
    if len(word) == 1:
        return len(pattern) >= 2
    return any(b != word[-1] for b in _successors(pattern, word[-2]))


def _surviving_components(pattern, hole, order=1):
    """Strongly connected components that carry a cycle in the graph of
    hole-free words of length max(order, len(hole)); empty exactly when the
    escape rate is infinite (no bi-infinite path avoids the hole)."""
    q = max(order, len(hole))
    states = [w for w in _words(pattern, q) if w[: len(hole)] != hole]
    alive = set(states)
    succ = {
        w: [v for v in (w[1:] + (b,) for b in _successors(pattern, w[-1])) if v in alive]
        for w in states
    }
    pred = {w: [] for w in states}
    for w in states:
        for v in succ[w]:
            pred[v].append(w)
    finished, seen = [], set()
    for root in states:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(succ[root]))]
        while stack:
            node, rest = stack[-1]
            nxt = next((v for v in rest if v not in seen), None)
            if nxt is None:
                stack.pop()
                finished.append(node)
            else:
                seen.add(nxt)
                stack.append((nxt, iter(succ[nxt])))
    components, assigned = [], set()
    for root in reversed(finished):
        if root in assigned:
            continue
        assigned.add(root)
        component, stack = [], [root]
        while stack:
            node = stack.pop()
            component.append(node)
            for v in pred[node]:
                if v not in assigned:
                    assigned.add(v)
                    stack.append(v)
        if len(component) > 1 or component[0] in succ[component[0]]:
            components.append(component)
    return components


def _survives(pattern, hole, order=1) -> bool:
    return bool(_surviving_components(pattern, hole, order))


def _random_word(rng, pattern, length):
    word = [int(rng.integers(0, len(pattern)))]
    while len(word) < length:
        word.append(int(rng.choice(_successors(pattern, word[-1]))))
    return tuple(word)


def _random_pattern(rng):
    """Positive-entry pattern of an irreducible 2- or 3-symbol chain, with
    about 30% of transitions zeroed."""
    while True:
        n = int(rng.integers(2, 4))
        pattern = rng.random((n, n)) >= 0.3
        for i in range(n):
            if not pattern[i].any():
                pattern[i] = True
        if _irreducible(pattern):
            return pattern


def _probabilities(rng, pattern):
    raw = rng.uniform(0.05, 1.0, pattern.shape) * pattern
    return raw / raw.sum(axis=1, keepdims=True)


def _perturbed(rng, base):
    """Each transition probability scaled by a factor in [0.9, 1.1], rows
    renormalized; zero pattern, and with it the case's cost, unchanged."""
    raw = base * rng.uniform(0.9, 1.1, base.shape)
    return raw / raw.sum(axis=1, keepdims=True)


def _jittered_ceiling(rng, n):
    """Order-1 integer ceiling 1..3 per symbol, jittered off its lattice."""
    return {(a,): float(rng.integers(1, 4)) + float(rng.uniform(-JITTER, JITTER)) for a in range(n)}


def _lattice_heights(values):
    """Heights on the lattice epsilon/2, rounded as rationalize_ceiling does."""
    delta = LATTICE_EPSILON / 2.0
    return {w: int(math.floor(v / delta + 0.5)) for w, v in values.items()}


def _rationalized(values):
    return fe.rationalize_ceiling(fe.cylinder_function(1, values), LATTICE_EPSILON)[0]


def _named_ceiling(shift, kind):
    words = _words(shift.transitions > 0.0, 1)
    if kind == "unit":
        return fe.constant_function(shift, 1.0)
    if kind == "const2":
        return fe.constant_function(shift, 2.0)
    if kind.startswith("step"):
        sym = int(kind[4:])
        return fe.cylinder_function(1, {w: 2.0 if w[0] == sym else 1.0 for w in words}, lattice=1.0)
    if kind == "order2":
        pairs = _words(shift.transitions > 0.0, 2)
        values = {w: 2.0 if w[0] == w[1] else 1.0 for w in pairs}
        return fe.cylinder_function(2, values, lattice=1.0)
    raise ValueError(kind)


def _named_shift(name):
    return fe.build_markov_shift(NAMED_SHIFTS[name])


def _rows(matrix):
    return [[float(v) for v in row] for row in np.asarray(matrix)]


# ===========================================================================
# tall-tower
# ===========================================================================

def _tall_tower_case(shift, ceiling, hole):
    system = fe.build_suspension(shift, ceiling)
    rate = fe.escape_rate_flow(system, hole, representation="refined")
    beta = fe.induced_pressure_via_root(shift, ceiling, hole)
    gap = abs(beta + rate)
    _expect(gap < 1e-8, "PressureRootGap", f"|beta* + rate| = {gap:.3e}")


def _largest_component_blocks(pattern, heights, hole):
    return max(
        (sum(heights[w[:1]] for w in comp) for comp in _surviving_components(pattern, hole)),
        default=0,
    )


def _continuity_draw(rng):
    """One draw of the continuity property suite: (probabilities, jittered
    ceiling, hole), making the same generator calls in the same order."""
    while True:
        n = int(rng.integers(2, 4))
        raw = rng.uniform(0.05, 1.0, (n, n))
        keep = raw * (rng.random((n, n)) >= 0.3)
        for i in range(n):
            if keep[i].sum() == 0.0:
                keep[i] = raw[i]
        keep /= keep.sum(axis=1, keepdims=True)
        if _irreducible(keep > 0.0):
            break
    values = {(a,): float(rng.integers(1, 4)) for a in range(n)}
    jittered = {w: v + float(rng.uniform(-JITTER, JITTER)) for w, v in values.items()}
    hole = _random_word(rng, keep > 0.0, int(rng.integers(1, 4)))
    return keep, jittered, hole


def tower_structures(count=TOWER_CASES):
    """The first ``count`` continuity-suite draws with a finite rate, as
    (probabilities, jittered ceiling, hole, refined dimension, blocks of the
    largest surviving component)."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    while len(out) < count:
        probs, values, hole = _continuity_draw(rng)
        pattern = probs > 0.0
        heights = _lattice_heights(values)
        largest = _largest_component_blocks(pattern, heights, hole)
        if largest == 0:
            continue
        refined = sum(heights[w[:1]] for w in _words(pattern, len(hole)))
        out.append((probs, values, hole, refined, largest))
    return out


def _tall_tower(rng, tiny):
    cases = []
    for base, values, hole, refined, largest in tower_structures(3 if tiny else TOWER_CASES):
        probs = _perturbed(rng, base)
        cases.append(
            Case(
                kind="tower",
                spec={"P": _rows(probs), "ceiling": sorted(values.items()), "hole": hole},
                run=partial(
                    _tall_tower_case, fe.build_markov_shift(probs), _rationalized(values), hole
                ),
                dims={
                    "refined": refined,
                    "component": largest,
                    "blocks": sum(_lattice_heights(values).values()),
                    "words": len(_words(base > 0.0, len(hole))),
                },
            )
        )
    return cases


# ===========================================================================
# zeta-grid
# ===========================================================================

def _zeta_pair_case(shift, ceiling, hole):
    system = fe.build_suspension(shift, ceiling)
    bundle = fe.zeta_op_factorized(system, hole)
    _expect(
        bundle.max_deviation < 1e-9,
        "FactorizationDeviation",
        f"{bundle.max_deviation:.3e}",
    )
    cofactor_gap = abs(bundle.cofactor_value - bundle.cofactor_predicted) * system.mass_normalized
    _expect(cofactor_gap < 1e-9, "CofactorGap", f"{cofactor_gap:.3e}")
    rate_zeta = fe.escape_rate_zeta(system, hole)
    rate_bordered = fe.escape_rate_flow(system, hole, representation="bordered")
    gap = abs(rate_zeta - rate_bordered)
    _expect(gap < 1e-9, "ZetaBorderedGap", f"{gap:.3e}")


def _family_case(shift, ceiling, word):
    family = fe.build_family(shift, ceiling, word)
    for order in (1, 2):
        rows = fe.verify_expansion(family, FAMILY_NUS, order)
        for row in rows:
            closed_s1, closed_s2 = fe.expansion_coefficients(family, row.nu, 2).closed_normalized
            _expect(
                abs(row.s1 - closed_s1) <= np.spacing(abs(closed_s1)),
                "S1NotBitExact",
                f"nu {row.nu}: {row.s1!r} vs {closed_s1!r}",
            )
            gap = abs(row.s2 - closed_s2)
            _expect(gap < 1e-9, "S2Gap", f"nu {row.nu}: {gap:.3e}")
    report = fe.local_rate_sweep(shift, ceiling, word, range(family.nu_min + 2, 9))
    rel = abs(report.rows[-1].ratio_ceiling - report.limit_ceiling) / report.limit_ceiling
    _expect(rel < 0.05, "LocalRateGap", f"{rel:.3e}")


def _bordered_dim(heights, order, hole):
    """Bordered dimension: blocks + k0 - 1, where k0 is the ceiling sum over
    the hole's first m - order shifts."""
    k0 = sum(heights[hole[j : j + order]] for j in range(len(hole) - order))
    return sum(heights.values()) + max(k0 - 1, 0)


def lattice_structures(bins=BORDERED_BINS):
    """Fixed lattice-0.05 structures (shift, jittered ceiling, reduced hole of
    length 2..5), one per bordered-dimension bin."""
    rng = np.random.default_rng([STRUCTURE_SEED, 1])
    found = {}
    while len(found) < len(bins) - 1:
        pattern = _random_pattern(rng)
        probs = _probabilities(rng, pattern)
        values = _jittered_ceiling(rng, len(pattern))
        hole = _random_word(rng, pattern, int(rng.integers(2, 6)))
        if not (_reduced(pattern, hole) and _survives(pattern, hole)):
            continue
        dim = _bordered_dim(_lattice_heights(values), 1, hole)
        slot = next((i for i in range(len(bins) - 1) if bins[i] <= dim < bins[i + 1]), None)
        if slot is not None and slot not in found:
            found[slot] = (probs, values, hole, dim)
    return [found[i] for i in sorted(found)]


def _zeta_grid(rng, tiny):
    cases = []
    # (a) criterion 3/4 grid, one reduced finite-rate hole per length 2..5.
    for shift_name in NAMED_SHIFTS:
        shift = _named_shift(shift_name)
        pattern = shift.transitions > 0.0
        for ceiling_kind in GRID_CEILINGS:
            ceiling = _named_ceiling(shift, ceiling_kind)
            for length in (2,) if tiny else (2, 3, 4, 5):
                holes = [w for w in _words(pattern, length) if _reduced(pattern, w)]
                hole = holes[int(rng.integers(0, len(holes)))]
                while not _survives(pattern, hole, ceiling.order):
                    hole = holes[int(rng.integers(0, len(holes)))]
                heights = {w: int(round(v)) for w, v in ceiling.values.items()}
                cases.append(
                    Case(
                        kind="grid",
                        spec={"shift": shift_name, "ceiling": ceiling_kind, "hole": hole},
                        run=partial(_zeta_pair_case, shift, ceiling, hole),
                        dims={
                            "bordered": _bordered_dim(heights, ceiling.order, hole),
                            "blocks": sum(heights.values()),
                            "words": len(heights),
                        },
                    )
                )
            if tiny:
                break
        if tiny:
            break
    # (b) lattice-0.05 pairs on fixed structures, one per bordered bin.
    for base, values, hole, dim in lattice_structures(BORDERED_BINS[:2] if tiny else BORDERED_BINS):
        probs = _perturbed(rng, base)
        heights = _lattice_heights(values)
        cases.append(
            Case(
                kind="lattice",
                spec={"P": _rows(probs), "ceiling": sorted(values.items()), "hole": hole},
                run=partial(
                    _zeta_pair_case, fe.build_markov_shift(probs), _rationalized(values), hole
                ),
                dims={"bordered": dim, "blocks": sum(heights.values()), "words": len(heights)},
            )
        )
    # (c) the seven shrinking-hole families.
    for shift_name, ceiling_kind, word in FAMILY_SPECS[:1] if tiny else FAMILY_SPECS:
        shift = _named_shift(shift_name)
        cases.append(
            Case(
                kind="family",
                spec={"shift": shift_name, "ceiling": ceiling_kind, "word": word},
                run=partial(_family_case, shift, _named_ceiling(shift, ceiling_kind), word),
            )
        )
    return cases


# ===========================================================================
# survival-dp
# ===========================================================================

def _slope_case(shift, hole):
    system = fe.build_suspension(shift, fe.constant_function(shift, 1.0))
    rate = fe.escape_rate_flow(system, hole)
    slope = fe.escape_rate_from_survival_slope(shift, hole)
    gap = abs(slope - rate)
    _expect(gap < 1e-6, "SlopeRateGap", f"|slope - rate| = {gap:.3e}")


def _truncated_case(shift, ceiling, hole):
    rate = fe.escape_rate_flow(fe.build_suspension(shift, ceiling), hole)
    estimate = fe.induced_pressure_truncated(shift, ceiling, hole, t_max=PRESSURE_T_MAX)
    gap = abs(estimate + rate)
    _expect(gap < 0.05, "TruncatedPressureGap", f"{gap:.3e}")


def _binomial_ok(estimate, exact, samples):
    """Within MC_SIGMAS standard errors of the exact probability (plus half a
    sample of resolution, so exact 0 or 1 needs an exact match)."""
    se = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
    return abs(estimate - exact) <= MC_SIGMAS * se + 0.5 / samples


def _deviation_case(shift, ceiling, l_max, sample_seed):
    config = fe.SimulationConfig(seed=sample_seed, samples=DEVIATION_SAMPLES, t_max=1)
    exact = fe.exact_deviation_prob(shift, ceiling, DEVIATION_EPSILON, DEVIATION_KS, l_max)
    estimate = fe.estimate_deviation_prob(
        shift, ceiling, DEVIATION_EPSILON, DEVIATION_KS, config, l_max=l_max
    )
    for k, p_exact, p_hat in zip(DEVIATION_KS, exact, estimate.probabilities):
        _expect(
            _binomial_ok(float(p_hat), p_exact, DEVIATION_SAMPLES),
            "DeviationOutside5Sigma",
            f"k {k}: sampled {float(p_hat):.5f} vs exact {p_exact:.5f}",
        )


def _survival_case(shift, ceiling, hole, sample_seed):
    system = fe.build_suspension(shift, ceiling)
    curve = fe.survival_curve_flow(system, hole, SURVIVAL_T_MAX)
    config = fe.SimulationConfig(
        seed=sample_seed, samples=SURVIVAL_SAMPLES, t_max=SURVIVAL_T_MAX, confidence_z=MC_SIGMAS
    )
    estimate = fe.estimate_survival(system, hole, config)
    for t in range(1, SURVIVAL_T_MAX + 1):
        _expect(
            _binomial_ok(float(estimate.estimates[t]), float(curve[t]), SURVIVAL_SAMPLES),
            "SurvivalOutside5Sigma",
            f"t {t}: sampled {float(estimate.estimates[t]):.5f} vs exact {float(curve[t]):.5f}",
        )
    fit = fe.fit_escape_rate(estimate)
    lo_t, hi_t = fit.window
    exact_rates = [
        -math.log(float(curve[t])) / (t * system.lattice_scale) for t in range(lo_t, hi_t + 1)
    ]
    _expect(
        fit.lower <= min(exact_rates) and max(exact_rates) <= fit.upper,
        "FitBracketMissesExactCurve",
        f"[{fit.lower:.5f}, {fit.upper:.5f}] vs exact "
        f"[{min(exact_rates):.5f}, {max(exact_rates):.5f}]",
    )


def _seeded_shift(rng, kind):
    if kind == "gm-type":
        p = float(rng.uniform(0.4, 0.6))
        return np.array([[p, 1.0 - p], [1.0, 0.0]])
    n = 2 if kind == "full2" else 3
    probs = rng.uniform(0.5, 1.0, (n, n))
    return probs / probs.sum(axis=1, keepdims=True)


def _log_survival(probs, hole, n_max):
    """log of the stationary mass of n-words avoiding ``hole``, n = 0..n_max,
    by propagating mass over the last m-1 letters (the benchmark's own DP)."""
    n, m = len(probs), len(hole)
    vals, vecs = np.linalg.eig(probs.T)
    pi = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    pi /= pi.sum()
    size = n ** (m - 1)
    mass = pi
    for _ in range(m - 2):  # words of length m - 1, coded base n
        mass = (mass[:, None] * probs[np.arange(len(mass)) % n]).ravel()
    # One link per (state, next letter): appending b to state c reads the
    # m-word c * n + b, killed when it is the hole, and lands on its suffix.
    src = np.repeat(np.arange(size), n)
    word = src * n + np.tile(np.arange(n), size)
    weight = probs[src % n, word % n]
    weight[word == sum(a * n ** (m - 1 - i) for i, a in enumerate(hole))] = 0.0
    dest = word % size
    out = np.zeros(n_max + 1)
    log_total = 0.0
    for length in range(m, n_max + 1):
        mass = np.bincount(dest, weights=mass[src] * weight, minlength=size)
        total = mass.sum()
        log_total += math.log(total)
        mass /= total
        out[length] = log_total
    return out


def slope_window_bias(probs, hole) -> float:
    """|least-squares slope of -log survival over SLOPE_WINDOW - rate|, with
    the rate read off the survival ratio at n = SLOPE_TAIL_N."""
    log_s = _log_survival(probs, hole, SLOPE_TAIL_N)
    ns = np.arange(SLOPE_WINDOW[0], SLOPE_WINDOW[1] + 1)
    slope = -float(np.polyfit(ns.astype(float), log_s[ns], 1)[0])
    tail = float(log_s[SLOPE_TAIL_N - 1] - log_s[SLOPE_TAIL_N])
    return abs(slope - tail)


def _survival_dp(rng, tiny):
    cases = []
    plan = SLOPE_PLAN[:1] if tiny else SLOPE_PLAN
    for kind, length in plan:
        probs = _seeded_shift(rng, kind)
        pattern = probs > 0.0
        hole = _random_word(rng, pattern, length)
        redrawn = 0
        while slope_window_bias(probs, hole) > SLOPE_BIAS_MAX:
            hole = _random_word(rng, pattern, length)
            redrawn += 1
        cases.append(
            Case(
                kind="slope",
                spec={"P": _rows(probs), "hole": hole, "redrawn": redrawn},
                run=partial(_slope_case, fe.build_markov_shift(probs), hole),
                dims={"words": len(_words(pattern, length))},
            )
        )
    patterns = {name: np.array(rows) > 0.0 for name, rows in NAMED_SHIFTS.items()}
    grid = [
        (shift_name, ceiling_kind, hole)
        for shift_name, pattern in patterns.items()
        for ceiling_kind in GRID_CEILINGS
        for length in (2, 3)
        for hole in _words(pattern, length)
        if _reduced(pattern, hole) and _survives(pattern, hole)
    ]
    picks = rng.choice(len(grid), size=1 if tiny else PRESSURE_CASES, replace=False)
    for idx in sorted(int(i) for i in picks):
        shift_name, ceiling_kind, hole = grid[idx]
        shift = _named_shift(shift_name)
        cases.append(
            Case(
                kind="truncated",
                spec={"shift": shift_name, "ceiling": ceiling_kind, "hole": hole},
                run=partial(_truncated_case, shift, _named_ceiling(shift, ceiling_kind), hole),
            )
        )
    for l_max in DEVIATION_L_MAX[:1] if tiny else DEVIATION_L_MAX:
        probs = _seeded_shift(rng, "full2")
        # Heights 1-2 with both present, so the DP's ceiling-sum axis is
        # always 2 * l_max long.
        heights = {w: float(rng.integers(1, 3)) for w in _words(probs > 0.0, 2)}
        heights[(0, 0)], heights[(1, 1)] = 1.0, 2.0
        sample_seed = int(rng.integers(0, 2**31))
        cases.append(
            Case(
                kind="deviation",
                spec={
                    "P": _rows(probs),
                    "ceiling": sorted(heights.items()),
                    "l_max": l_max,
                    "seed": sample_seed,
                },
                run=partial(
                    _deviation_case,
                    fe.build_markov_shift(probs),
                    fe.cylinder_function(2, heights, lattice=1.0),
                    l_max,
                    sample_seed,
                ),
            )
        )
    for shift_name, ceiling_kind in SURVIVAL_PLAN[:1] if tiny else SURVIVAL_PLAN * 2:
        pattern = patterns[shift_name]
        holes = [w for w in _words(pattern, 3) if _survives(pattern, w)]
        hole = holes[int(rng.integers(0, len(holes)))]
        sample_seed = int(rng.integers(0, 2**31))
        shift = _named_shift(shift_name)
        cases.append(
            Case(
                kind="survival",
                spec={
                    "shift": shift_name,
                    "ceiling": ceiling_kind,
                    "hole": hole,
                    "seed": sample_seed,
                },
                run=partial(
                    _survival_case, shift, _named_ceiling(shift, ceiling_kind), hole, sample_seed
                ),
            )
        )
    return cases


_GENERATORS = {"tall-tower": _tall_tower, "zeta-grid": _zeta_grid, "survival-dp": _survival_dp}


def generate(workload: str, seed: int, tiny: bool = False) -> list[Case]:
    """The workload's case list; the same (workload, seed) gives the same list."""
    tag = WORKLOADS.index(workload)
    rng = np.random.default_rng([int(seed), tag])
    return _GENERATORS[workload](rng, tiny)
