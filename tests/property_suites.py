"""Randomized invariant suites shared by the property and acceptance tests.

Each ``run_*`` function draws ``trials`` independent random cases from a seeded
generator and returns a list of violation descriptions (empty = pass). Draws
that leave the invariant's hypotheses (infinite rates, rejected pressures) are
redrawn rather than counted, with a hard cap on attempts.
"""

from __future__ import annotations

import math

import numpy as np

from flowescape import (
    NotIrreducibleError,
    PressureNotNegativeError,
    admissible_words,
    build_markov_shift,
    build_suspension,
    cylinder_function,
    escape_rate_block_hole,
    escape_rate_flow,
    rationalize_ceiling,
    refine_cylinder_function,
    refine_suspension,
    superadditivity_check,
)

MAX_DRAWS_PER_TRIAL = 40


def random_shift(rng):
    """An irreducible row-stochastic matrix on 2 or 3 symbols, some entries zeroed."""
    while True:
        n = int(rng.integers(2, 4))
        raw = rng.uniform(0.05, 1.0, (n, n))
        keep = raw * (rng.random((n, n)) >= 0.3)
        for i in range(n):
            if keep[i].sum() == 0.0:
                keep[i] = raw[i]
        keep /= keep.sum(axis=1, keepdims=True)
        try:
            return build_markov_shift(keep)
        except NotIrreducibleError:
            continue


def random_integer_ceiling(rng, shift, low=1, high=3):
    values = {w: float(rng.integers(low, high + 1)) for w in admissible_words(shift, 1)}
    return cylinder_function(1, values, lattice=1.0)


def random_hole(rng, shift, max_len=3):
    length = int(rng.integers(1, max_len + 1))
    word = [int(rng.integers(0, shift.alphabet_size))]
    while len(word) < length:
        word.append(int(rng.choice(shift.successors(word[-1]))))
    return tuple(word)


def _rate(system, hole):
    return escape_rate_flow(system, hole, representation="refined")


def _run(seed, trials, one_trial):
    """Drive one_trial(rng) -> violation string | None | skip sentinel."""
    rng = np.random.default_rng(seed)
    violations = []
    completed = 0
    draws = 0
    while completed < trials:
        draws += 1
        if draws > trials * MAX_DRAWS_PER_TRIAL:
            violations.append(f"only {completed}/{trials} usable draws")
            break
        outcome = one_trial(rng)
        if outcome is _SKIP:
            continue
        completed += 1
        if outcome is not None:
            violations.append(outcome)
    return violations


_SKIP = object()


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def run_hole_monotonicity(seed=1001, trials=100):
    """A longer hole word names a smaller hole, so its rate cannot be larger."""

    def trial(rng):
        shift = random_shift(rng)
        system = build_suspension(shift, random_integer_ceiling(rng, shift))
        hole = random_hole(rng, shift, max_len=2)
        succ = shift.successors(hole[-1])
        extended = hole + (int(rng.choice(succ)),)
        big, small = _rate(system, hole), _rate(system, extended)
        if math.isinf(big):
            return _SKIP
        if small > big + 1e-12:
            return f"hole {hole} -> {extended}: rate grew {big} -> {small}"
        return None

    return _run(seed, trials, trial)


def run_ceiling_antitone(seed=1002, trials=100):
    """Raising the ceiling anywhere can only slow escape."""

    def trial(rng):
        shift = random_shift(rng)
        low = random_integer_ceiling(rng, shift)
        raised = cylinder_function(
            1,
            {w: v + float(rng.integers(0, 3)) for w, v in low.values.items()},
            lattice=1.0,
        )
        hole = random_hole(rng, shift)
        rate_low = _rate(build_suspension(shift, low), hole)
        rate_high = _rate(build_suspension(shift, raised), hole)
        if math.isinf(rate_low) and math.isinf(rate_high):
            return None
        if math.isinf(rate_low) != math.isinf(rate_high):
            return f"hole {hole}: one rate infinite ({rate_low}, {rate_high})"
        if rate_high > rate_low + 1e-12:
            return f"hole {hole}: raised ceiling sped escape {rate_low} -> {rate_high}"
        return None

    return _run(seed, trials, trial)


def run_scaling(seed=1003, trials=100):
    """rho(A, c * phi) = rho(A, phi) / c, exactly up to 1e-10."""

    def trial(rng):
        shift = random_shift(rng)
        ceiling = random_integer_ceiling(rng, shift)
        factor = float(rng.choice([0.5, 2.0, 3.0]))
        scaled = cylinder_function(
            1,
            {w: factor * v for w, v in ceiling.values.items()},
            lattice=factor * ceiling.lattice,
        )
        hole = random_hole(rng, shift)
        base = _rate(build_suspension(shift, ceiling), hole)
        if math.isinf(base):
            return _SKIP
        got = _rate(build_suspension(shift, scaled), hole)
        if abs(got - base / factor) > 1e-10:
            return f"hole {hole}, factor {factor}: {got} != {base / factor}"
        return None

    return _run(seed, trials, trial)


def run_coboundary(seed=1004, trials=100):
    """Adding chi(theta x) - chi(x) to the ceiling leaves every rate unchanged."""

    def trial(rng):
        shift = random_shift(rng)
        ceiling = random_integer_ceiling(rng, shift, low=2, high=4)
        chi = {a: float(rng.integers(0, 2)) for a in range(shift.alphabet_size)}
        refined = refine_cylinder_function(shift, ceiling, 2)
        twisted = cylinder_function(
            2,
            {w: v + chi[w[1]] - chi[w[0]] for w, v in refined.values.items()},
            lattice=1.0,
        )
        hole = random_hole(rng, shift)
        base = _rate(build_suspension(shift, ceiling), hole)
        if math.isinf(base):
            return _SKIP
        got = _rate(build_suspension(shift, twisted), hole)
        if abs(got - base) > 1e-9:
            return f"hole {hole}, chi {chi}: {base} != {got}"
        return None

    return _run(seed, trials, trial)


def run_continuity(seed=1005, trials=100):
    """Rationalizing a jittered ceiling moves the rate by at most the
    pointwise sandwich rho(phi)/(1 +- d/min phi)."""

    def trial(rng):
        shift = random_shift(rng)
        ceiling = random_integer_ceiling(rng, shift)
        jitter = {
            w: v + float(rng.uniform(-0.04, 0.04)) for w, v in ceiling.values.items()
        }
        rounded, _err = rationalize_ceiling(cylinder_function(1, jitter), 0.1)
        gap = max(abs(rounded.value(w) - ceiling.value(w)) for w in ceiling.values)
        floor = min(ceiling.values.values())
        if gap >= floor:
            return _SKIP
        hole = random_hole(rng, shift)
        base = _rate(build_suspension(shift, ceiling), hole)
        if math.isinf(base):
            return _SKIP
        got = _rate(build_suspension(shift, rounded), hole)
        lo = base / (1.0 + gap / floor)
        hi = base / (1.0 - gap / floor)
        if not (lo - 1e-12 <= got <= hi + 1e-12):
            return f"hole {hole}: {got} outside [{lo}, {hi}]"
        return None

    return _run(seed, trials, trial)


def run_block_shadow(seed=1006, trials=100):
    """All unit slabs over one cylinder share a single escape rate."""

    def trial(rng):
        shift = random_shift(rng)
        system = build_suspension(shift, random_integer_ceiling(rng, shift))
        tall = [i for i, h in enumerate(system.heights) if h >= 2]
        if not tall:
            return _SKIP
        word = system.words[int(rng.choice(tall))]
        height = int(system.heights[system.words.index(word)])
        rates = [
            escape_rate_block_hole(system, (system.block_index(word, k),))
            for k in range(height)
        ]
        finite = [r for r in rates if not math.isinf(r)]
        if len(finite) not in (0, len(rates)):
            return f"word {word}: mixed finite/infinite slab rates {rates}"
        if finite and max(finite) - min(finite) > 1e-10:
            return f"word {word}: slab rates differ {rates}"
        return None

    return _run(seed, trials, trial)


def run_lap_shift(seed=1007, trials=100):
    """Replacing a block hole by its one-step preimage preserves the rate.

    The preimage is resolved one refinement level deeper, where the image
    block of every block is deterministic.
    """

    def trial(rng):
        shift = random_shift(rng)
        system = build_suspension(shift, random_integer_ceiling(rng, shift))
        q = system.order
        refined = refine_suspension(system, q + 1)
        height_of = {w: int(h) for w, h in zip(refined.words, refined.heights)}
        size = len(system.blocks)
        count = int(rng.integers(1, max(2, size // 2)))
        rows = set(int(i) for i in rng.choice(size, size=count, replace=False))
        preimage = []
        for i, (word, level) in enumerate(refined.blocks):
            if level + 1 < height_of[word]:
                image = system.block_index(word[:q], level + 1)
            else:
                image = system.block_index(word[1:], 0)
            if image in rows:
                preimage.append(i)
        a = escape_rate_block_hole(system, tuple(sorted(rows)))
        b = escape_rate_block_hole(refined, tuple(preimage))
        if math.isinf(a) or math.isinf(b):
            return None if a == b else f"rows {sorted(rows)}: {a} != {b}"
        if abs(a - b) > 1e-10:
            return f"rows {sorted(rows)}: {a} != {b}"
        return None

    return _run(seed, trials, trial)


def run_reciprocal_sublinearity(seed=1008, trials=100):
    """1/P(a + b) >= 1/P(a) + 1/P(b) with at most 1e-10 numerical slack."""

    def trial(rng):
        shift = random_shift(rng)
        a = random_integer_ceiling(rng, shift)
        b = random_integer_ceiling(rng, shift)
        hole = random_hole(rng, shift)
        try:
            report = superadditivity_check(shift, hole, a, b)
        except PressureNotNegativeError:
            return _SKIP
        if math.isinf(report.pressure_sum):
            # Everything escapes: every pressure is -inf.
            return _SKIP
        if report.slack < -1e-10:
            return f"hole {hole}: slack {report.slack}"
        return None

    return _run(seed, trials, trial)


ALL_SUITES = {
    "hole-monotonicity": run_hole_monotonicity,
    "ceiling-antitone": run_ceiling_antitone,
    "scaling": run_scaling,
    "coboundary": run_coboundary,
    "continuity": run_continuity,
    "block-shadow": run_block_shadow,
    "lap-shift": run_lap_shift,
    "reciprocal-sublinearity": run_reciprocal_sublinearity,
}
