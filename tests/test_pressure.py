"""Induced pressure of hole-avoiding words: Gibbs bounds and both estimators."""

import itertools
import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import flowescape.pressure as pressure
import property_suites
from flowescape import (
    InadmissibleWordError,
    NotIrreducibleError,
    PressureNotNegativeError,
    WindowEmptyError,
    admissible_words,
    build_markov_shift,
    build_suspension,
    check_pressure_equals_minus_rho,
    constant_function,
    cylinder_function,
    cylinder_measure,
    escape_rate_flow,
    gibbs_constant,
    induced_pressure_truncated,
    induced_pressure_via_root,
    superadditivity_check,
)
from oracles import truncated_pressure_by_length

GOLDEN = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# Gibbs property of the log transition potential
# ---------------------------------------------------------------------------

def test_gibbs_constant_values(full2, biased2, golden_mean):
    assert gibbs_constant(full2) == pytest.approx(1.0)
    assert gibbs_constant(biased2) == pytest.approx(2.7)
    assert gibbs_constant(golden_mean) == pytest.approx(3.0)


def _log_weight(shift, word):
    """S_w p, the log transition potential summed over [w] and sup-completed:
    the transitions the word pins, then the best one out of its last letter."""
    steps = [shift.transitions[a, b] for a, b in zip(word, word[1:])]
    steps.append(shift.transitions[word[-1]].max())
    return sum(float(np.log(p)) for p in steps)


def test_gibbs_ratio_bounded_on_all_short_words(biased2):
    bound = gibbs_constant(biased2)
    for length in range(1, 9):
        for word in admissible_words(biased2, length):
            ratio = math.exp(_log_weight(biased2, word)) / cylinder_measure(biased2, word)
            assert 1.0 / bound - 1e-12 <= ratio <= bound + 1e-12, word


# ---------------------------------------------------------------------------
# Root estimator
# ---------------------------------------------------------------------------

def test_root_pressure_exact_values(full2, unit_ceiling, step_ceiling):
    beta = induced_pressure_via_root(full2, unit_ceiling, (0,))
    assert beta == pytest.approx(-math.log(2.0), abs=1e-12)
    beta = induced_pressure_via_root(full2, unit_ceiling, (0, 0))
    assert beta == pytest.approx(-(math.log(2.0) - math.log(GOLDEN)), abs=1e-12)
    beta = induced_pressure_via_root(full2, step_ceiling, (0,))
    assert beta == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)


def test_root_pressure_scales_with_ceiling(full2, unit_ceiling):
    base = induced_pressure_via_root(full2, unit_ceiling, (0,))
    doubled = induced_pressure_via_root(full2, constant_function(full2, 2.0), (0,))
    assert doubled == pytest.approx(base / 2.0, abs=1e-14)


def test_root_pressure_wide_height_ratio():
    # Surviving words 1 and 2 with P = [[.1, .1], [.1, .1]] and heights 0.01
    # and 5: the root solves e^{0.01 s} + e^{5 s} = 10, s* = 0.4393. The
    # crude bracket end -log(0.2)/0.01 puts a weight of e^803 on word 2, so
    # the root must be found without evaluating there.
    mp = mpmath.mp.clone()
    mp.dps = 40
    want = -float(mp.findroot(lambda s: mp.exp(s / 100) + mp.exp(5 * s) - 10, 0.44))
    shift = build_markov_shift([[0.9, 0.05, 0.05], [0.8, 0.1, 0.1], [0.8, 0.1, 0.1]])
    heights = {(0,): 1.0, (1,): 0.01, (2,): 5.0}
    beta = induced_pressure_via_root(shift, cylinder_function(1, heights), (0,))
    assert beta == pytest.approx(want, rel=1e-13, abs=0.0)
    # The same ceiling on the lattice 0.01: 601 blocks, heights 100, 1, 500.
    system = build_suspension(shift, cylinder_function(1, heights, lattice=0.01))
    rate = escape_rate_flow(system, (0,), representation="refined")
    assert rate == pytest.approx(-want, rel=1e-13, abs=0.0)


def test_root_pressure_builds_one_automaton(monkeypatch, full2, step_ceiling):
    build = pressure._hole_automaton
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pressure, "_hole_automaton", counted)
    beta = induced_pressure_via_root(full2, step_ceiling, (1, 1, 0))
    assert len(calls) == 1
    system = build_suspension(full2, step_ceiling)
    assert beta == pytest.approx(-escape_rate_flow(system, (1, 1, 0)), rel=1e-13)


def test_root_pressure_reads_the_ceiling_off_the_hole_only(full2, unit_ceiling):
    # Words that hold the hole never survive, so the ceiling need not be
    # defined on them.
    off_hole = cylinder_function(1, {(0,): 1.0})
    got = induced_pressure_via_root(full2, off_hole, (1,))
    assert got == induced_pressure_via_root(full2, unit_ceiling, (1,))


def test_root_pressure_error_paths(cycle2, golden_mean, full2, unit_ceiling):
    # Everything escapes: beta* = -inf, as the refined rate is +inf.
    assert induced_pressure_via_root(cycle2, constant_function(cycle2, 1.0), (0,)) == -math.inf
    one = build_markov_shift([[1.0]])
    assert induced_pressure_via_root(one, constant_function(one, 1.0), (0,)) == -math.inf
    # Every word of length 2 holds the hole 00, although the single letter
    # of the order-1 ceiling does not.
    assert induced_pressure_via_root(one, constant_function(one, 1.0), (0, 0)) == -math.inf
    order3 = cylinder_function(3, {(0, 1, 0): 1.0, (1, 0, 1): 1.0})
    assert induced_pressure_via_root(cycle2, order3, (0,)) == -math.inf
    # A hole of measure 2^-100: the radius rounds to 1, so beta* = 0.
    with pytest.raises(PressureNotNegativeError):
        induced_pressure_via_root(full2, unit_ceiling, (0,) * 100)
    with pytest.raises(InadmissibleWordError):
        induced_pressure_via_root(golden_mean, constant_function(golden_mean, 1.0), (1, 1))


def test_root_pressure_is_minus_the_refined_rate():
    # The two entry points of the word-operator root: beta* = -inf exactly
    # where the rate is +inf (everything escapes), and -rate to rounding
    # elsewhere. Lattice-1 and lattice-0.05 ceilings on the property-suite
    # shifts, holes up to length 4.
    rng = np.random.default_rng(77)
    outcomes = {"inf": 0, "finite": 0}
    for draw in range(300):
        shift = property_suites.random_shift(rng)
        ceiling = property_suites.random_integer_ceiling(rng, shift)
        if draw % 2:
            heights = {w: 0.05 * int(rng.integers(20, 61)) for w in ceiling.values}
            ceiling = cylinder_function(1, heights, lattice=0.05)
        hole = property_suites.random_hole(rng, shift, max_len=4)
        rate = escape_rate_flow(build_suspension(shift, ceiling), hole, "refined")
        beta = induced_pressure_via_root(shift, ceiling, hole)
        if math.isinf(rate):
            assert beta == -math.inf, (hole, rate, beta)
            outcomes["inf"] += 1
        else:
            assert beta == pytest.approx(-rate, rel=1e-12, abs=0.0), (hole, rate, beta)
            outcomes["finite"] += 1
    assert outcomes["inf"] > 0 and outcomes["finite"] > 0


# ---------------------------------------------------------------------------
# Truncated window estimator
# ---------------------------------------------------------------------------

def test_truncated_pressure_near_limit(full2, unit_ceiling, step_ceiling):
    # Only the words 1^l survive, each of weight 2^-l, and the window
    # (198, 200] keeps l = 199 and 200: the log(t)/t error, exactly.
    got = induced_pressure_truncated(full2, unit_ceiling, (0,), 200.0)
    assert got == pytest.approx(math.log(3.0) / 200.0 - math.log(2.0), rel=1e-12)
    got = induced_pressure_truncated(full2, unit_ceiling, (0, 0), 200.0)
    assert got == pytest.approx(-(math.log(2.0) - math.log(GOLDEN)), abs=0.005)
    got = induced_pressure_truncated(full2, step_ceiling, (0,), 200.0, eta=2.0)
    assert got == pytest.approx(-0.5 * math.log(2.0), abs=0.005)


def _brute_window_sum(heights, order, hole, t):
    """Sum of e^{S_w p} over hole-avoiding full-2-shift words whose
    sup-completed lattice-1 ceiling sum lies in the default window
    (t - sup - 1, t]. Heights are >= 1, so every word longer than t misses it.
    """
    full2 = build_markov_shift([[0.5, 0.5], [0.5, 0.5]])
    eta = max(heights.values()) + 1
    total = 0.0
    for length in range(1, t + 1):
        for word in itertools.product((0, 1), repeat=length):
            if any(word[j : j + len(hole)] == hole for j in range(length - len(hole) + 1)):
                continue
            best = max(
                sum(heights[(word + tail)[j : j + order]] for j in range(length))
                for tail in itertools.product((0, 1), repeat=order - 1)
            )
            if t - eta < best <= t:
                total += math.exp(_log_weight(full2, word))
    return total


ORDER3_HEIGHTS = {
    (0, 0, 0): 1, (0, 0, 1): 2, (0, 1, 0): 3, (0, 1, 1): 1,
    (1, 0, 0): 2, (1, 0, 1): 1, (1, 1, 0): 3, (1, 1, 1): 2,
}


@pytest.mark.parametrize(
    "heights, hole, t",
    [
        pytest.param({(0,): 1, (1,): 2}, (0, 0), 8, id="order1-hole00"),
        pytest.param({(0,): 1, (1,): 2}, (0, 0, 1), 8, id="order1-hole001"),
        pytest.param(
            {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 1}, (0, 0), 8, id="order2-hole00"
        ),
        # Holes shorter than the order: the length-1 words are shorter than
        # order - 1, so their whole sum is the sup-completion. The window
        # (0, 4] reads them out.
        pytest.param(ORDER3_HEIGHTS, (0, 1), 4, id="order3-hole01-t4"),
        pytest.param(ORDER3_HEIGHTS, (0, 1), 9, id="order3-hole01"),
        pytest.param(ORDER3_HEIGHTS, (1,), 7, id="order3-hole1"),
    ],
)
def test_truncated_pressure_matches_brute_force_window_sum(full2, heights, hole, t):
    order = len(next(iter(heights)))
    ceiling = cylinder_function(order, {w: float(k) for w, k in heights.items()}, lattice=1.0)
    want = math.log(_brute_window_sum(heights, order, hole, t)) / t
    got = induced_pressure_truncated(full2, ceiling, hole, float(t))
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("t_max", [1, 2, 3, 4, 6, 8])
def test_truncated_pressure_prefix_sums_past_t_max(full2, t_max):
    # Depth-3 prefixes such as 011 already sum past small t_max; they must
    # drop out of the DP instead of indexing past its sum axis.
    heights = {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4}
    ceiling = cylinder_function(2, {w: float(k) for w, k in heights.items()}, lattice=1.0)
    hole = (0, 0, 0, 1)
    want = _brute_window_sum(heights, 2, hole, t_max)
    if want == 0.0:
        with pytest.raises(WindowEmptyError):
            induced_pressure_truncated(full2, ceiling, hole, float(t_max))
    else:
        got = induced_pressure_truncated(full2, ceiling, hole, float(t_max))
        assert got == math.log(want) / t_max


def _sweep_draw(rng, order, lattice):
    """A random irreducible 2- or 3-letter shift, an order-``order`` ceiling
    with heights 1-6 (10-60 at lattice 0.05), a hole of 1-3 letters and a
    lattice point t in [2, 200]."""
    while True:
        size = int(rng.integers(2, 4))
        probs = rng.uniform(0.2, 1.0, (size, size)) * (rng.random((size, size)) < 0.8)
        if probs.sum(axis=1).min() > 0.0:
            probs /= probs.sum(axis=1, keepdims=True)
            try:
                shift = build_markov_shift(probs)
                break
            except NotIrreducibleError:
                continue
    lo, hi = (10, 60) if lattice == 0.05 else (1, 6)
    values = {w: lattice * int(rng.integers(lo, hi + 1)) for w in admissible_words(shift, order)}
    hole = [int(rng.integers(size))]
    for _ in range(int(rng.integers(0, 3))):
        hole.append(int(rng.choice(shift.successors(hole[-1]))))
    t = lattice * int(rng.integers(round(2 / lattice), round(200 / lattice) + 1))
    return shift, cylinder_function(order, values, lattice=lattice), tuple(hole), t


@pytest.mark.parametrize("lattice", [1.0, 0.5, 0.05])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_truncated_pressure_matches_length_order_oracle(order, lattice):
    """The sum-order solve against one DP step per word length. Order 3
    has gain-0 links (one-letter words grow to two letters), so it checks
    the lift; the first draw of each setting sits at t = 200."""
    rng = np.random.default_rng([order, round(100 * lattice)])
    for draw in range(6):
        shift, ceiling, hole, t = _sweep_draw(rng, order, lattice)
        if draw == 0:
            t = 200.0
        want = truncated_pressure_by_length(shift, ceiling, hole, t)
        if want == -math.inf:
            with pytest.raises(WindowEmptyError):
                induced_pressure_truncated(shift, ceiling, hole, t)
        else:
            got = induced_pressure_truncated(shift, ceiling, hole, t)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0), (shift.transitions, hole, t)


def test_truncated_pressure_at_the_state_cap_counts_words_in_little_memory():
    """The hole 0^13 on the full 2-shift with the unit ceiling: 8190 states,
    words of 1-12 letters, the most the state cap allows. Each word of
    length L weighs 2^-L, so the window (t - 2, t] sums N_L 2^-L over
    L = t - 1, t, with N_L the binary words of length L free of 0^13,
    counted here by the run of trailing zeros. The links are stored
    sparsely: one dense 8190 x 8190 operator alone would take 512 MiB."""
    shift = build_markov_shift([[0.5, 0.5], [0.5, 0.5]])
    hole, t = (0,) * 13, 30

    def free_words(length):
        runs = [1] + [0] * 12
        for _ in range(length):
            runs = [sum(runs)] + runs[:-1]
        return sum(runs)

    want = math.log(sum(free_words(L) / 2**L for L in (t - 1, t))) / t
    tracemalloc.start()
    try:
        got = induced_pressure_truncated(shift, constant_function(shift, 1.0), hole, float(t))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert peak < 64 * 2**20


def test_truncated_pressure_window_choice_is_second_order(full2, unit_ceiling):
    t = 100.0
    narrow = induced_pressure_truncated(full2, unit_ceiling, (0,), t, eta=1.0)
    wide = induced_pressure_truncated(full2, unit_ceiling, (0,), t, eta=3.0)
    assert abs(narrow - wide) < 2.0 * math.log(t) / t


def test_truncated_pressure_error_paths(full2, unit_ceiling, golden_mean):
    # Constant height 2 only reaches even sums, so a width-1/2 window at an
    # odd target is unreachable.
    even = cylinder_function(1, {(0,): 2.0, (1,): 2.0}, lattice=1.0)
    with pytest.raises(WindowEmptyError):
        induced_pressure_truncated(full2, even, (0,), 9.0, eta=0.5)
    with pytest.raises(ValueError):
        induced_pressure_truncated(full2, unit_ceiling, (0,), 9.5)
    # A t_max that is not finite, or whose lattice index overflows, is off
    # the lattice too.
    quarter = cylinder_function(1, {(0,): 1.0, (1,): 1.25}, lattice=0.25)
    for t_max in (math.inf, -math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="does not sit on the ceiling lattice"):
            induced_pressure_truncated(full2, quarter, (0,), t_max)
    for eta in (-1.0, math.nan):
        with pytest.raises(ValueError, match="eta must be positive"):
            induced_pressure_truncated(full2, unit_ceiling, (0,), 10.0, eta=eta)
    with pytest.raises(InadmissibleWordError):
        induced_pressure_truncated(golden_mean, constant_function(golden_mean, 1.0), (1, 1), 10.0)


def test_truncated_pressure_reads_t_max_to_the_lattice_tolerance(full2, unit_ceiling):
    at_20 = induced_pressure_truncated(full2, unit_ceiling, (0, 1), 20)
    assert at_20 == -0.4876034873512798
    with pytest.raises(ValueError):
        induced_pressure_truncated(full2, unit_ceiling, (0, 1), 20 + 1e-10)
    assert induced_pressure_truncated(full2, unit_ceiling, (0, 1), 20 + 1e-12) == at_20


# ---------------------------------------------------------------------------
# Pressure equals minus the escape rate
# ---------------------------------------------------------------------------

def test_pressure_report_both_methods(full2, step_ceiling):
    report = check_pressure_equals_minus_rho(full2, step_ceiling, (0, 1), 120.0)
    assert report.rho == pytest.approx(0.34657359027997275, abs=1e-12)
    by_method = {row.method: row for row in report.rows}
    assert set(by_method) == {"root", "truncated"}
    assert by_method["root"].abs_gap < 1e-12
    assert by_method["truncated"].abs_gap < 0.05
    for row in report.rows:
        assert row.rho == report.rho
        assert row.abs_gap == pytest.approx(abs(row.beta + report.rho))


def test_pressure_report_where_everything_escapes(cycle2):
    # Every orbit of the 2-cycle passes 0: the rate is +inf and the root
    # -inf, which is no gap. The truncated sum at t = 1 still sees the word 1.
    report = check_pressure_equals_minus_rho(cycle2, constant_function(cycle2, 1.0), (0,), 1.0)
    by_method = {row.method: row for row in report.rows}
    assert report.rho == math.inf
    assert (by_method["root"].beta, by_method["root"].abs_gap) == (-math.inf, 0.0)
    assert by_method["truncated"].abs_gap == math.inf


# ---------------------------------------------------------------------------
# Reciprocal superadditivity
# ---------------------------------------------------------------------------

def test_superadditivity_equality_for_equal_ceilings(full2, unit_ceiling):
    report = superadditivity_check(full2, (0,), unit_ceiling, unit_ceiling)
    assert report.slack == 0.0
    assert report.holds
    assert report.pressure_sum == pytest.approx(-0.5 * math.log(2.0), abs=1e-12)


def test_superadditivity_strict_for_mixed_ceilings(full2, unit_ceiling, step_ceiling):
    report = superadditivity_check(full2, (0, 0), unit_ceiling, step_ceiling)
    assert report.holds
    assert report.slack > 1e-3


def test_superadditivity_rejects_nonnegative_pressure(full2, unit_ceiling):
    # The hole 0^100 has measure 2^-100, so beta* rounds to 0.
    with pytest.raises(PressureNotNegativeError):
        superadditivity_check(full2, (0,) * 100, unit_ceiling, unit_ceiling)
