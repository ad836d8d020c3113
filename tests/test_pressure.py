"""Induced pressure of hole-avoiding words: Gibbs bounds and both estimators."""

import itertools
import math

import pytest

import flowescape.pressure as pressure
from flowescape import (
    InadmissibleWordError,
    NoBracketError,
    PressureNotNegativeError,
    WindowEmptyError,
    admissible_words,
    build_markov_shift,
    build_suspension,
    check_pressure_equals_minus_rho,
    constant_function,
    cylinder_function,
    escape_rate_flow,
    gibbs_constant,
    gibbs_ratio,
    induced_pressure_truncated,
    induced_pressure_via_root,
    superadditivity_check,
    word_log_weight,
)

GOLDEN = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# Gibbs property of the log transition potential
# ---------------------------------------------------------------------------

def test_gibbs_constant_values(full2, biased2, golden_mean):
    assert gibbs_constant(full2) == pytest.approx(1.0)
    assert gibbs_constant(biased2) == pytest.approx(2.7)
    assert gibbs_constant(golden_mean) == pytest.approx(3.0)


def test_gibbs_ratio_bounded_on_all_short_words(biased2):
    bound = gibbs_constant(biased2)
    for length in range(1, 9):
        for word in admissible_words(biased2, length):
            ratio = gibbs_ratio(biased2, word)
            assert 1.0 / bound - 1e-12 <= ratio <= bound + 1e-12, word


def test_word_log_weight_formula(full2, biased2):
    assert word_log_weight(full2, (0, 1, 0)) == pytest.approx(3 * math.log(0.5))
    # Pinned transitions plus the best continuation out of the last letter.
    want = math.log(0.9) + math.log(0.1) + math.log(0.8)
    assert word_log_weight(biased2, (0, 0, 1)) == pytest.approx(want)


def test_word_log_weight_rejects_inadmissible(golden_mean):
    with pytest.raises(InadmissibleWordError):
        word_log_weight(golden_mean, (1, 1))


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


def test_root_pressure_independent_of_bracket(full2, unit_ceiling):
    wide = induced_pressure_via_root(full2, unit_ceiling, (0,))
    narrow = induced_pressure_via_root(full2, unit_ceiling, (0,), beta_lo=-10.0)
    assert wide == narrow


def test_root_pressure_scales_with_ceiling(full2, unit_ceiling):
    base = induced_pressure_via_root(full2, unit_ceiling, (0,))
    doubled = induced_pressure_via_root(full2, constant_function(full2, 2.0), (0,))
    assert doubled == pytest.approx(base / 2.0, abs=1e-14)


def test_root_pressure_wide_height_ratio():
    # Surviving words 1 and 2 with P = [[.1, .1], [.1, .1]] and heights 0.01
    # and 5: the root solves e^{0.01 s} + e^{5 s} = 10, s* = 0.4393. The
    # crude bracket end -log(0.2)/0.01 puts a weight of e^803 on word 2, so
    # the root must be found without evaluating there.
    mp = pytest.importorskip("mpmath").mp.clone()
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


def test_root_pressure_builds_one_survivor_matrix(monkeypatch, full2, step_ceiling):
    build = pressure.survivor_matrix
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(pressure, "survivor_matrix", counted)
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


def test_root_pressure_error_paths(cycle2, golden_mean):
    with pytest.raises(NoBracketError):
        induced_pressure_via_root(cycle2, constant_function(cycle2, 1.0), (0,))
    one = build_markov_shift([[1.0]])
    with pytest.raises(PressureNotNegativeError):
        induced_pressure_via_root(one, constant_function(one, 1.0), (0,))
    with pytest.raises(InadmissibleWordError):
        induced_pressure_via_root(golden_mean, constant_function(golden_mean, 1.0), (1, 1))


# ---------------------------------------------------------------------------
# Truncated window estimator
# ---------------------------------------------------------------------------

def test_truncated_pressure_near_limit(full2, unit_ceiling, step_ceiling):
    got = induced_pressure_truncated(full2, unit_ceiling, (0,), 200.0)
    assert got == pytest.approx(-math.log(2.0), abs=0.005)
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
                total += math.exp(word_log_weight(full2, word))
    return total


@pytest.mark.parametrize(
    "heights",
    [
        pytest.param(
            {(0,): 1, (1,): 2},
            marks=pytest.mark.xfail(
                strict=True,
                reason="order-1 ceilings: words past the suffix depth are summed "
                "without their first letter's height",
            ),
        ),
        {(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 1},
    ],
)
def test_truncated_pressure_matches_brute_force_window_sum(full2, heights):
    order = len(next(iter(heights)))
    ceiling = cylinder_function(order, {w: float(k) for w, k in heights.items()}, lattice=1.0)
    want = math.log(_brute_window_sum(heights, order, (0, 0), 8)) / 8.0
    got = induced_pressure_truncated(full2, ceiling, (0, 0), 8.0)
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
    with pytest.raises(ValueError):
        induced_pressure_truncated(full2, unit_ceiling, (0,), 10.0, eta=-1.0)
    with pytest.raises(InadmissibleWordError):
        induced_pressure_truncated(golden_mean, constant_function(golden_mean, 1.0), (1, 1), 10.0)


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


def test_superadditivity_rejects_nonnegative_pressure(cycle2, unit_ceiling):
    ceiling = constant_function(cycle2, 1.0)
    with pytest.raises((PressureNotNegativeError, NoBracketError)):
        superadditivity_check(cycle2, (0,), ceiling, ceiling)
