"""Seeded sampling against exact counterparts, and the deviation diagnostic."""

import math
import tracemalloc

import numpy as np
import pytest

from flowescape import (
    AllMassEscapedError,
    SimulationConfig,
    SurvivalEstimate,
    admissible_words,
    build_markov_shift,
    build_suspension,
    cylinder_function,
    escape_rate_flow,
    estimate_deviation_prob,
    estimate_survival,
    exact_deviation_prob,
    fit_decay,
    fit_escape_rate,
    survival_curve_flow,
)
from flowescape import montecarlo
from flowescape.montecarlo import _deviation_setup, _kept_sums, _settled_sums
from flowescape.open_system import _survival_tower
from flowescape.shift import (
    _gain_plan,
    _gain_step,
    _lattice_operators,
    _survival_curve,
    cylinder_measure,
)
import oracles
from oracles import dense, kept_sums, lattice_links, lattice_step


@pytest.fixture(scope="module")
def big_config():
    return SimulationConfig(seed=42, samples=100_000, t_max=20)


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_config_rejects_bad_parameters():
    with pytest.raises(ValueError):
        SimulationConfig(seed=-1, samples=1000, t_max=10)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, samples=50, t_max=10)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, samples=1000, t_max=0)
    with pytest.raises(ValueError):
        SimulationConfig(seed=1, samples=1000, t_max=10, confidence_z=0.0)


# ---------------------------------------------------------------------------
# Survival sampling
# ---------------------------------------------------------------------------

def test_survival_starts_at_one_and_decreases(step_system, big_config):
    est = estimate_survival(step_system, (0,), big_config)
    assert est.estimates[0] == 1.0
    assert np.all(np.diff(est.estimates) <= 0.0)
    assert np.all(est.estimates >= 0.0)


def test_survival_matches_exact_probability(unit_system):
    config = SimulationConfig(seed=42, samples=100_000, t_max=10)
    est = estimate_survival(unit_system, (0,), config)
    exact = 2.0 ** -10
    z = (est.estimates[10] - exact) / est.stderrs[10]
    assert abs(z) < 3.0


def test_survival_matches_exact_curve_under_step_ceiling(step_system, big_config):
    est = estimate_survival(step_system, (0,), big_config)
    exact = survival_curve_flow(step_system, (0,), big_config.t_max)
    z = (est.estimates[20] - exact[20]) / est.stderrs[20]
    assert abs(z) < 3.0


def test_survival_reruns_are_byte_identical(step_system, big_config):
    a = estimate_survival(step_system, (0,), big_config)
    b = estimate_survival(step_system, (0,), big_config)
    assert a.estimates.tobytes() == b.estimates.tobytes()
    assert a.stderrs.tobytes() == b.stderrs.tobytes()


def test_survival_prefix_invariant_in_t_max(step_system, big_config):
    long = estimate_survival(step_system, (0,), big_config)
    short = estimate_survival(
        step_system, (0,), SimulationConfig(seed=42, samples=100_000, t_max=10)
    )
    assert np.array_equal(short.estimates, long.estimates[:11])


# ---------------------------------------------------------------------------
# Rate fitting
# ---------------------------------------------------------------------------

def test_fit_on_noiseless_geometric_curve_is_exact(big_config):
    ts = np.arange(big_config.t_max + 1)
    synthetic = SurvivalEstimate(
        ts=ts,
        estimates=0.5 ** ts,
        stderrs=np.zeros(big_config.t_max + 1),
        config=big_config,
        lattice_scale=1.0,
    )
    fit = fit_escape_rate(synthetic)
    assert fit.lower == fit.upper == pytest.approx(math.log(2.0))
    assert fit.converged
    assert fit.window == (10, 20)


def test_fit_brackets_true_rate(step_system, big_config):
    fit = fit_escape_rate(estimate_survival(step_system, (0,), big_config))
    rho = escape_rate_flow(step_system, (0,))
    assert fit.lower <= rho <= fit.upper
    assert fit.converged


def test_fit_with_few_samples_is_wide_and_unconverged(step_system):
    config = SimulationConfig(seed=7, samples=100, t_max=8)
    fit = fit_escape_rate(estimate_survival(step_system, (0,), config))
    assert not fit.converged


def test_fit_rejects_dead_window(big_config):
    estimates = np.array([1.0, 0.5, 0.2, 0.0, 0.0, 0.0])
    dead = SurvivalEstimate(
        ts=np.arange(6),
        estimates=estimates,
        stderrs=np.zeros(6),
        config=SimulationConfig(seed=1, samples=100, t_max=5),
        lattice_scale=1.0,
    )
    with pytest.raises(AllMassEscapedError):
        fit_escape_rate(dead)


# ---------------------------------------------------------------------------
# Birkhoff deviation probabilities
# ---------------------------------------------------------------------------

def test_deviation_zero_for_constant_ceiling(full2, unit_ceiling):
    config = SimulationConfig(seed=42, samples=20_000, t_max=1)
    est = estimate_deviation_prob(full2, unit_ceiling, 0.25, [5, 10], config, l_max=40)
    assert np.all(est.probabilities == 0.0)
    assert est.decay is None


def test_deviation_exact_dp_frozen_values(full2, step_ceiling):
    got = exact_deviation_prob(full2, step_ceiling, 0.25, (5, 10, 20, 40), 160)
    want = (
        0.4842179689514725,
        0.19044523899749266,
        0.0491590128550623,
        0.0026839536414575704,
    )
    assert got == pytest.approx(want, abs=1e-12)


def test_deviation_sampler_matches_dp(full2, step_ceiling):
    ks = (5, 10, 20, 40)
    config = SimulationConfig(seed=42, samples=20_000, t_max=1)
    est = estimate_deviation_prob(full2, step_ceiling, 0.25, ks, config, l_max=160)
    exact = exact_deviation_prob(full2, step_ceiling, 0.25, ks, 160)
    assert est.mean_value == pytest.approx(1.5)
    assert np.all(np.diff(est.probabilities) <= 1e-12)
    for i in range(len(ks)):
        z = (est.probabilities[i] - exact[i]) / est.stderrs[i]
        assert abs(z) < 3.0, ks[i]
    assert est.decay is not None and est.decay < 1.0


def test_deviation_rejects_bad_arguments(full2, step_ceiling):
    config = SimulationConfig(seed=1, samples=1000, t_max=1)
    with pytest.raises(ValueError):
        estimate_deviation_prob(full2, step_ceiling, 0.0, [5], config)
    with pytest.raises(ValueError):
        exact_deviation_prob(full2, step_ceiling, -1.0, [5], 20)
    with pytest.raises(ValueError):
        estimate_deviation_prob(full2, step_ceiling, math.nan, [5], config)
    with pytest.raises(ValueError):
        exact_deviation_prob(full2, step_ceiling, math.nan, [5], 20)
    # An epsilon past every reachable offset: nothing deviates.
    for epsilon in (math.inf, 1e300):
        assert exact_deviation_prob(full2, step_ceiling, epsilon, [5], 20) == (0.0,)
        est = estimate_deviation_prob(full2, step_ceiling, epsilon, [5], config, l_max=20)
        assert est.probabilities.tolist() == [0.0]
    # Both routes reject the same k lists and l_max.
    for k_values in ([0], [-1, 5], []):
        with pytest.raises(ValueError):
            estimate_deviation_prob(full2, step_ceiling, 0.25, k_values, config)
        with pytest.raises(ValueError):
            exact_deviation_prob(full2, step_ceiling, 0.25, k_values, 20)
    with pytest.raises(ValueError):
        estimate_deviation_prob(full2, step_ceiling, 0.25, [10], config, l_max=5)
    with pytest.raises(ValueError):
        exact_deviation_prob(full2, step_ceiling, 0.25, [10], 5)


def test_deviation_counts_stay_exact_integers(full2, step_ceiling):
    """The cell counts merge through float64 weights, exact up to 2**53."""
    at_bound = SimulationConfig(seed=1, samples=2**53, t_max=1)
    est = estimate_deviation_prob(full2, step_ceiling, 0.25, [5], at_bound, l_max=10)
    assert 0.0 < est.probabilities[0] < 1.0
    past = SimulationConfig(seed=1, samples=2**53 + 1, t_max=1)
    with pytest.raises(ValueError):
        estimate_deviation_prob(full2, step_ceiling, 0.25, [5], past, l_max=10)


_FULL2 = build_markov_shift([[0.5, 0.5], [0.5, 0.5]])
_BIASED2 = build_markov_shift([[0.9, 0.1], [0.2, 0.8]])
# Every letter has one successor, with p = 1.
_CYCLE2 = build_markov_shift([[0.0, 1.0], [1.0, 0.0]])
# Three letters with the transition 1 -> 2 forbidden.
_THREE = build_markov_shift([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]])
_STEP_CEILING = cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1.0)
_ORDER2_CEILING = cylinder_function(
    2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 1.0}, lattice=1.0
)
_ORDER3_CEILING = cylinder_function(
    3,
    {w: float(1 + (w[0] + 2 * w[1] + w[2]) % 3) for w in admissible_words(_THREE, 3)},
    lattice=1.0,
)


@pytest.mark.parametrize(
    "ceiling",
    [_STEP_CEILING, cylinder_function(1, {(0,): 0.5, (1,): 0.85}, lattice=0.05)],
    ids=["lattice-1", "lattice-0.05"],
)
@pytest.mark.parametrize("epsilon", (0.25, 0.1, 0.001))
def test_kept_sums_equal_the_float_test(full2, ceiling, epsilon):
    """[lo_l, hi_l] decides every reachable sum as the float expression does,
    including the empty interval of a tiny epsilon."""
    ks, l_max, heights, lam, n, mean, _, _ = _deviation_setup(full2, ceiling, epsilon, (10,), 60)
    top = max(heights.values())
    lows, highs = _kept_sums(lam, mean, epsilon, l_max, top)
    assert len(lows) == len(highs) == l_max
    for l, lo, hi in zip(range(1, l_max + 1), lows.tolist(), highs.tolist()):
        for s in range(l * top + 1):
            assert (lo <= s <= hi) == (abs(lam * s / l - mean) < epsilon), (l, s)
    if epsilon == 0.001:
        assert np.any(lows > highs)


def test_kept_sums_exact_tie_deviates(full2, step_ceiling):
    """mean 1.5, epsilon 0.25, l = 4: s = 5 gives exactly -0.25, which deviates."""
    _, _, _, lam, _, mean, _, _ = _deviation_setup(full2, step_ceiling, 0.25, (4,), 4)
    assert mean == 1.5 and lam * 5 / 4 - mean == -0.25
    lows, highs = _kept_sums(lam, mean, 0.25, 4, 2)
    assert (lows[3], highs[3]) == kept_sums(lam, mean, 0.25, 4, 8) == (6, 6)


def test_kept_sums_equal_the_bisection_oracle():
    """The bounds of every l at once equal the scalar bisection, l by l, on a
    seeded grid of lattice, mean, epsilon and h_max. Means and epsilons on
    quarter lattice steps put sums exactly on the boundary; tiny epsilons
    leave l with no kept sum."""
    rng = np.random.default_rng(2026)
    grid = [(1.0, 1.5, 0.25, 2)]
    for _ in range(300):
        lam = float(rng.choice([1.0, 0.5, 0.25, 0.1, 0.05, 1.0 / 3.0, 0.7]))
        h_max = int(rng.integers(1, 13))
        if rng.random() < 0.5:
            mean = lam * int(rng.integers(4, 4 * h_max + 1)) / 4
            epsilon = lam * int(rng.integers(1, 9)) / 4
        else:
            mean = lam * float(rng.uniform(1.0, h_max))
            epsilon = float(rng.choice([0.25, 0.1, 0.001, rng.uniform(0.0, lam * h_max)]))
        grid.append((lam, mean, epsilon, h_max))
    l_max = 60
    ties = empty = 0
    for lam, mean, epsilon, h_max in grid:
        lows, highs = _kept_sums(lam, mean, epsilon, l_max, h_max)
        for l, lo, hi in zip(range(1, l_max + 1), lows.tolist(), highs.tolist()):
            assert (lo, hi) == kept_sums(lam, mean, epsilon, l, l * h_max), (lam, mean, epsilon, l)
            empty += lo > hi
            ties += lam * (lo - 1) / l - mean == -epsilon or lam * (hi + 1) / l - mean == epsilon
    assert ties > 0 and empty > 0
    # A boundary far past the reachable sums keeps every sum.
    for epsilon in (math.inf, 1e300):
        lows, highs = _kept_sums(1.0, 1.5, epsilon, l_max, 2)
        for l, lo, hi in zip(range(1, l_max + 1), lows.tolist(), highs.tolist()):
            assert (lo, hi) == kept_sums(1.0, 1.5, epsilon, l, 2 * l) == (0, 2 * l)


_LATTICE_005_CEILING = cylinder_function(1, {(0,): 0.5, (1,): 0.85}, lattice=0.05)


@pytest.mark.parametrize(
    "ceiling", [_STEP_CEILING, _LATTICE_005_CEILING], ids=["lattice-1", "lattice-0.05"]
)
@pytest.mark.parametrize("epsilon", (0.25, 0.1, 0.05, 0.001, 1e300, math.inf))
@pytest.mark.parametrize(
    "k_values, l_max",
    [((5, 10), 30), ((1, 4, 9), 30), ((3, 12), 12), ((12,), 12)],
    ids=["k5", "k1", "kmax", "only-l-max"],
)
def test_settled_sums_equal_the_path_enumeration(ceiling, epsilon, k_values, l_max):
    """A sum S at l lies in [lo_l, hi_l] exactly when every path of later
    steps, each adding one of the heights, keeps its average by the float
    test at every tested l' in (l, l_max]. The paths' sums after d steps are
    enumerated as a set. At epsilon 0.001 an l keeps one sum at most, so no
    sum settles before l_max; at l_max every sum does."""
    ks, l_max, heights, lam, _, mean, _, _ = _deviation_setup(
        _FULL2, ceiling, epsilon, k_values, l_max
    )
    gains = sorted(set(heights.values()))
    lows, highs = _settled_sums(
        *_kept_sums(lam, mean, epsilon, l_max, gains[-1]), ks[0], gains[0], gains[-1]
    )
    reach = [np.array([0])]
    for _ in range(l_max):
        reach.append(np.unique(reach[-1][:, None] + np.array(gains)))
    settled_any = False
    for l in range(1, l_max + 1):
        sums = np.arange(l * gains[0], l * gains[-1] + 1)
        want = np.ones(len(sums), dtype=bool)
        for later in range(max(l + 1, ks[0]), l_max + 1):
            ends = sums[:, None] + reach[later - l]
            want &= np.all(np.abs(lam * ends / later - mean) < epsilon, axis=1)
        got = (lows[l - 1] <= sums) & (sums <= highs[l - 1])
        assert np.array_equal(got, want), l
        settled_any |= l < l_max and bool(want.any())
    assert np.all(got)
    if epsilon == 0.001:
        assert not settled_any
    elif epsilon >= 0.1:
        assert settled_any


def _counted_multinomials(monkeypatch):
    """Patch ``np.random.default_rng`` so that every generator logs the
    number of rows of each ``multinomial`` call; the list of those numbers."""
    calls = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def multinomial(self, n, pvals):
            calls.append(np.size(n))
            return self.rng.multinomial(n, pvals)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    return calls


@pytest.mark.parametrize("epsilon", (math.inf, 1e300))
def test_deviation_settles_every_cell_past_every_offset(monkeypatch, full2, step_ceiling, epsilon):
    """No reachable average is epsilon off the mean, so every sum settles at
    l = 1, and the start draw is the one multinomial call."""
    lows, highs = _settled_sums(*_kept_sums(1.0, 1.5, epsilon, 40, 2), 5, 1, 2)
    assert lows[0] <= 1 and highs[0] >= 2
    calls = _counted_multinomials(monkeypatch)
    config = SimulationConfig(seed=5, samples=20_000, t_max=1)
    est = estimate_deviation_prob(full2, step_ceiling, epsilon, (5, 10), config, l_max=40)
    assert est.probabilities.tolist() == [0.0, 0.0]
    assert len(calls) == 1


def test_deviation_sampler_stops_stepping_before_l_max(monkeypatch):
    """The benchmark's shape: the full 2-shift, heights 1-2 on words of
    order 2, epsilon 0.25, l_max 400. Every cell has settled long before
    l_max, so the splits stop early: at this seed after 260 of the 400
    steps."""
    ceiling = cylinder_function(
        2, {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.0, (1, 1): 2.0}, lattice=1.0
    )
    calls = _counted_multinomials(monkeypatch)
    config = SimulationConfig(seed=5, samples=20_000, t_max=1)
    est = estimate_deviation_prob(_FULL2, ceiling, 0.25, (5, 10, 20, 40), config, l_max=400)
    assert np.all(est.probabilities > 0.0)
    # The start draw, then one split per step from l = 1 to the last step.
    assert 1 < len(calls) <= 300


_GAIN_CASES = {
    "order-1": (_FULL2, _STEP_CEILING),
    "order-2": (_BIASED2, _ORDER2_CEILING),
    "three-letter-order-3": (_THREE, _ORDER3_CEILING),
}


@pytest.mark.parametrize("name", sorted(_GAIN_CASES))
@pytest.mark.parametrize("reverse", (False, True), ids=["forward", "backward"])
def test_gain_step_equals_the_per_link_step(name, reverse):
    """One plan step equals the per-link step over the same links in the
    same order (gain, then link), forward and with read and write swapped,
    as the backward pass steps; the states are every word up
    to order - 1 letters, so order 3 has gain-0 links."""
    shift, ceiling = _GAIN_CASES[name]
    system = build_suspension(shift, ceiling)
    heights = dict(zip(system.words, system.heights.tolist()))
    n = ceiling.order
    words = [w for m in range(1, max(n - 1, 1) + 1) for w in admissible_words(shift, m)]
    index = {w: i for i, w in enumerate(words)}
    operators = _lattice_operators(shift, heights, n, index)
    assert (0 in operators) == (n == 3)
    dist = np.random.default_rng(3).random((len(words), 13))
    read, write, p = _gain_plan(operators, 13, 13)
    got = _gain_step(dist, (write, read, p) if reverse else (read, write, p))
    links = [
        (i, j, g, q)
        for g, (src, dst, p) in operators.items()
        for i, j, q in zip(src.tolist(), dst.tolist(), p.tolist())
    ]
    assert sorted(links) == sorted(lattice_links(shift, heights, n, index))
    if reverse:
        links = [(j, i, g, p) for i, j, g, p in links]
        want = lattice_step(dist[:, ::-1], links)[:, ::-1]
    else:
        want = lattice_step(dist, links)
    assert np.array_equal(got, want)


def test_swapped_gain_plan_is_the_band_plan():
    """``_gain_plan`` with read and write swapped is the backward band plan,
    array for array and float hex for float hex, wherever the stride leaves
    room for the band past the largest gain, as the exact deviation DP's
    does: on seeded operators, gain 0 included, and on the lattice-sum ones."""
    rng = np.random.default_rng(3305)
    cases = []
    for _ in range(40):
        states, h_max = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        gains = sorted(set(rng.integers(0, h_max + 1, int(rng.integers(1, 4))).tolist()))
        operators = {}
        for g in gains:
            links = int(rng.integers(1, 3 * states + 1))
            src = np.sort(rng.integers(0, states, links))
            operators[g] = (src, rng.integers(0, states, links), rng.random(links))
        width = int(rng.integers(1, 30))
        cases.append((operators, width, int(rng.integers(1, width + 1)), h_max))
    for shift, ceiling in _GAIN_CASES.values():
        system = build_suspension(shift, ceiling)
        heights = dict(zip(system.words, system.heights.tolist()))
        index = {w: i for i, w in enumerate(admissible_words(shift, max(ceiling.order - 1, 1)))}
        operators = _lattice_operators(shift, heights, ceiling.order, index)
        cases.append((operators, 25, 7, max(heights.values())))
    for operators, width, band, h_max in cases:
        stride = width + band + h_max
        read, write, p = _gain_plan(operators, stride, band)
        want_read, want_write, want_p = oracles.band_plan(operators, stride, band)
        assert write.dtype == want_read.dtype and np.array_equal(write, want_read)
        assert read.dtype == want_write.dtype and np.array_equal(read, want_write)
        assert [x.hex() for x in p.tolist()] == [x.hex() for x in want_p.tolist()]


def _per_k_deviation_dp(shift, ceiling, epsilon, k_values, l_max):
    """The per-k absorbing DP: one full l_max-step pass per k, with the mass
    that has deviated at any l >= k zeroed as it goes. It steps one link at
    a time (``oracles.lattice_step``), not with the library's operators."""
    ks, l_max, heights, lam, n, mean, _, _ = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    suffix_len = max(n - 1, 1)
    index = {w: i for i, w in enumerate(admissible_words(shift, suffix_len))}
    links = lattice_links(shift, heights, n, index)
    max_sum = l_max * max(heights.values())
    sums = np.arange(max_sum + 1, dtype=np.int64)
    start = np.zeros((len(index), max_sum + 1))
    for w in admissible_words(shift, max(n, suffix_len)):
        start[index[w[-suffix_len:]], heights[w[-n:]]] += cylinder_measure(shift, w)
    out = []
    for k in ks:
        dist = start
        for l in range(1, l_max + 1):
            if l > 1:
                dist = lattice_step(dist, links)
            if l >= k:
                dist = dist * (np.abs(lam * sums / l - mean) < epsilon)[None, :]
        out.append(1.0 - float(dist.sum()))
    return tuple(out)


_EXACT_CASES = {
    "order-1": (_FULL2, _STEP_CEILING, 0.25),
    "order-2": (_BIASED2, _ORDER2_CEILING, 0.1),
    "three-letter-order-2": (
        _THREE,
        cylinder_function(
            2, {w: 0.05 * (3 + 2 * w[0] + w[1]) for w in admissible_words(_THREE, 2)}, lattice=0.05
        ),
        0.02,
    ),
    "three-letter-order-3": (_THREE, _ORDER3_CEILING, 0.2),
}


@pytest.mark.parametrize("name", sorted(_EXACT_CASES))
@pytest.mark.parametrize(
    "k_values, l_max", [((5, 10, 20, 40), 80), ([12, 3, 12, 1, 7], 30), ([9, 9], 9)]
)
def test_exact_deviation_matches_per_k_dp(name, k_values, l_max):
    shift, ceiling, epsilon = _EXACT_CASES[name]
    got = exact_deviation_prob(shift, ceiling, epsilon, k_values, l_max)
    want = _per_k_deviation_dp(shift, ceiling, epsilon, k_values, l_max)
    assert len(got) == len(set(k_values))
    assert got == pytest.approx(want, abs=1e-13, rel=0)
    assert any(0.0 < p < 1.0 for p in want)


@pytest.mark.parametrize("name", sorted(_EXACT_CASES))
@pytest.mark.parametrize(
    "k_values, l_max", [((5, 10, 20, 40), 160), ([12, 3, 12, 1, 7], 30), ((1, 2), 2)]
)
def test_band_backward_pass_equals_the_full_width_pass(name, k_values, l_max):
    # The band step drops and pads only exact zeros, so every P_k is the
    # full-width pass's float, also for a narrow band, every sum kept
    # (epsilon 1e300) and every sum deviating from some l on (epsilon 1e-3).
    shift, ceiling, epsilon = _EXACT_CASES[name]
    for eps in (epsilon, 0.05, 0.5, 1e300, 1e-3):
        got = exact_deviation_prob(shift, ceiling, eps, k_values, l_max)
        want = oracles.exact_deviation_prob(shift, ceiling, eps, k_values, l_max)
        assert got == tuple(max(0.0, p) for p in want), eps


def test_exact_deviation_is_one_forward_and_one_backward_pass(monkeypatch, full2, step_ceiling):
    """At most max k + l_max lattice steps; the per-k DP makes len(ks) * (l_max - 1)."""
    calls = []

    def counted(dist, operators):
        calls.append(1)
        return _gain_step(dist, operators)

    monkeypatch.setattr(montecarlo, "_gain_step", counted)
    ks, l_max = (5, 10, 20, 40), 160
    exact_deviation_prob(full2, step_ceiling, 0.25, ks, l_max)
    assert len(calls) <= max(ks) + l_max < len(ks) * (l_max - 1)


def test_exact_deviation_steps_only_live_sums(monkeypatch):
    """The forward pass holds the max k * h_max + 1 sums it can reach, and
    the backward step at l writes only the kept band [lo_l, hi_l]: at most
    links * (hi_l - lo_l + 1) plan entries, one per link and column."""
    calls = []

    def recorded(dist, plan):
        calls.append((dist.shape, len(plan[0])))
        return _gain_step(dist, plan)

    monkeypatch.setattr(montecarlo, "_gain_step", recorded)
    ks, l_max = (5, 10, 20, 40), 160
    for shift, ceiling, epsilon in _EXACT_CASES.values():
        calls.clear()
        exact_deviation_prob(shift, ceiling, epsilon, ks, l_max)
        _, _, heights, lam, n, mean, _, index = _deviation_setup(shift, ceiling, epsilon, ks, l_max)
        h_max = max(heights.values())
        links = sum(len(src) for src, _, _ in _lattice_operators(shift, heights, n, index).values())
        lows, highs = _kept_sums(lam, mean, epsilon, l_max, h_max)
        forward, backward = calls[: ks[-1] - 1], calls[ks[-1] - 1 :]
        assert [shape for shape, _ in forward] == [(len(index), ks[-1] * h_max + 1)] * (ks[-1] - 1)
        assert len(backward) == l_max - ks[0]
        for l, (shape, entries) in zip(range(l_max - 1, ks[0] - 1, -1), backward):
            assert len(shape) == 1 and entries <= links * (highs[l - 1] - lows[l - 1] + 1), l
        assert any(highs[l - 1] - lows[l - 1] < highs[-1] - lows[-1] for l in range(ks[0], l_max))


@pytest.mark.parametrize("epsilon", (3.0, 1e300, math.inf))
def test_exact_deviation_is_zero_where_no_sum_deviates(epsilon):
    """Heights 1 and 2 keep every average within 1 of the mean, so no sum
    deviates and P_k is 0.0: 1 - sum(dist * V) rounds below 0 on this chain,
    and the route clamps it."""
    ceiling = cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1.0)
    ks = (5, 10, 20, 40)
    assert min(oracles.exact_deviation_prob(_BIASED2, ceiling, epsilon, ks, 160)) < 0.0
    got = exact_deviation_prob(_BIASED2, ceiling, epsilon, ks, 160)
    assert [p.hex() for p in got] == [(0.0).hex()] * len(ks)


def _deviation_draws(count, seed):
    """Seeded deviation problems: shifts of 1-3 letters (rows of one
    successor included), orders 1-3, lattices 1, 0.5 and 0.1, k lists that
    may start at 1, l_max from max k to 5 max k, epsilon from 1e-300 to inf
    and 100 to 2^53 samples."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        letters = int(rng.choice([1, 2, 3], p=[0.1, 0.4, 0.5]))
        pattern = rng.random((letters, letters)) < 0.7
        # A cycle through every letter keeps the shift irreducible; a row
        # left with the cycle's link alone has one successor.
        pattern[np.arange(letters), (np.arange(letters) + 1) % letters] = True
        weights = pattern * rng.uniform(0.05, 1.0, (letters, letters))
        shift = build_markov_shift(weights / weights.sum(axis=1, keepdims=True))
        order = int(rng.integers(1, 4))
        lattice = float(rng.choice([1.0, 0.5, 0.1]))
        words = admissible_words(shift, order)
        values = {w: lattice * int(rng.integers(1, 5)) for w in words}
        ceiling = cylinder_function(order, values, lattice=lattice)
        ks = sorted({int(k) for k in rng.integers(1, 13, int(rng.integers(1, 5)))})
        if rng.random() < 0.3:
            ks = [1, *ks]
        l_max = int(rng.integers(ks[-1], 5 * ks[-1] + 1))
        scale = max(values.values())
        epsilon = float(
            rng.choice([1e-300, 1e-3 * scale, 0.05 * scale, 0.2 * scale, 0.5 * scale, 1e300, math.inf])
        )
        samples = int(rng.choice([100, 3000, 20_000, 10**12, 2**53]))
        config = SimulationConfig(seed=int(rng.integers(0, 2**31)), samples=samples, t_max=1)
        draws.append((shift, ceiling, epsilon, ks, l_max, config))
    return draws


_PARITY_DRAWS = _deviation_draws(120, 3535)


def _hex(values):
    return [float(x).hex() for x in values]


def test_deviation_sampler_matches_the_parent_sampler_in_float_hex():
    """Every draw, and so every P_k, standard error and decay, is the parent
    sampler's (``oracles.estimate_deviation_prob``), float hex for float hex."""
    for shift, ceiling, epsilon, ks, l_max, config in _PARITY_DRAWS:
        got = estimate_deviation_prob(shift, ceiling, epsilon, ks, config, l_max=l_max)
        want = oracles.estimate_deviation_prob(shift, ceiling, epsilon, ks, config, l_max=l_max)
        assert _hex(got.probabilities) == _hex(want.probabilities), (epsilon, ks, l_max)
        assert _hex(got.stderrs) == _hex(want.stderrs)
        assert got.decay == want.decay and got.k_values == want.k_values


def test_exact_deviation_matches_the_full_width_pass_in_float_hex():
    """Every P_k is the full-width pass's float, clamped at 0, on the same
    seeded draws."""
    for shift, ceiling, epsilon, ks, l_max, _ in _PARITY_DRAWS:
        got = exact_deviation_prob(shift, ceiling, epsilon, ks, l_max)
        want = oracles.exact_deviation_prob(shift, ceiling, epsilon, ks, l_max)
        assert _hex(got) == _hex(max(0.0, p) for p in want), (epsilon, ks, l_max)


def test_fit_decay_on_pure_geometric_sequence():
    ks = (2, 4, 6, 8)
    probabilities = [0.5 ** k for k in ks]
    assert fit_decay(ks, probabilities) == pytest.approx(0.5)
    assert fit_decay((3,), (0.0,)) is None


# ---------------------------------------------------------------------------
# Samplers against draw-for-draw references
# ---------------------------------------------------------------------------

def _survival_reference(system, hole, config):
    """The counts sampler stepped block by block on the dense block matrix of
    the tower of ``_survival_tower``: one multinomial draw of the start
    counts, then, in block order, an interior block's count moved up a level
    and one ``rng.multinomial`` call per occupied top, over the steps of its
    row's cumulative weights cut at 1. The call's last category is the last
    link of a row whose weight reaches 1, else a dead state past the blocks."""
    links, heights, start, delay = _survival_tower(system, hole)
    tops = np.cumsum(heights) - 1
    starts = tops - heights + 1
    size = int(heights.sum())
    matrix = np.zeros((size, size))
    matrix[tops[:, None], starts] = dense(links, len(heights))
    mass = _survival_curve(start, links, delay, heights)[1]
    dead = size

    rng = np.random.default_rng(config.seed)
    counts = rng.multinomial(config.samples, np.append(mass, 0.0))
    estimates = np.empty(config.t_max + 1)
    stderrs = np.zeros(config.t_max + 1)
    estimates[0] = 1.0
    for t in range(1, config.t_max + 1):
        if t > 1:
            moved = np.zeros_like(counts)
            moved[dead] = counts[dead]
            for i in range(size):
                if counts[i] == 0:
                    continue
                if i not in tops:
                    moved[i + 1] += counts[i]
                    continue
                js = np.nonzero(matrix[i])[0].tolist()
                cum = np.minimum(np.cumsum(matrix[i, js]), 1.0)
                shares = np.diff(cum, prepend=0.0).tolist()
                if js and cum[-1] == 1.0:
                    explicit, last = js[:-1], js[-1]
                else:
                    explicit, last = js, dead
                draw = rng.multinomial(counts[i], shares[: len(explicit)] + [0.0])
                for j, c in zip(explicit + [last], draw.tolist()):
                    moved[j] += c
            counts = moved
        p_hat = (config.samples - int(counts[dead])) / config.samples
        estimates[t] = p_hat
        stderrs[t] = math.sqrt(p_hat * (1.0 - p_hat) / config.samples)
    return estimates, stderrs


def _deviation_reference(shift, ceiling, epsilon, k_values, config, l_max):
    """The counts sampler stepped cell by cell: a dict of cells (ceiling sum,
    suffix, tag), visited in sorted order, which is the sampler's key order.
    One multinomial draw of the n-words from their normalized cylinder
    masses; then, at each l, a cell whose average deviates (the float test,
    from l = min k) takes l's k bucket as its tag, or goes to a sink in the
    last bucket. A cell is then settled, its count added to its tag's total,
    when the float test keeps S + d h_min and S + d h_max at every tested
    l + d up to l_max; at l_max every cell is. Before the next l, one
    ``rng.multinomial`` call per unsettled cell over its last letter's
    successors, on the steps of their cumulative weights cut at 1, the last
    successor taking what the others leave."""
    ks, l_max, heights, lam, n, mean, masses, _ = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    depth = max(n - 1, 1)
    suffixes = admissible_words(shift, depth)
    index = {w: i for i, w in enumerate(suffixes)}
    bucket = [sum(k <= l for k in ks) - 1 for l in range(1, l_max + 1)]
    last_bucket = len(ks) - 1
    h_min, h_max = min(heights.values()), max(heights.values())
    settled_at = {}

    def settled(l, total):
        if (l, total) not in settled_at:
            settled_at[l, total] = all(
                abs(lam * (total + (later - l) * h) / later - mean) < epsilon
                for later in range(max(l + 1, ks[0]), l_max + 1)
                for h in (h_min, h_max)
            )
        return settled_at[l, total]
    # Per suffix: the shares of its successors and, for each, (gain, next suffix).
    branches = []
    for w in suffixes:
        succ = np.flatnonzero(shift.transitions[w[-1]]).tolist()
        cum = np.minimum(np.cumsum(shift.transitions[w[-1], succ]), 1.0)
        steps = [(heights[(w + (b,))[-n:]], index[(w + (b,))[-depth:]]) for b in succ]
        branches.append((np.diff(cum, prepend=0.0), steps))

    rng = np.random.default_rng(config.seed)
    cells = {}
    start = rng.multinomial(config.samples, masses / masses.sum())
    for (w, h), c in zip(heights.items(), start.tolist()):
        if c:
            cell = (h, index[w[-depth:]], 0)
            cells[cell] = cells.get(cell, 0) + c
    sink = 0
    totals = [0] * (len(ks) + 1)
    for l in range(1, l_max + 1):
        moved = {}
        for (total, s, tag), c in sorted(cells.items()):
            if l >= ks[0] and abs(lam * total / l - mean) >= epsilon:
                if bucket[l - 1] == last_bucket:
                    sink += c
                    continue
                tag = bucket[l - 1] + 1
            if settled(l, total):
                totals[tag] += c
                continue
            shares, steps = branches[s]
            for (gain, nxt), got in zip(steps, rng.multinomial(c, shares).tolist()):
                if got:
                    cell = (total + gain, nxt, tag)
                    moved[cell] = moved.get(cell, 0) + got
        cells = moved
    assert not cells
    hits = [sink + sum(totals[i + 1 :]) for i in range(len(ks))]
    probabilities = np.array(hits) / config.samples
    return probabilities, np.sqrt(probabilities * (1.0 - probabilities) / config.samples)


_STREAMING_CASES = {
    "step-full2": (_FULL2, _STEP_CEILING, (0,)),
    # Three letters and a forbidden transition: two threshold columns.
    "three-letter": (
        _THREE,
        cylinder_function(1, {(0,): 1.0, (1,): 2.0, (2,): 3.0}, lattice=1.0),
        (1, 0),
    ),
    "order-2": (_BIASED2, _ORDER2_CEILING, (0, 1, 1)),
    # A window code of three letters: the step keeps its last two.
    "order-3": (_THREE, _ORDER3_CEILING, (0, 2)),
    # Every tower block has one successor: no threshold column.
    "cycle2": (_CYCLE2, cylinder_function(1, {(0,): 3.0, (1,): 4.0}, lattice=1.0), (0,)),
    # Heights 10 and 17: interior tower blocks have a single successor.
    "lattice-0.05": (
        _FULL2, cylinder_function(1, {(0,): 0.5, (1,): 0.85}, lattice=0.05), (1, 1)
    ),
}


@pytest.mark.parametrize("name", sorted(_STREAMING_CASES))
@pytest.mark.parametrize("seed", (0, 7, 42))
def test_samplers_equal_block_draw_reference(name, seed):
    shift, ceiling, hole = _STREAMING_CASES[name]
    system = build_suspension(shift, ceiling)
    config = SimulationConfig(seed=seed, samples=3000, t_max=40)
    est = estimate_survival(system, hole, config)
    want_estimates, want_stderrs = _survival_reference(system, hole, config)
    assert np.array_equal(est.estimates, want_estimates)
    assert np.array_equal(est.stderrs, want_stderrs)

    # At epsilon 0.001 most l keep no sum at all (``_kept_sums`` gives lo > hi).
    # The second k list tests from l = 1 and has a last bucket of l_max alone.
    for epsilon in (0.1, 0.001):
        for ks in ((2, 5, 10, 20), (1, 2, 5, 10, 20, 60)):
            dev = estimate_deviation_prob(shift, ceiling, epsilon, ks, config, l_max=60)
            want_p, want_se = _deviation_reference(shift, ceiling, epsilon, ks, config, 60)
            assert np.array_equal(dev.probabilities, want_p)
            assert np.array_equal(dev.stderrs, want_se)
            assert np.any(want_p > 0.0)


@pytest.mark.parametrize("name", ["step-full2", "lattice-0.05", "order-2"])
def test_survival_counts_follow_the_exact_curve_at_a_trillion_samples(name):
    """The counts chain has the law of the per-sample walk: at 10^12 samples,
    every point of the curve lies within 5 of its standard deviations,
    sqrt(S(1 - S) / samples), of the exact curve. The holes (1, 1) and
    (0, 1, 1) are longer than their orders, 1 and 2."""
    shift, ceiling, hole = _STREAMING_CASES[name]
    system = build_suspension(shift, ceiling)
    config = SimulationConfig(seed=11, samples=10**12, t_max=40)
    est = estimate_survival(system, hole, config)
    exact = survival_curve_flow(system, hole, config.t_max)
    sigma = np.sqrt(exact * (1.0 - exact) / config.samples)
    assert np.all(sigma[1:] > 0.0)
    assert np.all(np.abs(est.estimates - exact)[1:] <= 5.0 * sigma[1:])


def test_survival_samples_a_row_sum_just_above_one():
    """Letter 2's row sums to 1 + 5e-10, inside the shift's tolerance (the
    letter is rare, so the stationary residual stays below 1e-12). Its last
    link takes the remainder, so no multinomial call sees probabilities
    summing past 1, as all three links would: numpy rejects those."""
    shift = build_markov_shift(
        [[0.6, 0.3999, 0.0001], [0.5, 0.4999, 0.0001], [0.3, 0.2, 0.5 + 5e-10]]
    )
    assert shift.transitions[2].sum() > 1.0 + 1e-10
    with pytest.raises(ValueError):
        np.random.default_rng(0).multinomial(5, np.append(shift.transitions[2], 0.0))
    ceiling = cylinder_function(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0}, lattice=1.0)
    system = build_suspension(shift, ceiling)
    config = SimulationConfig(seed=3, samples=10**6, t_max=20)
    est = estimate_survival(system, (0, 0), config)
    exact = survival_curve_flow(system, (0, 0), config.t_max)
    assert np.all(np.diff(est.estimates) <= 0.0)
    sigma = np.sqrt(exact * (1.0 - exact) / config.samples)
    assert np.all(np.abs(est.estimates - exact)[1:] <= 5.0 * sigma[1:])


@pytest.mark.parametrize("name", ["step-full2", "order-2", "order-3", "lattice-0.05"])
def test_deviation_counts_follow_the_exact_dp_at_a_trillion_samples(name):
    """The counts chain has the law of the per-sample walk: at 10^12 samples,
    every P_k lies within 5 of its standard deviations, sqrt(P(1 - P) /
    samples), of the exact lattice-sum DP. Settled cells leave the steps
    with their tags, and from k = 1 a cell may carry any tag. Where every
    l = 1 average deviates, P_1 is 1 and the bound asks for exactly 1. The
    lattice-0.05 averages lie in [0.5, 0.85], so its epsilon is 0.08."""
    shift, ceiling, _ = _STREAMING_CASES[name]
    epsilon = 0.08 if name == "lattice-0.05" else 0.25
    config = SimulationConfig(seed=11, samples=10**12, t_max=1)
    for ks in ((5, 10, 20, 40), (1, 5, 10, 20, 40)):
        est = estimate_deviation_prob(shift, ceiling, epsilon, ks, config, l_max=160)
        exact = np.array(exact_deviation_prob(shift, ceiling, epsilon, ks, 160))
        sigma = np.sqrt(exact * (1.0 - exact) / config.samples)
        assert np.all(sigma[1:] > 0.0) and (ks[0] == 1 or sigma[0] > 0.0)
        assert np.all(np.abs(est.probabilities - exact) <= 5.0 * sigma), ks


def test_deviation_samples_a_row_sum_just_above_one():
    """Letter 1's row sums to 1 + 6e-10 and its links before the last column
    already pass 1, so numpy rejects the raw row. The sampler's shares are
    cut at 1, its last successor taking the remainder, and the estimate
    stays within 5 sigma of the exact DP."""
    shift = build_markov_shift(
        [[0.3, 0.2, 0.5 + 5e-10], [0.6, 0.4 + 5e-10, 1e-10], [0.2, 0.2, 0.6]]
    )
    assert shift.transitions[1, :-1].sum() > 1.0 + 1e-10
    with pytest.raises(ValueError):
        np.random.default_rng(0).multinomial(5, shift.transitions[1])
    ceiling = cylinder_function(1, {(0,): 1.0, (1,): 2.0, (2,): 1.0}, lattice=1.0)
    ks = (5, 10, 20, 40)
    config = SimulationConfig(seed=3, samples=10**6, t_max=1)
    est = estimate_deviation_prob(shift, ceiling, 0.25, ks, config, l_max=160)
    exact = np.array(exact_deviation_prob(shift, ceiling, 0.25, ks, 160))
    sigma = np.sqrt(exact * (1.0 - exact) / config.samples)
    assert np.all(sigma > 0.0)
    assert np.all(np.abs(est.probabilities - exact) <= 5.0 * sigma)


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_linear_in_samples(full2, step_ceiling, step_system):
    """Both samplers step counts, so no array grows with the samples: a
    (400, 20 000) block of per-sample steps alone would be 64 MB."""
    deviation = SimulationConfig(seed=5, samples=20_000, t_max=1)
    peak = _traced_peak_mb(
        lambda: estimate_deviation_prob(full2, step_ceiling, 0.25, (5, 50), deviation, l_max=400)
    )
    assert peak < 8.0
    survival = SimulationConfig(seed=5, samples=100_000, t_max=64)
    assert _traced_peak_mb(lambda: estimate_survival(step_system, (0,), survival)) < 16.0
