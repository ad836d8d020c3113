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
from flowescape.montecarlo import _deviation_setup, _kept_sums
from flowescape.open_system import _survival_tower
from flowescape.shift import (
    _gain_plan,
    _gain_step,
    _lattice_operators,
    _survival_curve,
    cylinder_measure,
)
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
    ks, l_max, heights, lam, n, mean, _ = _deviation_setup(full2, ceiling, epsilon, (10,), 60)
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
    _, _, _, lam, _, mean, _ = _deviation_setup(full2, step_ceiling, 0.25, (4,), 4)
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
    read, write, p = _gain_plan(operators, 13)
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


def _per_k_deviation_dp(shift, ceiling, epsilon, k_values, l_max):
    """The per-k absorbing DP: one full l_max-step pass per k, with the mass
    that has deviated at any l >= k zeroed as it goes. It steps one link at
    a time (``oracles.lattice_step``), not with the library's operators."""
    ks, l_max, heights, lam, n, mean, _ = _deviation_setup(
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


def test_fit_decay_on_pure_geometric_sequence():
    ks = (2, 4, 6, 8)
    probabilities = [0.5 ** k for k in ks]
    assert fit_decay(ks, probabilities) == pytest.approx(0.5)
    assert fit_decay((3,), (0.0,)) is None


# ---------------------------------------------------------------------------
# Streamed draws against the block-draw reference
# ---------------------------------------------------------------------------

def _survival_reference(system, hole, config):
    """The block-draw sampler on the tower of ``_survival_tower``: its dense
    block matrix, every uniform drawn up front as one (t_max + 1, samples)
    block, and picks from a (samples, width) comparison. A row's deficit
    branches to a dead state past the blocks."""
    links, heights, start, delay = _survival_tower(system, hole)
    tops = np.cumsum(heights) - 1
    starts = tops - heights + 1
    size = int(heights.sum())
    matrix = np.eye(size, k=1)
    matrix[tops] = 0.0
    matrix[tops[:, None], starts] = dense(links, len(heights))
    mass = _survival_curve(start, links, delay, heights)[1]
    init_cum = np.cumsum(mass)
    dead = size
    rows = [np.nonzero(matrix[i] > 0.0)[0] for i in range(size)]
    cums = [np.cumsum(matrix[i, js]) for i, js in enumerate(rows)]
    width = 1 + max(len(js) for js in rows)
    targets = np.full((size + 1, width), dead, dtype=np.int64)
    thresholds = np.full((size + 1, width - 1), 2.0)
    for i, (js, cum) in enumerate(zip(rows, cums)):
        targets[i, : len(js)] = js
        kept = cum if len(js) == 0 or cum[-1] < 1.0 else cum[:-1]
        thresholds[i, : len(kept)] = kept

    uniforms = np.random.default_rng(config.seed).random(
        (config.t_max + 1, config.samples)
    )
    states = np.searchsorted(init_cum, uniforms[0], side="right")
    estimates = np.empty(config.t_max + 1)
    stderrs = np.zeros(config.t_max + 1)
    estimates[0] = 1.0
    for t in range(1, config.t_max + 1):
        if t > 1:
            picks = (uniforms[t - 1][:, None] > thresholds[states]).sum(axis=1)
            states = targets[states, picks]
        p_hat = np.count_nonzero(states != dead) / config.samples
        estimates[t] = p_hat
        stderrs[t] = math.sqrt(p_hat * (1.0 - p_hat) / config.samples)
    return estimates, stderrs


def _deviation_reference(shift, ceiling, epsilon, k_values, config, l_max):
    """The block-draw deviation sampler: a (steps, samples) symbol matrix, an
    (l_max, samples) deviation matrix and a flipped or-accumulate."""
    ks, l_max, heights, lam, n, mean, _ = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    size = shift.alphabet_size
    kmap = np.zeros(size ** n, dtype=np.int64)
    for w, k in heights.items():
        code = 0
        for a in w:
            code = code * size + a
        kmap[code] = k
    steps = l_max + n - 1
    uniforms = np.random.default_rng(config.seed).random((steps, config.samples))
    pi_cum = np.cumsum(shift.stationary)[:-1]
    trans_cum = np.cumsum(shift.transitions, axis=1)[:, :-1]
    symbols = np.empty((steps, config.samples), dtype=np.int64)
    symbols[0] = np.searchsorted(pi_cum, uniforms[0], side="right")
    for i in range(1, steps):
        symbols[i] = (uniforms[i][:, None] > trans_cum[symbols[i - 1]]).sum(axis=1)
    codes = np.zeros(config.samples, dtype=np.int64)
    for i in range(n):
        codes = codes * size + symbols[i]
    running = np.zeros(config.samples, dtype=np.int64)
    deviated = np.zeros((l_max, config.samples), dtype=bool)
    for l in range(1, l_max + 1):
        running = running + kmap[codes]
        deviated[l - 1] = np.abs(lam * running / l - mean) >= epsilon
        if l < l_max:
            codes = (codes % size ** (n - 1)) * size + symbols[l + n - 1]
    any_from = np.flip(np.logical_or.accumulate(np.flip(deviated, axis=0), axis=0), axis=0)
    probabilities = np.array([any_from[k - 1].mean() for k in ks])
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


class _GivenRows:
    """A uniform stream whose next row is ``row``, in place of PCG64."""

    def __init__(self, row):
        self.row = row

    def random(self, out):
        out[:] = self.row


# Cumulative distributions the start draw must read as searchsorted does:
# ties from zero-mass entries (first, inside, and long runs inside and last),
# entries on the guide's bucket edges k / (len + 1), exact and rounded, a
# last entry below 1 (the rest is the sink's) and one just above it.
_START_CDFS = {
    "ties": np.cumsum([0.0, 0.0, 0.1, 0.0, 0.0, 0.25, 0.3, 0.0, 0.2]),
    "binary-edges": np.array([0.125, 0.25, 0.25, 0.375, 0.625, 0.75, 0.875]),
    "decimal-edges": np.array([0.2, 0.4, 0.6, 0.8]),
    "below-one": np.cumsum(np.concatenate([np.full(40, 0.01), np.zeros(300)])),
    "long-tie-inside": np.concatenate(
        [np.linspace(0.0, 0.5, 41)[1:], np.full(300, 0.5 + 1e-5), [0.75]]
    ),
    "above-one": np.array([0.3, 0.7, 1.0 + 2.0**-52]),
    "one-entry": np.array([0.5]),
    "empty": np.zeros(0),
    "skewed": np.cumsum(np.random.default_rng(3).random(500) ** 12) / 40.0,
}


@pytest.mark.parametrize("name", sorted(_START_CDFS))
def test_start_draw_equals_searchsorted(name):
    cum = _START_CDFS[name]
    edges = np.arange(len(cum) + 2) / (len(cum) + 1)
    points = np.concatenate([cum, edges])
    row = np.concatenate(
        [
            np.random.default_rng(11).random(20_000),
            points,
            np.nextafter(points, -1.0),
            np.nextafter(points, 2.0),
            [0.0, 1.0 - 2.0**-53],
        ]
    )
    row = row[(row >= 0.0) & (row < 1.0)]
    start, _ = montecarlo._brancher(
        _GivenRows(row), np.zeros(2), np.zeros(3, dtype=np.int64), 3, len(row)
    )
    assert np.array_equal(start(cum), 3 * np.searchsorted(cum, row, side="right"))


def _traced_peak_mb(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_sampler_memory_is_linear_in_samples(full2, step_ceiling, step_system):
    """No (steps, samples) array: a (400, 20 000) block alone is 64 MB."""
    deviation = SimulationConfig(seed=5, samples=20_000, t_max=1)
    peak = _traced_peak_mb(
        lambda: estimate_deviation_prob(full2, step_ceiling, 0.25, (5, 50), deviation, l_max=400)
    )
    assert peak < 8.0
    survival = SimulationConfig(seed=5, samples=100_000, t_max=64)
    assert _traced_peak_mb(lambda: estimate_survival(step_system, (0,), survival)) < 16.0
