"""Seeded sampling against exact counterparts, and the deviation diagnostic."""

import math

import numpy as np
import pytest

from flowescape import (
    AllMassEscapedError,
    SimulationConfig,
    SurvivalEstimate,
    escape_rate_flow,
    estimate_deviation_prob,
    estimate_survival,
    exact_deviation_prob,
    fit_decay,
    fit_escape_rate,
    survival_curve_flow,
)


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
        fit_escape_rate(dead, window=(2, 5))
    with pytest.raises(ValueError):
        fit_escape_rate(dead, window=(0, 5))


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


def test_fit_decay_on_pure_geometric_sequence():
    ks = (2, 4, 6, 8)
    probabilities = [0.5 ** k for k in ks]
    assert fit_decay(ks, probabilities) == pytest.approx(0.5)
    assert fit_decay((3,), (0.0,)) is None
