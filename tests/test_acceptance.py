"""Acceptance suite: the thirteen advertised guarantees, one test each.

Every test states one end-to-end guarantee of the library and asserts it at
desk scale (alphabets up to 3, hole lengths up to 5, suites within a minute).
Numerical targets are either closed-form values or cross-checks between
independent computation routes; nothing here is tuned to the implementation.
"""

import functools
import math

import numpy as np
import pytest

import property_suites
from flowescape import (
    SimulationConfig,
    SurvivalEstimate,
    admissible_words,
    build_family,
    build_markov_shift,
    build_suspension,
    constant_function,
    cylinder_function,
    cylinder_measure,
    escape_rate_flow,
    escape_rate_from_survival_slope,
    escape_rate_zeta,
    estimate_deviation_prob,
    estimate_survival,
    exact_deviation_prob,
    expansion_coefficients,
    family_hole_word,
    fit_escape_rate,
    induced_pressure_truncated,
    induced_pressure_via_root,
    is_reduced,
    local_rate_sweep,
    second_order_check,
    survival_curve_flow,
    verify_expansion,
    zeta_op_factorized,
)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@functools.cache
def _shift(name):
    rows = {
        "full2": [[0.5, 0.5], [0.5, 0.5]],
        "gm": [[0.5, 0.5], [1.0, 0.0]],
        "biased2": [[0.9, 0.1], [0.2, 0.8]],
        "full3": [[1.0 / 3.0] * 3] * 3,
    }[name]
    return build_markov_shift(rows)


def _ceiling(shift, kind):
    if kind == "unit":
        return constant_function(shift, 1.0)
    if kind == "const2":
        return constant_function(shift, 2.0)
    if kind.startswith("step"):
        sym = int(kind[4:])
        values = {w: (2.0 if w[0] == sym else 1.0) for w in admissible_words(shift, 1)}
        return cylinder_function(1, values, lattice=1.0)
    if kind == "order2":
        values = {
            w: (2.0 if w[0] == w[1] else 1.0) for w in admissible_words(shift, 2)
        }
        return cylinder_function(2, values, lattice=1.0)
    raise ValueError(kind)


@functools.cache
def _system(shift_name, ceiling_kind):
    shift = _shift(shift_name)
    return build_suspension(shift, _ceiling(shift, ceiling_kind))


def _reduced_holes(shift, lengths, min_length):
    return [
        word
        for length in lengths
        if length >= min_length
        for word in admissible_words(shift, length)
        if is_reduced(shift, word)
    ]


def _zeta_grid(lengths):
    """(system, hole) pairs over four shifts and three ceiling shapes."""
    pairs = []
    for shift_name in ("full2", "gm", "biased2", "full3"):
        shift = _shift(shift_name)
        for ceiling_kind in ("unit", "step0", "order2"):
            system = _system(shift_name, ceiling_kind)
            for hole in _reduced_holes(shift, lengths, system.order):
                pairs.append((shift_name, ceiling_kind, system, hole))
    return pairs


# The shrinking-hole families exercised by criteria 5 through 9: periodic
# base words x with c_o < 1 across all four shifts and ceiling shapes.
FAMILY_SPECS = (
    ("full2", "unit", (0,)),
    ("full2", "unit", (0, 1)),
    ("full2", "step0", (0, 1)),
    ("gm", "step0", (0, 1)),
    ("gm", "unit", (0,)),
    ("full3", "step1", (0,)),
    ("full2", "const2", (0,)),
)


def _families():
    out = []
    for shift_name, ceiling_kind, word in FAMILY_SPECS:
        shift = _shift(shift_name)
        out.append(
            (
                shift_name,
                ceiling_kind,
                word,
                build_family(shift, _ceiling(shift, ceiling_kind), word),
            )
        )
    return out


def test_criterion_01_exact_baselines():
    """Two closed-form rates, each via matrix radius, zeta root, DP slope."""
    system = _system("full2", "unit")
    shift = _shift("full2")
    targets = {
        (0,): (math.log(2.0), 1e-12),
        (0, 0): (math.log(2.0) - math.log(GOLDEN), 1e-10),
    }
    for hole, (target, tol) in targets.items():
        assert escape_rate_flow(system, hole) == pytest.approx(target, abs=tol)
        assert escape_rate_zeta(system, hole) == pytest.approx(target, abs=tol)
        slope = escape_rate_from_survival_slope(shift, hole)
        assert slope == pytest.approx(target, abs=1e-6)


def test_criterion_02_suspension_baseline():
    """Doubling the ceiling on [1] halves the full-shift rate through [0]."""
    system = _system("full2", "step1")
    target = 0.5 * math.log(2.0)
    for representation in ("refined", "bordered"):
        rate = escape_rate_flow(system, (0,), representation=representation)
        assert rate == pytest.approx(target, abs=1e-10)


def test_criterion_03_factorization_identity():
    """Assembled open zeta inverse matches the direct determinant."""
    pairs = _zeta_grid(lengths=(2, 3, 4, 5))
    assert len(pairs) >= 50
    worst = max(
        zeta_op_factorized(system, hole).max_deviation
        for _, _, system, hole in pairs
    )
    assert worst < 1e-9


def test_criterion_04_cofactor_lemma():
    """Cofactor at one equals hole-word measure times deflated closed part."""
    pairs = _zeta_grid(lengths=(2, 3, 4, 5))
    assert len(pairs) >= 50
    worst = 0.0
    for _, _, system, hole in pairs:
        bundle = zeta_op_factorized(system, hole)
        gap = abs(bundle.cofactor_value - bundle.cofactor_predicted)
        worst = max(worst, gap * system.mass_normalized)
    assert worst < 1e-9


def test_criterion_05_local_escape_rate():
    """rate/measure approaches (1 - c_o)/mass, monotonically from nu_min+2."""
    for shift_name, ceiling_kind, word, family in _families():
        shift = _shift(shift_name)
        nus = list(range(family.nu_min + 2, 9))
        report = local_rate_sweep(shift, _ceiling(shift, ceiling_kind), word, nus)
        rels = [
            abs(row.ratio_ceiling - report.limit_ceiling) / report.limit_ceiling
            for row in report.rows
        ]
        label = (shift_name, ceiling_kind, word)
        assert rels[-1] < 0.05, label
        assert all(b < a for a, b in zip(rels, rels[1:])), label


def test_criterion_06_quotient_law():
    """Ceiling rate times mass matches the unit-ceiling rate at nu = 10."""
    for shift_name, ceiling_kind, word, family in _families():
        hole = family_hole_word(family, 10)
        mu_nu = cylinder_measure(_shift(shift_name), hole)
        rate_ceiling = escape_rate_flow(_system(shift_name, ceiling_kind), hole)
        rate_unit = escape_rate_flow(_system(shift_name, "unit"), hole)
        gap = abs(
            (rate_ceiling / mu_nu) * family.system.total_mass - rate_unit / mu_nu
        )
        tol = 1e-3 * (1.0 - family.orbit_weight)
        assert gap < tol, (shift_name, ceiling_kind, word)


def test_criterion_07_expansion_coefficients():
    """Recursion s_1 is bit-exact against the closed form, s_2 within 1e-9."""
    for shift_name, ceiling_kind, word, family in _families():
        for nu in range(family.nu_min, family.nu_min + 5):
            coeffs = expansion_coefficients(family, nu, 2)
            dev1 = abs(coeffs.s_normalized[0] - coeffs.closed_normalized[0])
            assert dev1 <= np.spacing(abs(coeffs.closed_normalized[0]))
            dev2 = abs(coeffs.s_normalized[1] - coeffs.closed_normalized[1])
            assert dev2 < 1e-9, (shift_name, ceiling_kind, word, nu)

    unit_family = build_family(
        _shift("full2"), _ceiling(_shift("full2"), "unit"), (0,)
    )
    for nu in range(4, 11):
        coeffs = expansion_coefficients(unit_family, nu, 2)
        assert coeffs.s_normalized[0] == pytest.approx(0.5, abs=1e-14)
        assert coeffs.s_normalized[1] == pytest.approx((nu + 1) / 4.0, abs=1e-12)
    assert expansion_coefficients(unit_family, 4, 2).s_normalized[1] == (
        pytest.approx(1.25, abs=1e-12)
    )


def test_criterion_08_residuals_beyond_every_order():
    """|z_nu - partial sum| / mu_nu^k keeps shrinking for k = 1 and k = 2."""
    for shift_name, ceiling_kind, word, family in _families():
        for order in (1, 2):
            rows = verify_expansion(family, list(range(4, 11)), order)
            residuals = [row.residual_over_mu_k for row in rows]
            label = (shift_name, ceiling_kind, word, order)
            assert all(b < a for a, b in zip(residuals, residuals[1:])), label
            assert residuals[-1] < 0.2 * residuals[0], label


def test_criterion_09_second_order_limit():
    """(rate - s_1 mu)/(nu mu^2) sits within 10% of s_1^2 S_p(phi) at nu 10."""
    named = FAMILY_SPECS + (("full2", "step1", (1,)),)
    for shift_name, ceiling_kind, word in named:
        shift = _shift(shift_name)
        family = build_family(shift, _ceiling(shift, ceiling_kind), word)
        report = second_order_check(family, [10])
        rel = abs(report.rows[0].ratio - report.limit) / report.limit
        assert rel < 0.1, (shift_name, ceiling_kind, word)
        if (shift_name, ceiling_kind, word) == ("full2", "unit", (0,)):
            assert report.limit == pytest.approx(0.25, abs=1e-14)
        if (shift_name, ceiling_kind, word) == ("full2", "step1", (1,)):
            assert report.limit == pytest.approx(2.0 / 9.0, abs=1e-14)


def test_criterion_10_property_suites():
    """All randomized invariant suites report zero violations."""
    for name in sorted(property_suites.ALL_SUITES):
        violations = property_suites.ALL_SUITES[name](trials=100)
        assert violations == [], (name, violations)


def test_criterion_11_induced_pressure():
    """Pressure root beta* equals -rate; truncated estimate lands nearby."""
    pairs = _zeta_grid(lengths=(2, 3))[::2]
    checked = 0
    for shift_name, ceiling_kind, system, hole in pairs:
        rate = escape_rate_flow(system, hole)
        if not math.isfinite(rate):
            continue
        shift = _shift(shift_name)
        beta = induced_pressure_via_root(shift, _ceiling(shift, ceiling_kind), hole)
        assert abs(beta + rate) < 1e-8, (shift_name, ceiling_kind, hole)
        checked += 1
    assert checked >= 50

    truncated_pairs = (
        ("full2", "unit", (0, 0)),
        ("full2", "step0", (0, 1)),
        ("gm", "unit", (0, 1)),
        ("biased2", "unit", (1, 1)),
        ("full3", "unit", (0, 1)),
        ("full2", "order2", (0, 1, 1)),
    )
    for shift_name, ceiling_kind, hole in truncated_pairs:
        shift = _shift(shift_name)
        rate = escape_rate_flow(_system(shift_name, ceiling_kind), hole)
        estimate = induced_pressure_truncated(
            shift, _ceiling(shift, ceiling_kind), hole, t_max=200.0
        )
        assert abs(estimate + rate) < 0.05, (shift_name, ceiling_kind, hole)


def _monte_carlo_cells(samples):
    """Grid cells whose noise-free fit brackets the rate with 25% margin.

    A cell qualifies when the exact survival curve keeps at least 200
    expected survivors at some horizon in [8, 24] and the bracket built from
    the exact curve with binomial error bars contains the true rate with at
    least a quarter of the bracket width to spare on both sides. The margin
    filters out cells whose sampling noise would dominate the check.
    """
    cells = []
    for shift_name in ("full2", "gm", "biased2", "full3"):
        shift = _shift(shift_name)
        for ceiling_kind in ("unit", "step0", "step1"):
            system = _system(shift_name, ceiling_kind)
            for hole in _reduced_holes(shift, (1, 2, 3), system.order):
                rate = escape_rate_flow(system, hole)
                if not math.isfinite(rate):
                    continue
                curve = survival_curve_flow(system, hole, 24)
                t_max = next(
                    (t for t in range(24, 7, -1) if curve[t] * samples >= 200.0),
                    None,
                )
                if t_max is None:
                    continue
                probs = curve[: t_max + 1].copy()
                stderrs = np.sqrt(probs * (1.0 - probs) / samples)
                stderrs[0] = 0.0
                synthetic = SurvivalEstimate(
                    ts=np.arange(t_max + 1),
                    estimates=probs,
                    stderrs=stderrs,
                    config=SimulationConfig(seed=42, samples=samples, t_max=t_max),
                    lattice_scale=system.lattice_scale,
                )
                fit = fit_escape_rate(synthetic)
                width = fit.upper - fit.lower
                if not math.isfinite(width):
                    continue
                if rate - fit.lower <= 0.25 * width:
                    continue
                if fit.upper - rate <= 0.25 * width:
                    continue
                cells.append((system, hole, rate, t_max))
    return cells


def test_criterion_12_monte_carlo():
    """Seeded sampling matches 2^-10, brackets the rate, reruns identically."""
    samples = 100_000

    system = _system("full2", "unit")
    config = SimulationConfig(seed=42, samples=samples, t_max=10)
    estimate = estimate_survival(system, (0,), config)
    gap = abs(float(estimate.estimates[10]) - 2.0 ** -10)
    assert gap <= 3.0 * float(estimate.stderrs[10])

    cells = _monte_carlo_cells(samples)
    assert len(cells) >= 20
    contained = 0
    for system, hole, rate, t_max in cells:
        cell_config = SimulationConfig(seed=42, samples=samples, t_max=t_max)
        fit = fit_escape_rate(estimate_survival(system, hole, cell_config))
        contained += fit.lower <= rate <= fit.upper
    assert contained / len(cells) >= 0.99

    system, hole, _, t_max = cells[0]
    rerun_config = SimulationConfig(seed=42, samples=samples, t_max=t_max)
    first = estimate_survival(system, hole, rerun_config)
    second = estimate_survival(system, hole, rerun_config)
    assert first.estimates.tobytes() == second.estimates.tobytes()
    assert first.stderrs.tobytes() == second.stderrs.tobytes()


def test_criterion_13_deviation_diagnostic():
    """Sampled Birkhoff deviation tails match the DP and decay."""
    shift = _shift("full2")
    ceiling = _ceiling(shift, "step1")
    ks = (5, 10, 20, 40)
    config = SimulationConfig(seed=42, samples=20_000, t_max=1)
    estimate = estimate_deviation_prob(shift, ceiling, 0.25, ks, config, l_max=160)
    exact = exact_deviation_prob(shift, ceiling, 0.25, ks, 160)
    for i, k in enumerate(ks):
        z = (float(estimate.probabilities[i]) - exact[i]) / float(
            estimate.stderrs[i]
        )
        assert abs(z) < 3.0, k
    assert estimate.decay is not None
    assert estimate.decay < 1.0
