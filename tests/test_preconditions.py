"""Preconditions are uniform across routes: one ceiling, or one hole, gets the
same outcome on every route that reads it.

Every route reads a ceiling through the same checks: a missing value on a word
it reads is InadmissibleWordError, a value there that is not positive and
finite (NaN included) is NonPositiveCeilingError, a value stored on a word it
never reads is not looked at, and every lattice route takes its heights from
``build_suspension``, so a value that rounds to height 0 is
NonArithmeticCeilingError wherever a lattice is needed.
"""

import json
import math

import numpy as np
import pytest

from flowescape import (
    CylinderFunction,
    InadmissibleWordError,
    NonArithmeticCeilingError,
    NonPositiveCeilingError,
    SimulationConfig,
    build_family,
    build_suspension,
    check_pressure_equals_minus_rho,
    cylinder_function,
    escape_rate_flow,
    escape_rate_from_survival_slope,
    escape_rate_zeta,
    estimate_deviation_prob,
    estimate_survival,
    exact_deviation_prob,
    hole_quantities,
    induced_pressure_truncated,
    induced_pressure_via_root,
    superadditivity_check,
    survival_curve_flow,
    survival_measure_exact,
    zeta_op_factorized,
)
from flowescape.cli import main

HOLE = (0, 1)  # both letters avoid it, so every route reads both values

# Each route maps (shift, ceiling) to a comparable result.
CEILING_ROUTES = {
    "build_suspension": lambda s, c: build_suspension(s, c).heights.tolist(),
    "induced_pressure_truncated": lambda s, c: induced_pressure_truncated(s, c, HOLE, 20.0),
    "induced_pressure_via_root": lambda s, c: induced_pressure_via_root(s, c, HOLE),
    "exact_deviation_prob": lambda s, c: exact_deviation_prob(s, c, 0.25, (5, 10), 20),
    "estimate_deviation_prob": lambda s, c: estimate_deviation_prob(
        s, c, 0.25, (5, 10), SimulationConfig(seed=3, samples=200, t_max=10), l_max=20
    ).probabilities.tolist(),
    "build_family": lambda s, c: build_family(s, c, (0,)).system.heights.tolist(),
}
LATTICE_ROUTES = sorted(set(CEILING_ROUTES) - {"induced_pressure_via_root"})

UNIT = {(0,): 1.0, (1,): 1.0}
# No value on the letter 1.
MISSING = {(0,): 1.0}
# Values that are not positive and finite, stored on the letter 1. The
# lattice check leaves a value that is not finite to the routes.
NOT_POSITIVE = {"zero": 0.0, "negative": -1.0, "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
# 1e-13 sits on lattice 1 within the lattice tolerance, at height 0.
HEIGHT_ZERO = {(0,): 1.0, (1,): 1e-13}
# A negative value stored on a word outside the 2-letter alphabet.
UNREAD = {(0,): 1.0, (1,): 1.0, (2,): -1.0}


def _ceiling(values):
    return cylinder_function(1, values, lattice=1.0)


@pytest.mark.parametrize("route", sorted(CEILING_ROUTES))
def test_missing_value_is_inadmissible_on_every_route(full2, route):
    with pytest.raises(InadmissibleWordError):
        CEILING_ROUTES[route](full2, _ceiling(MISSING))


@pytest.mark.parametrize("value", sorted(NOT_POSITIVE))
@pytest.mark.parametrize("route", sorted(CEILING_ROUTES))
def test_value_not_positive_and_finite_is_non_positive_on_every_route(full2, route, value):
    with pytest.raises(NonPositiveCeilingError):
        CEILING_ROUTES[route](full2, _ceiling({(0,): 1.0, (1,): NOT_POSITIVE[value]}))


@pytest.mark.parametrize("route", LATTICE_ROUTES)
def test_height_zero_is_non_arithmetic_on_every_lattice_route(full2, route):
    with pytest.raises(NonArithmeticCeilingError):
        CEILING_ROUTES[route](full2, _ceiling(HEIGHT_ZERO))


def test_height_zero_is_read_by_the_root_pressure(full2):
    # The root needs no lattice, so it reads the value as the real 1e-13.
    # Only the fixed points 0 and 1 avoid the hole 01 forever, and the root
    # is set by the one of larger pressure: -log 2 on [0], under ceiling 1.
    got = induced_pressure_via_root(full2, _ceiling(HEIGHT_ZERO), HOLE)
    assert got == pytest.approx(-math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("route", sorted(CEILING_ROUTES))
def test_unread_value_is_ignored_on_every_route(full2, route):
    got = CEILING_ROUTES[route](full2, _ceiling(UNREAD))
    assert got == CEILING_ROUTES[route](full2, _ceiling(UNIT))


# Each route maps (shift, unit system, hole) to a call on that hole.
HOLE_ROUTES = {
    "hole_quantities": lambda s, system, h: hole_quantities(system, h),
    "escape_rate_flow": lambda s, system, h: escape_rate_flow(system, h),
    "survival_curve_flow": lambda s, system, h: survival_curve_flow(system, h, 5),
    "zeta_op_factorized": lambda s, system, h: zeta_op_factorized(system, h),
    "escape_rate_zeta": lambda s, system, h: escape_rate_zeta(system, h),
    "induced_pressure_truncated": lambda s, system, h: induced_pressure_truncated(
        s, system.ceiling, h, 20.0
    ),
    "induced_pressure_via_root": lambda s, system, h: induced_pressure_via_root(
        s, system.ceiling, h
    ),
    "check_pressure_equals_minus_rho": lambda s, system, h: check_pressure_equals_minus_rho(
        s, system.ceiling, h, 20.0
    ),
    "superadditivity_check": lambda s, system, h: superadditivity_check(
        s, h, system.ceiling, system.ceiling
    ),
    "estimate_survival": lambda s, system, h: estimate_survival(
        system, h, SimulationConfig(seed=1, samples=100, t_max=5)
    ),
    "survival_measure_exact": lambda s, system, h: survival_measure_exact(s, h, 5),
    "escape_rate_from_survival_slope": lambda s, system, h: escape_rate_from_survival_slope(s, h),
}


@pytest.mark.parametrize("route", sorted(HOLE_ROUTES))
def test_empty_hole_is_inadmissible_on_every_hole_route(full2, unit_system, route):
    with pytest.raises(InadmissibleWordError):
        HOLE_ROUTES[route](full2, unit_system, ())


def test_cli_deviation_with_a_missing_value_is_a_domain_error(capsys, tmp_path):
    model = tmp_path / "full2.json"
    model.write_text(json.dumps({"transitions": [[0.5, 0.5], [0.5, 0.5]]}))
    ceiling = tmp_path / "missing.json"
    ceiling.write_text(json.dumps({"order": 1, "values": {"0": 1.0}, "lattice": 1.0}))
    argv = ["deviation", "--model", str(model), "--ceiling", str(ceiling)]
    argv += ["--epsilon", "0.25", "--t-max", "10", "--seed", "1", "--samples", "200"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    doc = json.loads(captured.err)
    assert doc["command"] == "deviation"
    assert doc["error"]["code"] == "InadmissibleWord"


def test_superadditivity_does_not_depend_on_the_order_of_its_ceilings(golden_mean):
    # a holds a value on the inadmissible pair 11 as well; b does not.
    pairs = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.5}
    a = cylinder_function(2, {**pairs, (1, 1): 3.0})
    b = cylinder_function(2, pairs)
    ab = superadditivity_check(golden_mean, (0, 1), a, b)
    ba = superadditivity_check(golden_mean, (0, 1), b, a)
    assert (ab.pressure_a, ab.pressure_b) == (ba.pressure_b, ba.pressure_a)
    assert ab.pressure_sum == ba.pressure_sum
    assert ab.holds and ba.holds
    assert np.isfinite(ab.slack)


def test_one_lattice_tolerance(full2):
    # 1e-10 relative off the lattice: past the tolerance of both checks.
    values = {(0,): 1.0 + 1e-10, (1,): 2.0}
    with pytest.raises(NonArithmeticCeilingError):
        cylinder_function(1, values, lattice=1.0)
    with pytest.raises(NonArithmeticCeilingError):
        build_suspension(full2, CylinderFunction(1, values, lattice=1.0))
