"""Shrinking periodic-orbit hole families and their rate expansions."""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from flowescape import (
    DegenerateLinearTermError,
    NotCyclicallyAdmissibleError,
    NotPrimePeriodError,
    NotReducedError,
    Polynomial,
    build_family,
    build_markov_shift,
    constant_function,
    cylinder_function,
    cylinder_measure,
    expansion_coefficients,
    family_hole_measure,
    family_hole_word,
    family_zeta_op,
    local_rate_sweep,
    second_order_check,
    verify_expansion,
    smallest_root_geq_one,
    zeta_op_factorized,
)
from flowescape import zeta
from test_acceptance import FAMILY_SPECS, _ceiling, _shift


@pytest.fixture(scope="module")
def unit_family(full2, unit_ceiling):
    return build_family(full2, unit_ceiling, (0,))


@pytest.fixture(scope="module")
def step_family_one(full2, step_ceiling):
    return build_family(full2, step_ceiling, (1,))


# ---------------------------------------------------------------------------
# Family construction
# ---------------------------------------------------------------------------

def test_family_basics(unit_family):
    assert unit_family.period == 1
    assert unit_family.orbit_weight == 0.5
    assert unit_family.word_measure == 0.5
    assert unit_family.orbit_height == 1
    assert unit_family.nu_min == 2
    assert unit_family.t_word == (0,)


def test_family_step_orbit_height(step_family_one):
    assert step_family_one.orbit_height == 2
    assert step_family_one.orbit_weight == 0.5


def test_family_refines_to_period_multiple(full2):
    order2 = cylinder_function(2, {w: 1.0 for w in [(0, 0), (0, 1), (1, 0), (1, 1)]}, lattice=1.0)
    fam = build_family(full2, order2, (0,))
    assert fam.system.order == 2
    assert fam.nu_min == 3
    assert fam.t_word == (0, 0)


def test_family_rejects_forbidden_cycle(golden_mean):
    with pytest.raises(NotCyclicallyAdmissibleError):
        build_family(golden_mean, constant_function(golden_mean, 1.0), (1,))


def test_family_rejects_alphabet_escape(full2, unit_ceiling):
    with pytest.raises(NotCyclicallyAdmissibleError):
        build_family(full2, unit_ceiling, (0, 7))


def test_family_rejects_empty_word(full2, unit_ceiling):
    with pytest.raises(NotCyclicallyAdmissibleError):
        build_family(full2, unit_ceiling, ())


def test_family_rejects_non_prime_period(full2, unit_ceiling):
    with pytest.raises(NotPrimePeriodError):
        build_family(full2, unit_ceiling, (0, 0))


def test_family_rejects_unreduced_orbit(cycle2):
    with pytest.raises(NotReducedError):
        build_family(cycle2, constant_function(cycle2, 1.0), (0, 1))


# ---------------------------------------------------------------------------
# Hole words and measures
# ---------------------------------------------------------------------------

def test_hole_word_repeats_base(unit_family):
    assert family_hole_word(unit_family, 3) == (0, 0, 0)
    with pytest.raises(ValueError):
        family_hole_word(unit_family, 0)


def test_hole_measure_geometric_law(unit_family, golden_mean):
    for nu in range(1, 8):
        assert family_hole_measure(unit_family, nu) == pytest.approx(2.0 ** -nu)
    fam = build_family(golden_mean, constant_function(golden_mean, 1.0), (0,))
    law = fam.word_measure / fam.orbit_weight
    for nu in range(1, 8):
        want = law * fam.orbit_weight ** nu
        assert family_hole_measure(fam, nu) == pytest.approx(want, rel=1e-14)


# ---------------------------------------------------------------------------
# Family zeta assembly against the direct factorization
# ---------------------------------------------------------------------------

def _coefficient_gap(a: Polynomial, b: Polynomial) -> float:
    ca, cb = np.array(a.coefficients), np.array(b.coefficients)
    n = max(len(ca), len(cb))
    ca = np.pad(ca, (0, n - len(ca)))
    cb = np.pad(cb, (0, n - len(cb)))
    return float(np.max(np.abs(ca - cb)))


def test_family_zeta_matches_direct(unit_family, step_family_one, golden_mean):
    gm_family = build_family(golden_mean, constant_function(golden_mean, 1.0), (0,))
    for family in [unit_family, step_family_one, gm_family]:
        for nu in range(family.nu_min, family.nu_min + 4):
            direct = zeta_op_factorized(family.system, family.base_word * nu)
            gap = _coefficient_gap(family_zeta_op(family, nu), direct.zeta_open_inverse)
            assert gap == 0.0, (family.base_word, nu)


def test_family_zeta_rejects_short_hole(unit_family):
    with pytest.raises(ValueError):
        family_zeta_op(unit_family, 1)


# ---------------------------------------------------------------------------
# Expansion coefficients
# ---------------------------------------------------------------------------

def test_expansion_known_coefficients(unit_family):
    for nu in [2, 3, 4, 6]:
        coeffs = expansion_coefficients(unit_family, nu, 2)
        assert coeffs.s_normalized[0] == pytest.approx(0.5, abs=1e-14)
        assert coeffs.s_normalized[1] == pytest.approx((nu + 1) / 4.0, abs=1e-12)


def test_expansion_matches_closed_forms(unit_family, step_family_one, golden_mean):
    gm_family = build_family(golden_mean, constant_function(golden_mean, 1.0), (0,))
    for family in [unit_family, step_family_one, gm_family]:
        for nu in [family.nu_min, family.nu_min + 3]:
            coeffs = expansion_coefficients(family, nu, 2)
            assert coeffs.s_normalized[0] == pytest.approx(
                coeffs.closed_normalized[0], abs=1e-14
            )
            assert coeffs.s_normalized[1] == pytest.approx(
                coeffs.closed_normalized[1], abs=1e-9
            )


def test_expansion_flow_units_divide_by_lattice(full2):
    fam = build_family(full2, constant_function(full2, 2.0), (0,))
    assert fam.system.lattice_scale == 2.0
    coeffs = expansion_coefficients(fam, 4, 2)
    assert coeffs.s == pytest.approx((0.25, 0.3125))
    assert coeffs.s1_closed == pytest.approx(0.25)
    assert coeffs.s2_closed == pytest.approx(0.3125)


def test_expansion_rejects_bad_arguments(unit_family):
    with pytest.raises(ValueError):
        expansion_coefficients(unit_family, 1, 2)
    with pytest.raises(ValueError):
        expansion_coefficients(unit_family, 4, 0)


def test_expansion_degenerate_linear_term(unit_family):
    # A closed determinant with a double zero at 1 kills the linear term.
    crafted = dataclasses.replace(unit_family, deflated=Polynomial((1.0, -1.0)))
    with pytest.raises(DegenerateLinearTermError):
        expansion_coefficients(crafted, 4, 2)


# The acceptance families (the benchmark's seven shapes among them), order-2
# ceilings at periods 1 (n/p = 2, so c_o^{1 - n/p} is not 1) and 2, one on
# a 3-letter shift whose scale factors round, and a lattice-0.05 ceiling
# whose G has degree 18.
ORACLE_FAMILIES = FAMILY_SPECS + (
    ("full2", "step1", (1,)),
    ("biased2", "order2", (0,)),
    ("biased2", "order2", (0, 1)),
    ("three", "order2", (1,)),
    ("biased2", "lattice", (0,)),
)


def _oracle_family(shift_name, ceiling_kind, word):
    if shift_name == "three":
        shift = build_markov_shift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    else:
        shift = _shift(shift_name)
    if ceiling_kind == "lattice":
        ceiling = cylinder_function(1, {(0,): 0.6, (1,): 0.35}, lattice=0.05)
    else:
        ceiling = _ceiling(shift, ceiling_kind)
    return build_family(shift, ceiling, word)


@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: "-".join(map(str, spec)))
def test_family_path_equals_per_nu_rebuild(spec):
    # The pieces a family keeps give the floats of a per-nu rebuild, bit for
    # bit, also past the kept Taylor terms (orders 8 and 9).
    family = _oracle_family(*spec)
    for nu in range(family.nu_min, 15):
        want = oracles.family_zeta_op(family, nu)
        assert family_zeta_op(family, nu).coefficients == want.coefficients, nu
        for order in (1, 2, 3) + ((8, 9) if nu == family.nu_min else ()):
            coeffs = expansion_coefficients(family, nu, order)
            s_values, closed = oracles.expansion_coefficients(family, nu, order)
            assert coeffs.s_normalized == s_values, (nu, order)
            assert coeffs.closed_normalized == closed, (nu, order)


def test_family_sweep_rebuilds_no_nu_free_piece(monkeypatch):
    # After build_family, a sweep takes no Taylor data of G and forms no
    # product C * den: only the z^k0 shifts and the open determinant remain.
    family = _oracle_family("full2", "step0", (0, 1))
    taylor_on, products = [], []
    taylor, multiply = zeta.Polynomial.taylor_at_one, zeta.Polynomial.__mul__

    def counted_taylor(poly, terms):
        taylor_on.append(poly)
        return taylor(poly, terms)

    def counted_multiply(left, right):
        products.append((left, right))
        return multiply(left, right)

    monkeypatch.setattr(zeta.Polynomial, "taylor_at_one", counted_taylor)
    monkeypatch.setattr(zeta.Polynomial, "__mul__", counted_multiply)
    rows = verify_expansion(family, range(family.nu_min, family.nu_min + 7), 2)
    assert len(rows) == 7
    assert taylor_on and all(poly is not family.deflated for poly in taylor_on)
    den = Polynomial((1.0,) + (0.0,) * (family.orbit_height - 1) + (-family.orbit_weight,))
    assert not any(
        left is family.cofactor or left.coefficients == den.coefficients
        or right.coefficients == den.coefficients
        for left, right in products
    )


# ---------------------------------------------------------------------------
# Expansion verification sweeps
# ---------------------------------------------------------------------------

def test_verify_expansion_frozen_row(unit_family):
    row = verify_expansion(unit_family, [2], 2)[0]
    assert row.mu_nu == 0.25
    assert row.z_nu == pytest.approx(-1.0 + math.sqrt(5.0), abs=1e-14)
    assert row.partial_sum == 1.171875
    assert row.residual_over_mu_k == pytest.approx(1.0270876399966333, abs=1e-10)


def test_verify_expansion_residual_shrinks(unit_family):
    rows = verify_expansion(unit_family, [4, 8], 2)
    assert rows[1].residual_over_mu_k < 0.15
    assert rows[1].residual_over_mu_k < 0.2 * rows[0].residual_over_mu_k


def test_root_bracket_beyond_settling(unit_family):
    for nu in range(unit_family.nu_min + 2, 13):
        row = verify_expansion(unit_family, [nu], 2)[0]
        assert 1.0 <= row.z_nu <= 1.0 + 4.0 * row.s1 * row.mu_nu, nu


def test_verify_expansion_root_is_the_plain_root():
    # z_nu is the root that the family's escape rates take, to the bit, on
    # the acceptance suite's families up to nu = 15.
    for shift_name, ceiling_kind, word in FAMILY_SPECS + (("full2", "step1", (1,)),):
        shift = _shift(shift_name)
        family = build_family(shift, _ceiling(shift, ceiling_kind), word)
        nus = range(family.nu_min, 16)
        rows = verify_expansion(family, nus, 2)
        for nu, row in zip(nus, rows):
            want = smallest_root_geq_one(family_zeta_op(family, nu))
            assert row.z_nu == want, (shift_name, ceiling_kind, word, nu)


# ---------------------------------------------------------------------------
# Local escape rate and second-order limits
# ---------------------------------------------------------------------------

def test_local_rate_limits(full2, step_ceiling):
    report = local_rate_sweep(full2, step_ceiling, (0,), [4, 6, 8, 10])
    assert report.limit_ceiling == pytest.approx(1.0 / 3.0)
    assert report.limit_unit == pytest.approx(0.5)
    gaps_ceiling = [abs(r.ratio_ceiling - report.limit_ceiling) for r in report.rows]
    gaps_unit = [abs(r.ratio_unit - report.limit_unit) for r in report.rows]
    assert gaps_ceiling == sorted(gaps_ceiling, reverse=True)
    assert gaps_unit == sorted(gaps_unit, reverse=True)
    assert gaps_ceiling[-1] < 0.05 * report.limit_ceiling
    assert gaps_unit[-1] < 0.05 * report.limit_unit


def test_second_order_limits(unit_family, step_family_one):
    unit_report = second_order_check(unit_family, [12])
    assert unit_report.limit == pytest.approx(0.25)
    assert unit_report.rows[0].ratio == pytest.approx(0.25, rel=0.05)
    step_report = second_order_check(step_family_one, [12])
    assert step_report.limit == pytest.approx(2.0 / 9.0)
    assert step_report.rows[0].ratio == pytest.approx(2.0 / 9.0, rel=0.05)


def test_quotient_law_mismatched_orbit(full2, step_ceiling):
    # Orbits whose ceiling average differs from the space average converge
    # more slowly; by nu = 12 the quotient gap is safely inside tolerance.
    for base in [(0,), (1,)]:
        family = build_family(full2, step_ceiling, base)
        report = local_rate_sweep(full2, step_ceiling, base, [12])
        row = report.rows[0]
        gap = abs(row.ratio_ceiling * family.system.total_mass - row.ratio_unit)
        assert gap < 1e-3 * (1.0 - family.orbit_weight), base
