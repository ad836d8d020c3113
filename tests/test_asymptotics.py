"""Shrinking periodic-orbit hole families and their rate expansions."""

import dataclasses
import functools
import math
import operator

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
    local_rate_sweep,
    second_order_check,
    verify_expansion,
    smallest_root_geq_one,
    zeta_op_factorized,
)
from flowescape import asymptotics, zeta
from test_acceptance import FAMILY_SPECS, _ceiling, _shift


def _family_zeta_op(family, nu):
    """The open inverse zeta of the hole A_nu, from the family's cached pieces."""
    return asymptotics._family_open_inverse(
        family, asymptotics._repeats(family, nu), family_hole_measure(family, nu)
    )


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


def test_family_rejects_an_orbit_weight_within_1e_12_of_one():
    # The word 0 is reduced (0 -> 1 is allowed), but c_o = 1 - 1e-13.
    shift = build_markov_shift([[1.0 - 1e-13, 1e-13], [0.5, 0.5]])
    with pytest.raises(DegenerateLinearTermError, match="c_o"):
        build_family(shift, constant_function(shift, 1.0), (0,))


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
            gap = _coefficient_gap(_family_zeta_op(family, nu), direct.zeta_open_inverse)
            assert gap == 0.0, (family.base_word, nu)


def test_family_zeta_rejects_short_hole(unit_family):
    with pytest.raises(ValueError):
        _family_zeta_op(unit_family, 1)


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


def _oracle_inputs(shift_name, ceiling_kind):
    if shift_name == "three":
        shift = build_markov_shift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    else:
        shift = _shift(shift_name)
    if ceiling_kind == "lattice":
        ceiling = cylinder_function(1, {(0,): 0.6, (1,): 0.35}, lattice=0.05)
    else:
        ceiling = _ceiling(shift, ceiling_kind)
    return shift, ceiling


def _oracle_family(shift_name, ceiling_kind, word):
    return build_family(*_oracle_inputs(shift_name, ceiling_kind), word)


def _hex(values):
    """Each float as float hex, which tells -0.0 from 0.0 and matches nan;
    other values (the nu of a row) as they are."""
    return [v.hex() if isinstance(v, float) else v for v in values]


@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: "-".join(map(str, spec)))
def test_family_path_equals_per_nu_rebuild(spec):
    # The pieces a family keeps give the floats of a per-nu rebuild in the
    # tuple arithmetic of the oracles, bit for bit, also past the kept Taylor
    # terms (orders 8 and 9), and mu_nu is the cylinder measure of A_nu.
    family = _oracle_family(*spec)
    for nu in range(family.nu_min, 15):
        want = cylinder_measure(family.system.base, family_hole_word(family, nu))
        assert _hex([family_hole_measure(family, nu)]) == _hex([want]), nu
        want = oracles.family_zeta_op(family, nu)
        assert _hex(_family_zeta_op(family, nu).coefficients) == _hex(want), nu
        for order in (1, 2, 3) + ((8, 9) if nu == family.nu_min else ()):
            coeffs = expansion_coefficients(family, nu, order)
            s_values, closed = oracles.expansion_coefficients(family, nu, order)
            assert _hex(coeffs.s_normalized) == _hex(s_values), (nu, order)
            assert _hex(coeffs.closed_normalized) == _hex(closed), (nu, order)


def _rate(family, nu):
    root = smallest_root_geq_one(_family_zeta_op(family, nu))
    return float(np.log(root)) / family.system.lattice_scale


@pytest.mark.parametrize("spec", ORACLE_FAMILIES, ids=lambda spec: "-".join(map(str, spec)))
def test_sweeps_equal_rows_of_public_calls(spec):
    # Each sweep row is, to the bit, its formula over the public per-nu calls.
    shift, ceiling = _oracle_inputs(*spec[:2])
    family = build_family(shift, ceiling, spec[2])
    unit = build_family(shift, constant_function(shift, 1.0), spec[2])
    nus = range(family.nu_min, 15)
    for order in (1, 2, 3):
        want = []
        for nu in nus:
            s_norm = expansion_coefficients(family, nu, max(order, 2)).s_normalized
            mu_nu = family_hole_measure(family, nu)
            root = smallest_root_geq_one(_family_zeta_op(family, nu))
            partial = 1.0 + sum(s_norm[i] * mu_nu ** (i + 1) for i in range(order))
            want.append(
                (nu, mu_nu, root, s_norm[0], s_norm[1], partial, abs(root - partial) / mu_nu ** order)
            )
        rows = verify_expansion(family, nus, order)
        assert [_hex(dataclasses.astuple(row)) for row in rows] == [_hex(row) for row in want]
    mus = {nu: family_hole_measure(family, nu) for nu in nus}
    report = local_rate_sweep(shift, ceiling, spec[2], nus)
    want = [(nu, mus[nu], _rate(family, nu) / mus[nu], _rate(unit, nu) / mus[nu]) for nu in nus]
    assert [_hex(dataclasses.astuple(row)) for row in report.rows] == [_hex(row) for row in want]
    assert (report.limit_ceiling, report.limit_unit) == (
        (1.0 - family.orbit_weight) / family.system.total_mass,
        1.0 - unit.orbit_weight,
    )
    report = second_order_check(family, nus)
    s1 = (1.0 - family.orbit_weight) / family.system.total_mass
    want = [(nu, (_rate(family, nu) - s1 * mus[nu]) / (nu * mus[nu] ** 2)) for nu in nus]
    assert [_hex(dataclasses.astuple(row)) for row in report.rows] == [_hex(row) for row in want]
    assert report.limit == s1 ** 2 * family.system.lattice_scale * family.orbit_height


def test_family_sweep_rebuilds_no_nu_free_piece(monkeypatch):
    # After build_family, a sweep takes no Taylor data of G and forms no
    # product C * den: only the z^k0-shifted Taylor terms of the two kept
    # polynomials and the open determinant remain.
    family = _oracle_family("full2", "step0", (0, 1))
    taylor_on, shifted_on, products = [], [], []
    taylor, multiply = zeta.Polynomial.taylor_at_one, zeta.Polynomial.__mul__
    shifted = asymptotics._shifted_taylor

    def counted_taylor(poly, terms):
        taylor_on.append(poly.coefficients)
        return taylor(poly, terms)

    def counted_shifted(coeffs, k0, terms):
        shifted_on.append(coeffs)
        return shifted(coeffs, k0, terms)

    def counted_multiply(left, right):
        products.append((left, right))
        return multiply(left, right)

    monkeypatch.setattr(zeta.Polynomial, "taylor_at_one", counted_taylor)
    monkeypatch.setattr(asymptotics, "_shifted_taylor", counted_shifted)
    monkeypatch.setattr(zeta.Polynomial, "__mul__", counted_multiply)
    rows = verify_expansion(family, range(family.nu_min, family.nu_min + 7), 2)
    assert len(rows) == 7
    assert len(shifted_on) == 14
    assert family.deflated.coefficients not in taylor_on + shifted_on
    den = Polynomial((1.0,) + (0.0,) * (family.orbit_height - 1) + (-family.orbit_weight,))
    assert not any(
        left is family.cofactor or left.coefficients == den.coefficients
        or right.coefficients == den.coefficients
        for left, right in products
    )


def _plain_sum(items, start=0):
    """The builtin ``sum`` of floats up to Python 3.11: one add per term."""
    return functools.reduce(operator.add, items, start)


def _compensated_sum(items, start=0):
    """The builtin ``sum`` of floats from Python 3.12 on: Neumaier's
    compensated sum, whose compensation is added at the end when it is
    nonzero and finite."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        return start
    total, compensation = start + first, 0.0
    for x in items:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_shifted_taylor_equals_the_padded_taylor_terms(monkeypatch):
    # The shifted Taylor terms are builtin sums over the padded polynomial's
    # terms without its leading zero products, so they equal taylor_at_one
    # of the padded polynomial, and the generator sums of the reference over
    # every term, under the plain sum of Python 3.10-3.11 and
    # under the compensated sum of 3.12 on, and the series quotient sums the
    # reference's terms in the reference's order. Both sums are emulated
    # here, in every module, on inputs where the two differ.
    assert _plain_sum((1e16, 1.0, -1e16)) == 0.0
    assert _compensated_sum((1e16, 1.0, -1e16)) == 1.0 == math.fsum((1e16, 1.0, -1e16))
    inputs = [
        (1e16, 1.0, -1e16),
        (1.0, 1e16, -1e16, 3.0),
        (-0.0, 1e16, 0.0, 1.0, -1e16, 2.0**-30),
        (2.0**53, 1.0, 1.0, -(2.0**53), 0.1, -0.3, 1e-3),
        (0.5,),
    ]
    results = {}
    for name, summation in (("plain", _plain_sum), ("compensated", _compensated_sum), ("builtin", sum)):
        for module in (asymptotics, zeta, oracles):
            monkeypatch.setattr(module, "sum", summation, raising=False)
        results[name] = []
        # The quotient's sums run over the same terms as the reference's.
        num, den = (-1.0, -1.0, 1.0, 1e16, 0.5), (1.0, 0.5, 0.5, 1.0, 2.0**53)
        assert _hex(zeta._series_quotient(num, den, 4)) == _hex(oracles.series_quotient(num, den, 4))
        results[name].append(_hex(zeta._series_quotient(num, den, 4)))
        for coeffs in inputs:
            for k0 in (0, 1, 2, 5, 13):
                padded = Polynomial((0.0,) * k0 + coeffs)
                terms = len(padded.coefficients) + 2
                got = _hex(zeta._shifted_taylor(Polynomial(coeffs).coefficients, k0, terms))
                assert got == _hex(padded.taylor_at_one(terms)), (name, coeffs, k0)
                want = oracles.poly_taylor_at_one(padded.coefficients, terms)
                assert got == _hex(want), (name, coeffs, k0)
                results[name].append(got)
    assert results["plain"] != results["compensated"]
    assert results["builtin"] in (results["plain"], results["compensated"])


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
            want = smallest_root_geq_one(_family_zeta_op(family, nu))
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
