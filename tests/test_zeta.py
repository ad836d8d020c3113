"""Polynomial machinery and the open determinant factorization."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from flowescape import (
    DimensionTooLargeError,
    FactorizationMismatchError,
    NoSignChangeError,
    NoZeroAtOneError,
    PoleAtOneError,
    Polynomial,
    build_family,
    build_markov_shift,
    build_open_bordered,
    build_open_refined,
    build_suspension,
    char_poly,
    cofactor_poly,
    constant_function,
    cylinder_function,
    deflate_at_one,
    escape_rate_flow,
    escape_rate_zeta,
    hole_quantities,
    smallest_root_geq_one,
    taylor_at_one,
    zeta_op_factorized,
)
import flowescape.open_system as open_system
import flowescape.zeta as zeta
from flowescape.zeta import correlation_poly

GOLDEN = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# Polynomial basics
# ---------------------------------------------------------------------------

def test_polynomial_trims_and_evaluates():
    p = Polynomial((1.0, -0.5, 0.0, 0.0))
    assert p.coefficients == (1.0, -0.5)
    assert p.degree == 1
    assert p(2.0) == 0.0


def test_polynomial_arithmetic():
    p = Polynomial((1.0, 1.0))
    q = Polynomial((1.0, -1.0))
    assert (p * q).coefficients == (1.0, 0.0, -1.0)
    assert (p + q).coefficients == (2.0,)
    assert (p - q).coefficients == (0.0, 2.0)
    assert p.shift_power(2).coefficients == (0.0, 0.0, 1.0, 1.0)
    assert p.scale(0.5).coefficients == (0.5, 0.5)


def test_polynomial_derivative():
    p = Polynomial((1.0, -1.0, 0.25))
    assert p.derivative().coefficients == (-1.0, 0.5)


# ---------------------------------------------------------------------------
# char_poly / cofactor_poly / deflate
# ---------------------------------------------------------------------------

def test_char_poly_stochastic_2x2():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert char_poly(m).coefficients == pytest.approx((1.0, -1.0))


def test_char_poly_identity():
    assert char_poly(np.eye(2)).coefficients == pytest.approx((1.0, -2.0, 1.0))


def test_char_poly_antidiagonal():
    m = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert char_poly(m).coefficients == pytest.approx((1.0, 0.0, -0.5))


def test_cofactor_diagonal_entry():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert cofactor_poly(m, 0, 0).coefficients == pytest.approx((1.0, -0.5))


def test_cofactor_off_diagonal_sign():
    m = np.array([[0.5, 0.5], [0.5, 0.5]])
    assert cofactor_poly(m, 0, 1).coefficients == pytest.approx((0.0, 0.5))


def test_cofactor_one_by_one():
    assert cofactor_poly(np.array([[0.3]]), 0, 0).coefficients == (1.0,)


def test_cofactor_matches_adjugate_identity():
    # (id - zM) adj(id - zM) = det(id - zM) id, checked entrywise at a point.
    rng = np.random.default_rng(5)
    m = rng.uniform(0, 1, (4, 4))
    z = 0.37
    a = np.eye(4) - z * m
    det = char_poly(m)(z)
    adj = np.array([[cofactor_poly(m, t, r)(z) for t in range(4)] for r in range(4)])
    np.testing.assert_allclose(a @ adj, det * np.eye(4), atol=1e-12)


def _dense_leverrier(matrix, entry):
    """Reference Faddeev-LeVerrier pass: one dense n x n product per step."""
    mat = np.asarray(matrix, dtype=float)
    size = mat.shape[0]
    det_coeffs = [1.0]
    adj_coeffs = [1.0 if entry[0] == entry[1] else 0.0]
    acc = mat.copy()
    coeff = -float(np.trace(acc))
    det_coeffs.append(coeff)
    for k in range(2, size + 1):
        adj_coeffs.append(float(acc[entry]) + (coeff if entry[0] == entry[1] else 0.0))
        acc = mat @ (acc + coeff * np.eye(size))
        coeff = -float(np.trace(acc)) / k
        det_coeffs.append(coeff)
    return det_coeffs, adj_coeffs


@pytest.fixture(scope="module")
def collapsed_cases(full2):
    """Matrices of at least 64 dims, where _leverrier tries the tower
    collapse, with the adjugate entry to compare."""
    # Heights 32 and 64: a 96-block tower whose top rows have two successors.
    lattice = build_suspension(full2, cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1 / 32))
    tower = lattice.block_matrix
    top = lattice.block_index((1,), 0)
    q = hole_quantities(lattice, (1, 1, 1))
    assert q.k0 == 128 and q.correlation[63] == 0.5
    bordered = build_open_bordered(lattice, (1, 1, 1)).matrix
    assert np.count_nonzero(bordered[tower.shape[0] + 63]) == 2
    assert hole_quantities(lattice, (1,)).k0 == 0
    zero_row = build_open_bordered(lattice, (1,)).matrix
    assert not zero_row[top].any()
    dense = np.random.default_rng(12).uniform(0.0, 1.0, (70, 70))
    dense /= dense.sum(axis=1, keepdims=True)
    # The tower beside a disjoint 40-cycle of single-successor states, which
    # no branching state breaks.
    ring = np.random.default_rng(13).uniform(0.5, 1.0, (40, 1)) * np.roll(np.eye(40), 1, axis=1)
    with_ring = np.block([[tower, np.zeros((96, 40))], [np.zeros((40, 96)), ring]])
    # Order-2 refinement with the level-0 rows of words 01 and 11 zeroed, and
    # level 5 of word 10: chains into them end on a zero row, after five
    # removed states for the last.
    refined = build_open_refined(lattice, (0, 1)).system
    holed = refined.block_matrix.copy()
    zeroed = [((0, 1), 0), ((1, 1), 0), ((1, 0), 5)]
    holed[[refined.block_index(w, level) for w, level in zeroed], :] = 0.0
    inside = (refined.block_index((0, 0), 3), refined.block_index((0, 0), 0))
    level = lattice.block_index((1,), 10)
    return {
        "tower diagonal entry": (tower, (top, top)),
        "tower off-diagonal entry": (tower, (top, 0)),
        "bordered self-overlapping hole": (bordered, (top, top)),
        "bordered k0 = 0": (zero_row, (0, top)),
        "random dense": (dense, (3, 5)),
        "scaled 64-cycle": (0.9 * np.roll(np.eye(64), 1, axis=1), (7, 7)),
        "single-successor cycle kept at one state": (with_ring, (top, top)),
        "single-successor cycle with the entry on it": (with_ring, (96 + 3, 96 + 17)),
        "zeroed hole rows": (holed, inside),
        "entry on two tower levels": (tower, (level, 5)),
    }


COLLAPSED_CASES = [
    "tower diagonal entry",
    "tower off-diagonal entry",
    "bordered self-overlapping hole",
    "bordered k0 = 0",
    "random dense",
    "scaled 64-cycle",
    "single-successor cycle kept at one state",
    "single-successor cycle with the entry on it",
    "zeroed hole rows",
    "entry on two tower levels",
]


@pytest.mark.parametrize("name", COLLAPSED_CASES)
def test_collapsed_leverrier_matches_dense_reference(collapsed_cases, name):
    # The collapsed pass sums the chains and the kept rows in another order
    # than a dense product, so the coefficients may differ in the last bits.
    matrix, entry = collapsed_cases[name]
    assert matrix.shape[0] >= zeta._COLLAPSE_MIN_DIMENSION
    det, adj = zeta._leverrier(matrix, entry=entry)
    want_det, want_adj = _dense_leverrier(matrix, entry)
    for got, want in ((det, want_det), (adj, want_adj)):
        assert len(got) == len(want)
        got, want = np.array(got), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_collapse_keeps_branching_states_entry_and_one_state_per_cycle(collapsed_cases):
    # The 96-block tower keeps its two tops (blocks 31 and 95); the entry
    # adds its row and column; a single-successor cycle keeps one state
    # unless the entry already lies on it.
    def kept(name):
        matrix, entry = collapsed_cases[name]
        dim, position, _ = zeta._collapse(matrix, entry)
        states = np.flatnonzero(position >= 0).tolist()
        assert dim == len(states)
        return states

    assert kept("tower diagonal entry") == [31, 32, 95]
    assert kept("tower off-diagonal entry") == [0, 31, 32, 95]
    assert kept("entry on two tower levels") == [5, 31, 42, 95]
    assert kept("single-successor cycle kept at one state") == [31, 32, 95, 96]
    assert kept("single-successor cycle with the entry on it") == [31, 95, 99, 113]
    assert kept("scaled 64-cycle") == [7]


def test_dense_pass_where_the_collapse_does_not_pay(collapsed_cases, monkeypatch):
    # Nothing collapses in the random dense matrix. With three of its rows
    # cut to one nonzero, 67 states would stay, and 67 polynomial steps cost
    # more than 70 dense ones.
    dense, entry = collapsed_cases["random dense"]
    thinned = dense.copy()
    thinned[[10, 20, 30], :-1] = 0.0

    def refuse(*args, **kwargs):
        raise AssertionError("collapsed pass where the dense one is cheaper")

    monkeypatch.setattr(zeta, "_collapsed_leverrier", refuse)
    for matrix in (dense, thinned):
        assert zeta._collapse(matrix, entry) is None
        det, adj = zeta._leverrier(matrix, entry=entry)
        assert (det, adj) == _dense_leverrier(matrix, entry)


def test_dense_pass_past_320_dims_raises_before_it_starts(unit_system):
    # 0^m on the full 2-shift overlaps itself at every shift, so every border
    # row branches and the collapse keeps all m states. At m = 400 the dense
    # pass would run 400 steps of a 400 x 400 product; it raises instead.
    hole = (0,) * 400
    matrix = build_open_bordered(unit_system, hole).matrix
    assert matrix.shape == (400, 400)
    assert zeta._collapse(matrix, None) is None
    for route in (
        lambda: char_poly(matrix),
        lambda: cofactor_poly(matrix, 0, 1),
        lambda: escape_rate_zeta(unit_system, hole),
        lambda: escape_rate_flow(unit_system, hole, "bordered"),
    ):
        with pytest.raises(DimensionTooLargeError, match="dense cap 320"):
            route()
    # `auto` takes the refined root on the 400-state hole automaton.
    assert escape_rate_flow(unit_system, hole) == escape_rate_flow(unit_system, hole, "refined")


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


def test_closed_determinant_of_degree_300_matches_exact_leibniz():
    # det(I - z M_block) = det(I - diag(z^h) P) for a tower with heights h;
    # the Leibniz formula over the 3 x 3 matrix gives its exact coefficients.
    probs = [[0.3, 0.7, 0.0], [0.5, 0.2, 0.3], [0.6, 0.0, 0.4]]
    heights = (90, 100, 110)
    shift = build_markov_shift(probs)
    system = build_suspension(
        shift, cylinder_function(1, {(a,): float(h) for a, h in enumerate(heights)}, lattice=1.0)
    )
    assert system.block_matrix.shape == (300, 300)
    p = [[Fraction(x) for x in row] for row in shift.transitions.tolist()]
    exact = {}
    for perm in itertools.permutations(range(3)):
        inversions = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))
        term = {0: Fraction((-1) ** inversions)}
        for i, j in enumerate(perm):
            entry = {0: Fraction(1)} if i == j else {}
            if p[i][j]:
                entry[heights[i]] = entry.get(heights[i], 0) - p[i][j]
            term = _poly_mul(term, entry)
        for d, c in term.items():
            exact[d] = exact.get(d, 0) + c
    want = np.array([float(exact.get(d, 0)) for d in range(301)])
    got = np.array(char_poly(system.block_matrix).coefficients)
    got = np.pad(got, (0, 301 - len(got)))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_deflate_simple():
    assert deflate_at_one(Polynomial((1.0, -1.0))).coefficients == (1.0,)


def test_deflate_double_root_divides_once():
    g = deflate_at_one(Polynomial((1.0, -2.0, 1.0)))
    assert g.coefficients == pytest.approx((1.0, -1.0))


def test_deflate_product_form():
    # (1 - z)(1 + z/2) = 1 - z/2 - z^2/2
    g = deflate_at_one(Polynomial((1.0, -0.5, -0.5)))
    assert g.coefficients == pytest.approx((1.0, 0.5))


def test_deflate_rejects_nonzero_at_one():
    with pytest.raises(NoZeroAtOneError):
        deflate_at_one(Polynomial((1.0, -0.5)))


# ---------------------------------------------------------------------------
# Taylor development at z = 1
# ---------------------------------------------------------------------------

def test_taylor_geometric():
    got = taylor_at_one(Polynomial((1.0,)), Polynomial((1.0, -0.5)), 2)
    assert got == pytest.approx((2.0, 2.0, 2.0))


def test_taylor_with_vanishing_numerator():
    got = taylor_at_one(Polynomial((1.0, -1.0)), Polynomial((1.0, -0.5)), 1)
    assert got == pytest.approx((0.0, -2.0))


def test_taylor_constant():
    got = taylor_at_one(Polynomial((3.0,)), Polynomial((1.0,)), 3)
    assert got == pytest.approx((3.0, 0.0, 0.0, 0.0))


def test_taylor_pole_at_one():
    with pytest.raises(PoleAtOneError):
        taylor_at_one(Polynomial((1.0,)), Polynomial((1.0, -1.0)), 2)


def test_taylor_cancels_common_zero():
    # (1 - z)/(1 - z) == 1 after cancelling the shared simple zero.
    got = taylor_at_one(Polynomial((1.0, -1.0)), Polynomial((1.0, -1.0)), 2)
    assert got == pytest.approx((1.0, 0.0, 0.0))


# ---------------------------------------------------------------------------
# Root isolation
# ---------------------------------------------------------------------------

def test_root_fibonacci_quadratic():
    got = smallest_root_geq_one(Polynomial((1.0, -0.5, -0.25)), hi=2.0)
    assert got == pytest.approx(2 / GOLDEN, abs=1e-14)


def test_root_at_one():
    assert smallest_root_geq_one(Polynomial((1.0, -1.0)), hi=2.0) == 1.0


def test_root_linear():
    assert smallest_root_geq_one(Polynomial((1.0, -0.5)), hi=3.0) == pytest.approx(2.0, abs=1e-14)


def test_root_double():
    got = smallest_root_geq_one(Polynomial((1.0, -1.0, 0.25)))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_root_none_found():
    with pytest.raises(NoSignChangeError):
        smallest_root_geq_one(Polynomial((1.0, 0.0, 1.0)), hi=4.0, companion_fallback=False)


# ---------------------------------------------------------------------------
# Correlation polynomial and the factorization
# ---------------------------------------------------------------------------

def test_correlation_poly_cases(unit_system, step_system):
    assert correlation_poly(hole_quantities(unit_system, (0, 1))).coefficients == (1.0,)
    assert correlation_poly(hole_quantities(unit_system, (0, 0, 0))).coefficients == (1.0, 0.5)
    assert correlation_poly(hole_quantities(step_system, (1, 1, 1))).coefficients == (
        1.0,
        0.0,
        0.5,
    )


def test_factorization_fibonacci_hole(unit_system):
    bundle = zeta_op_factorized(unit_system, (0, 0))
    assert bundle.zeta_open_inverse.coefficients == pytest.approx((1.0, -0.5, -0.25))
    assert bundle.max_deviation < 1e-15
    root = smallest_root_geq_one(bundle.zeta_open_inverse)
    assert root == pytest.approx(2 / GOLDEN, abs=1e-12)


def test_factorization_double_root_hole(unit_system):
    bundle = zeta_op_factorized(unit_system, (0, 1))
    assert bundle.zeta_open_inverse.coefficients == pytest.approx((1.0, -1.0, 0.25))


def test_factorization_m_equals_n_hole(unit_system):
    # Degenerate bordered case: the determinant reduces to the cofactor at t.
    bundle = zeta_op_factorized(unit_system, (0,))
    assert bundle.quantities.k0 == 0
    assert bundle.zeta_open_inverse.coefficients == pytest.approx((1.0, -0.5))


def test_factorization_closed_factor_deflates(unit_system):
    bundle = zeta_op_factorized(unit_system, (0, 0, 0))
    reassembled = Polynomial((1.0, -1.0)) * bundle.deflated
    got = np.array(reassembled.coefficients)
    want = np.array(bundle.zeta_closed_inverse.coefficients)
    n = max(len(got), len(want))
    np.testing.assert_allclose(np.pad(got, (0, n - len(got))), np.pad(want, (0, n - len(want))), atol=1e-12)


def test_cofactor_value_identity(step_system):
    bundle = zeta_op_factorized(step_system, (1, 1, 1))
    assert bundle.cofactor_value == pytest.approx(bundle.cofactor_predicted, abs=1e-12)


def test_one_leverrier_pass_per_block_matrix(monkeypatch, full2, step_ceiling, step_system):
    # det(I - zM) and the (t, r) cofactor come out of one pass over the
    # block matrix: zeta_op_factorized adds only the bordered determinant,
    # and build_family makes no other pass.
    hole = (1, 1, 1)
    want_closed = char_poly(step_system.block_matrix)
    q = hole_quantities(step_system, hole)
    want_cof = cofactor_poly(step_system.block_matrix, q.t_index, q.r_index)
    passes = []
    leverrier = zeta._leverrier

    def counted(*args, **kwargs):
        passes.append(args)
        return leverrier(*args, **kwargs)

    monkeypatch.setattr(zeta, "_leverrier", counted)
    bundle = zeta_op_factorized(step_system, hole)
    assert len(passes) == 2
    assert bundle.zeta_closed_inverse.coefficients == want_closed.coefficients
    assert bundle.cofactor.coefficients == want_cof.coefficients
    passes.clear()
    family = build_family(full2, step_ceiling, (1,))
    assert len(passes) == 1
    t = family.t_index
    assert family.cofactor.coefficients == cofactor_poly(family.system.block_matrix, t, t).coefficients


def test_one_hole_quantities_call_per_factorization(monkeypatch, step_system):
    # The bordered matrix is built from the quantities already computed.
    calls = []
    quantities = open_system.hole_quantities

    def counted(*args, **kwargs):
        calls.append(args)
        return quantities(*args, **kwargs)

    monkeypatch.setattr(zeta, "hole_quantities", counted)
    monkeypatch.setattr(open_system, "hole_quantities", counted)
    zeta_op_factorized(step_system, (1, 1, 1))
    assert len(calls) == 1


def test_escape_rate_zeta_matches_flow(step_system):
    for hole in [(0,), (1, 1), (1, 0, 1)]:
        a = escape_rate_zeta(step_system, hole)
        b = escape_rate_flow(step_system, hole, representation="refined")
        assert a == pytest.approx(b, abs=1e-10), hole


def test_bordered_dimension_375_answers_on_every_route():
    # Ceiling (1.95, 2.9, 3.1) on lattice 0.05 gives heights 39, 58, 62 (159
    # blocks); the hole 01210 has k0 = 217, so the bordered matrix has 375
    # dims. The refined root, the bordered determinant and the factorized
    # zeta determinant agree.
    shift = build_markov_shift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    ceiling = cylinder_function(1, {(0,): 1.95, (1,): 2.9, (2,): 3.1}, lattice=0.05)
    system = build_suspension(shift, ceiling)
    hole = (0, 1, 2, 1, 0)
    assert build_open_bordered(system, hole).matrix.shape == (375, 375)
    refined = escape_rate_flow(system, hole, "refined")
    assert refined == pytest.approx(3.9004e-4, rel=1e-4)
    for rate in (escape_rate_flow(system, hole, "bordered"), escape_rate_zeta(system, hole)):
        assert rate == pytest.approx(refined, rel=1e-9, abs=0.0)
    bundle = zeta_op_factorized(system, hole)
    assert bundle.max_deviation < 1e-9
    assert abs(bundle.cofactor_value - bundle.cofactor_predicted) < 1e-9


def test_root_radius_duality(unit_system, step_system):
    from flowescape import build_open_matrix, open_spectral_radius

    for system, hole in [(unit_system, (0, 0)), (step_system, (1, 1))]:
        om = build_open_matrix(system, hole, representation="refined")
        radius = open_spectral_radius(om)
        root = smallest_root_geq_one(zeta_op_factorized(system, hole).zeta_open_inverse)
        assert math.exp(escape_rate_flow(system, hole) * system.lattice_scale) * radius == pytest.approx(1.0, abs=1e-10)
        assert root * radius == pytest.approx(1.0, abs=1e-10)
