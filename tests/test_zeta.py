"""Polynomial machinery and the open determinant factorization."""

import itertools
import math
from fractions import Fraction

import mpmath
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
    build_suspension,
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
from flowescape.suspension import SuspensionSystem
from flowescape.open_system import _open_rate
from oracles import bordered_open_matrix, char_poly, cofactor_poly, dense_leverrier

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


@pytest.fixture(scope="module")
def word_operator_cases(full2, golden_mean):
    """Towers of at least 64 states, where the determinants run over the word
    operator: (system, hole or None, adjugate entry as (row, col) words)."""
    # Heights 32 and 64: a 96-block tower whose top rows have two successors.
    lattice = build_suspension(full2, cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1 / 32))
    q = hole_quantities(lattice, (1, 1, 1))
    assert q.k0 == 128 and q.correlation[63] == 0.5
    assert hole_quantities(lattice, (1,)).k0 == 0
    # Heights 1 and 70: the height-1 word 0 holds t for the hole 01 (k0 = 1)
    # and r for the hole 10 (k0 = 70).
    thin = build_suspension(full2, cylinder_function(1, {(0,): 1.0, (1,): 70.0}, lattice=1.0))
    assert hole_quantities(thin, (0, 1)).k0 == 1
    assert hole_quantities(thin, (1, 0)).k0 == 70
    # Golden mean with heights 40 and 30: word 1 has the single successor 0.
    golden = build_suspension(
        golden_mean, cylinder_function(1, {(0,): 40.0, (1,): 30.0}, lattice=1.0)
    )
    assert golden_mean.successors(1) == (0,)
    # Words 00, 01, 10 of a golden-mean chain with heights 19, 22, 25: 01
    # has the single successor 10 and is folded into the row of 00 unless
    # it holds t, also where it holds r. Its weight sits 2^-44 below 1,
    # which the shift accepts, so that the fold must carry it.
    chain = build_markov_shift([[0.37, 0.63], [1.0 - 2.0**-44, 0.0]])
    folded = build_suspension(
        chain, cylinder_function(2, {(0, 0): 19.0, (0, 1): 22.0, (1, 0): 25.0}, lattice=1.0)
    )
    assert zeta._word_layers(folded, None, 66, (0, 2))[0] == 2
    # 0010001 overlaps itself and keeps a border state; 10001 does not.
    for hole, size, dim in (((0, 0, 1, 0, 0, 0, 1), 169, 3), ((1, 0, 0, 0, 1), 128, 2)):
        q = hole_quantities(folded, hole)
        assert q.r_word == (0, 1) and zeta._word_layers(folded, q, size, (0, 2))[0] == dim
    return {
        "tower diagonal entry": (lattice, None, (1, 1)),
        "tower off-diagonal entry": (lattice, None, (1, 0)),
        "bordered self-overlapping hole": (lattice, (1, 1, 1), (1, 1)),
        "bordered k0 = 0": (lattice, (1,), (0, 1)),
        "bordered k0 = 1, t of height 1": (thin, (0, 1), (0, 1)),
        "bordered r of height 1": (thin, (1, 0), (1, 0)),
        "tower with a single-successor word": (golden, None, (1, 0)),
        "bordered single-successor r": (golden, (0, 0, 1), (1, 1)),
        "tower with a folded word": (folded, None, (0, 2)),
        "bordered with a folded r": (folded, (0, 0, 1, 0, 0, 0, 1), (0, 2)),
        "bordered with a folded r and no border state": (folded, (1, 0, 0, 0, 1), (0, 2)),
    }


WORD_OPERATOR_CASES = [
    "tower diagonal entry",
    "tower off-diagonal entry",
    "bordered self-overlapping hole",
    "bordered k0 = 0",
    "bordered k0 = 1, t of height 1",
    "bordered r of height 1",
    "tower with a single-successor word",
    "bordered single-successor r",
    "tower with a folded word",
    "bordered with a folded r",
    "bordered with a folded r and no border state",
]


@pytest.mark.parametrize("name", WORD_OPERATOR_CASES)
def test_collapsed_leverrier_matches_dense_reference(word_operator_cases, monkeypatch, name):
    # FL over the word operator sums the chains of the tower in another order
    # than a dense product, so the coefficients may differ in the last bits.
    system, hole, entry = word_operator_cases[name]
    q = None if hole is None else hole_quantities(system, hole)
    matrix = system.block_matrix if q is None else bordered_open_matrix(system, hole)
    assert matrix.shape[0] >= zeta._WORD_OPERATOR_MIN_DIMENSION
    want_det, want_adj = dense_leverrier(matrix, tuple(system._starts[list(entry)]))

    def refuse(*args, **kwargs):
        raise AssertionError("dense pass on a tower whose word operator pays")

    monkeypatch.setattr(zeta, "_leverrier", refuse)
    det, adj = zeta._tower_leverrier(system, q, entry)
    for got, want in ((det, want_det), (adj, want_adj)):
        assert len(got) == len(want)
        got, want = np.array(got), np.array(want)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_dense_pass_where_the_collapse_does_not_pay(full2):
    # The 64 words of length 6 with unit heights: 64 blocks and a 64-state
    # word operator, whose polynomial steps cost more than the dense ones.
    words = itertools.product((0, 1), repeat=6)
    system = build_suspension(full2, cylinder_function(6, {w: 1.0 for w in words}, lattice=1.0))
    assert len(system.block_measure) == 64
    assert zeta._word_layers(system, None, 64) is None

    def refuse(*args, **kwargs):
        raise AssertionError("word operator where the dense pass is cheaper")

    # Unit heights: block i is word i, and words 0 and 63 are 0^6 and 1^6.
    want = dense_leverrier(system.block_matrix, (0, 63))
    passes = []
    leverrier = zeta._leverrier

    def counted(*args, **kwargs):
        passes.append(args)
        return leverrier(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(zeta, "_word_leverrier", refuse)
        patch.setattr(zeta, "_leverrier", counted)
        got = zeta._tower_leverrier(system, None, (0, 63))
    assert len(passes) == 1
    assert got == want


def test_self_overlapping_hole_past_320_dims_answers_on_the_word_operator(unit_system):
    # 0^400 on the full 2-shift overlaps itself at every shift, so each of
    # its 398 border states carries a correlation coefficient and branches;
    # the word operator keeps the first only, and the bordered and zeta
    # routes answer.
    # The rate, about 2^-400, is far below the float resolution of 1 - rho.
    hole = (0,) * 400
    assert hole_quantities(unit_system, hole).k0 == 399
    bordered = escape_rate_flow(unit_system, hole, "bordered")
    for rate in (escape_rate_zeta(unit_system, hole), bordered):
        assert 0.0 <= rate < 1e-13 and math.copysign(1.0, rate) == 1.0
    # `auto` no longer falls back to the refined root: 2^400 words are past
    # the state cap, and the bordered route answers.
    assert escape_rate_flow(unit_system, hole) == bordered


def test_word_operator_keeps_one_word_per_cycle():
    # A 3-cycle with heights 25, 26, 27: every word has one successor, so
    # the word operator keeps one of them, W(z) = z^78, and det(I - z M) =
    # 1 - z^78.
    shift = build_markov_shift([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    system = build_suspension(
        shift, cylinder_function(1, {(0,): 25.0, (1,): 26.0, (2,): 27.0}, lattice=1.0)
    )
    assert zeta._word_layers(system, None, 78)[0] == 1
    det, _ = zeta._tower_leverrier(system)
    assert det == [1.0] + [0.0] * 77 + [-1.0]


def _sticky_order_5():
    # 32 words of length 5 with unit heights on a chain that stays on 0
    # with probability 0.99: 0^m overlaps itself at every shift with weight
    # 0.99, so its correlation polynomial sums to about 100 at z = 1.
    shift = build_markov_shift([[0.99, 0.01], [0.5, 0.5]])
    words = itertools.product((0, 1), repeat=5)
    return build_suspension(shift, cylinder_function(5, {w: 1.0 for w in words}, lattice=1.0))


def test_long_zero_run_on_32_words_matches_the_refined_root():
    # 0^400: 426 bordered dims and a 33-state word operator. With the loop
    # -sum_k c_k z^k on its border state unscaled, FL cancelled terms of size
    # 100^33 here and the bordered determinant had no root.
    system, hole = _sticky_order_5(), (0,) * 400
    q = hole_quantities(system, hole)
    assert zeta._word_layers(system, q, 426)[0] == 33
    refined = escape_rate_flow(system, hole, "refined")
    assert refined == pytest.approx(1.92008e-4, rel=1e-5)
    for rate in (escape_rate_flow(system, hole, "bordered"), escape_rate_zeta(system, hole)):
        assert rate == pytest.approx(refined, rel=1e-9, abs=0.0)


def test_long_zero_run_past_the_cap_cost_raises_before_any_step(monkeypatch):
    # 0^3000: 3026 bordered dims. FL over the 33-state word operator, with
    # a loop of 2996 coefficients, would cost more multiply-adds than the
    # dense pass at 320 dims, so the bordered and zeta routes raise at once.
    system, hole = _sticky_order_5(), (0,) * 3000
    assert zeta._word_layers(system, hole_quantities(system, hole), 3026) is None

    def refuse(*args, **kwargs):
        raise AssertionError("FL started past the cost cap")

    monkeypatch.setattr(zeta, "_word_leverrier", refuse)
    for route in (lambda: escape_rate_flow(system, hole, "bordered"), lambda: escape_rate_zeta(system, hole)):
        with pytest.raises(DimensionTooLargeError, match="dense pass at the cap"):
            route()


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
    assert len(system.block_measure) == 300
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
    # The pass runs over the three words, never over the 300-block matrix.
    def refuse(self):
        raise AssertionError("block matrix built for a tower determinant")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SuspensionSystem, "block_matrix", property(refuse))
        closed, _ = zeta._closed_and_cofactor(system, (0,), (0,))
    got = np.pad(np.array(closed.coefficients), (0, 301 - len(closed.coefficients)))
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
    got = smallest_root_geq_one(Polynomial((1.0, -0.5, -0.25)))
    assert got == pytest.approx(2 / GOLDEN, abs=1e-14)


def test_root_at_one():
    assert smallest_root_geq_one(Polynomial((1.0, -1.0))) == 1.0


def test_root_linear():
    assert smallest_root_geq_one(Polynomial((1.0, -0.5))) == pytest.approx(2.0, abs=1e-14)


def test_root_double():
    got = smallest_root_geq_one(Polynomial((1.0, -1.0, 0.25)))
    assert got == pytest.approx(2.0, abs=1e-12)


def test_root_none_found():
    with pytest.raises(NoSignChangeError):
        smallest_root_geq_one(Polynomial((1.0, 0.0, 1.0)))


def _linspace_scan(poly, left, right):
    """The scalar sign scan over np.linspace(left, right, 512), one
    ``poly(x)`` per point."""
    xs = np.linspace(left, right, 512)
    prev_x, prev_v = left, poly(left)
    for x in xs[1:]:
        v = poly(float(x))
        if prev_v > 0.0 >= v:
            return prev_x, float(x)
        prev_x, prev_v = float(x), v
    return None


def test_sign_scan_equals_the_scalar_linspace_scan():
    # Roots spread over the brackets, in and past the first 32 points of
    # theirs, double roots whose sign noise the scan may or may not meet,
    # and coefficients whose Horner sums overflow to -inf at large z: the
    # vectorized pass must find the same pair of floats, or none.
    rng = np.random.default_rng(5)
    # The first root lies between points 30 and 31 of [1, 2], where the
    # one-at-a-time points end.
    polys = [
        Polynomial((1.0, -1.0 / (1.0 + 30.5 / 511))),
        Polynomial((1e300,) + (-1e300,) * 40),
        Polynomial((1.0, 0.0, 1.0)),
    ]
    for _ in range(24):
        poly = Polynomial((float(rng.uniform(0.5, 2.0)),))
        # One root anywhere, one within 6% of a bracket's left end (about
        # its first 32 points), each simple or double.
        spread = 2.0 ** rng.uniform(0.0, 21.0)
        early = 2.0 ** rng.integers(0, 21) * rng.uniform(1.0, 1.06)
        for root in (spread, early):
            for _ in range(int(rng.integers(1, 3))):
                poly = poly * Polynomial((1.0, -1.0 / float(root)))
        polys.append(poly)
    checked = 0
    for poly in polys:
        left = 1.0
        for right in zeta._ROOT_BRACKETS:
            want = _linspace_scan(poly, left, right)
            assert zeta._first_sign_change(poly, left, right) == want, (poly, left)
            checked += want is not None
            left = right
    assert checked > 15


def test_positive_constant_has_its_root_at_infinity():
    assert smallest_root_geq_one(Polynomial((1.0,))) == math.inf
    assert smallest_root_geq_one(Polynomial((0.5, 0.0))) == math.inf


# ---------------------------------------------------------------------------
# Correlation polynomial and the factorization
# ---------------------------------------------------------------------------

def test_correlation_poly_cases(unit_system, step_system):
    assert zeta._correlation_poly(hole_quantities(unit_system, (0, 1))).coefficients == (1.0,)
    assert zeta._correlation_poly(hole_quantities(unit_system, (0, 0, 0))).coefficients == (1.0, 0.5)
    assert zeta._correlation_poly(hole_quantities(step_system, (1, 1, 1))).coefficients == (
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
    t, r = (step_system.block_index(word, 0) for word in (q.t_word, q.r_word))
    want_cof = cofactor_poly(step_system.block_matrix, t, r)
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
    t = family.system.block_index(family.t_word, 0)
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


def _pair_375():
    # Ceiling (1.95, 2.9, 3.1) on lattice 0.05 gives heights 39, 58, 62 (159
    # blocks); the hole 01210 has k0 = 217, so the bordered matrix has 375
    # dims.
    shift = build_markov_shift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]])
    ceiling = cylinder_function(1, {(0,): 1.95, (1,): 2.9, (2,): 3.1}, lattice=0.05)
    return build_suspension(shift, ceiling), (0, 1, 2, 1, 0)


def test_bordered_dimension_375_answers_on_every_route():
    # The refined root, the bordered determinant and the factorized zeta
    # determinant agree.
    system, hole = _pair_375()
    assert bordered_open_matrix(system, hole).shape == (375, 375)
    refined = escape_rate_flow(system, hole, "refined")
    assert refined == pytest.approx(3.9004e-4, rel=1e-4)
    for rate in (escape_rate_flow(system, hole, "bordered"), escape_rate_zeta(system, hole)):
        assert rate == pytest.approx(refined, rel=1e-9, abs=0.0)
    bundle = zeta_op_factorized(system, hole)
    assert bundle.max_deviation < 1e-9
    assert abs(bundle.cofactor_value - bundle.cofactor_predicted) < 1e-9


def test_bordered_dimension_375_builds_no_dense_matrix(monkeypatch):
    # The closed, cofactor and bordered determinants run over the word
    # operator, so neither the 159-block matrix nor the 375-dim bordered
    # matrix is built.
    system, hole = _pair_375()
    want = escape_rate_flow(system, hole, "refined")

    def refuse(*args, **kwargs):
        raise AssertionError("dense matrix built for a tower determinant")

    monkeypatch.setattr(SuspensionSystem, "block_matrix", property(refuse))
    monkeypatch.setattr(open_system, "_bordered_matrix", refuse)
    monkeypatch.setattr(zeta, "_bordered_matrix", refuse)
    bundle = zeta_op_factorized(system, hole)
    assert bundle.max_deviation < 1e-9
    for rate in (escape_rate_zeta(system, hole), escape_rate_flow(system, hole, "bordered")):
        assert rate == pytest.approx(want, rel=1e-9, abs=0.0)


def _mp_zero_run_rate(transitions, heights, lattice, m, guess):
    """Flow escape rate through the hole 0^m at 50 digits, from the smallest
    s > 0 with det(I - W(e^s)) = 0.

    W(z) is the word operator of the bordered matrix, with entries evaluated
    in mpmath from the transition floats: W[u, v] = z^{h_u} p(u, v) on the
    words, and one border state b with W[0, b] = -alpha z, W[b, b] = -sum_j
    p00^j z^{j h_0} (0^m overlaps itself at every shift j = 1..m - 2) and
    W[b, 0] = z^{k0 - 1}, where alpha = p00^(m - 1) and k0 = (m - 1) h_0. No
    polynomial coefficient enters. ``guess`` only sets the scan grid.
    """
    mp = mpmath.mp.clone()
    mp.dps = 50
    p = [[mp.mpf(x) for x in row] for row in transitions]
    alpha = p[0][0] ** (m - 1)
    k0 = (m - 1) * heights[0]

    def det(s):
        z = mp.exp(s)
        lift = [z ** h for h in heights]
        step, power, loop = p[0][0] * lift[0], mp.mpf(1), mp.mpf(0)
        for _ in range(m - 2):
            power *= step
            loop += power
        w = mp.matrix(
            [
                [lift[0] * p[0][0], lift[0] * p[0][1], -alpha * z],
                [lift[1] * p[1][0], lift[1] * p[1][1], 0],
                [z ** (k0 - 1), 0, -loop],
            ]
        )
        return mp.det(mp.eye(3) - w)

    step = mp.mpf(guess * lattice) / 16
    lo = mp.mpf(0)
    assert det(lo) > 0
    for _ in range(64):
        if det(lo + step) <= 0:
            break
        lo += step
    else:
        pytest.fail(f"no sign change of the determinant below {lo}")
    root = mp.findroot(det, (lo, lo + step), solver="illinois", tol=mp.mpf(10) ** -45)
    return float(root / lattice)


@pytest.mark.parametrize("m", [200, 400, 800])
@pytest.mark.parametrize("heights, lattice", [((1, 1), 1.0), ((4, 6), 0.25)])
def test_long_self_overlapping_hole_matches_50_digit_root(m, heights, lattice):
    # 0^m on a sticky chain: 200-3205 bordered dims, a single border state
    # in the word operator. Bound fixed before measuring: 1e-9 relative.
    transitions = [[0.99, 0.01], [0.5, 0.5]]
    shift = build_markov_shift(transitions)
    values = {(a,): h * lattice for a, h in enumerate(heights)}
    system = build_suspension(shift, cylinder_function(1, values, lattice=lattice))
    hole = (0,) * m
    bordered = escape_rate_flow(system, hole, "bordered")
    want = _mp_zero_run_rate(transitions, heights, lattice, m, bordered)
    assert bordered == pytest.approx(want, rel=1e-9, abs=0.0)
    assert escape_rate_zeta(system, hole) == pytest.approx(want, rel=1e-9, abs=0.0)


def test_root_radius_duality(unit_system, step_system):
    for system, hole in [(unit_system, (0, 0)), (step_system, (1, 1))]:
        radius = _open_rate(system, hole, "refined")[2]
        root = smallest_root_geq_one(zeta_op_factorized(system, hole).zeta_open_inverse)
        assert math.exp(escape_rate_flow(system, hole) * system.lattice_scale) * radius == pytest.approx(1.0, abs=1e-10)
        assert root * radius == pytest.approx(1.0, abs=1e-10)
