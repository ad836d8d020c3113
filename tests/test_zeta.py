"""Polynomial machinery and the open determinant factorization."""

import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from flowescape import (
    DimensionTooLargeError,
    DomainError,
    FactorizationMismatchError,
    NoSignChangeError,
    NoZeroAtOneError,
    Polynomial,
    admissible_words,
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
    zeta_op_factorized,
)
import flowescape.zeta as zeta
from flowescape.suspension import SuspensionSystem
from flowescape.open_system import _open_rate
import oracles
from oracles import bordered_open_matrix, char_poly, cofactor_poly, dense_leverrier
from test_acceptance import _families, _zeta_grid
from test_asymptotics import _family_zeta_op

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
    assert p.scale(0.5).coefficients == (0.5, 0.5)


def test_polynomial_derivative():
    p = Polynomial((1.0, -1.0, 0.25))
    assert p.derivative().coefficients == (-1.0, 0.5)


def _trimmed_one_zero_at_a_time(coefficients):
    """The stored coefficients of a Polynomial, trimmed as they once were:
    one slice per trailing zero."""
    coeffs = tuple(float(c) for c in coefficients)
    while len(coeffs) > 1 and coeffs[-1] == 0.0:
        coeffs = coeffs[:-1]
    return coeffs or (0.0,)


def test_polynomial_trims_as_the_slice_per_zero_loop():
    # repr tells -0.0 from 0.0, which == does not.
    inputs = [
        (),
        (0.0,),
        (-0.0,),
        (0.0, 0.0, 0.0),
        (-0.0, 0.0, -0.0),
        (1.0, -0.5, 0.0, -0.0, 0.0),
        (0.0, -0.0, 2.5),
        (3, 0, -0.0),
        np.array([1.0, 2.0, 0.0]),
        (math.inf, math.nan, 0.0),
        tuple(np.random.default_rng(3).normal(size=20)) + (0.0,) * 7,
    ]
    for coefficients in inputs:
        want = _trimmed_one_zero_at_a_time(coefficients)
        assert repr(Polynomial(coefficients).coefficients) == repr(want), coefficients


def test_taylor_at_one_equals_the_math_comb_sums():
    # Degree 80 puts comb(i, l) past 2^53, where c * comb(i, l) rounds the
    # integer to a float: the running-sum rows must give the same integers
    # and the same sums in the same order.
    rng = np.random.default_rng(11)
    polys = [Polynomial((0.0,)), Polynomial((2.0,)), Polynomial((1.0, -1.0, 0.25))]
    polys += [Polynomial(tuple(rng.normal(size=degree + 1))) for degree in (1, 5, 17, 40, 80, 80)]
    for poly in polys:
        for terms in (1, 3, poly.degree + 1, poly.degree + 4):
            want = tuple(
                float(sum(c * math.comb(i, l) for i, c in enumerate(poly.coefficients) if i >= l))
                for l in range(terms)
            )
            assert poly.taylor_at_one(terms) == want, (poly.degree, terms)
    assert math.comb(80, 40) > 2**53


def _reference_coefficients(rng, length, magnitudes):
    """Mixed signs, exponents uniform over ``magnitudes``, exact zeros of both
    signs inside and at the ends (a zero at the end is trimmed)."""
    values = rng.choice([-1.0, 1.0], size=length) * 10.0 ** rng.uniform(*magnitudes, size=length)
    coeffs = [float(v) for v in values]
    for i in np.flatnonzero(rng.random(length) < 0.15):
        coeffs[i] = float(rng.choice([0.0, -0.0]))
    if coeffs and rng.random() < 0.3:
        coeffs[0] = 0.0
    if coeffs and rng.random() < 0.3:
        coeffs[-1] = float(rng.choice([0.0, -0.0]))
    return tuple(coeffs)


def _same_floats(got, want):
    """Equal floats, compared as float hex so that -0.0, 0.0 and nan count,
    and every one a Python float."""
    assert all(type(c) is float for c in got), got
    return [c.hex() for c in got] == [c.hex() for c in want]


def test_polynomial_arithmetic_matches_the_tuple_reference():
    # The arithmetic gives the floats of the generator and double-loop forms
    # in oracles, on lengths 1-400 with magnitudes from 1e-300 to 1e300
    # (products overflow to inf and sums of infs to nan) and exact zeros.
    rng = np.random.default_rng(31)
    polys = []
    for length in (1, 1, 2, 3, 5, 8, 13, 40, 97, 211, 400, 400):
        for magnitudes in ((-300.0, 300.0), (-2.0, 2.0)):
            polys.append(_reference_coefficients(rng, length, magnitudes))
    # Tails that negate the tail of the poly before them.
    for a in polys[3::4]:
        cut = len(a) // 2
        polys.append(_reference_coefficients(rng, cut, (-2.0, 2.0)) + tuple(-c for c in a[cut:]))
    pairs = list(zip(polys, polys[1:] + polys[:1])) + list(zip(polys, polys[-11:] + polys[:-11]))
    for a, b in pairs:
        pa, pb = Polynomial(a), Polynomial(b)
        ra, rb = oracles.poly(a), oracles.poly(b)
        assert _same_floats(pa.coefficients, ra)
        if len(ra) * len(rb) <= 40_000:
            assert _same_floats((pa * pb).coefficients, oracles.poly_mul(ra, rb))
    for a in polys:
        pa, ra = Polynomial(a), oracles.poly(a)
        for factor in (0.0, -0.0, -1.0, 1e-300, 1e300, 0.37, 3, np.float64(-2.5)):
            assert _same_floats(pa.scale(factor).coefficients, oracles.poly_scale(ra, factor))
        assert _same_floats(pa.derivative().coefficients, oracles.poly_derivative(ra))
        points = (0.0, 1.0, -1.0, 0.75, 1.0 + 2.0**-20, 2.0)
        assert _same_floats([pa(z) for z in points], [oracles.poly_call(ra, z) for z in points])
        for terms in (1, 4, min(len(ra) + 2, 12)):
            assert _same_floats(pa.taylor_at_one(terms), oracles.poly_taylor_at_one(ra, terms))
            for k0 in (1, 9):
                want = oracles.poly_taylor_at_one(oracles.poly_shift_power(ra, k0), terms + k0)
                assert _same_floats(zeta._shifted_taylor(ra, k0, terms + k0), want)
        try:
            want = oracles.poly_deflate_at_one(ra)
        except NoZeroAtOneError:
            with pytest.raises(NoZeroAtOneError):
                deflate_at_one(pa)
        else:
            assert _same_floats(deflate_at_one(pa).coefficients, want)
    # (1 - z) q with dyadic coefficients vanishes at 1 exactly, so the
    # division runs at every scale.
    for length in (1, 2, 7, 60, 400):
        for scale in (2.0**-990, 1.0, 2.0**900):
            q = tuple(float(v) * scale for v in rng.integers(-1000, 1001, size=length))
            p = oracles.poly_mul((1.0, -1.0), oracles.poly(q))
            want = oracles.poly_deflate_at_one(p)
            assert _same_floats(deflate_at_one(Polynomial(p)).coefficients, want)
    assert _same_floats(Polynomial(np.array([1.5, -2.0, 0.0])).coefficients, (1.5, -2.0))


def test_open_determinant_matches_the_tuple_reference():
    # The sparse assembly from the correlation's nonzero terms gives the
    # floats of closed * corr + alpha z^k0 C in the tuple arithmetic, on
    # dense and on sparse correlations with zeros of both signs, with
    # magnitudes from 1e-300 to 1e300 (sums of infs give nan in both).
    rng = np.random.default_rng(37)
    for trial in range(60):
        magnitudes = (-300.0, 300.0) if trial % 3 == 0 else (-2.0, 2.0)
        closed = oracles.poly(_reference_coefficients(rng, int(rng.integers(1, 40)), magnitudes))
        cof = oracles.poly(_reference_coefficients(rng, int(rng.integers(1, 30)), magnitudes))
        corr = list(_reference_coefficients(rng, int(rng.integers(1, 25)), magnitudes))
        if trial % 2:
            step = int(rng.integers(2, 6))
            corr = [c if i % step == 0 else float(rng.choice([0.0, -0.0])) for i, c in enumerate(corr)]
        corr = oracles.poly((1.0,) + tuple(corr))
        alpha = float(10.0 ** rng.uniform(-3.0, 1.0))
        for k0 in (0, 1, len(corr), len(corr) + 7):
            got = zeta._open_determinant(
                Polynomial(closed), Polynomial(corr), Polynomial(cof), alpha, k0
            )
            if k0 == 0:
                want = cof
            else:
                shifted = oracles.poly_scale(oracles.poly_shift_power(cof, k0), alpha)
                want = oracles.poly_add(oracles.poly_mul(closed, corr), shifted)
            assert _same_floats(got.coefficients, want), (trial, k0)


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
    """Towers of at least ``_WORD_OPERATOR_MIN_DIMENSION`` states, where the
    determinants run over the word operator: (system, hole or None,
    adjugate entry as (row, col) words)."""
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
    # Closed towers of 40 and 58 states on lattice 0.05, between the cut and
    # 64 states, as the lattice pairs of the zeta-grid benchmark have them.
    three = build_suspension(
        build_markov_shift([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]),
        cylinder_function(1, {(0,): 0.6, (1,): 0.75, (2,): 0.65}, lattice=0.05),
    )
    two = build_suspension(
        build_markov_shift([[0.7, 0.3], [0.45, 0.55]]),
        cylinder_function(1, {(0,): 1.0, (1,): 1.9}, lattice=0.05),
    )
    assert len(three.block_measure) == 40 and len(two.block_measure) == 58
    return {
        "40-state closed tower": (three, None, (2, 0)),
        "58-state closed tower": (two, None, (0, 1)),
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
    "40-state closed tower",
    "58-state closed tower",
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


def _hex(values):
    return None if values is None else [float(c).hex() for c in values]


def _dense_inputs(rng):
    """(matrix, entry) pairs of 1-29 states: the block and bordered matrices
    of seeded towers, and matrices whose entries mix +0.0, -0.0, 1.0 and
    signed uniforms; each with an adjugate entry and without."""
    cases = []
    for size in range(1, 30):
        pick = rng.integers(0, 4, (size, size))
        values = np.where(pick == 0, 0.0, np.where(pick == 1, -0.0, rng.uniform(-1.0, 1.0, (size, size))))
        cases.append(np.where(pick == 3, 1.0, values))
    for system, q, _ in _word_operator_inputs(rng, 40):
        if zeta._tower_dimension(system, q) < 30:
            cases.append(system.block_matrix if q is None else zeta._bordered_matrix(system, q))
    return [
        (matrix, entry)
        for matrix in cases
        for entry in (None, tuple(int(i) for i in rng.integers(0, matrix.shape[0], 2)))
    ]


def test_dense_pass_matches_the_parent_pass_in_float_hex():
    # oracles.leverrier is the pass with a gathered diagonal and entry.
    inputs = _dense_inputs(np.random.default_rng(11))
    assert {matrix.shape[0] for matrix, _ in inputs} == set(range(1, 30))
    signed_zeros = 0
    for matrix, entry in inputs:
        got, want = zeta._leverrier(matrix, entry), oracles.leverrier(matrix, entry)
        assert [_hex(part) for part in got] == [_hex(part) for part in want], (matrix, entry)
        signed_zeros += "-0x0.0p+0" in _hex(got[0]) + (_hex(got[1]) or [])
    assert signed_zeros > 0


def _word_operator_inputs(rng, count):
    """(system, quantities or None, entry words or None) on seeded shifts of
    2-3 letters, ceilings of order 1-2 with heights up to 1, 3, 12 or 40, and
    holes from the order's length up, some of them long runs of one letter
    that overlap themselves at many shifts."""
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 4))
        raw = rng.uniform(0.05, 1.0, (n, n)) * (rng.random((n, n)) >= 0.4)
        for i in range(n):
            if not raw[i].any():
                raw[i, rng.integers(0, n)] = 1.0
        try:
            shift = build_markov_shift(raw / raw.sum(axis=1, keepdims=True))
        except DomainError:
            continue
        order = int(rng.integers(1, 3))
        words = admissible_words(shift, order)
        top = int(rng.choice([1, 3, 12, 40]))
        heights = {w: float(rng.integers(1, top + 1)) for w in words}
        system = build_suspension(shift, cylinder_function(order, heights, lattice=1.0))
        hole, run = [int(rng.integers(0, n))], rng.random() < 0.4
        for _ in range(int(rng.integers(order - 1, order + (29 if run else 5)))):
            successors = shift.successors(hole[-1])
            hole.append(hole[-1] if run and hole[-1] in successors else int(rng.choice(successors)))
        try:
            q = hole_quantities(system, tuple(hole)) if rng.random() < 0.8 else None
        except DomainError:
            q = None
        entry = tuple(int(i) for i in rng.integers(0, len(words), 2)) if rng.random() < 0.7 else None
        out.append((system, q, entry))
    return out


def _same_layers(got, want):
    """Equal word operators: the same d, powers, rows (all of them or the
    same indices), blocks and loop bit for bit, and entry states."""
    if got is None or want is None:
        return got is want
    (dim, layers, loop, entry), (dim2, layers2, loop2, entry2) = got, want
    if (dim, entry, len(layers)) != (dim2, entry2, len(layers2)) or (loop is None) != (loop2 is None):
        return False
    for (p, rows, block), (p2, rows2, block2) in zip(layers, layers2):
        if p != p2 or block.shape != block2.shape or block.tobytes() != block2.tobytes():
            return False
        if isinstance(rows, slice) or isinstance(rows2, slice):
            if not (isinstance(rows, slice) and isinstance(rows2, slice)):
                return False
        elif rows.dtype != rows2.dtype or rows.tolist() != rows2.tolist():
            return False
    return loop is None or (loop[0], loop[2], loop[1].tobytes()) == (loop2[0], loop2[2], loop2[1].tobytes())


def test_word_operator_pass_matches_the_parent_pass_in_float_hex(unit_system):
    # oracles.word_layers builds each power's dense layer and gathers its
    # rows, and oracles.word_leverrier gathers the diagonal polynomials.
    # 0^30 on the full 2-shift overlaps itself at every shift: its loop has
    # 29 nonzero taps.
    inputs = _word_operator_inputs(np.random.default_rng(12), 150)
    inputs.append((unit_system, hole_quantities(unit_system, (0,) * 30), (0, 1)))
    dims, k0s, taps, signed_taps = set(), set(), set(), 0
    for system, q, entry in inputs:
        size = zeta._tower_dimension(system, q)
        for width in (size, size + 320):
            got = zeta._word_layers(system, q, width, entry)
            assert _same_layers(got, oracles.word_layers(system, q, width, entry)), (system.words, q)
            if got is None:
                continue
            det = zeta._word_leverrier(width, *got)
            want = oracles.word_leverrier(width, *oracles.word_layers(system, q, width, entry))
            assert [_hex(part) for part in det] == [_hex(part) for part in want], (system.words, q)
            dims.add(got[0])
            k0s.add(None if q is None else min(q.k0, 2))
            if got[2] is not None:
                taps.add(int(np.count_nonzero(got[2][1])))
                signed_taps += "-0x0.0p+0" in _hex(got[2][1])
    assert set(range(1, 9)) <= dims
    assert k0s == {None, 0, 1, 2}
    assert 1 in taps and max(taps) >= 28
    assert signed_taps > 0


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


def test_root_rejects_a_negative_value_at_one():
    with pytest.raises(ValueError, match="negative"):
        smallest_root_geq_one(Polynomial((-1.0, 0.5)))


def _linspace_scan(poly, left, right):
    """The scalar sign scan over np.linspace(left, right, 512), one
    ``poly(x)`` per point: the pair of points and their two values."""
    xs = np.linspace(left, right, 512)
    prev_x, prev_v = left, poly(left)
    for x in xs[1:]:
        v = poly(float(x))
        if prev_v > 0.0 >= v:
            return prev_x, float(x), prev_v, v
        prev_x, prev_v = float(x), v
    return None


def test_sign_scan_equals_the_scalar_linspace_scan():
    # Roots spread over the brackets, in and past the first 32 points of
    # theirs, double roots whose sign noise the scan may or may not meet,
    # and coefficients whose Horner sums overflow to -inf at large z: the
    # scan over all brackets must find the pair of floats that the scalar
    # scan finds in the first bracket with a change, with the values that
    # ``poly(x)`` gives at them, or none.
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
        want, left = None, 1.0
        for right in zeta._ROOT_BRACKETS:
            want = _linspace_scan(poly, left, right)
            if want is not None:
                break
            left = right
        assert zeta._first_sign_change(poly, poly(1.0)) == want, poly
        checked += want is not None
    assert checked > 15


@pytest.fixture(scope="module")
def open_determinants():
    """The open determinants of the criterion 3-4 grid (holes of length 2-5)
    and of the shrinking-hole families of criteria 5-9 at nu = 4..10."""
    polys = [
        zeta_op_factorized(system, hole).zeta_open_inverse
        for *_, system, hole in _zeta_grid(lengths=(2, 3, 4, 5))
    ]
    polys += [_family_zeta_op(family, nu) for *_, family in _families() for nu in range(4, 11)]
    return polys


def test_root_calls_average_at_most_32_evaluations(open_determinants, monkeypatch):
    # Counts every Polynomial evaluation, of the derivatives too. Bisecting
    # the scan's 1/511 bracket down to 1e-15 took about 65 per root call.
    calls = 0
    evaluate = Polynomial.__call__

    def counted(poly, z):
        nonlocal calls
        calls += 1
        return evaluate(poly, z)

    monkeypatch.setattr(Polynomial, "__call__", counted)
    for poly in open_determinants:
        smallest_root_geq_one(poly)
    assert len(open_determinants) > 1000
    assert calls <= 32 * len(open_determinants)


def test_roots_lie_within_the_horner_error_bound_of_a_60_digit_root(open_determinants):
    # Bound fixed before the refinement changed: max(4 ulp, gamma_2n
    # sum_i |c_i| r^i / |p'(r)|), Horner's forward error bound with gamma_2n
    # = 2n u / (1 - 2n u), u = 2^-53 and n the degree (Higham, Accuracy and
    # Stability of Numerical Algorithms, 2002, section 5.1), carried to the
    # root through p'. The reference is a 60-digit Newton root of the same
    # float coefficients, started from the float root.
    mp = mpmath.mp.clone()
    mp.dps = 60
    unit = 2.0**-53
    errors = []
    for poly in open_determinants:
        root = smallest_root_geq_one(poly)
        assert 1.0 < root < math.inf, poly
        coeffs = [mp.mpf(c) for c in reversed(poly.coefficients)]
        slopes = [mp.mpf(c) for c in reversed(poly.derivative().coefficients)]
        want = mp.findroot(
            lambda x: mp.polyval(coeffs, x), mp.mpf(root), solver="newton", tol=mp.mpf(10) ** -50
        )
        gamma = 2 * poly.degree * unit / (1.0 - 2 * poly.degree * unit)
        size = math.fsum(abs(c) * root**i for i, c in enumerate(poly.coefficients))
        slope = abs(float(mp.polyval(slopes, mp.mpf(root))))
        ulp = float(np.spacing(root))
        # A double root, such as that of (1 - z/2)^2, has p'(r) = 0 and no
        # first-order bound.
        bound = max(4.0 * ulp, gamma * size / slope if slope else math.inf)
        error = abs(float(mp.mpf(root) - want))
        assert error <= bound, (poly, root, error / ulp, bound / ulp)
        errors.append(error / ulp)
    assert float(np.median(errors)) < 1.0


def _newton_thirty_steps(poly, deriv, x, lo, hi):
    """The iterates of the Newton polish as a plain 30-step loop, with no
    cycle check; the last one is what the polish returns."""
    path = [x]
    for _ in range(30):
        dv = deriv(x)
        if dv == 0.0:
            break
        step = poly(x) / dv
        nxt = x - step
        if not (lo - 1e-12 <= nxt <= hi + 1e-9):
            break
        x = nxt
        path.append(x)
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return path


@pytest.mark.parametrize(
    "coefficients, root",
    [
        # Newton on these bounces between two or three floats next to the
        # root, each step an ulp or more.
        ((1.0, 0.0, -0.5), math.sqrt(2.0)),
        ((1.0, -1.0, 0.0, 0.125), 1.2360679774997898),
        ((1.0, 0.0, -1.72, 0.0, 0.736, 0.0, -0.01472), 1.0022113439485918),
        ((1.0, -0.5, -0.25, -0.125, -0.0625, -0.03125), 1.017320783284008),
    ],
)
def test_polish_cycle_shortcut_returns_the_thirty_step_float(coefficients, root):
    # Starts on every float within 12 ulp of the root, so the 30 steps end
    # on each member of a cycle from some start: a shortcut that returned
    # the wrong member would differ from the loop.
    poly = Polynomial(coefficients)
    deriv = poly.derivative()
    starts = [root]
    for direction in (-math.inf, math.inf):
        x = root
        for _ in range(12):
            x = math.nextafter(x, direction)
            starts.append(x)
    lo, hi = min(starts), max(starts)
    ends, cycled = set(), 0
    for start in starts:
        path = _newton_thirty_steps(poly, deriv, start, lo, hi)
        assert zeta._newton_polish(poly, deriv, start, lo, hi) == path[-1], (coefficients, start)
        ends.add(path[-1])
        cycled += len(path) == 31 and len(set(path[-10:])) >= 2
    assert cycled >= 4
    assert len(ends) >= 2


def test_positive_constant_has_its_root_at_infinity():
    assert smallest_root_geq_one(Polynomial((1.0,))) == math.inf
    assert smallest_root_geq_one(Polynomial((0.5, 0.0))) == math.inf


def _root_inputs(rng):
    """(poly, root, kind): g(z) (1 - z/r), or g(z) (1 - z/r)^2 for kind
    "double", of degree 1-320, with g's coefficients positive or -0.0, so
    that r is the only root past 1. "early" roots lie within the first 32
    scan points of [1, 2], "late" ones past them and "later" ones in the
    brackets from [2, 4] on."""
    # Roots between points 31 and 32 of [1, 2], where the first vectorized
    # block starts, between its last two points, and between the first two
    # of [2, 4].
    edges = ("late", 1.0 + 31.5 / 511), ("late", 2.0 - 0.5 / 511), ("later", 2.0 + 1.0 / 511)
    cases = []
    for degree in (1, 2, 3, 5, 8, 13, 40, 100, 200, 320):
        draws = [
            ("early", lambda: 1.0 + rng.uniform(0.5, 30.0) / 511),
            ("late", lambda: 1.0 + rng.uniform(32.0, 510.0) / 511),
            ("later", lambda: 2.0 ** rng.uniform(1.0, 20.0)),
            ("double", lambda: rng.uniform(1.01, 8.0)),
        ]
        draws += [(kind, lambda root=root: root) for kind, root in edges]
        for kind, draw in draws:
            for _ in range(2):
                root = float(draw())
                factors = 2 if kind == "double" else 1
                if degree < factors or (kind == "double" and degree > 40):
                    continue
                g = rng.uniform(0.5, 1.5, degree - factors + 1) * 0.9 ** np.arange(degree - factors + 1)
                g[1:-1][rng.random(max(len(g) - 2, 0)) < 0.1] = -0.0
                poly = Polynomial(tuple(g))
                for _ in range(factors):
                    poly = poly * Polynomial((1.0, -1.0 / root))
                cases.append((poly, root, kind))
    return cases


def _parent_scan(poly):
    """The first sign change of the parent's bracket-by-bracket scan."""
    left = 1.0
    for right in zeta._ROOT_BRACKETS:
        found = oracles.first_sign_change(poly, left, right)
        if found is not None:
            return found
        left = right
    return None


def test_root_scan_and_polish_match_the_parent_in_float_hex():
    # oracles.first_sign_change scans one bracket from poly(left), and
    # oracles.polish_candidate evaluates deriv(cand) before its Newton pass.
    where, flat = set(), 0
    for poly, root, kind in _root_inputs(np.random.default_rng(13)):
        scale = max(map(abs, poly.coefficients))
        want = _parent_scan(poly)
        found = zeta._first_sign_change(poly, poly(1.0))
        assert _hex(found) == _hex(want), (kind, poly.degree, root)
        if found is None:
            where.add("none")
            # At a double root the library polishes the companion root.
            starts = [(root * (1.0 + d), 1.0, zeta._ROOT_BRACKETS[-1]) for d in (-1e-9, 0.0, 1e-9)]
        else:
            # The pair's first point: point 0-30 of [1, 2], a later one, or
            # one past [1, 2].
            point = round((found[0] - 1.0) * 511)
            where.add("later" if found[1] > 2.0 else "early" if point < 31 else "late")
            a, b = zeta._refine_bracket(poly, *found)
            starts = [(0.5 * (a + b), a, b)]
            assert smallest_root_geq_one(poly) == oracles.polish_candidate(poly, *starts[0], scale)
        for cand, lo, hi in starts:
            got = zeta._polish_candidate(poly, cand, lo, hi, scale)
            assert got.hex() == oracles.polish_candidate(poly, cand, lo, hi, scale).hex()
            flat += poly.degree >= 2 and abs(poly.derivative()(cand)) <= 1e-7 * max(1.0, scale)
    assert where == {"early", "late", "later", "none"}
    assert flat > 0


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
    quantities = zeta.hole_quantities

    def counted(*args, **kwargs):
        calls.append(args)
        return quantities(*args, **kwargs)

    monkeypatch.setattr(zeta, "hole_quantities", counted)
    zeta_op_factorized(step_system, (1, 1, 1))
    assert len(calls) == 1


@pytest.mark.parametrize("heights", [(1.0, 2.0), (1.0, 64.0)])
@pytest.mark.parametrize("offset, raises", [(2e-9, True), (5e-10, False)])
def test_factorization_cross_check_gates_on_the_direct_determinant(
    monkeypatch, full2, heights, offset, raises
):
    # The direct bordered pass, offset in its z coefficient, against the
    # assembled determinant: past _FACTORIZATION_TOL = 1e-9 both routes
    # raise, below it both answer as before. The bordered tower of 6 states
    # takes the dense pass, the one of 192 states the word operator.
    system = build_suspension(full2, cylinder_function(1, {(0,): heights[0], (1,): heights[1]}, lattice=1.0))
    hole = (1, 1, 1)
    rate = escape_rate_zeta(system, hole)
    tower = zeta._tower_leverrier

    def offset_direct(system, q=None, entry=None):
        det, adj = tower(system, q, entry)
        if q is not None:
            det = [det[0], det[1] + offset] + det[2:]
        return det, adj

    monkeypatch.setattr(zeta, "_tower_leverrier", offset_direct)
    if raises:
        for route in (zeta_op_factorized, escape_rate_zeta):
            with pytest.raises(FactorizationMismatchError, match="differ by 2.0"):
                route(system, hole)
    else:
        assert zeta_op_factorized(system, hole).max_deviation == pytest.approx(offset, rel=1e-3)
        assert escape_rate_zeta(system, hole) == rate


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
