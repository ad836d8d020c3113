"""Hole quantities, both open representations against their dense matrices,
escape rates."""

import itertools
import math
import time
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

import flowescape.open_system as open_system
import flowescape.shift as shift_module
import flowescape.suspension as suspension
import oracles
from flowescape import (
    DEFAULT_STATE_CAP,
    DimensionTooLargeError,
    HoleShorterThanCeilingOrderError,
    InadmissibleWordError,
    NoConvergenceError,
    NotReducedError,
    PressureNotNegativeError,
    RefinementTooLargeError,
    SimulationConfig,
    admissible_words,
    build_markov_shift,
    build_suspension,
    constant_function,
    cylinder_function,
    escape_rate_block_hole,
    escape_rate_flow,
    escape_rate_from_survival_slope,
    escape_rate_zeta,
    estimate_survival,
    hole_quantities,
    induced_pressure_via_root,
    is_reduced,
    survival_curve_flow,
    survival_measure_exact,
)
from flowescape.open_system import _open_rate
from oracles import (
    bordered_open_matrix,
    char_poly,
    dense,
    matrix_spectral_radius,
    refined_open_matrix,
    survivor_matrix,
    word_operator_root,
)

GOLDEN = (1 + math.sqrt(5)) / 2


# ---------------------------------------------------------------------------
# Hole quantities
# ---------------------------------------------------------------------------

def test_quantities_triple_zero(unit_system):
    q = hole_quantities(unit_system, (0, 0, 0))
    assert q.k0 == 2
    assert q.alpha == 0.25
    assert q.correlation == (0.5,)
    assert q.t_word == (0,)
    assert q.r_word == (0,)


def test_quantities_zero_one(unit_system):
    q = hole_quantities(unit_system, (0, 1))
    assert q.k0 == 1
    assert q.alpha == 0.5
    assert q.correlation == ()


def test_quantities_step_ceiling_triple_one(step_system):
    q = hole_quantities(step_system, (1, 1, 1))
    assert q.k0 == 4
    assert q.alpha == 0.25
    assert q.correlation == (0.0, 0.5, 0.0)


def test_quantities_alpha_ties_measures(step_system):
    from flowescape import cylinder_measure

    q = hole_quantities(step_system, (1, 0, 1))
    mu_t = cylinder_measure(step_system.base, q.t_word)
    mu_hole = cylinder_measure(step_system.base, (1, 0, 1))
    assert q.alpha * mu_t == pytest.approx(mu_hole, abs=1e-12)


def test_quantities_reject_non_reduced(golden_mean):
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    with pytest.raises(NotReducedError):
        hole_quantities(system, (1, 0))


def test_quantities_reject_short_hole(full2):
    from flowescape import cylinder_function

    psi = cylinder_function(2, {w: 1.0 for w in [(0, 0), (0, 1), (1, 0), (1, 1)]}, lattice=1.0)
    system = build_suspension(full2, psi)
    with pytest.raises(HoleShorterThanCeilingOrderError):
        hole_quantities(system, (0,))


def test_quantities_reject_inadmissible(golden_mean):
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    with pytest.raises(InadmissibleWordError):
        hole_quantities(system, (1, 1))


def _brute_force_quantities(system, word):
    """(alpha, k0, correlation, overlap_shift) from their definition: the
    word overlaps itself at shift j when it agrees with itself shifted by j,
    letter by letter, at O(m^2) steps."""
    n, m = system.order, len(word)
    p = system.base.transitions
    k0 = sum(system.height_of(word[j : j + n]) for j in range(m - n))
    alpha = 1.0
    for i in range(n - 1, m - 1):
        alpha *= float(p[word[i], word[i + 1]])
    correlation = [0.0] * max(k0 - 1, 0)
    overlap_shift = [None] * max(k0 - 1, 0)
    for j in range(1, m - n):
        partial_sum = sum(system.height_of(word[i : i + n]) for i in range(j))
        weight = 1.0
        for i in range(j):
            weight *= float(p[word[i], word[i + 1]])
        if partial_sum <= k0 - 1 and all(word[i] == word[i + j] for i in range(m - j)):
            correlation[partial_sum - 1] = weight
            overlap_shift[partial_sum - 1] = j
    return alpha, k0, tuple(correlation), tuple(overlap_shift)


def _fibonacci_word(length):
    word = (0,)
    while len(word) < length:
        word = sum(((0, 1) if a == 0 else (0,) for a in word), ())
    return word[:length]


def test_quantities_match_their_brute_force_definition(full2, golden_mean):
    # The overlaps come from the Knuth-Morris-Pratt borders of the word.
    step = {(0,): 1.0, (1,): 2.0}
    pairs = {(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 1.0}
    systems = [
        build_suspension(full2, cylinder_function(1, step, lattice=1.0)),
        build_suspension(full2, cylinder_function(2, pairs, lattice=1.0)),
        build_suspension(golden_mean, cylinder_function(1, step, lattice=1.0)),
    ]
    checked = 0
    for system in systems:
        words = [
            w
            for length in range(1, 11)
            for w in itertools.product(range(2), repeat=length)
            if system.base.is_admissible(w)
        ]
        words += [(0,) * m for m in (50, 200)]
        if system.base is golden_mean:
            words += [_fibonacci_word(m) for m in range(11, 200, 9)]
        for word in words:
            if len(word) < system.order or not is_reduced(system.base, word):
                continue
            q = hole_quantities(system, word)
            assert (q.alpha, q.k0, q.correlation, q.overlap_shift) == _brute_force_quantities(
                system, word
            ), word
            checked += 1
    assert checked > 3000


# ---------------------------------------------------------------------------
# Open radii against the dense open matrices
# ---------------------------------------------------------------------------

def test_refined_fibonacci_radius(unit_system):
    matrix, _, _ = refined_open_matrix(unit_system, (0, 0))
    assert matrix.shape == (4, 4)
    want = (1 + math.sqrt(5)) / 4
    assert matrix_spectral_radius(matrix) == pytest.approx(want, abs=1e-12)
    assert _open_rate(unit_system, (0, 0), "refined")[2] == pytest.approx(want, abs=1e-12)


def test_bordered_dimension_and_radius_triple_zero(unit_system):
    assert bordered_open_matrix(unit_system, (0, 0, 0)).shape == (3, 3)
    bordered = _open_rate(unit_system, (0, 0, 0), "bordered")[2]
    assert bordered == pytest.approx(_open_rate(unit_system, (0, 0, 0), "refined")[2], abs=1e-12)


def test_bordered_k0_one_no_extra_rows(unit_system):
    matrix = bordered_open_matrix(unit_system, (0, 1))
    assert matrix.shape == (2, 2)
    poly = char_poly(matrix)
    assert poly.coefficients == pytest.approx((1.0, -1.0, 0.25))


def test_bordered_step_ceiling_dimension(step_system):
    hole = (1, 1, 1)
    assert bordered_open_matrix(step_system, hole).shape == (6, 6)
    fine, _, _ = refined_open_matrix(step_system, hole)
    want = matrix_spectral_radius(fine)
    for representation in ("bordered", "refined"):
        got = _open_rate(step_system, hole, representation)[2]
        assert got == pytest.approx(want, abs=1e-10), representation


def test_auto_representation_picks_refined_when_small(unit_system):
    assert _open_rate(unit_system, (0, 0), "auto")[0] == "refined"
    # 0^12 1 on the full 2-shift refines to 2^13 = 8192 admissible words,
    # past the state cap, so `auto` takes the bordered route.
    hole = (0,) * 12 + (1,)
    assert _open_rate(unit_system, hole, "auto")[0] == "bordered"
    assert escape_rate_flow(unit_system, hole) == pytest.approx(
        escape_rate_zeta(unit_system, hole), rel=1e-12
    )


def test_auto_refines_long_holes_on_a_subshift(golden_mean):
    # 0^12 10 is not reduced, so bordered rejects it; `auto` refines it,
    # because the golden mean has only 987 admissible words of length 14
    # (2^14 = 16384 would be past the state cap).
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    hole = (0,) * 12 + (1, 0)
    with pytest.raises(NotReducedError):
        escape_rate_flow(system, hole, "bordered")
    want = float.fromhex("0x1.5602e2c4d0a6fp-13")
    assert escape_rate_flow(system, hole) == want
    assert escape_rate_flow(system, hole, "refined") == want


def test_auto_answers_where_bordered_rejects_and_the_automaton_fits(golden_mean):
    # 0^15 10 on the golden mean: 4181 admissible words of length 17, past
    # the state cap, so the word count alone would send `auto` to bordered,
    # which rejects the hole as not reduced. Its automaton has 17 states.
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    hole = (0,) * 15 + (1, 0)
    with pytest.raises(RefinementTooLargeError, match="4181 admissible words"):
        admissible_words(golden_mean, len(hole))
    states, _ = shift_module._hole_automaton(golden_mean, hole, 1)
    assert len(states) == 17
    with pytest.raises(NotReducedError):
        escape_rate_flow(system, hole, "bordered")
    want = escape_rate_flow(system, hole, "refined")
    assert want == pytest.approx(2.0351e-05, rel=1e-4)
    assert escape_rate_flow(system, hole) == want


def test_bordered_matrix_past_the_cap_raises_before_allocating(full2):
    # Heights 32 and 64 and the hole 1^70: k0 = 69 * 64 = 4416 alone passes
    # the cap. The dense bordered matrix would be 4511 x 4511 (163 MB); the
    # guard raises before it is allocated, on every route that builds it.
    system = build_suspension(
        full2, cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1 / 32)
    )
    hole = (1,) * 70
    assert hole_quantities(system, hole).k0 == 4416
    tracemalloc.start()
    try:
        for route in (
            lambda: bordered_open_matrix(system, hole),
            lambda: escape_rate_flow(system, hole, "bordered"),
            lambda: escape_rate_zeta(system, hole),
        ):
            with pytest.raises(DimensionTooLargeError, match="4415 border states"):
                route()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    # `auto` takes the refined root on the hole automaton instead.
    assert escape_rate_flow(system, hole) == escape_rate_flow(system, hole, "refined")


TINY_HOLES = [
    # Measure 2^-70 on heights 32 and 64 at lattice 1/32; k0 = 4416 puts the
    # bordered matrix past the state cap.
    ((1.0, 2.0), 1 / 32, (1,) * 70),
    # Measure 2^-100 under a unit ceiling: 1 - rho is below float resolution.
    ((1.0, 1.0), 1.0, (0,) * 100),
]


@pytest.mark.parametrize("values, lattice, hole", TINY_HOLES)
def test_tiny_holes_give_no_negative_rate(full2, values, lattice, hole):
    # The hole-punched chain is substochastic, so rho <= 1 and every rate is
    # >= 0; a radius that rounds to 1 gives +0.0, not -0.0 or -2e-15.
    ceiling = cylinder_function(1, {(0,): values[0], (1,): values[1]}, lattice=lattice)
    system = build_suspension(full2, ceiling)
    routes = {
        "refined": lambda: escape_rate_flow(system, hole, "refined"),
        "bordered": lambda: escape_rate_flow(system, hole, "bordered"),
        "auto": lambda: escape_rate_flow(system, hole),
        "zeta": lambda: escape_rate_zeta(system, hole),
    }
    capped = hole_quantities(system, hole).k0 + len(system.block_measure) > DEFAULT_STATE_CAP
    for name, route in routes.items():
        if capped and name in ("bordered", "zeta"):
            with pytest.raises(DimensionTooLargeError):
                route()
            continue
        rate = route()
        assert rate >= 0.0 and math.copysign(1.0, rate) == 1.0, name
    with pytest.raises(PressureNotNegativeError):
        induced_pressure_via_root(full2, ceiling, hole)


def test_block_hole_below_float_resolution_gives_no_negative_rate():
    # A block hole is a union of whole words, so it cannot hold the long
    # holes above. The word 2 of this chain has measure 1.1e-16, and the
    # radius of the chain without it rounds to 1.
    shift = build_markov_shift([[0.5 - 1e-16, 0.5, 1e-16], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
    system = build_suspension(shift, constant_function(shift, 1.0))
    rate = escape_rate_block_hole(system, [system.block_index((2,), 0)])
    assert rate == 0.0 and math.copysign(1.0, rate) == 1.0


def test_auto_raises_the_automaton_error_from_the_bordered_one(unit_system):
    # 1 0^4199: k0 - 1 = 4198 border states pass the bordered cap, and the
    # automaton needs a state per match length, 4200 of them. `auto` raises
    # the refined route's error with the bordered route's as its cause.
    hole = (1,) + (0,) * 4199
    with pytest.raises(DimensionTooLargeError, match="4198 border states"):
        escape_rate_flow(unit_system, hole, "bordered")
    with pytest.raises(RefinementTooLargeError, match="automaton"):
        escape_rate_flow(unit_system, hole, "refined")
    with pytest.raises(RefinementTooLargeError, match="automaton") as caught:
        escape_rate_flow(unit_system, hole)
    assert isinstance(caught.value.__cause__, DimensionTooLargeError)


def test_long_subshift_hole_matches_50_digit_chain_root(golden_mean):
    # The oracle is the radius of the word chain on the 987 golden-mean words
    # of length 14, not of the hole automaton the library uses. 2P has entries
    # 0, 1 and 2, so power iteration on the chain runs in exact integers; its
    # second eigenvalue is 0.572 of the first, so after 300 steps the ratio of
    # successive sums is the radius far past 50 digits.
    mp = mpmath.mp.clone()
    mp.dps = 50
    hole = (0,) * 12 + (1, 0)
    twice = [[int(2 * p) for p in row] for row in golden_mean.transitions.tolist()]
    words = [
        w
        for w in itertools.product(range(2), repeat=len(hole))
        if all(twice[a][b] for a, b in zip(w, w[1:]))
    ]
    assert len(words) == 987
    index = {w: i for i, w in enumerate(words)}
    links = [
        [(index[w[1:] + (b,)], twice[w[-1]][b]) for b in (0, 1) if twice[w[-1]][b]]
        if w != hole
        else []
        for w in words
    ]
    mass = [1] * len(words)
    sums = []
    for _ in range(300):
        step = [0] * len(words)
        for i, x in enumerate(mass):
            for j, c in links[i]:
                step[j] += c * x
        mass = step
        sums.append(sum(mass))
    want = -mp.log(mp.mpf(sums[-1]) / (2 * sums[-2]))
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    got = escape_rate_flow(system, hole, "refined")
    assert got == pytest.approx(float(want), rel=1e-11, abs=0.0)


def test_spectral_radius_edge_cases():
    assert matrix_spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-13)
    assert matrix_spectral_radius(np.zeros((3, 3))) == 0.0
    assert matrix_spectral_radius(np.array([[0.0, 1.0], [0.5, 0.0]])) == pytest.approx(
        math.sqrt(0.5), abs=1e-13
    )


def test_one_and_two_state_radii_match_60_digit_perron_root():
    # Entries log-uniform over 1e-150..1e150, each diagonal zero (no link) a
    # quarter of the time, links in a random order. The bound was fixed at
    # 4 eps before the test ran; numpy's eigvals comes within about 2 eps on
    # such draws.
    mp = mpmath.mp.clone()
    mp.dps = 60
    rng = np.random.default_rng(23)
    eps = float(np.finfo(float).eps)
    worst = 0.0
    for _ in range(5000):
        a, b, c, d = 10.0 ** rng.uniform(-150.0, 150.0, 4)
        a, d = (0.0 if rng.random() < 0.25 else x for x in (a, d))
        matrix = np.array([[a, b], [c, d]])
        order = rng.permutation(4)
        src, dst = np.divmod(order[matrix.ravel()[order] > 0.0], 2)
        got = open_system._component_radius((src, dst, matrix[src, dst]), 2)
        ma, mb, mc, md = map(mp.mpf, (a, b, c, d))
        want = (ma + md) / 2 + mp.sqrt(((ma - md) / 2) ** 2 + mb * mc)
        worst = max(worst, float(abs(mp.mpf(got) - want) / want))
        one = open_system._component_radius((np.zeros(1, int), np.zeros(1, int), matrix[0, 1:]), 1)
        assert one == b
    assert worst <= 4.0 * eps


def test_two_state_components_take_no_dense_eigenvalues(monkeypatch, full2):
    # Heights 1 and 2 and the hole 00: the hole automaton has one cyclic
    # component, of 2 states, so every radius of the refined root and of
    # the pressure root is closed form. Unequal heights make the root take
    # Illinois steps, not just f(0).
    ceiling = cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1.0)
    system = build_suspension(full2, ceiling)
    hole = (0, 0)
    states, (src, dst, _) = shift_module._hole_automaton(full2, hole, 1)
    sizes = [len(comp) for comp in shift_module._cyclic_components(len(states), src, dst)]
    assert max(sizes) == 2
    shapes = []
    eigvals = np.linalg.eigvals

    def counted(matrix):
        shapes.append(np.shape(matrix))
        return eigvals(matrix)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    rate = escape_rate_flow(system, hole, "refined")
    beta = induced_pressure_via_root(full2, ceiling, hole)
    monkeypatch.undo()
    assert shapes == []
    assert beta == -rate
    assert escape_rate_flow(system, hole, "bordered") == pytest.approx(rate, rel=1e-9, abs=0.0)
    assert escape_rate_zeta(system, hole) == pytest.approx(rate, rel=1e-9, abs=0.0)


def _sparse_links(matrix, rng):
    """(src, dst, weights) of the nonzero entries of ``matrix``, in a random order."""
    size = len(matrix)
    order = rng.permutation(size * size)
    src, dst = np.divmod(order[matrix.ravel()[order] > 0.0], size)
    return src, dst, matrix[src, dst]


def test_three_and_four_state_radii_match_60_digit_perron_root():
    # Irreducible draws: entries log-uniform over 1e-3..1e3, each entry off
    # the cycle 0 -> 1 -> .. -> 0 and each diagonal zero (no link) a quarter
    # of the time, links in a random order. Newton's root stands where its
    # condition number is at most 16, and the bound on it was fixed at 8 eps
    # before the test ran. Elsewhere the radius is numpy's eigvals, to the
    # bit. Two 2-cycles, or a 2-cycle and a loop, joined by links of 1e-6
    # have a double root to within 1e-6, so they must take that fallback.
    mp = mpmath.mp.clone()
    mp.dps = 60
    rng = np.random.default_rng(27)
    eps = float(np.finfo(float).eps)
    tiny = 1e-6
    draws = [
        np.array([[0, 1, tiny, 0], [1, 0, 0, 0], [0, 0, 0, 1], [tiny, 0, 1, 0]], float),
        np.array([[0, 1, tiny], [1, 0, 0], [tiny, 0, 1]], float),
    ]
    for size in (3, 4) * 300:
        matrix = 10.0 ** rng.uniform(-3.0, 3.0, (size, size))
        matrix[rng.random((size, size)) < 0.25] = 0.0
        cycle = np.arange(size)
        matrix[cycle, (cycle + 1) % size] = 10.0 ** rng.uniform(-3.0, 3.0, size)
        draws.append(matrix)
    assert all(open_system._newton_radius(m.tolist()) is None for m in draws[:2])
    worst, guarded = 0.0, 0
    for matrix in draws:
        size = len(matrix)
        got = open_system._component_radius(_sparse_links(matrix, rng), size)
        dense = float(np.abs(np.linalg.eigvals(matrix)).max())
        if open_system._newton_radius(matrix.tolist()) is None:
            guarded += 1
            assert got == dense, matrix
            continue
        # det(xI - A) by Faddeev-LeVerrier at 60 digits, from the float entries.
        m, step, coefficients = mp.matrix(matrix.tolist()), mp.zeros(size), [mp.mpf(1)]
        for j in range(1, size + 1):
            step = m * (step + coefficients[-1] * mp.eye(size))
            coefficients.append(-sum(step[i, i] for i in range(size)) / j)
        want = mp.findroot(lambda x: mp.polyval(coefficients, x), mp.mpf(dense))
        worst = max(worst, float(abs(mp.mpf(got) - want) / want))
    assert guarded >= 3
    assert worst <= 8.0 * eps


def test_three_and_four_state_components_take_no_dense_eigenvalues(monkeypatch):
    # Three towers of ORACLE_TOWERS whose hole automata have one cyclic
    # component each, of 3 or 4 states: every radius of the refined root
    # and of the pressure root is a Newton root, with no LAPACK call.
    sizes = set()
    for transitions, heights, hole in ORACLE_TOWERS[:3]:
        shift = build_markov_shift(transitions)
        ceiling = cylinder_function(
            1, {(a,): 0.05 * k for a, k in enumerate(heights)}, lattice=0.05
        )
        system = build_suspension(shift, ceiling)
        states, (src, dst, _) = shift_module._hole_automaton(shift, hole, 1)
        comps = [len(comp) for comp in shift_module._cyclic_components(len(states), src, dst)]
        assert set(comps) <= {3, 4}
        sizes.update(comps)
        shapes = []
        eigvals = np.linalg.eigvals

        def counted(matrix):
            shapes.append(np.shape(matrix))
            return eigvals(matrix)

        monkeypatch.setattr(np.linalg, "eigvals", counted)
        rate = escape_rate_flow(system, hole, "refined")
        beta = induced_pressure_via_root(shift, ceiling, hole)
        monkeypatch.undo()
        assert shapes == []
        assert beta == pytest.approx(-rate, rel=1e-14, abs=0.0)
        assert escape_rate_flow(system, hole, "bordered") == pytest.approx(rate, rel=1e-9, abs=0.0)
        assert escape_rate_zeta(system, hole) == pytest.approx(rate, rel=1e-9, abs=0.0)
    assert sizes == {3, 4}


# ---------------------------------------------------------------------------
# Escape rates
# ---------------------------------------------------------------------------

def test_rate_single_letter_hole(unit_system):
    assert escape_rate_flow(unit_system, (0,)) == pytest.approx(math.log(2), abs=1e-12)


def test_rate_double_letter_hole(unit_system):
    want = math.log(2) - math.log(GOLDEN)
    assert escape_rate_flow(unit_system, (0, 0)) == pytest.approx(want, abs=1e-10)


def test_rate_step_ceiling_halves(step_system):
    assert escape_rate_flow(step_system, (0,)) == pytest.approx(0.5 * math.log(2), abs=1e-10)


def test_rate_infinite_when_everything_escapes(cycle2):
    system = build_suspension(cycle2, constant_function(cycle2, 1.0))
    assert escape_rate_flow(system, (0,)) == math.inf


def test_rate_double_root_hole(unit_system):
    # det(id - z M_op) = (1 - z/2)^2 for this hole; the double root must still
    # be resolved to machine precision.
    for rep in ("refined", "bordered"):
        got = escape_rate_flow(unit_system, (0, 1), representation=rep)
        assert got == pytest.approx(math.log(2), abs=1e-12), rep


def test_block_hole_shadow_slabs(step_system):
    bottom = (step_system.block_index((1,), 0),)
    top = (step_system.block_index((1,), 1),)
    assert escape_rate_block_hole(step_system, bottom) == pytest.approx(math.log(2), abs=1e-12)
    assert escape_rate_block_hole(step_system, top) == pytest.approx(math.log(2), abs=1e-12)


def test_block_hole_rejects_rows_outside_the_chain(step_system):
    # Three blocks: row -1 must not wrap round to the last block's word, and
    # a fraction of a row must not be truncated to row 0.
    for row in (-1, 3, 0.5, 1e-9):
        with pytest.raises(ValueError):
            escape_rate_block_hole(step_system, (row,))


def test_block_hole_any_level_of_a_tall_word(full3, cycle2):
    # Removing any block of a word's tower stops all passage through it, so a
    # mid-level row and the level-0 row of the same word give one rate.
    ceiling = cylinder_function(1, {(0,): 1.15, (1,): 2.95, (2,): 2.0}, lattice=0.05)
    system = build_suspension(full3, ceiling)
    word = (1,)
    mid = escape_rate_block_hole(system, (system.block_index(word, 30),))
    bottom = escape_rate_block_hole(system, (system.block_index(word, 0),))
    assert mid == bottom
    assert mid == pytest.approx(escape_rate_flow(system, word, "refined"), rel=1e-13, abs=0.0)
    # Killing word 0 of the 2-cycle leaves no cycle: nilpotent, rate inf.
    ceiling = cylinder_function(1, {(0,): 3.0, (1,): 1.85}, lattice=0.05)
    tall_cycle = build_suspension(cycle2, ceiling)
    mid = (tall_cycle.block_index((0,), 17),)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert escape_rate_block_hole(tall_cycle, mid) == math.inf
        assert escape_rate_flow(tall_cycle, (0,), "refined") == math.inf


def test_equal_heights_root_takes_one_radius(monkeypatch, unit_system, full2):
    # The word chain of this hole has 1024 states; the hole automaton has at
    # most 2 * 10. Equal heights close the root's bracket at f(0), so each
    # cyclic component of the automaton takes one radius and no further
    # point is evaluated.
    hole = (0, 1, 1, 0, 1, 0, 0, 1, 1, 1)
    states, links = shift_module._hole_automaton(full2, hole, 1)
    P = dense(links, len(states))
    assert len(P) <= 2 * len(hole)
    cyclic = [
        comp
        for comp in shift_module._strongly_connected_components(len(P), *np.nonzero(P))
        if len(comp) > 1 or P[comp[0], comp[0]] > 0.0
    ]
    sizes = []
    component_radius = open_system._component_radius

    def counted(links, size):
        sizes.append(size)
        return component_radius(links, size)

    monkeypatch.setattr(open_system, "_component_radius", counted)
    got = escape_rate_flow(unit_system, hole, "refined")
    assert sizes and sorted(sizes) == sorted(len(comp) for comp in cyclic)
    monkeypatch.undo()
    # The reference radius is power-iterated to a bracket of 1e-13.
    chain = survivor_matrix(full2, hole)
    assert chain.matrix.shape == (1024, 1024)
    want = matrix_spectral_radius(chain.matrix)
    assert math.exp(-got) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_equal_heights_root_is_the_log_radius_to_the_bit():
    # On constant ceilings the root is -log(rho(P)) / h: the bracket's near
    # end, with the radius taken component by component as the dense
    # reference takes it.
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(200):
        letters = int(rng.integers(2, 4))
        transitions = rng.random((letters, letters)) * (rng.random((letters, letters)) < 0.8)
        transitions[np.arange(letters), (np.arange(letters) + 1) % letters] += 0.1
        transitions /= transitions.sum(axis=1, keepdims=True)
        shift = build_markov_shift(transitions.tolist())
        hole = tuple(int(a) for a in rng.integers(0, letters, size=int(rng.integers(1, 6))))
        if not shift.is_admissible(hole):
            continue
        height = int(rng.integers(1, 8))
        states, links = shift_module._hole_automaton(shift, hole, 1)
        got = open_system._word_operator_root(links, np.full(len(states), float(height)))
        radius = matrix_spectral_radius(dense(links, len(states)))
        if radius >= 1.0:
            want = 0.0
        elif radius > 0.0:
            want = -math.log(radius) / height
        else:
            want = math.inf
        assert got == want and type(got) is float, (transitions, hole, height)
        checked += 1
    assert checked > 100


def test_power_iteration_skips_underflowed_entries():
    # The hole 0^400 on a chain that leaves 0 with weight 0.9: the
    # automaton's 400 match states form one component, which is
    # power-iterated, and its Perron vector falls like 0.1^j, below the
    # smallest float past j = 308. Those entries carry no digits, so the
    # Collatz-Wielandt bracket is taken over the others; on 0/0 it would be
    # NaN and the iteration would run its whole budget.
    shift = build_markov_shift([[0.1, 0.9], [0.5, 0.5]])
    system = build_suspension(shift, constant_function(shift, 1.0))
    iterations = []
    power_iteration = open_system._power_iteration_radius

    def counted(*args, **kwargs):
        iterations.append(args)
        return power_iteration(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch.setattr(open_system, "_power_iteration_radius", counted)
        start = time.perf_counter()
        rate = escape_rate_flow(system, (0,) * 400, representation="refined")
        elapsed = time.perf_counter() - start
    assert iterations
    assert 0.0 <= rate <= 1e-12 and math.copysign(1.0, rate) == 1.0
    assert elapsed < 1.0


def test_power_iterated_word_operator_root(monkeypatch, step_system):
    # 255 surviving words with heights 1 and 2: each radius of the root is
    # power-iterated, which is accurate to about 1e-13, not to the ulp.
    hole = (1, 1, 1, 0, 0, 0, 0, 0)
    matrix, refined, _ = refined_open_matrix(step_system, hole)
    assert matrix.shape == (384, 384)
    sizes = []
    component_radius = open_system._component_radius

    def counted(links, size):
        sizes.append(size)
        return component_radius(links, size)

    monkeypatch.setattr(open_system, "_component_radius", counted)
    # The root on the refined system's automaton: one state per word.
    got = _open_rate(refined, hole, "refined")[2]
    # Five evaluations: f(0), the two bracket ends and two Illinois steps.
    # The bound leaves room for rounding that differs between BLAS builds.
    assert set(sizes) == {255}
    assert 1 <= len(sizes) <= 8
    monkeypatch.undo()
    assert got == pytest.approx(matrix_spectral_radius(matrix), rel=1e-12, abs=0.0)
    dense = float(np.abs(np.linalg.eigvals(matrix)).max())
    assert got == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_refined_rate_builds_no_block_matrix(monkeypatch, step_system):
    # A hole longer than the order: the refined rate needs one hole
    # automaton of the base and no refined suspension.
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(suspension, "build_suspension")
    counted(suspension, "refine_suspension")
    counted(open_system, "_hole_automaton")
    rate = escape_rate_flow(step_system, (1, 1, 0), representation="refined")
    assert calls == ["_hole_automaton"]
    monkeypatch.undo()
    bordered = escape_rate_flow(step_system, (1, 1, 0), representation="bordered")
    assert rate == pytest.approx(bordered, rel=1e-12)


def test_block_matrix_past_the_cap_raises(full2):
    # Heights 39 and 58 refined to the 128 words of the length-7 hole: 6208
    # blocks, past the cap. The dense matrix would be 308 MB; the refined
    # rate reads only the word operator.
    ceiling = cylinder_function(1, {(0,): 1.95, (1,): 2.9}, lattice=0.05)
    system = build_suspension(full2, ceiling)
    hole = (0, 1, 1, 0, 1, 0, 1)
    with pytest.raises(DimensionTooLargeError):
        refined_open_matrix(system, hole)
    rate = escape_rate_flow(system, hole, "refined")
    assert rate == float.fromhex("0x1.af536b7c5cf96p-9")


def test_long_hole_runs_on_the_automaton(monkeypatch, full2, unit_system):
    # Heights 6 and 9 and a length-10 hole: the word chain has 1024 states and
    # would be power-iterated; the automaton has at most 20, and every radius
    # of the root is a small dense one.
    shift = build_markov_shift([[0.6, 0.4], [0.3, 0.7]])
    ceiling = cylinder_function(1, {(0,): 1.5, (1,): 2.25}, lattice=0.25)
    system = build_suspension(shift, ceiling)
    hole = (0, 1, 0, 0, 1, 0, 1, 0, 0, 1)
    states, _ = shift_module._hole_automaton(shift, hole, 1)
    assert len(states) <= 20

    def refuse(*args, **kwargs):
        raise AssertionError("power iteration on the refined route")

    monkeypatch.setattr(open_system, "_power_iteration_radius", refuse)
    refined = escape_rate_flow(system, hole, "refined")
    monkeypatch.undo()
    bordered = escape_rate_flow(system, hole, "bordered")
    assert refined == pytest.approx(bordered, rel=1e-12, abs=0.0)
    # 0^13 on the full 2-shift: 8192 words of length 13, past the cap, but 13
    # automaton states. The refined rate and the survival slope both answer.
    hole = (0,) * 13
    with pytest.raises(RefinementTooLargeError):
        survivor_matrix(full2, hole)
    bordered = escape_rate_flow(unit_system, hole, "bordered")
    assert escape_rate_flow(unit_system, hole, "refined") == pytest.approx(
        bordered, rel=1e-10, abs=0.0
    )
    assert escape_rate_from_survival_slope(full2, hole) == pytest.approx(
        bordered, rel=0.0, abs=1e-9
    )


def test_rates_are_python_floats_on_both_root_branches(full2, unit_system, step_system):
    # Equal heights take one radius, unequal ones the bracketed root; both
    # return a float, not a numpy scalar.
    for system in (unit_system, step_system):
        assert type(escape_rate_flow(system, (0, 0), "refined")) is float
        beta = induced_pressure_via_root(full2, system.ceiling, (0, 0))
        assert type(beta) is float


def test_system_built_past_the_cap_keeps_its_words():
    # 65 letters, i -> i + 1 (mod 65) and i -> 0: 129 words of length 2.
    # The cap counts those words, not 65^2 = 4225, so both routes run.
    size = 65
    transitions = np.zeros((size, size))
    for i in range(size):
        transitions[i, (i + 1) % size] += 0.5
        transitions[i, 0] += 0.5
    shift = build_markov_shift(transitions.tolist())
    words = admissible_words(shift, 2)
    ceiling = cylinder_function(2, {w: 0.5 * (1 + w[0] % 3) for w in words}, lattice=0.5)
    system = build_suspension(shift, ceiling)
    assert len(system.words) == 129
    assert escape_rate_flow(system, (5,), "refined") == float.fromhex("0x1.6eb958d2cca61p-6")
    row = system.block_index(system.words[10], 0)
    assert escape_rate_block_hole(system, (row,)) == float.fromhex("0x1.556e016aa05e9p-7")


def test_word_operator_root_near_the_float_range():
    # A 2-cycle with heights 1 and 2 and both entries 1e-200: the root solves
    # e^{3 s} 1e-400 = 1, s* = 307. The weight e^{2 s} of the second row
    # reaches e^700 at s = 350, so with entries 1e-300 (s* = 460) it raises.
    heights = np.array([1.0, 2.0])
    src, dst = np.array([0, 1]), np.array([1, 0])
    root = open_system._word_operator_root((src, dst, np.full(2, 1e-200)), heights)
    assert root == pytest.approx(400.0 * math.log(10.0) / 3.0, rel=1e-14)
    with pytest.raises(NoConvergenceError):
        open_system._word_operator_root((src, dst, np.full(2, 1e-300)), heights)


def test_balanced_block_is_an_exact_power_of_two_similarity():
    """Blocks with entries log-uniform over 1e-60..1e60: the balanced block
    is D A D^-1 with D a diagonal of powers of two, entry for entry, and each
    state's off-diagonal row and column sums end within a factor of 3. Newton
    from the raw row sums spends its step cap on most of them; with the
    balanced restart the root stands and lies within 8 ulp of the Perron root
    at 60 digits."""
    mp = mpmath.mp.clone()
    mp.dps = 60
    rng = np.random.default_rng(31)
    eps = float(np.finfo(float).eps)
    capped = 0
    for size in (3, 4) * 12:
        matrix = 10.0 ** rng.uniform(-60.0, 60.0, (size, size))
        got = open_system._balanced(matrix.tolist())
        shift = [0] + [int(round(math.log2(matrix[0, j] / got[0][j]))) for j in range(1, size)]
        for i in range(size):
            for j in range(size):
                assert got[i][j] == math.ldexp(matrix[i, j], shift[i] - shift[j])
            row = sum(got[i][j] for j in range(size) if j != i)
            col = sum(got[j][i] for j in range(size) if j != i)
            assert 1.0 / 3.0 < row / col < 3.0
        capped += open_system._newton_radius(matrix.tolist(), balance=False) is None
        radius = open_system._newton_radius(matrix.tolist())
        # det(xI - A) by Faddeev-LeVerrier at 60 digits, from the float entries.
        m, step, coefficients = mp.matrix(matrix.tolist()), mp.zeros(size), [mp.mpf(1)]
        for k in range(1, size + 1):
            step = m * (step + coefficients[-1] * mp.eye(size))
            coefficients.append(-sum(step[i, i] for i in range(size)) / k)
        roots = mp.polyroots(coefficients, maxsteps=200, extraprec=600)
        want = max(abs(root) for root in roots)
        assert radius is not None and abs(mp.mpf(radius) - want) <= 8.0 * eps * want
    assert capped >= 8


def test_balanced_block_scales_no_entry_out_of_the_float_range():
    """State 0's row sum is 1e200 times its column sum, but scaling it by
    2^-332 would flush its 1e-300 entry to 0: state 0 is left as it is, and
    the block is still D A D^-1 with D a diagonal of powers of two, entry for
    entry, with its row sums cut by balancing state 1 instead."""
    rows = [[0.0, 1e200, 1e-300], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    got = open_system._balanced(rows)
    assert got[0][2] == 1e-300
    shift = [0] + [int(round(math.log2(rows[0][j] / got[0][j]))) for j in (1, 2)]
    for i in range(3):
        for j in range(3):
            assert got[i][j] == math.ldexp(rows[i][j], shift[i] - shift[j])
    assert max(map(sum, got)) < 1e-50 * max(map(sum, rows))


@pytest.mark.parametrize("heights", [(1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)])
def test_cycle_word_operator_root_near_the_float_range(heights, monkeypatch):
    # A 3-cycle and a 4-cycle with heights summing to H and every entry
    # 1e-200: the root solves e^{H s} 1e-200^d = 1. The weight e^{2 s}
    # reaches e^700 at s = 350, where the product of four weights e^{s h}
    # 1e-200 is past the float range unless the radius scales the block
    # first. With entries 1e-300 the root lies past s = 350, and only
    # NoConvergenceError may be raised: a RuntimeWarning fails the test.
    # Near s* (276 and 307), rounding s h alone moves log rho by about
    # 1e-13, so the root stops at that noise floor within 4 radius
    # evaluations instead of closing its bracket to 4 ulp. Entries as far
    # apart as 1e-67 and 1e67 put the row-sum start of Newton past its step
    # cap; it starts again on the balanced block, and eigvals never runs.
    def no_eigvals(matrix):
        raise AssertionError("eigvals fallback")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    size, total = len(heights), sum(heights)
    src = np.arange(size)
    dst = (src + 1) % size
    # A cycle of weights w * (1, 2, 1/2, 1) has the root w, which Newton
    # reaches from the row sum 2 w, also where w^d overflows or underflows.
    for weight in (1e-100, 1e104):
        links = (src, dst, weight * np.array([1.0, 2.0, 0.5, 1.0][:size]))
        radius = open_system._component_radius(links, size)
        assert radius == pytest.approx(weight, rel=4.0 * float(np.finfo(float).eps), abs=0.0)
        assert radius == open_system._newton_radius(dense(links, size).tolist())
    calls = []
    component_radius = open_system._component_radius

    def counted(*args):
        calls.append(args)
        return component_radius(*args)

    monkeypatch.setattr(open_system, "_component_radius", counted)
    root = open_system._word_operator_root((src, dst, np.full(size, 1e-200)), np.array(heights))
    assert root == pytest.approx(200.0 * size * math.log(10.0) / total, rel=1e-14)
    # The hook sees every radius the root takes, so the count is not vacuous.
    assert 1 <= len(calls) <= 4 and {size for _, size in calls} == {size}
    with pytest.raises(NoConvergenceError):
        open_system._word_operator_root((src, dst, np.full(size, 1e-300)), np.array(heights))


def _chain_links(rng, sizes, transient=3):
    """Sorted links (src, dst, p) of a random chain on shuffled states whose
    cyclic components have the given ``sizes``: each a cycle through all its
    states (a loop at one state) plus random links inside. With ``transient``
    loop-free single states, the components are laid in a random order, and
    links between them only go forward, so none merge. Rows are scaled to
    sums in [0.2, 1]."""
    groups = [("cyclic", size) for size in sizes] + [("transient", 1)] * transient
    order = rng.permutation(len(groups))
    labels = rng.permutation(sum(size for _, size in groups))
    members, start = [], 0
    for g in order:
        kind, size = groups[g]
        members.append((kind, labels[start : start + size].tolist()))
        start += size
    edges = set()
    for kind, states in members:
        if kind == "cyclic":
            edges.update(zip(states, states[1:] + states[:1]))
            for _ in range(int(rng.integers(0, 2 * len(states) + 1))):
                edges.add((int(rng.choice(states)), int(rng.choice(states))))
    for i, (_, later) in enumerate(members):
        for _, earlier in members[:i]:
            if rng.random() < 0.5:
                edges.add((int(rng.choice(earlier)), int(rng.choice(later))))
    src, dst = (np.array(sorted(edges), dtype=np.int64).reshape(-1, 2).T).copy()
    weights = rng.uniform(0.05, 1.0, len(src))
    sums = np.bincount(src, weights=weights, minlength=start)
    scale = rng.uniform(0.2, 1.0, start)
    p = weights / sums[src] * scale[src]
    return (src, dst, p), start


def _draw_heights(rng, size):
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return np.full(size, float(rng.integers(1, 4)))
    if kind == 1:
        return rng.integers(1, 61, size)
    return rng.uniform(0.5, 3.0, size)


def _root_hex(root, links, heights):
    """The root in float hex, or the NoConvergenceError's message."""
    try:
        return float(root(links, heights)).hex()
    except NoConvergenceError as error:
        return f"NoConvergenceError: {error}"


def _traced_roots(monkeypatch, links, heights):
    """(library result, oracle result), each with the (size, hex radius) of
    every radius its module's ``_component_radius`` took, in order."""
    results = []
    for module, root in ((open_system, open_system._word_operator_root), (oracles, word_operator_root)):
        seen = []
        radius = module._component_radius

        def counted(links, size, radius=radius, seen=seen):
            value = radius(links, size)
            seen.append((size, float(value).hex()))
            return value

        monkeypatch.setattr(module, "_component_radius", counted)
        results.append((_root_hex(root, links, heights), seen))
        monkeypatch.undo()
    return results


@pytest.mark.parametrize(
    "sizes",
    [(1,), (1, 1), (2,), (2, 1), (3,), (4,), (4, 3, 2, 1), (5,), (17, 2), (64, 1), (128,), (129,)],
)
def test_word_operator_root_matches_the_masked_root_in_float_hex(sizes, monkeypatch):
    """The root splits the cyclic components' links once, on Python lists,
    and takes one e^{s h} pass over all of them per evaluation; the masked
    oracle takes e^{s h} one component at a time on numpy arrays. numpy's
    exp is elementwise, so both see the same weights: the same root to the
    bit, from the same radii in the same order, on components of 1, 2,
    3-4, 5-128 and more than 128 states, with equal, integer and float
    heights."""
    rng = np.random.default_rng([32, *sizes])
    draws = 2 if max(sizes) > 64 else 12
    for _ in range(draws):
        links, size = _chain_links(rng, sizes, transient=int(rng.integers(0, 4)))
        heights = _draw_heights(rng, size)
        (got, got_radii), (want, want_radii) = _traced_roots(monkeypatch, links, heights)
        assert got == want, (sizes, links, heights)
        assert got_radii and got_radii == want_radii


def test_word_operator_root_matches_the_masked_root_on_guarded_blocks(monkeypatch):
    """3-4 state blocks on which Newton's guard trips (a near-double Perron
    root: two 2-cycles joined by weights 1e-12, so eigvals takes over) and
    on which Newton restarts on the balanced block (weights log-uniform over
    1e-60..1e60): the same roots and radii to the bit as the oracle's."""
    eigvals, balanced = np.linalg.eigvals, open_system._balanced
    counts = {"eigvals": 0, "balanced": 0}

    def counted_eigvals(matrix):
        counts["eigvals"] += 1
        return eigvals(matrix)

    def counted_balanced(rows):
        counts["balanced"] += 1
        return balanced(rows)

    rng = np.random.default_rng(3204)
    cases = []
    for _ in range(8):
        a, b = rng.uniform(0.3, 0.45, 2)
        src = np.array([0, 0, 1, 2, 2, 3])
        dst = np.array([1, 2, 0, 0, 3, 2])
        p = np.array([a, 1e-12, a, 1e-12, b, b])
        cases.append(((src, dst, p), rng.uniform(0.5, 3.0, 4)))
    for size in (3, 4) * 6:
        matrix = 10.0 ** rng.uniform(-60.0, 60.0, (size, size))
        matrix *= rng.uniform(0.3, 0.9) / np.abs(np.linalg.eigvals(matrix)).max()
        src, dst = np.nonzero(matrix)
        cases.append(((src, dst, matrix[src, dst]), rng.uniform(0.5, 3.0, size)))
    for links, heights in cases:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigvals", counted_eigvals)
            patch.setattr(open_system, "_balanced", counted_balanced)
            (got, got_radii), (want, want_radii) = _traced_roots(monkeypatch, links, heights)
        assert got == want, (links, heights)
        assert got_radii and got_radii == want_radii
    assert counts["eigvals"] > 0 and counts["balanced"] > 0


@pytest.mark.parametrize("heights", [(1.0, 2.0), (1.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0)])
def test_word_operator_root_matches_the_masked_root_near_the_float_range(heights, monkeypatch):
    """Cycles with every entry 1e-200 (a root near s = 300) and 1e-300 (past
    the float range, NoConvergenceError with the same message)."""
    size = len(heights)
    src = np.arange(size)
    dst = (src + 1) % size
    for weight in (1e-200, 1e-300):
        links = (src, dst, np.full(size, weight))
        (got, got_radii), (want, want_radii) = _traced_roots(monkeypatch, links, np.array(heights))
        assert got == want
        assert got_radii and got_radii == want_radii


def test_word_operator_root_matches_the_masked_root_at_its_ends(monkeypatch):
    """A nilpotent P has the root +inf and no radius; rho(P) >= 1 gives +0.0
    after the one radius f(0)."""
    src, dst = np.array([0, 0, 1]), np.array([1, 2, 2])
    links = (src, dst, np.array([0.5, 0.5, 1.0]))
    (got, got_radii), (want, want_radii) = _traced_roots(monkeypatch, links, np.ones(3))
    assert got == want == "inf" and got_radii == want_radii == []
    for p in ([1.0, 1.0, 1.0], [1.0, 0.5, 2.0]):
        links = (np.array([0, 1, 1]), np.array([1, 0, 1]), np.array(p))
        (got, got_radii), (want, want_radii) = _traced_roots(monkeypatch, links, np.array([1.0, 2.0]))
        assert got == want == (0.0).hex() and len(got_radii) == 1 and got_radii == want_radii


# Lattice-0.05 towers, heights up to 60 (flow ceilings up to 3.0), holes of
# length 1-3: the refined block chains have 70-1314 blocks, the word
# operators 1-27 words. The last rate is 3.5e-5, so a detour through the
# radius, -log(e^{-s*}), would lose about 2e-11 of it.
ORACLE_TOWERS = [
    ([[0.49, 0.51], [0.07, 0.93]], (28, 40), (0, 1, 0)),
    ([[0.08, 0.92, 0.0], [0.33, 0.33, 0.34], [0.67, 0.33, 0.0]], (23, 51, 20), (0, 0)),
    ([[0.42, 0.27, 0.31], [0.17, 0.43, 0.40], [0.41, 0.18, 0.41]], (39, 58, 49), (1, 1, 0)),
    ([[0.0, 1.0, 0.0], [0.0, 0.89, 0.11], [0.3, 0.35, 0.35]], (57, 20, 54), (2,)),
    ([[0.9999, 0.0001], [0.5, 0.5]], (57, 13), (1,)),
]


def _mp_smallest_root(transitions, heights, hole, guess):
    """Smallest positive zero of det(I - diag(e^{s k}) P) at 50 digits.

    P is the base chain on the admissible words of the hole's length, with
    the rows of words that begin with the hole zeroed, and k the height of
    each word's first letter. It is built here from the transition floats,
    not from the library's block matrix. ``guess`` only sets the scan grid:
    the first sign change of the determinant on it is refined by Illinois.
    """
    mp = mpmath.mp.clone()
    mp.dps = 50
    size = len(transitions)
    words = [
        w
        for w in itertools.product(range(size), repeat=len(hole))
        if all(transitions[a][b] > 0.0 for a, b in zip(w, w[1:]))
    ]
    index = {w: i for i, w in enumerate(words)}
    n = len(words)

    def det(s):
        rows = []
        for i, w in enumerate(words):
            row = [mp.mpf(int(i == j)) for j in range(n)]
            if w != tuple(hole):
                weight = mp.exp(s * heights[w[0]])
                for b in range(size):
                    j = index.get(w[1:] + (b,))
                    if j is not None and transitions[w[-1]][b] > 0.0:
                        row[j] -= weight * mp.mpf(transitions[w[-1]][b])
            rows.append(row)
        # Gaussian elimination with partial pivoting.
        value = mp.mpf(1)
        for c in range(n):
            p = max(range(c, n), key=lambda r: abs(rows[r][c]))
            if rows[p][c] == 0:
                return mp.mpf(0)
            if p != c:
                rows[c], rows[p] = rows[p], rows[c]
                value = -value
            value *= rows[c][c]
            for r in range(c + 1, n):
                if rows[r][c] != 0:
                    factor = rows[r][c] / rows[c][c]
                    rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
        return value

    step = mp.mpf(guess) / 16
    lo = mp.mpf(0)
    assert det(lo) > 0
    for _ in range(64):
        if det(lo + step) <= 0:
            break
        lo += step
    else:
        pytest.fail(f"no sign change of the determinant below {lo}")
    return mp.findroot(det, (lo, lo + step), solver="illinois", tol=mp.mpf(10) ** -45)


@pytest.mark.parametrize("transitions, heights, hole", ORACLE_TOWERS)
def test_refined_rate_matches_50_digit_root(transitions, heights, hole):
    # One oracle root per tower, against all three exact routes. The bound of
    # the bordered and zeta routes is looser: their polynomial roots missed
    # the oracle by up to 4.4e-11 and 2.8e-11, both on the 3.5e-5 tower.
    shift = build_markov_shift(transitions)
    ceiling = cylinder_function(
        1, {(a,): 0.05 * k for a, k in enumerate(heights)}, lattice=0.05
    )
    system = build_suspension(shift, ceiling)
    got = escape_rate_flow(system, hole, representation="refined")
    root = _mp_smallest_root(shift.transitions.tolist(), heights, hole, got * 0.05)
    want = float(root / 0.05)
    assert got == pytest.approx(want, rel=1e-11, abs=0.0)
    bordered = escape_rate_flow(system, hole, representation="bordered")
    assert bordered == pytest.approx(want, rel=1e-10, abs=0.0)
    assert escape_rate_zeta(system, hole) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_non_reduced_hole_served_by_refined_path(golden_mean):
    system = build_suspension(golden_mean, constant_function(golden_mean, 1.0))
    with pytest.raises(NotReducedError):
        escape_rate_flow(system, (1, 0), representation="bordered")
    assert escape_rate_flow(system, (1, 0), representation="refined") == pytest.approx(
        math.log(2), abs=1e-12
    )


# ---------------------------------------------------------------------------
# Survival curves for the flow
# ---------------------------------------------------------------------------

def test_survival_curve_starts_at_one(step_system):
    curve = survival_curve_flow(step_system, (0,), 5)
    assert curve[0] == 1.0
    assert all(a >= b for a, b in zip(curve, curve[1:]))


def test_survival_curve_unit_ceiling_matches_exact(unit_system, full2):
    for hole in [(0,), (0, 0), (0, 1, 0)]:
        curve = survival_curve_flow(unit_system, hole, 10)
        m = len(hole)
        for t, got in enumerate(curve):
            assert got == pytest.approx(
                survival_measure_exact(full2, hole, t + m - 1), abs=1e-14
            )


def test_survival_curve_tail_slope_matches_rate(step_system):
    curve = survival_curve_flow(step_system, (0,), 80)
    slope = (math.log(curve[40]) - math.log(curve[80])) / 40.0
    assert slope == pytest.approx(0.5 * math.log(2), abs=1e-6)


def _survival_reference(system, hole, t_max):
    """The block-matrix survival curve: the level-0 hole blocks of the
    refined open matrix killed, then one step of the refined block matrix."""
    _, refined, hole_rows = refined_open_matrix(system, hole)
    mass = refined.block_measure / refined.mass_normalized
    killer = np.ones(len(mass))
    killer[hole_rows] = 0.0
    out = np.ones(t_max + 1)
    for t in range(1, t_max + 1):
        mass = mass * killer
        out[t] = mass.sum()
        mass = mass @ refined.block_matrix
    return out


# Every hole word's tower is taller than one block, so mass that starts above
# level 0 of a hole word must climb out through its top. Heights follow the
# admissible words of the order in lexicographic order. At order 2 the hole
# (0,) is no longer than the order and begins the three words 00, 01 and 02.
SURVIVAL_TOWERS = {
    "step-hole-1": ([[0.5, 0.5], [0.5, 0.5]], 1, (1, 2), 1.0, (1,)),
    "lattice-0.05": ([[0.49, 0.51], [0.07, 0.93]], 1, (28, 40), 0.05, (0, 1, 0)),
    "three-letter": (
        [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]], 1, (1, 2, 3), 1.0, (2, 1)
    ),
    "order-2-hole-1": (
        [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]],
        2,
        (2, 3, 4, 1, 2, 3, 1, 2),
        0.5,
        (0,),
    ),
}


@pytest.mark.parametrize("name", sorted(SURVIVAL_TOWERS))
def test_survival_curve_matches_block_matrix_reference(name):
    transitions, order, heights, lattice, hole = SURVIVAL_TOWERS[name]
    shift = build_markov_shift(transitions)
    words = admissible_words(shift, order)
    assert len(words) == len(heights)
    ceiling = cylinder_function(
        order, {w: lattice * k for w, k in zip(words, heights)}, lattice=lattice
    )
    system = build_suspension(shift, ceiling)
    got = survival_curve_flow(system, hole, 200)
    assert got == pytest.approx(_survival_reference(system, hole, 200), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m", [13, 40])
def test_survival_curve_of_long_zero_runs_matches_exact(unit_system, full2, m):
    # 2^m words of length m, past the cap from m = 13; the hole automaton
    # has m states.
    hole = (0,) * m
    curve = survival_curve_flow(unit_system, hole, 60)
    for t, got in enumerate(curve):
        assert got == pytest.approx(survival_measure_exact(full2, hole, t + m - 1), abs=1e-14)


def test_survival_curve_extra_start_state_at_order_2():
    # The hole's first two letters have a tower of three blocks, so the
    # survival tower's extra state starts with the mass above its level 0.
    shift = build_markov_shift([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]])
    values = {w: 0.25 * (1 + (3 * w[0] + w[1]) % 4) for w in admissible_words(shift, 2)}
    system = build_suspension(shift, cylinder_function(2, values, lattice=0.25))
    hole = (2, 0, 2, 1)
    assert system.height_of(hole[:2]) == 3
    got = survival_curve_flow(system, hole, 200)
    assert got == pytest.approx(_survival_reference(system, hole, 200), rel=1e-14, abs=0.0)


def test_order_12_routes_keep_the_word_chain_sparse(full2):
    # The full 2-shift with the order-12 ceiling 1 + last letter: 4096 words,
    # two links per word. One dense copy of the word chain, or of the 4096
    # states of the hole automaton of 0^13, takes 128 MiB.
    words = admissible_words(full2, 12)
    ceiling = cylinder_function(12, {w: 1.0 + w[-1] for w in words}, lattice=1.0)
    hole = (0,) * 13
    config = SimulationConfig(seed=1, samples=1000, t_max=10)
    peaks = {}

    def traced(name, fn, *args):
        tracemalloc.start()
        try:
            out = fn(*args)
            peaks[name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    system = traced("build_suspension", build_suspension, full2, ceiling)
    assert system.block_index((0,) * 12, 0) == 0
    rate = traced("refined", escape_rate_flow, system, hole, "refined")
    block = traced("block hole", escape_rate_block_hole, system, [0])
    traced("survival curve", survival_curve_flow, system, hole, 10)
    traced("sampler", estimate_survival, system, hole, config)
    assert max(peaks.values()) < 32 * 2**20, peaks
    # 1 + x_0 and 1 + x_11 differ by a coboundary, so the order-1 ceiling
    # (1, 2) has the same rates. Its references are the holes 0^13 and 0^12
    # (block row 0 is the word 0^12), on automata of 13 and 12 states whose
    # radii are dense eigenvalues.
    small = build_suspension(full2, cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=1.0))
    assert rate == pytest.approx(escape_rate_flow(small, hole, "refined"), rel=0.0, abs=1e-12)
    assert block == pytest.approx(
        escape_rate_flow(small, hole[:12], "refined"), rel=0.0, abs=1e-12
    )


def test_length_13_hole_curve_slope_and_sampler(step_system):
    # 8192 words of length 13 on the full 2-shift: only the automaton fits.
    hole = (0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1)
    curve = survival_curve_flow(step_system, hole, 400)
    rate = escape_rate_flow(step_system, hole, "refined")
    slope = (math.log(curve[200]) - math.log(curve[400])) / 200.0
    assert slope == pytest.approx(rate, rel=1e-6)
    config = SimulationConfig(seed=42, samples=100_000, t_max=60)
    est = estimate_survival(step_system, hole, config)
    z = (est.estimates[60] - curve[60]) / est.stderrs[60]
    assert abs(z) < 3.0


def test_survival_routes_raise_where_the_refined_rate_does(unit_system):
    # The zero run of length 5000 has an automaton of 5000 states, past the
    # cap of 4096; the runs of lengths 13 and 40 above fit.
    hole = (0,) * 5000
    config = SimulationConfig(seed=1, samples=100, t_max=3)
    with pytest.raises(RefinementTooLargeError):
        escape_rate_flow(unit_system, hole, "refined")
    with pytest.raises(RefinementTooLargeError):
        survival_curve_flow(unit_system, hole, 3)
    with pytest.raises(RefinementTooLargeError):
        estimate_survival(unit_system, hole, config)


# ---------------------------------------------------------------------------
# Holes that every orbit meets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "transitions, hole",
    [([[0.5, 0.5], [1.0, 0.0]], (0,)), ([[0.0, 1.0], [0.601, 0.399]], (1,))],
)
@pytest.mark.parametrize("heights", [(1, 1), (2, 3)])
def test_every_exact_route_is_infinite_where_every_orbit_meets_the_hole(
    transitions, hole, heights
):
    shift = build_markov_shift(transitions)
    ceiling = cylinder_function(1, {(0,): float(heights[0]), (1,): float(heights[1])}, lattice=1.0)
    system = build_suspension(shift, ceiling)
    for representation in ("refined", "bordered", "auto"):
        assert escape_rate_flow(system, hole, representation) == math.inf
    assert escape_rate_zeta(system, hole) == math.inf
    assert escape_rate_from_survival_slope(shift, hole) == math.inf
    assert induced_pressure_via_root(shift, ceiling, hole) == -math.inf
