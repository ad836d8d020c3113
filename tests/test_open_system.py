"""Hole quantities, open matrices in both representations, escape rates."""

import itertools
import math
import warnings

import numpy as np
import pytest

import flowescape.open_system as open_system
import flowescape.suspension as suspension
from flowescape import (
    HoleShorterThanCeilingOrderError,
    InadmissibleWordError,
    NoConvergenceError,
    NotReducedError,
    admissible_words,
    build_markov_shift,
    build_open_bordered,
    build_open_matrix,
    build_open_refined,
    build_suspension,
    char_poly,
    constant_function,
    cylinder_function,
    escape_rate_block_hole,
    escape_rate_flow,
    escape_rate_zeta,
    hole_quantities,
    matrix_spectral_radius,
    open_spectral_radius,
    survival_curve_flow,
    survival_measure_exact,
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


# ---------------------------------------------------------------------------
# Open matrices
# ---------------------------------------------------------------------------

def test_refined_rows_zeroed(step_system):
    om = build_open_refined(step_system, (0,))
    for i in om.hole_rows:
        assert np.all(om.matrix[i] == 0.0)
    # Surviving 2x2 sub-chain over the [1]-blocks has radius sqrt(1/2).
    keep = [i for i in range(om.matrix.shape[0]) if i not in om.hole_rows]
    sub = om.matrix[np.ix_(keep, keep)]
    assert matrix_spectral_radius(sub) == pytest.approx(math.sqrt(0.5), abs=1e-12)


def test_refined_fibonacci_radius(unit_system):
    om = build_open_refined(unit_system, (0, 0))
    assert om.matrix.shape == (4, 4)
    assert open_spectral_radius(om) == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-12)


def test_bordered_dimension_and_radius_triple_zero(unit_system):
    om = build_open_bordered(unit_system, (0, 0, 0))
    assert om.matrix.shape == (3, 3)
    fine = build_open_refined(unit_system, (0, 0, 0))
    assert open_spectral_radius(om) == pytest.approx(open_spectral_radius(fine), abs=1e-12)


def test_bordered_k0_one_no_extra_rows(unit_system):
    om = build_open_bordered(unit_system, (0, 1))
    assert om.matrix.shape == (2, 2)
    poly = char_poly(om.matrix)
    assert poly.coefficients == pytest.approx((1.0, -1.0, 0.25))


def test_bordered_step_ceiling_dimension(step_system):
    om = build_open_bordered(step_system, (1, 1, 1))
    assert om.matrix.shape == (6, 6)
    fine = build_open_refined(step_system, (1, 1, 1))
    assert open_spectral_radius(om) == pytest.approx(open_spectral_radius(fine), abs=1e-10)


def test_auto_representation_picks_refined_when_small(unit_system):
    om = build_open_matrix(unit_system, (0, 0))
    assert om.representation == "refined"
    om = build_open_matrix(unit_system, (0, 0), cap=2)
    assert om.representation == "bordered"


def test_spectral_radius_edge_cases():
    assert matrix_spectral_radius(np.eye(2)) == pytest.approx(1.0, abs=1e-13)
    assert matrix_spectral_radius(np.zeros((3, 3))) == 0.0
    assert matrix_spectral_radius(np.array([[0.0, 1.0], [0.5, 0.0]])) == pytest.approx(
        math.sqrt(0.5), abs=1e-13
    )


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
    # Three blocks: row -1 must not wrap round to the last block's word.
    for row in (-1, 3):
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


def test_equal_heights_root_takes_one_radius(monkeypatch, unit_system):
    om = build_open_refined(unit_system, (0, 1, 1, 0, 1, 0, 0, 1, 1, 1))
    assert om.matrix.shape == (1024, 1024)
    want = matrix_spectral_radius(om.matrix)
    shapes = []

    def counted(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return matrix_spectral_radius(matrix, *args, **kwargs)

    monkeypatch.setattr(open_system, "matrix_spectral_radius", counted)
    got = open_spectral_radius(om)
    assert shapes == [(1024, 1024)]
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


def test_power_iterated_word_operator_root(monkeypatch, step_system):
    # 255 surviving words with heights 1 and 2: each radius of the root is
    # power-iterated, which is accurate to about 1e-13, not to the ulp.
    om = build_open_refined(step_system, (1, 1, 1, 0, 0, 0, 0, 0))
    assert om.matrix.shape == (384, 384)
    sizes = []
    component_radius = open_system._component_radius

    def counted(sub, *args, **kwargs):
        sizes.append(len(sub))
        return component_radius(sub, *args, **kwargs)

    monkeypatch.setattr(open_system, "_component_radius", counted)
    got = open_spectral_radius(om)
    # Five evaluations: f(0), the two bracket ends and two Illinois steps.
    # The bound leaves room for rounding that differs between BLAS builds.
    assert set(sizes) == {255}
    assert len(sizes) <= 8
    monkeypatch.undo()
    assert got == pytest.approx(matrix_spectral_radius(om.matrix), rel=1e-12, abs=0.0)
    dense = float(np.abs(np.linalg.eigvals(om.matrix)).max())
    assert got == pytest.approx(dense, rel=1e-12, abs=0.0)


def test_refined_rate_builds_no_block_matrix(monkeypatch, step_system):
    # A hole longer than the order: the refined rate needs one survivor
    # matrix of the base and no refined suspension.
    calls = []

    def counted(module, name):
        fn = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    counted(suspension, "build_suspension")
    counted(suspension, "refine_suspension")
    counted(open_system, "refine_suspension")
    counted(open_system, "survivor_matrix")
    rate = escape_rate_flow(step_system, (1, 1, 0), representation="refined")
    assert calls == ["survivor_matrix"]
    monkeypatch.undo()
    bordered = escape_rate_flow(step_system, (1, 1, 0), representation="bordered")
    assert rate == pytest.approx(bordered, rel=1e-12)


def test_system_built_past_the_cap_keeps_its_words():
    # 65 letters, i -> i + 1 (mod 65) and i -> 0: 129 words of length 2, but
    # 65^2 = 4225 is past the default cap. A system built at a larger cap
    # already holds them, so neither route charges the cap again.
    size = 65
    transitions = np.zeros((size, size))
    for i in range(size):
        transitions[i, (i + 1) % size] += 0.5
        transitions[i, 0] += 0.5
    shift = build_markov_shift(transitions.tolist())
    words = admissible_words(shift, 2, cap=5000)
    ceiling = cylinder_function(2, {w: 0.5 * (1 + w[0] % 3) for w in words}, lattice=0.5)
    system = build_suspension(shift, ceiling, cap=5000)
    assert len(system.words) == 129
    assert escape_rate_flow(system, (5,), "refined") == float.fromhex("0x1.6eb958d2cca61p-6")
    row = system.block_index(system.words[10], 0)
    assert escape_rate_block_hole(system, (row,)) == float.fromhex("0x1.556e016aa05e9p-7")


def test_word_operator_root_near_the_float_range():
    # A 2-cycle with heights 1 and 2 and both entries 1e-200: the root solves
    # e^{3 s} 1e-400 = 1, s* = 307. The weight e^{2 s} of the second row
    # reaches e^700 at s = 350, so with entries 1e-300 (s* = 460) it raises.
    heights = np.array([1.0, 2.0])
    cycle = np.array([[0.0, 1.0], [1.0, 0.0]])
    root = open_system._word_operator_root(1e-200 * cycle, heights)
    assert root == pytest.approx(400.0 * math.log(10.0) / 3.0, rel=1e-14)
    with pytest.raises(NoConvergenceError):
        open_system._word_operator_root(1e-300 * cycle, heights)


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
    mp = pytest.importorskip("mpmath").mp.clone()
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
        build_open_bordered(system, (1, 0))
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
    om = build_open_refined(system, hole)
    mass = om.system.block_measure / om.system.mass_normalized
    killer = np.ones(len(mass))
    killer[list(om.hole_rows)] = 0.0
    out = np.ones(t_max + 1)
    for t in range(1, t_max + 1):
        mass = mass * killer
        out[t] = mass.sum()
        mass = mass @ om.system.block_matrix
    return out


# Every hole word's tower is taller than one block, so mass that starts above
# level 0 of a hole word must climb out through its top.
SURVIVAL_TOWERS = {
    "step-hole-1": ([[0.5, 0.5], [0.5, 0.5]], (1, 2), 1.0, (1,)),
    "lattice-0.05": ([[0.49, 0.51], [0.07, 0.93]], (28, 40), 0.05, (0, 1, 0)),
    "three-letter": ([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]], (1, 2, 3), 1.0, (2, 1)),
}


@pytest.mark.parametrize("name", sorted(SURVIVAL_TOWERS))
def test_survival_curve_matches_block_matrix_reference(name):
    transitions, heights, lattice, hole = SURVIVAL_TOWERS[name]
    shift = build_markov_shift(transitions)
    ceiling = cylinder_function(
        1, {(a,): lattice * k for a, k in enumerate(heights)}, lattice=lattice
    )
    system = build_suspension(shift, ceiling)
    got = survival_curve_flow(system, hole, 200)
    assert got == pytest.approx(_survival_reference(system, hole, 200), rel=1e-14, abs=0.0)
