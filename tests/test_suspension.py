"""Suspension construction, block chains, rationalization."""

import math

import numpy as np
import pytest

import flowescape.pressure as pressure
from flowescape import (
    EpsilonTooLargeError,
    NonArithmeticCeilingError,
    NonPositiveCeilingError,
    SimulationConfig,
    SuspensionSystem,
    admissible_words,
    build_markov_shift,
    build_suspension,
    constant_function,
    cylinder_function,
    cylinder_measure,
    escape_rate_flow,
    estimate_survival,
    flow_invariant_vector,
    induced_pressure_truncated,
    induced_pressure_via_root,
    rationalize_ceiling,
    refine_suspension,
    survival_curve_flow,
)
from flowescape.shift import CylinderFunction
from oracles import eager_suspension_forms


def test_unit_ceiling_reproduces_base(full2, unit_system):
    assert unit_system.blocks == (((0,), 0), ((1,), 0))
    np.testing.assert_allclose(unit_system.block_matrix, full2.transitions)
    assert unit_system.total_mass == 1.0


def test_step_ceiling_block_chain(step_system):
    assert step_system.blocks == (((0,), 0), ((1,), 0), ((1,), 1))
    expected = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, 0.5, 0.0],
        ]
    )
    np.testing.assert_allclose(step_system.block_matrix, expected)
    assert step_system.total_mass == 1.5


def test_step_ceiling_invariant_vector(step_system):
    v = flow_invariant_vector(step_system)
    np.testing.assert_allclose(v, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_allclose(v @ step_system.block_matrix, v, atol=1e-12)


def test_cycle_shift_double_ceiling(cycle2):
    psi = cylinder_function(1, {(0,): 2.0, (1,): 2.0}, lattice=1.0)
    system = build_suspension(cycle2, psi)
    assert len(system.blocks) == 4
    assert system.total_mass == 2.0
    # The block chain is a deterministic 4-cycle.
    order = np.argmax(system.block_matrix, axis=1)
    seen = {0}
    i = 0
    for _ in range(4):
        i = int(order[i])
        seen.add(i)
    assert seen == {0, 1, 2, 3}
    np.testing.assert_allclose(system.block_matrix.sum(axis=1), 1.0)


def test_row_stochastic_and_level_rows(golden_mean):
    psi = cylinder_function(1, {(0,): 2.0, (1,): 3.0}, lattice=1.0)
    system = build_suspension(golden_mean, psi)
    np.testing.assert_allclose(system.block_matrix.sum(axis=1), 1.0, atol=1e-12)
    for i, (word, level) in enumerate(system.blocks):
        if level + 1 < system.height_of(word):
            j = system.block_index(word, level + 1)
            assert system.block_matrix[i, j] == 1.0


def test_lattice_scale_rescaling(full2):
    half = cylinder_function(1, {(0,): 0.5, (1,): 1.0}, lattice=0.5)
    system = build_suspension(full2, half)
    assert system.lattice_scale == 0.5
    assert list(system.heights) == [1, 2]
    assert system.total_mass == pytest.approx(0.75)


def test_rejects_non_arithmetic_ceiling(full2):
    psi = cylinder_function(1, {(0,): 1.0, (1,): math.sqrt(2)})
    with pytest.raises(NonArithmeticCeilingError):
        build_suspension(full2, psi)


def test_rejects_nonpositive_ceiling(full2):
    psi = cylinder_function(1, {(0,): 0.0, (1,): 1.0}, lattice=1.0)
    with pytest.raises(NonPositiveCeilingError):
        build_suspension(full2, psi)


def test_refine_suspension_preserves_mass(step_system):
    fine = refine_suspension(step_system, 3)
    assert fine.order == 3
    assert fine.total_mass == pytest.approx(step_system.total_mass, rel=1e-12)
    v = flow_invariant_vector(fine)
    np.testing.assert_allclose(v @ fine.block_matrix, v, atol=1e-12)


def _block_chain_reference(shift, ceiling):
    """The block chain laid out block by block: blocks, block matrix, block
    measures and the (word, level) -> row index."""
    words = admissible_words(shift, ceiling.order)
    heights = [int(round(ceiling.value(w) / ceiling.lattice)) for w in words]
    blocks = [(w, level) for w, k in zip(words, heights) for level in range(k)]
    index = {blk: i for i, blk in enumerate(blocks)}
    matrix = np.zeros((len(blocks), len(blocks)))
    measure = np.zeros(len(blocks))
    for i, (w, level) in enumerate(blocks):
        measure[i] = cylinder_measure(shift, w)
        if level < heights[words.index(w)] - 1:
            matrix[i, index[(w, level + 1)]] = 1.0
        else:
            for b in shift.successors(w[-1]):
                matrix[i, index[(w[1:] + (b,), 0)]] = shift.transitions[w[-1], b]
    return tuple(blocks), matrix, measure, index


_THREE = [[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]]
CHAIN_CASES = {
    "order-1": ([[0.9, 0.1], [0.2, 0.8]], 1, 1.0, 3),
    "order-2": ([[0.9, 0.1], [0.2, 0.8]], 2, 0.5, 4),
    "order-3": ([[0.5, 0.5], [0.5, 0.5]], 3, 1.0, 3),
    "lattice-0.05": ([[0.49, 0.51], [0.07, 0.93]], 1, 0.05, 60),
    "forbidden": (_THREE, 2, 0.5, 5),
}


def _chain_case(name):
    transitions, order, lattice, top = CHAIN_CASES[name]
    shift = build_markov_shift(transitions)
    words = admissible_words(shift, order)
    values = {w: lattice * (1 + (7 * i + 3) % top) for i, w in enumerate(words)}
    return shift, cylinder_function(order, values, lattice=lattice)


@pytest.mark.parametrize("name", sorted(CHAIN_CASES))
def test_block_chain_equals_block_loop(name):
    shift, ceiling = _chain_case(name)
    system = build_suspension(shift, ceiling)
    blocks, matrix, measure, index = _block_chain_reference(shift, ceiling)
    assert system.blocks == blocks
    assert system.block_matrix.tobytes() == matrix.tobytes()
    assert system.block_measure.tobytes() == measure.tobytes()
    assert system.mass_normalized == float(measure.sum())
    assert [system.block_index(w, level) for w, level in blocks] == list(index.values())
    for w in system.words:
        for level in (-1, system.height_of(w)):
            with pytest.raises(KeyError):
                system.block_index(w, level)
    with pytest.raises(KeyError):
        system.block_index((shift.alphabet_size,) * ceiling.order, 0)
    with pytest.raises(KeyError):
        system.height_of((shift.alphabet_size,) * ceiling.order)


@pytest.mark.parametrize(
    "transitions, order",
    [
        ([[0.9, 0.1], [0.2, 0.8]], 1),
        (_THREE, 1),
        (_THREE, 3),
        ([[0.5, 0.5], [0.5, 0.5]], 12),
        ([[0.9, 0.1], [0.2, 0.8]], 12),
    ],
)
def test_word_masses_equal_cylinder_measure(transitions, order):
    # The masses are taken one letter column at a time for all words at
    # once, with the multiplications of cylinder_measure in its order.
    shift = build_markov_shift(transitions)
    words = admissible_words(shift, order)
    ceiling = cylinder_function(order, {w: 1.0 + w[-1] for w in words}, lattice=1.0)
    system = build_suspension(shift, ceiling)
    masses = system.block_measure[system._starts].tolist()
    assert masses == [cylinder_measure(shift, w) for w in words]


def test_block_chain_is_built_only_when_read(monkeypatch):
    # The refined rate, the pressure root and the truncated pressure read
    # only the words and heights: the word chain's links and the block
    # measure stay underived, on the system and on those the truncated
    # pressure builds (the pressure root builds none). Neither the system
    # nor its refinement builds the block chain for those, the survival
    # curve or the sampler.
    shift, ceiling = _chain_case("forbidden")
    system = build_suspension(shift, ceiling)
    built = [system]

    def recorded(*args):
        built.append(build_suspension(*args))
        return built[-1]

    monkeypatch.setattr(pressure, "build_suspension", recorded)
    for hole in [(1, 0), (2, 1, 0)]:
        escape_rate_flow(system, hole, "refined")
        induced_pressure_via_root(shift, ceiling, hole)
        induced_pressure_truncated(shift, ceiling, hole, 20.0)
    assert len(built) == 3
    for name in ("word_links", "block_measure", "mass_normalized", "_starts"):
        assert all(name not in s.__dict__ for s in built), name

    def unread(self):
        raise AssertionError("the block chain was built")

    monkeypatch.setattr(SuspensionSystem, "block_matrix", property(unread))
    for hole in [(1, 0), (2, 1, 0)]:
        escape_rate_flow(system, hole, "refined")
        induced_pressure_via_root(shift, ceiling, hole)
        survival_curve_flow(system, hole, 30)
        estimate_survival(system, hole, SimulationConfig(seed=1, samples=200, t_max=10))
    assert "block_matrix" not in system.__dict__
    assert "blocks" not in system.__dict__


def _seeded_shift(seed, letters):
    """An irreducible chain on ``letters`` symbols with about 30% of its
    links dropped, each state keeping its link to the next."""
    rng = np.random.default_rng([seed, letters])
    raw = rng.uniform(0.05, 1.0, (letters, letters))
    keep = raw * (rng.random((letters, letters)) >= 0.3)
    for i in range(letters):
        keep[i, (i + 1) % letters] = raw[i, (i + 1) % letters]
    return build_markov_shift(keep / keep.sum(axis=1, keepdims=True)), rng


def _same_form(got, want):
    if isinstance(want, tuple):
        assert isinstance(got, tuple) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_form(g, w)
    elif isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    else:
        assert type(got) is type(want) and got.hex() == want.hex()


@pytest.mark.parametrize("lattice", [1.0, 0.5, 0.05])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("letters", [2, 3, 4])
def test_derived_forms_equal_the_eager_construction(letters, order, lattice):
    # Each form derived on first read is byte for byte the one an eager pass
    # lays out, dtype and read-only flag included, whichever is read first;
    # the first read derives them all.
    shift, rng = _seeded_shift(order, letters)
    words = admissible_words(shift, order)
    values = {w: lattice * int(rng.integers(1, 8)) for w in words}
    ceiling = cylinder_function(order, values, lattice=lattice)
    want = eager_suspension_forms(shift, ceiling)
    derived = want.keys() - {"heights"}
    for first in derived:
        system = build_suspension(shift, ceiling)
        getattr(system, first)
        assert derived <= system.__dict__.keys()
        for name, form in want.items():
            _same_form(getattr(system, name), form)
        assert system._block_count == len(want["block_measure"])
        assert system.total_mass == lattice * want["mass_normalized"]


# ---------------------------------------------------------------------------
# rationalize_ceiling
# ---------------------------------------------------------------------------

def test_rationalize_already_arithmetic_is_identity(step_ceiling):
    psi, err = rationalize_ceiling(step_ceiling, 0.25)
    assert psi is step_ceiling
    assert err == 0.0


def test_rationalize_sqrt_two():
    phi = cylinder_function(1, {(0,): 1.0, (1,): math.sqrt(2)})
    psi, err = rationalize_ceiling(phi, 0.01)
    assert psi.lattice == pytest.approx(0.005)
    assert sorted(psi.values.values()) == [1.0, 1.415]
    assert err == pytest.approx(abs(math.sqrt(2) - 1.415), abs=1e-15)
    assert err <= 0.005


def test_rationalize_epsilon_too_large():
    phi = cylinder_function(1, {(0,): 0.3, (1,): 0.3})
    with pytest.raises(EpsilonTooLargeError):
        rationalize_ceiling(phi, 0.5)


def test_rationalize_leaves_unread_values_to_the_routes(full2):
    # The value on letter 2 lies outside the full 2-shift, so no route reads it.
    phi = cylinder_function(1, {(0,): 1.3, (1,): 1.7, (2,): -1.0})
    psi, err = rationalize_ceiling(phi, 0.1)
    assert psi.lattice == 0.05
    assert err <= 0.05
    raw = induced_pressure_via_root(full2, phi, (0, 1))
    assert raw == -0.40773363562349724
    # Rounding moves 1.7 by one ulp, to 34 * 0.05.
    assert induced_pressure_via_root(full2, psi, (0, 1)) == pytest.approx(raw, rel=1e-15)
    with pytest.raises(NonPositiveCeilingError):
        rationalize_ceiling(cylinder_function(1, {(0,): 0.0, (1,): -1.0}), 0.1)
    with pytest.raises(EpsilonTooLargeError):
        rationalize_ceiling(phi, 1.3)


def test_rationalize_bound_holds_for_awkward_values(full3):
    values = {(0,): 0.713, (1,): 1.0009, (2,): 2.4142}
    phi = cylinder_function(1, values)
    for eps in (0.2, 0.05, 0.011):
        psi, err = rationalize_ceiling(phi, eps)
        assert err <= eps / 2 + 1e-15
        for w, v in values.items():
            assert abs(psi.value(w) - v) <= err + 1e-15
            ratio = psi.value(w) / psi.lattice
            assert abs(ratio - round(ratio)) < 1e-9


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_rationalize_carries_a_value_that_is_not_finite(full2, value):
    # It is carried through unrounded, and each route rejects it.
    phi = cylinder_function(1, {(0,): 1.3, (1,): value})
    psi, err = rationalize_ceiling(phi, 0.1)
    assert psi.lattice == 0.05
    carried = psi.value((1,))
    assert carried == value or math.isnan(value) and math.isnan(carried)
    assert err == abs(1.3 - 26 * 0.05)
    with pytest.raises(NonPositiveCeilingError):
        build_suspension(full2, psi)
    with pytest.raises(NonPositiveCeilingError):
        induced_pressure_via_root(full2, psi, (0, 1))


def test_rationalize_index_overflow_is_non_arithmetic():
    # 1e308 / 1e-10 overflows the float range.
    phi = cylinder_function(1, {(0,): 1.0, (1,): 1e308})
    with pytest.raises(NonArithmeticCeilingError, match="overflows"):
        rationalize_ceiling(phi, 2e-10)
    # An epsilon whose half underflows to 0 leaves no finite index.
    with pytest.raises(NonArithmeticCeilingError, match="overflows"):
        rationalize_ceiling(cylinder_function(1, {(0,): 1.0, (1,): 2.0}), 5e-324)
    for epsilon in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            rationalize_ceiling(phi, epsilon)


def test_build_suspension_lattice_ratio_overflow_is_non_arithmetic(full2):
    # cylinder_function rejects this ceiling, so it is built field by field.
    ceiling = CylinderFunction(order=1, values={(0,): 1e300, (1,): 1.0}, lattice=1e-10)
    with pytest.raises(NonArithmeticCeilingError, match="overflows"):
        build_suspension(full2, ceiling)
