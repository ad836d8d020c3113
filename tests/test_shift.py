"""Markov shift construction, words, cylinder functions, exact survival."""

import json
import math

import numpy as np
import pytest

import flowescape.shift
from flowescape import (
    AllMassEscapedError,
    InadmissibleWordError,
    NoConvergenceError,
    NonArithmeticCeilingError,
    NotIrreducibleError,
    NotRowStochasticError,
    RefinementTooLargeError,
    WordTooShortError,
    admissible_words,
    build_markov_shift,
    ceiling_from_json,
    constant_function,
    cylinder_function,
    cylinder_measure,
    escape_rate_from_survival_slope,
    format_word,
    is_reduced,
    parse_word,
    refine_cylinder_function,
    shift_from_json,
    survival_measure_exact,
)
from oracles import (
    dense,
    hole_automaton_links,
    strongly_connected_components,
    survivor_matrix,
)
from property_suites import random_hole, random_shift


# ---------------------------------------------------------------------------
# Construction and the stationary vector
# ---------------------------------------------------------------------------

def test_symmetric_full_shift_stationary(full2):
    np.testing.assert_allclose(full2.stationary, [0.5, 0.5], atol=1e-14)


def test_cycle_shift_stationary(cycle2):
    np.testing.assert_allclose(cycle2.stationary, [0.5, 0.5], atol=1e-14)


def test_biased_shift_stationary(biased2):
    np.testing.assert_allclose(biased2.stationary, [2 / 3, 1 / 3], atol=1e-12)


def test_stationary_residual_tight(biased2, golden_mean, full3):
    for shift in (biased2, golden_mean, full3):
        residual = np.abs(shift.stationary @ shift.transitions - shift.stationary)
        assert residual.max() < 1e-12


def test_rejects_bad_row_sum():
    with pytest.raises(NotRowStochasticError):
        build_markov_shift([[0.5, 0.4], [0.5, 0.5]])


@pytest.mark.parametrize(
    "transitions, match",
    [
        ([[0.5, 0.5]], "square"),
        ([0.5, 0.5], "square"),
        ([[1.5, -0.5], [0.5, 0.5]], "negative"),
        # NaN compares False with both the negative-entry and the row-sum
        # bounds, so only the finiteness check catches it.
        ([[0.5, 0.5], [0.5, math.nan]], "not finite"),
        ([[0.5, 0.5], [math.inf, -math.inf]], "not finite"),
    ],
    ids=["not-square", "one-dimensional", "negative", "nan", "inf"],
)
def test_rejects_a_matrix_that_is_not_stochastic(transitions, match):
    with pytest.raises(NotRowStochasticError, match=match):
        build_markov_shift(transitions)


def test_rejects_labels_that_do_not_fit_the_matrix():
    with pytest.raises(ValueError, match="expected 2 labels"):
        build_markov_shift([[0.5, 0.5], [0.5, 0.5]], labels=["a"])
    with pytest.raises(ValueError, match="unique"):
        build_markov_shift([[0.5, 0.5], [0.5, 0.5]], labels=["a", "a"])


def test_row_sums_inside_the_tolerance_build():
    """Rows off 1 by 5e-10 on letters of mass near 1/3 leave a stationary
    residual of 3e-10, inside the rows' own deviation; 2e-9 is past the
    row-sum tolerance and still raises."""
    shift = build_markov_shift([[0.3, 0.2, 0.5 + 5e-10], [0.5, 0.5 + 5e-10, 0.0], [0.2, 0.2, 0.6]])
    residual = np.abs(shift.stationary @ shift.transitions - shift.stationary).max()
    assert 1e-12 < residual <= 1e-12 + 5e-10
    assert shift.stationary.sum() == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(NotRowStochasticError):
        build_markov_shift([[0.3, 0.2, 0.5 + 2e-9], [0.5, 0.5, 0.0], [0.2, 0.2, 0.6]])


def test_rejects_reducible_matrix():
    with pytest.raises(NotIrreducibleError):
        build_markov_shift([[1.0, 0.0], [0.5, 0.5]])


def test_nearly_decomposable_chain_raises_no_convergence():
    """Two blocks joined by weights of 1e-13 to 4e-10: LU's pi has a raw
    minimum near -2e-3, where an 80-digit solve gives pi = [0.99998, 4.8e-12,
    2.0e-5, 2.6e-15]. The shift is refused at once, not built on a wrong pi."""
    transitions = [
        [9.9999999999522216e-01, 4.7778697400896266e-12, 0.0, 0.0],
        [9.9814432018953558e-01, 1.8556798102551811e-03, 2.0929536653052917e-13, 0.0],
        [0.0, 0.0, 9.9999999987383692e-01, 1.2616310281628290e-10],
        [3.9118286460997424e-10, 0.0, 9.9999999960881714e-01, 0.0],
    ]
    with pytest.raises(NoConvergenceError, match=r"pi\[0\] = -0\.0019"):
        build_markov_shift(transitions)


def test_singular_stationary_system_raises_no_convergence():
    # The identity is reducible, so build_markov_shift never solves it; its
    # stationary system is singular.
    with pytest.raises(NoConvergenceError, match="singular"):
        flowescape.shift._stationary_vector(np.eye(2))


def test_is_admissible_reads_the_transition_entries(golden_mean, cycle2):
    """The successor table answers as the transition entries do, for the
    empty word and for words with letters outside the alphabet too."""
    rng = np.random.default_rng(3303)
    shifts = [golden_mean, cycle2] + [random_shift(rng) for _ in range(20)]
    for shift in shifts:
        size = shift.alphabet_size
        words = [(), (-1,), (size,), (0, size), (size, 0), (0, -1)]
        words += [tuple(rng.integers(-1, size + 1, int(rng.integers(1, 6)))) for _ in range(60)]
        words += [tuple(rng.integers(0, size, int(rng.integers(1, 6)))) for _ in range(60)]
        for word in words:
            want = len(word) == 0 or (
                all(0 <= a < size for a in word)
                and all(shift.transitions[a, b] > 0.0 for a, b in zip(word, word[1:]))
            )
            assert shift.is_admissible(word) is want


def _random_edges(rng, size, per_state, loops):
    """Sorted, distinct edges (src, dst) on ``size`` states, about
    ``per_state`` out of each state that has any: a fifth of the states are
    sinks and one in ten of the rest isolated, ``loops`` of the states carry
    a loop."""
    kind = rng.random(size)
    sources = np.flatnonzero(kind >= 0.2)
    targets = np.flatnonzero((kind < 0.2) | (kind >= 0.28))
    edges = set()
    if len(targets):
        for a in sources.tolist():
            for b in rng.choice(targets, size=int(rng.poisson(per_state))).tolist():
                edges.add((a, b))
    for a in rng.choice(size, size=int(loops * size)).tolist():
        edges.add((a, a))
    pairs = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def test_strongly_connected_components_match_the_searchsorted_version():
    """Successor lists built in one pass over the edges give the same
    components, in the same order and with the same members in the same
    order, as successor lists cut from ``searchsorted`` bounds: on random
    sorted edge lists with sinks, loops and isolated states, on graphs of
    one state, and on 4096 states, one long cycle included."""
    rng = np.random.default_rng(3205)
    empty = np.zeros(0, dtype=np.int64)
    graphs = [
        (1, empty, empty),
        (1, np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)),
        (4, empty, empty),
        (4096, np.arange(4096), (np.arange(4096) + 1) % 4096),
        (4096, np.arange(4095), np.arange(1, 4096)),
    ]
    for size in (2, 3, 5, 8, 13, 40, 200):
        for per_state in (0.5, 1.0, 2.0, 3.0):
            graphs.append((size, *_random_edges(rng, size, per_state, loops=0.1)))
    for per_state in (0.8, 1.2, 2.0):
        graphs.append((4096, *_random_edges(rng, 4096, per_state, loops=0.05)))
    for size, src, dst in graphs:
        got = flowescape.shift._strongly_connected_components(size, src, dst)
        assert got == strongly_connected_components(size, src, dst)
        assert sorted(state for comp in got for state in comp) == list(range(size))
        assert all(type(state) is int for comp in got for state in comp)


# ---------------------------------------------------------------------------
# Words and measures
# ---------------------------------------------------------------------------

def test_cylinder_measure_single_letter(full2):
    assert cylinder_measure(full2, (0,)) == 0.5
    assert cylinder_measure(full2, ()) == 1.0


def test_cylinder_measure_bernoulli_product(full2):
    assert cylinder_measure(full2, (0, 1, 1)) == 0.125


def test_cylinder_measure_biased(biased2):
    assert cylinder_measure(biased2, (0, 1)) == pytest.approx((2 / 3) * 0.1, rel=1e-12)


def test_cylinder_measure_rejects_inadmissible(golden_mean):
    with pytest.raises(InadmissibleWordError):
        cylinder_measure(golden_mean, (1, 1))
    with pytest.raises(InadmissibleWordError, match="outside the alphabet"):
        cylinder_measure(golden_mean, (0, 2))


def test_is_reduced_full_shift(full2):
    assert is_reduced(full2, (0, 0))


def test_is_reduced_cycle_shift(cycle2):
    assert not is_reduced(cycle2, (0, 1))


def test_is_reduced_golden_mean(golden_mean):
    assert not is_reduced(golden_mean, (1, 0))
    with pytest.raises(WordTooShortError):
        is_reduced(golden_mean, ())
    with pytest.raises(InadmissibleWordError):
        is_reduced(golden_mean, (1, 1))


def test_admissible_words_counts(golden_mean, full2):
    # Words of length k avoiding "11" are counted by Fibonacci numbers.
    assert len(admissible_words(golden_mean, 1)) == 2
    assert len(admissible_words(golden_mean, 2)) == 3
    assert len(admissible_words(golden_mean, 5)) == 13
    # The state cap counts admissible words: 987 pass at length 14, where
    # 2^14 would not; the full 2-shift's 2^13 words at length 13 do not.
    assert len(admissible_words(golden_mean, 14)) == 987
    with pytest.raises(RefinementTooLargeError, match="8192 admissible words"):
        admissible_words(full2, 13)
    with pytest.raises(ValueError, match=">= 1"):
        admissible_words(full2, 0)


LONG_LABELS = build_markov_shift([[0.5, 0.5], [0.5, 0.5]], labels=["a0", "b1"])


def test_parse_and_format_word(full2):
    assert parse_word(full2, "010") == (0, 1, 0)
    assert format_word(full2, (0, 1, 0)) == "010"
    # Labels longer than one character are read between commas.
    assert parse_word(LONG_LABELS, "a0, b1,a0") == (0, 1, 0)
    assert format_word(LONG_LABELS, (0, 1, 0)) == "a0,b1,a0"


def test_parse_word_unknown_symbol(full2):
    with pytest.raises(ValueError):
        parse_word(full2, "0X")
    with pytest.raises(ValueError):
        parse_word(LONG_LABELS, "a0,a")


# ---------------------------------------------------------------------------
# Cylinder functions
# ---------------------------------------------------------------------------

def test_cylinder_function_rejects_bad_arguments():
    with pytest.raises(ValueError, match="order"):
        cylinder_function(0, {(): 1.0})
    with pytest.raises(ValueError, match="at least one value"):
        cylinder_function(1, {})
    with pytest.raises(ValueError, match="length 1"):
        cylinder_function(1, {(0,): 1.0, (0, 1): 2.0})


def test_cylinder_function_lattice_validation(full2):
    with pytest.raises(NonArithmeticCeilingError):
        cylinder_function(1, {(0,): 1.0, (1,): 1.5}, lattice=1.0)
    for lattice in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(NonArithmeticCeilingError, match="positive and finite"):
            cylinder_function(1, {(0,): 1.0, (1,): 2.0}, lattice=lattice)
    # constant_function declares the lattice |value|.
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(NonArithmeticCeilingError, match="positive and finite"):
            constant_function(full2, value)


def test_cylinder_function_lattice_ratio_overflow_is_non_arithmetic():
    # 1e300 / 1e-10 overflows the float range, so no lattice step is nearest.
    with pytest.raises(NonArithmeticCeilingError, match="overflows"):
        cylinder_function(1, {(0,): 1e300, (1,): 1.0}, lattice=1e-10)
    with pytest.raises(NonArithmeticCeilingError, match="overflows"):
        cylinder_function(1, {(0,): -1e300, (1,): 1.0}, lattice=1e-10)
    # The largest finite ratio still has its nearest step.
    assert cylinder_function(1, {(0,): 1e298, (1,): 1.0}, lattice=1e-10).lattice == 1e-10


def test_constant_function_has_lattice(full2):
    psi = constant_function(full2, 2.0)
    assert psi.lattice == 2.0
    # Every word has the value 2.0.
    assert set(psi.values.values()) == {2.0}


def test_cylinder_function_value_needs_order_letters(step_ceiling, full2):
    fine = refine_cylinder_function(full2, step_ceiling, 2)
    assert fine.value((1, 0, 1)) == 2.0
    with pytest.raises(WordTooShortError):
        fine.value((1,))


def test_refine_cylinder_function(full2, step_ceiling):
    fine = refine_cylinder_function(full2, step_ceiling, 2)
    assert fine.order == 2
    assert fine.value((1, 0)) == 2.0
    assert fine.value((0, 1)) == 1.0
    assert fine.lattice == step_ceiling.lattice
    assert refine_cylinder_function(full2, fine, 2) is fine
    with pytest.raises(ValueError, match="down to 1"):
        refine_cylinder_function(full2, fine, 1)


# ---------------------------------------------------------------------------
# Survivor matrices and exact survival
# ---------------------------------------------------------------------------

def test_survivor_matrix_row_zeroed(full2):
    chain = survivor_matrix(full2, (0,))
    np.testing.assert_allclose(chain.matrix, [[0.0, 0.0], [0.5, 0.5]])
    assert chain.hole_rows == (0,)


def test_survivor_matrix_two_letter_hole(full2):
    chain = survivor_matrix(full2, (0, 0))
    assert chain.matrix.shape == (4, 4)
    assert np.all(chain.matrix[chain.states.index((0, 0))] == 0.0)
    # Perron root of the survivor chain is (1+sqrt 5)/4.
    root = max(abs(np.linalg.eigvals(chain.matrix)))
    assert root == pytest.approx((1 + math.sqrt(5)) / 4, abs=1e-12)


def test_survival_single_letter_hole(full2):
    assert survival_measure_exact(full2, (0,), 10) == pytest.approx(2 ** -10, abs=1e-15)


def test_survival_double_letter_hole_fibonacci(full2):
    # Binary strings of length 8 avoiding "00" are F_10 = 55 of 256.
    assert survival_measure_exact(full2, (0, 0), 8) == pytest.approx(55 / 256, abs=1e-15)


def test_survival_at_zero_is_one(full2):
    assert survival_measure_exact(full2, (0, 0), 0) == 1.0
    with pytest.raises(ValueError, match=">= 0"):
        survival_measure_exact(full2, (0, 0), -1)


def test_survival_nonincreasing_and_positive(golden_mean):
    values = [survival_measure_exact(golden_mean, (0, 0), n) for n in range(0, 30)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_escape_rate_slope_matches_radius(full2):
    chain = survivor_matrix(full2, (0, 0))
    radius = max(abs(np.linalg.eigvals(chain.matrix)))
    slope = escape_rate_from_survival_slope(full2, (0, 0))
    assert slope == pytest.approx(-math.log(radius), abs=1e-6)


def test_escape_rate_slope_underflow_is_all_mass_escaped():
    # Avoiding 0 means staying on 1 with probability 1e-7 a step, so the
    # survival underflows to 0 near n = 46, inside the fit range, although
    # the hole is admissible and the refined rate is -log(1e-7).
    shift = build_markov_shift([[0.5, 0.5], [1 - 1e-7, 1e-7]])
    with pytest.raises(AllMassEscapedError, match="underflowed"):
        escape_rate_from_survival_slope(shift, (0,))


HOLE_CASES = [
    ([[0.5, 0.5], [1.0, 0.0]], (0, 1, 0, 0), 1),
    ([[0.5, 0.5], [1.0, 0.0]], (0, 0, 0), 2),
    ([[0.9, 0.1], [0.2, 0.8]], (1, 1, 0, 1, 1), 1),
    ([[0.9, 0.1], [0.2, 0.8]], (0, 1), 3),
    ([[0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [0.1, 0.6, 0.3]], (2, 0, 2), 2),
]


@pytest.mark.parametrize("transitions, hole, order", HOLE_CASES)
def test_hole_automaton_matches_the_word_chain(transitions, hole, order):
    # The automaton and the dense word chain at order max(len(hole), order)
    # share their spectral radius, and the survival DP on the automaton
    # matches mass stepped on the chain with the hole rows killed.
    shift = build_markov_shift(transitions)
    states, links = flowescape.shift._hole_automaton(shift, hole, order)
    matrix = dense(links, len(states))
    assert len(states) <= len(admissible_words(shift, order)) * len(hole)
    chain = survivor_matrix(shift, hole, order=max(len(hole), order))
    radius = float(np.abs(np.linalg.eigvals(chain.matrix)).max())
    got = float(np.abs(np.linalg.eigvals(matrix)).max())
    assert got == pytest.approx(radius, rel=1e-12, abs=0.0)
    chain = survivor_matrix(shift, hole)
    mass = np.array([cylinder_measure(shift, w) for w in chain.states])
    mass[list(chain.hole_rows)] = 0.0
    for n in range(len(hole), 40):
        assert survival_measure_exact(shift, hole, n) == pytest.approx(
            mass.sum(), rel=1e-13, abs=0.0
        )
        mass = mass @ chain.matrix
        mass[list(chain.hole_rows)] = 0.0


def test_hole_automaton_links_match_the_lexsort_form():
    """Rows sorted as they are built give the links, bit for bit, that every
    match rebuilt and put in order by ``np.lexsort`` gives, on seeded shifts
    at orders 1-3 with holes shorter and longer than the order."""
    rng = np.random.default_rng(3304)
    lengths = set()
    for _ in range(60):
        shift = random_shift(rng)
        hole = random_hole(rng, shift, max_len=5)
        for order in (1, 2, 3):
            lengths.add(np.sign(len(hole) - order))
            states, links = flowescape.shift._hole_automaton(shift, hole, order)
            want = hole_automaton_links(shift, hole, states)
            for got, ref in zip(links, want):
                assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()
    assert lengths == {-1, 0, 1}


def test_hole_automaton_past_the_cap_raises(full2):
    # The hole 0^5000 needs 5000 automaton states at order 1.
    hole = (0,) * 5000
    with pytest.raises(RefinementTooLargeError, match="automaton"):
        flowescape.shift._hole_automaton(full2, hole, 1)
    with pytest.raises(RefinementTooLargeError):
        survival_measure_exact(full2, hole, 5000)
    states, _ = flowescape.shift._hole_automaton(full2, hole[:4000], 1)
    assert len(states) == 4000


def test_escape_rate_slope_builds_one_chain(full2, monkeypatch):
    builds = []
    build = flowescape.shift._hole_automaton

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(flowescape.shift, "_hole_automaton", counting_build)
    slope = escape_rate_from_survival_slope(full2, (0, 0))
    assert len(builds) == 1
    ns = np.arange(20, 61, dtype=float)
    values = [survival_measure_exact(full2, (0, 0), int(n)) for n in ns]
    assert slope == -float(np.polyfit(ns, np.log(values), 1)[0])


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

def test_shift_json_round_trip(biased2):
    doc = {"transitions": [[0.9, 0.1], [0.2, 0.8]], "labels": ["0", "1"]}
    again = shift_from_json(json.loads(json.dumps(doc)))
    np.testing.assert_allclose(again.transitions, biased2.transitions)
    assert again.labels == biased2.labels


def test_ceiling_json_round_trip(full2):
    doc = {"order": 1, "values": {"0": 1.0, "1": 2.0}, "lattice": 1.0}
    again = ceiling_from_json(full2, json.loads(json.dumps(doc)))
    assert again.order == 1
    assert again.value((1,)) == 2.0
    assert again.lattice == 1.0


MODEL = {"transitions": [[0.5, 0.5], [0.5, 0.5]], "labels": ["0", "1"]}
CEILING = {"order": 1, "values": {"0": 1.0, "1": 2.0}, "lattice": 1.0}
# Documents of the wrong shape, each MODEL or CEILING with one field changed
# (None drops it).
BAD_MODELS = {
    "no-transitions": {"transitions": None},
    "transitions-object": {"transitions": {"a": 1}},
    "transitions-flat": {"transitions": [0.5, 0.5]},
    "entry-string": {"transitions": [[0.5, "0.5"], [0.5, 0.5]]},
    "entry-bool": {"transitions": [[True, 0], [0.5, 0.5]]},
    "entry-past-float": {"transitions": [[0.5, 0.5], [0.5, 10**400]]},
    "labels-number": {"labels": 5},
    "labels-numbers": {"labels": [0, 1]},
}
BAD_CEILINGS = {
    "no-order": {"order": None},
    "no-values": {"values": None},
    "order-null": {"order": "null"},
    "order-fraction": {"order": 1.7},
    "order-bool": {"order": True},
    "values-list": {"values": [1.0, 2.0]},
    "value-list": {"values": {"0": [1.0], "1": 2.0}},
    "value-string": {"values": {"0": "1.0", "1": 2.0}},
    "lattice-string": {"lattice": "0.25"},
}


def _changed(doc, change):
    out = dict(doc)
    for key, value in change.items():
        if value is None:
            out.pop(key)
        else:
            out[key] = None if value == "null" else value
    return out


@pytest.mark.parametrize("name", sorted(BAD_MODELS))
def test_model_document_of_the_wrong_shape_is_a_usage_error(name):
    with pytest.raises(ValueError):
        shift_from_json(_changed(MODEL, BAD_MODELS[name]))


@pytest.mark.parametrize("name", sorted(BAD_CEILINGS))
def test_ceiling_document_of_the_wrong_shape_is_a_usage_error(full2, name):
    with pytest.raises(ValueError):
        ceiling_from_json(full2, _changed(CEILING, BAD_CEILINGS[name]))


def test_documents_that_are_not_objects_are_usage_errors(full2):
    for doc in (5, [1, 2], "transitions"):
        with pytest.raises(ValueError):
            shift_from_json(doc)
        with pytest.raises(ValueError):
            ceiling_from_json(full2, doc)


def test_null_transition_entry_is_not_row_stochastic():
    # JSON null reads as NaN, which no row of a stochastic matrix holds.
    doc = json.loads('{"transitions": [[0.5, 0.5], [0.5, null]]}')
    with pytest.raises(NotRowStochasticError, match="not finite"):
        shift_from_json(doc)
