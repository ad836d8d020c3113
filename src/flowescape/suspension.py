"""Suspension of a Markov shift under a positive arithmetic cylinder ceiling.

The flow moves points up at unit speed under a ceiling function phi that is
constant on cylinders of some order n and takes values in a lattice
lambda * Z. Internally the ceiling is normalized to lattice 1: each word C of
length n gets an integer height k_C = phi(C) / lambda, and the time-lambda map
becomes a finite Markov chain on blocks (C, level) with level in 0..k_C-1.
Levels below the top step up deterministically; the top level steps through the
base shift transition. This block chain is the tower over the word operator P
of the order-n words: a system stores P and the heights, and builds the blocks
and the dense block matrix on first read. Everything downstream (open matrices,
zeta determinants, expansions) works on it and converts rates back by 1/lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    EpsilonTooLargeError,
    NonArithmeticCeilingError,
    NonPositiveCeilingError,
)
from .shift import (
    DEFAULT_STATE_CAP,
    CylinderFunction,
    MarkovShift,
    Word,
    _word_transitions,
    admissible_words,
    cylinder_function,
    cylinder_measure,
    refine_cylinder_function,
)

Block = tuple[Word, int]


@dataclass(frozen=True, eq=False)
class SuspensionSystem:
    """Tower form of a suspension flow with an arithmetic ceiling.

    ``word_matrix`` is the hole-free base chain on ``words`` (the no-hole
    ``survivor_matrix``). Word i owns the ``heights[i]`` blocks from
    sum(heights[:i]) on, level 0 first; ``blocks`` lists these (word, level)
    pairs and ``block_matrix`` is the row-stochastic time-lambda transition
    matrix on them, both derived from the tower on first read.
    ``block_measure`` holds the base cylinder measure of each block's word, so
    ``mass_normalized = sum(block_measure)`` is the integral of the normalized
    (lattice-1) ceiling and ``total_mass`` the integral of the original one.
    """

    base: MarkovShift
    ceiling: CylinderFunction
    order: int
    lattice_scale: float
    words: tuple[Word, ...]
    heights: np.ndarray
    word_matrix: np.ndarray
    block_measure: np.ndarray
    mass_normalized: float
    _word_index: dict[Word, int] = field(repr=False)
    _starts: np.ndarray = field(repr=False)

    @property
    def total_mass(self) -> float:
        """Integral of the ceiling against the base measure."""
        return self.lattice_scale * self.mass_normalized

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        return tuple((w, level) for w, k in zip(self.words, self.heights) for level in range(k))

    @cached_property
    def block_matrix(self) -> np.ndarray:
        """Levels step up by one; each top steps through ``word_matrix`` onto
        the level-0 blocks."""
        tops = self._starts + self.heights - 1
        matrix = np.eye(len(self.block_measure), k=1)
        matrix[tops] = 0.0
        matrix[tops[:, None], self._starts] = self.word_matrix
        matrix.setflags(write=False)
        return matrix

    def height_of(self, word: Word) -> int:
        """Integer (normalized) ceiling height over the order-n cylinder of ``word``."""
        idx = self._word_index.get(tuple(word[: self.order]))
        if idx is None:
            raise KeyError(f"word {word} is not a state of this suspension")
        return int(self.heights[idx])

    def block_index(self, word: Word, level: int) -> int:
        idx = self._word_index.get(tuple(word))
        if idx is None or not 0 <= int(level) < self.heights.item(idx):
            raise KeyError(f"block ({word}, {level}) is not in this suspension")
        return self._starts.item(idx) + int(level)


def build_suspension(
    base: MarkovShift,
    ceiling: CylinderFunction,
    cap: int = DEFAULT_STATE_CAP,
) -> SuspensionSystem:
    """Lay out the tower of the suspension of ``base`` under ``ceiling``.

    The ceiling must declare a lattice (NonArithmeticCeilingError otherwise)
    and be strictly positive on every admissible word (NonPositiveCeilingError).
    """
    if ceiling.lattice is None:
        raise NonArithmeticCeilingError(
            "suspension needs an arithmetic ceiling with a declared lattice"
        )
    scale = float(ceiling.lattice)
    words = admissible_words(base, ceiling.order, cap=cap)
    heights = np.zeros(len(words), dtype=int)
    for i, w in enumerate(words):
        value = ceiling.value(w)
        if value <= 0.0:
            raise NonPositiveCeilingError(f"ceiling value {value} at word {w} is not positive")
        k = int(round(value / scale))
        if k < 1 or abs(value - k * scale) > 1e-9 * max(1.0, abs(value)):
            raise NonArithmeticCeilingError(
                f"ceiling value {value} at word {w} is off the lattice {scale}"
            )
        heights[i] = k

    word_matrix = _word_transitions(base, words)
    measure = np.repeat([cylinder_measure(base, w) for w in words], heights)
    starts = np.cumsum(heights) - heights
    for array in (heights, word_matrix, measure, starts):
        array.setflags(write=False)
    return SuspensionSystem(
        base=base,
        ceiling=ceiling,
        order=ceiling.order,
        lattice_scale=scale,
        words=words,
        heights=heights,
        word_matrix=word_matrix,
        block_measure=measure,
        mass_normalized=float(measure.sum()),
        _word_index={w: i for i, w in enumerate(words)},
        _starts=starts,
    )


def refine_suspension(
    system: SuspensionSystem, new_order: int, cap: int = DEFAULT_STATE_CAP
) -> SuspensionSystem:
    """Rebuild the block chain with the ceiling re-expressed at a larger order."""
    refined = refine_cylinder_function(system.base, system.ceiling, new_order, cap=cap)
    return build_suspension(system.base, refined, cap=cap)


def flow_invariant_vector(system: SuspensionSystem) -> np.ndarray:
    """Left fixed vector of the block matrix: block measures over the total mass."""
    return system.block_measure / system.mass_normalized


def rationalize_ceiling(
    ceiling: CylinderFunction, epsilon: float
) -> tuple[CylinderFunction, float]:
    """Round a ceiling onto the lattice epsilon/2, returning (psi, sup|phi - psi|).

    An already-arithmetic ceiling is a fixed point: it comes back unchanged
    with error 0 for any epsilon. Raises EpsilonTooLargeError when epsilon
    reaches the infimum of the ceiling (the rounded ceiling could vanish).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if ceiling.lattice is not None:
        return ceiling, 0.0
    if min(ceiling.values.values()) <= 0.0:
        raise NonPositiveCeilingError("cannot rationalize a ceiling with nonpositive values")
    if epsilon >= min(ceiling.values.values()):
        raise EpsilonTooLargeError(
            f"epsilon {epsilon} reaches the ceiling infimum {min(ceiling.values.values())}"
        )
    delta = epsilon / 2.0
    rounded = {}
    worst = 0.0
    for w, v in ceiling.values.items():
        k = int(np.floor(v / delta + 0.5))
        rounded[w] = k * delta
        worst = max(worst, abs(v - k * delta))
    return cylinder_function(ceiling.order, rounded, lattice=delta), worst
