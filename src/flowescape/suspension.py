"""Suspension of a Markov shift under a positive arithmetic cylinder ceiling.

The flow moves points up at unit speed under a ceiling function phi that is
constant on cylinders of some order n and takes values in a lattice
lambda * Z. Internally the ceiling is normalized to lattice 1: each word C of
length n gets an integer height k_C = phi(C) / lambda, and the time-lambda map
becomes a finite Markov chain on blocks (C, level) with level in 0..k_C-1.
Levels below the top step up deterministically; the top level steps through the
base shift transition. This block chain is the tower over the word operator P
of the order-n words: a system stores P as links and the heights, and builds
the blocks and the dense block matrix on first read. Everything downstream
works on it and converts rates back by 1/lambda. A hole's k0, the ceiling
sum over its first m - n shifts, is read off the heights here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DimensionTooLargeError,
    EpsilonTooLargeError,
    NonArithmeticCeilingError,
    NonPositiveCeilingError,
)
from .shift import (
    _LATTICE_TOL,
    DEFAULT_STATE_CAP,
    CylinderFunction,
    MarkovShift,
    Word,
    _ceiling_values,
    _lattice_operators,
    admissible_words,
    cylinder_function,
    refine_cylinder_function,
)

Block = tuple[Word, int]


@dataclass(frozen=True, eq=False)
class SuspensionSystem:
    """Tower form of a suspension flow with an arithmetic ceiling.

    ``word_links`` is the hole-free base chain on ``words``, as read-only sorted links.
    Word i owns the ``heights[i]`` blocks from sum(heights[:i]) on, level 0
    first; ``blocks`` lists these (word, level) pairs and ``block_matrix`` is
    the row-stochastic time-lambda transition matrix on them, both built on first read.
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
    word_links: tuple[np.ndarray, np.ndarray, np.ndarray]
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
        """Levels step up by one; each top steps along ``word_links`` onto
        the level-0 blocks. Raises DimensionTooLargeError past
        ``DEFAULT_STATE_CAP`` blocks, before anything is allocated."""
        size = len(self.block_measure)
        if size > DEFAULT_STATE_CAP:
            raise DimensionTooLargeError(
                f"{size} blocks exceed the cap of {DEFAULT_STATE_CAP} for a dense block matrix"
            )
        tops = self._starts + self.heights - 1
        src, dst, p = self.word_links
        matrix = np.eye(size, k=1)
        matrix[tops] = 0.0
        matrix[tops[src], self._starts[dst]] = p
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


def _shift_heights(system: SuspensionSystem, word: Word) -> list[int]:
    """The heights of the first len(word) - order shifts of the tuple
    ``word``: entry j is the height of its n-gram at j, n the order, each
    read once through ``_word_index``."""
    n, index, heights = system.order, system._word_index, system.heights
    return [heights.item(index[word[j : j + n]]) for j in range(len(word) - n)]


def _prefix_height(system: SuspensionSystem, word: Word) -> int:
    """k0: the ceiling sum over the first len(word) - order shifts of ``word``
    (normalized lattice), 0 when the word is no longer than the order."""
    return sum(_shift_heights(system, word))


def build_suspension(
    base: MarkovShift,
    ceiling: CylinderFunction,
) -> SuspensionSystem:
    """Lay out the tower of the suspension of ``base`` under ``ceiling``.

    The ceiling is read on every admissible word of its order and nowhere
    else: a missing value raises InadmissibleWordError, a value <= 0
    NonPositiveCeilingError. It must declare a lattice, and each value must be
    k >= 1 lattice steps to within 1e-12 relative, k being the word's height
    (NonArithmeticCeilingError otherwise). Every lattice route reads its
    heights from here.
    """
    if ceiling.lattice is None:
        raise NonArithmeticCeilingError(
            "suspension needs an arithmetic ceiling with a declared lattice"
        )
    scale = float(ceiling.lattice)
    words = admissible_words(base, ceiling.order)
    heights = []
    for w, value in zip(words, _ceiling_values(ceiling, words)):
        k = round(value / scale)
        if k < 1 or abs(value - k * scale) > _LATTICE_TOL * max(1.0, abs(value)):
            raise NonArithmeticCeilingError(
                f"ceiling value {value} at word {w} is off the lattice {scale}"
            )
        heights.append(k)
    heights = np.array(heights)

    index = {w: i for i, w in enumerate(words)}
    # The word chain is the lattice-sum operator of a ceiling of height 0.
    word_links = _lattice_operators(base, dict.fromkeys(words, 0), ceiling.order, index)[0]
    # Word masses as cylinder_measure takes them, pi of the first letter times
    # P along the word from the left, one letter column at a time.
    codes = np.array(words).T
    mass = base.stationary[codes[0]]
    for a, b in zip(codes, codes[1:]):
        mass = mass * base.transitions[a, b]
    measure = np.repeat(mass, heights)
    starts = np.cumsum(heights) - heights
    for array in (heights, *word_links, measure, starts):
        array.setflags(write=False)
    return SuspensionSystem(
        base=base,
        ceiling=ceiling,
        order=ceiling.order,
        lattice_scale=scale,
        words=words,
        heights=heights,
        word_links=word_links,
        block_measure=measure,
        mass_normalized=float(measure.sum()),
        _word_index=index,
        _starts=starts,
    )


def refine_suspension(system: SuspensionSystem, new_order: int) -> SuspensionSystem:
    """Rebuild the block chain with the ceiling re-expressed at a larger order."""
    refined = refine_cylinder_function(system.base, system.ceiling, new_order)
    return build_suspension(system.base, refined)


def flow_invariant_vector(system: SuspensionSystem) -> np.ndarray:
    """Left fixed vector of the block matrix: block measures over the total mass."""
    return system.block_measure / system.mass_normalized


def rationalize_ceiling(
    ceiling: CylinderFunction, epsilon: float
) -> tuple[CylinderFunction, float]:
    """Round a ceiling onto the lattice epsilon/2, returning (psi, sup|phi - psi|).

    Every stored value is rounded; which of them must be positive is left to
    the routes that read them. An already-arithmetic ceiling is a fixed point:
    it comes back unchanged with error 0 for any epsilon. Raises
    NonPositiveCeilingError when no value is positive, and EpsilonTooLargeError
    when epsilon reaches the smallest positive value (it could round to 0).
    """
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if ceiling.lattice is not None:
        return ceiling, 0.0
    positive = [v for v in ceiling.values.values() if v > 0.0]
    if not positive:
        raise NonPositiveCeilingError("cannot rationalize a ceiling with no positive value")
    if epsilon >= min(positive):
        raise EpsilonTooLargeError(
            f"epsilon {epsilon} reaches the smallest positive ceiling value {min(positive)}"
        )
    delta = epsilon / 2.0
    rounded = {}
    worst = 0.0
    for w, v in ceiling.values.items():
        k = int(np.floor(v / delta + 0.5))
        rounded[w] = k * delta
        worst = max(worst, abs(v - k * delta))
    return cylinder_function(ceiling.order, rounded, lattice=delta), worst
