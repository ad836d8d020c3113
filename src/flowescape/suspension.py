"""Suspension of a Markov shift under a positive arithmetic cylinder ceiling.

The flow moves points up at unit speed under a ceiling function phi that is
constant on cylinders of some order n and takes values in a lattice
lambda * Z. Internally the ceiling is normalized to lattice 1: each word C of
length n gets an integer height k_C = phi(C) / lambda, and the time-lambda map
becomes a finite Markov chain on blocks (C, level) with level in 0..k_C-1.
Levels below the top step up deterministically; the top level steps through the
base shift transition. Everything downstream (open matrices, zeta determinants,
expansions) works on this block chain and converts rates back by 1/lambda.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    admissible_words,
    cylinder_function,
    cylinder_measure,
    refine_cylinder_function,
)

Block = tuple[Word, int]


@dataclass(frozen=True, eq=False)
class SuspensionSystem:
    """Block-chain form of a suspension flow with an arithmetic ceiling.

    ``blocks`` lists (word, level) pairs lexicographically by word then level;
    ``block_matrix`` is the row-stochastic time-lambda transition matrix on
    them. ``block_measure`` holds the base cylinder measure of each block's
    word, so ``mass_normalized = sum(block_measure)`` is the integral of the
    normalized (lattice-1) ceiling and ``total_mass`` the integral of the
    original one.
    """

    base: MarkovShift
    ceiling: CylinderFunction
    order: int
    lattice_scale: float
    words: tuple[Word, ...]
    heights: np.ndarray
    blocks: tuple[Block, ...]
    block_matrix: np.ndarray
    block_measure: np.ndarray
    mass_normalized: float
    _word_index: dict[Word, int] = field(repr=False)
    _block_index: dict[Block, int] = field(repr=False)

    @property
    def total_mass(self) -> float:
        """Integral of the ceiling against the base measure."""
        return self.lattice_scale * self.mass_normalized

    def height_of(self, word: Word) -> int:
        """Integer (normalized) ceiling height over the order-n cylinder of ``word``."""
        idx = self._word_index.get(tuple(word[: self.order]))
        if idx is None:
            raise KeyError(f"word {word} is not a state of this suspension")
        return int(self.heights[idx])

    def block_index(self, word: Word, level: int) -> int:
        idx = self._block_index.get((tuple(word), int(level)))
        if idx is None:
            raise KeyError(f"block ({word}, {level}) is not in this suspension")
        return idx


def build_suspension(
    base: MarkovShift,
    ceiling: CylinderFunction,
    cap: int = DEFAULT_STATE_CAP,
) -> SuspensionSystem:
    """Assemble the block chain of the suspension of ``base`` under ``ceiling``.

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

    blocks: list[Block] = []
    for w, k in zip(words, heights):
        blocks.extend((w, level) for level in range(int(k)))
    index = {blk: i for i, blk in enumerate(blocks)}
    word_pos = {w: i for i, w in enumerate(words)}

    matrix = np.zeros((len(blocks), len(blocks)))
    measure = np.zeros(len(blocks))
    for i, (w, level) in enumerate(blocks):
        measure[i] = cylinder_measure(base, w)
        if level < int(heights[word_pos[w]]) - 1:
            matrix[i, index[(w, level + 1)]] = 1.0
        else:
            for b in base.successors(w[-1]):
                nxt = w[1:] + (b,)
                matrix[i, index[(nxt, 0)]] = base.transitions[w[-1], b]

    heights.setflags(write=False)
    matrix.setflags(write=False)
    measure.setflags(write=False)
    return SuspensionSystem(
        base=base,
        ceiling=ceiling,
        order=ceiling.order,
        lattice_scale=scale,
        words=words,
        heights=heights,
        blocks=tuple(blocks),
        block_matrix=matrix,
        block_measure=measure,
        mass_normalized=float(measure.sum()),
        _word_index=word_pos,
        _block_index=index,
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
