"""Suspension of a Markov shift under a positive arithmetic cylinder ceiling.

The flow moves points up at unit speed under a ceiling function phi that is
constant on cylinders of some order n and takes values in a lattice
lambda * Z. Internally the ceiling is normalized to lattice 1: each word C of
length n gets an integer height k_C = phi(C) / lambda, and the time-lambda map
becomes a finite Markov chain on blocks (C, level) with level in 0..k_C-1.
Levels below the top step up deterministically; the top level steps through the
base shift transition. This block chain is the tower over the word operator P
of the order-n words. A system stores only what ``build_suspension``
validates, the words, their heights and the lattice; P as links, the block
measure and the dense block chain are derived from them on first read.
Everything downstream works on it and converts rates back by 1/lambda. A
hole's k0, the ceiling sum over its first m - n shifts, is read off the
heights here.
"""

from __future__ import annotations

import math
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


class _FirstRead:
    """A form of a system that ``_derived_forms`` builds, together with the
    others, on the first read of any of them. As a non-data descriptor it is
    shadowed by the instance dict that holds them from then on, so later
    reads are plain attribute reads, without the lock that ``cached_property``
    takes on every first read before Python 3.12."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, system, owner=None):
        if system is None:
            return self
        system.__dict__.update(_derived_forms(system))
        return system.__dict__[self.name]


@dataclass(frozen=True, eq=False)
class SuspensionSystem:
    """Tower form of a suspension flow with an arithmetic ceiling.

    A system stores what ``build_suspension`` validates: the order-n
    ``words``, their integer ``heights`` with their sum, the word index, the
    order and the lattice. Word i owns the ``heights[i]`` blocks from
    sum(heights[:i]) on, level 0 first. The other forms are derived on first
    read, read-only, and kept. ``word_links``, ``block_measure``,
    ``mass_normalized`` and the first block of each word are derived in one
    step, since the routes that read one of them read the others:

    - ``word_links`` is the hole-free base chain on ``words``, as sorted links;
    - ``block_measure`` holds the base cylinder measure of each block's word,
      so ``mass_normalized = sum(block_measure)`` is the integral of the
      normalized (lattice-1) ceiling and ``total_mass`` the integral of the
      original one.

    ``blocks`` lists the (word, level) pairs and ``block_matrix`` is the
    row-stochastic time-lambda transition matrix on them, each built on its
    own first read.
    """

    base: MarkovShift
    ceiling: CylinderFunction
    order: int
    lattice_scale: float
    words: tuple[Word, ...]
    heights: np.ndarray
    _word_index: dict[Word, int] = field(repr=False)
    _block_count: int = field(repr=False)

    word_links = _FirstRead()
    block_measure = _FirstRead()
    mass_normalized = _FirstRead()
    _starts = _FirstRead()

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
        size = self._block_count
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
    (NonArithmeticCeilingError otherwise, also where value / lattice
    overflows the float range). Every lattice route reads its heights from
    here. The system keeps only the words, heights and lattice; the forms
    that ``SuspensionSystem`` lists as derived are built on first read.
    """
    if ceiling.lattice is None:
        raise NonArithmeticCeilingError(
            "suspension needs an arithmetic ceiling with a declared lattice"
        )
    scale = float(ceiling.lattice)
    words = admissible_words(base, ceiling.order)
    heights = []
    for w, value in zip(words, _ceiling_values(ceiling, words)):
        try:
            k = round(value / scale)
        except OverflowError:
            raise NonArithmeticCeilingError(
                f"ceiling value {value} at word {w} overflows in steps of the lattice {scale}"
            ) from None
        if k < 1 or abs(value - k * scale) > _LATTICE_TOL * max(1.0, abs(value)):
            raise NonArithmeticCeilingError(
                f"ceiling value {value} at word {w} is off the lattice {scale}"
            )
        heights.append(k)
    count = sum(heights)
    heights = np.array(heights)
    heights.setflags(write=False)
    return SuspensionSystem(
        base=base,
        ceiling=ceiling,
        order=ceiling.order,
        lattice_scale=scale,
        words=words,
        heights=heights,
        _word_index={w: i for i, w in enumerate(words)},
        _block_count=count,
    )


def _derived_forms(system: SuspensionSystem) -> dict:
    """The forms of ``system`` that ``_FirstRead`` names, every array read-only."""
    base, words, heights = system.base, system.words, system.heights
    # The word chain is the lattice-sum operator of a ceiling of height 0.
    word_links = _lattice_operators(
        base, dict.fromkeys(words, 0), system.order, system._word_index
    )[0]
    # Word masses as cylinder_measure takes them, pi of the first letter times
    # P along the word from the left, one letter column at a time.
    codes = np.array(words).T
    mass = base.stationary[codes[0]]
    for a, b in zip(codes, codes[1:]):
        mass = mass * base.transitions[a, b]
    measure = np.repeat(mass, heights)
    starts = np.cumsum(heights) - heights
    for array in (*word_links, measure, starts):
        array.setflags(write=False)
    return {
        "word_links": word_links,
        "block_measure": measure,
        "mass_normalized": float(measure.sum()),
        "_starts": starts,
    }


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

    Every finite stored value is rounded, and the error is taken over them;
    a value that is not finite is carried through unrounded. Which values
    must be positive and finite is left to the routes that read them, which
    raise NonPositiveCeilingError. An already-arithmetic ceiling is a fixed
    point: it comes back unchanged with error 0 for any epsilon. Raises
    ValueError unless epsilon > 0, NonPositiveCeilingError when no value is
    positive, EpsilonTooLargeError when epsilon reaches the smallest
    positive value (it could round to 0), and NonArithmeticCeilingError
    where a finite value's index v / (epsilon/2) overflows the float range.
    """
    if not epsilon > 0.0:
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
        if not math.isfinite(v):
            rounded[w] = v
            continue
        try:
            k = int(np.floor(v / delta + 0.5))
        # delta is 0.0 where epsilon/2 underflows: every index overflows.
        except (OverflowError, ZeroDivisionError):
            raise NonArithmeticCeilingError(
                f"ceiling value {v} at word {w} overflows in steps of the lattice {delta}"
            ) from None
        rounded[w] = k * delta
        worst = max(worst, abs(v - k * delta))
    return cylinder_function(ceiling.order, rounded, lattice=delta), worst
