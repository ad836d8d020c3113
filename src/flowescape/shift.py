"""Finite-alphabet Markov shifts: admissible words, cylinder measures,
cylinder functions, Birkhoff sums, and exact survival through a cylinder hole.

Every exact word-level DP runs on one of two kernels here: the survival curve
and the lattice-sum DP over (suffix word, integer ceiling sum).

A shift is described by a row-stochastic, irreducible transition matrix P over
symbols 0..S-1 together with its stationary vector pi. Words are tuples of
symbol indices; the cylinder [a_1..a_k] has measure pi(a_1) * prod p(a_i, a_{i+1}).
All heavier machinery (suspensions, open systems, zeta determinants) builds on
the primitives here.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    InadmissibleWordError,
    NoConvergenceError,
    NonArithmeticCeilingError,
    NonPositiveCeilingError,
    NotIrreducibleError,
    NotRowStochasticError,
    RefinementTooLargeError,
    WordTooShortError,
)

Word = tuple[int, ...]

#: Hard cap on the number of refined word-states dense routines will build.
DEFAULT_STATE_CAP = 4096

_ROW_SUM_TOL = 1e-9
_STATIONARY_TOL = 1e-12


# ===========================================================================
# Markov shifts
# ===========================================================================

@dataclass(frozen=True, eq=False)
class MarkovShift:
    """Irreducible Markov measure on a finite-alphabet shift space.

    ``transitions`` is row-stochastic, ``stationary`` is its unique invariant
    probability vector, and ``labels`` names the symbols for parsing and
    serialization. Arrays are read-only after construction.
    """

    transitions: np.ndarray
    stationary: np.ndarray
    labels: tuple[str, ...]

    @property
    def alphabet_size(self) -> int:
        return self.transitions.shape[0]

    def successors(self, symbol: int) -> tuple[int, ...]:
        """Symbols b with p(symbol, b) > 0."""
        return tuple(int(b) for b in np.nonzero(self.transitions[symbol] > 0.0)[0])

    def is_admissible(self, word: Word) -> bool:
        """True when the cylinder [word] has positive measure."""
        if len(word) == 0:
            return True
        if any(a < 0 or a >= self.alphabet_size for a in word):
            return False
        return all(self.transitions[a, b] > 0.0 for a, b in zip(word, word[1:]))


def _stationary_vector(transitions: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by LU, falling back to power iteration."""
    size = transitions.shape[0]
    system = transitions.T - np.eye(size)
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError:
        pi = np.full(size, np.nan)
    if not np.all(np.isfinite(pi)) or pi.min() < -1e-10:
        pi = np.full(size, 1.0 / size)
        for _ in range(1_000_000):
            nxt = pi @ transitions
            if np.abs(nxt - pi).max() <= 1e-16:
                pi = nxt
                break
            pi = nxt
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(pi @ transitions - pi).max()
    if residual > _STATIONARY_TOL:
        raise NoConvergenceError(
            f"stationary vector residual {residual:.3e} exceeds {_STATIONARY_TOL:.0e}"
        )
    return pi


def _is_strongly_connected(adjacency: np.ndarray) -> bool:
    reach = adjacency | np.eye(adjacency.shape[0], dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(adjacency.shape[0] + 1))) + 1)):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def build_markov_shift(
    transitions: "np.ndarray | list[list[float]]",
    labels: "tuple[str, ...] | list[str] | None" = None,
) -> MarkovShift:
    """Validate a transition matrix and package it with its stationary vector.

    Raises NotRowStochasticError when a row sum is off by more than 1e-9 or an
    entry is negative, and NotIrreducibleError when the positive-entry digraph
    is not strongly connected.
    """
    mat = np.array(transitions, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise NotRowStochasticError(f"transition matrix must be square, got shape {mat.shape}")
    if mat.min() < 0.0:
        raise NotRowStochasticError("transition matrix has negative entries")
    row_err = np.abs(mat.sum(axis=1) - 1.0).max()
    if row_err > _ROW_SUM_TOL:
        raise NotRowStochasticError(
            f"row sums deviate from 1 by {row_err:.3e} (tolerance {_ROW_SUM_TOL:.0e})"
        )
    if not _is_strongly_connected(mat > 0.0):
        raise NotIrreducibleError("transition digraph is not strongly connected")
    if labels is None:
        labels = tuple(str(i) for i in range(mat.shape[0]))
    else:
        labels = tuple(str(lab) for lab in labels)
    if len(labels) != mat.shape[0]:
        raise ValueError(f"expected {mat.shape[0]} labels, got {len(labels)}")
    if len(set(labels)) != len(labels):
        raise ValueError("symbol labels must be unique")
    pi = _stationary_vector(mat)
    mat.setflags(write=False)
    pi.setflags(write=False)
    return MarkovShift(transitions=mat, stationary=pi, labels=labels)


# ===========================================================================
# Words
# ===========================================================================

def parse_word(shift: MarkovShift, text: str) -> Word:
    """Parse a word from label text.

    When every label is a single character the text is read one character per
    symbol (``"010"``); otherwise symbols are comma-separated. Unknown symbols
    raise ValueError (a usage error, not a domain error).
    """
    index = {lab: i for i, lab in enumerate(shift.labels)}
    if all(len(lab) == 1 for lab in shift.labels):
        parts = list(text)
    else:
        parts = [p.strip() for p in text.split(",")]
    word = []
    for part in parts:
        if part not in index:
            raise ValueError(f"unknown symbol {part!r}; labels are {list(shift.labels)}")
        word.append(index[part])
    return tuple(word)


def format_word(shift: MarkovShift, word: Word) -> str:
    sep = "" if all(len(lab) == 1 for lab in shift.labels) else ","
    return sep.join(shift.labels[a] for a in word)


def cylinder_measure(shift: MarkovShift, word: Word) -> float:
    """Measure of the cylinder [word]; 1.0 for the empty word.

    Raises InadmissibleWordError when the word uses a forbidden transition or
    an out-of-range symbol.
    """
    if len(word) == 0:
        return 1.0
    if any(a < 0 or a >= shift.alphabet_size for a in word):
        raise InadmissibleWordError(f"word {word} has symbols outside the alphabet")
    measure = float(shift.stationary[word[0]])
    for a, b in zip(word, word[1:]):
        measure *= float(shift.transitions[a, b])
    if measure <= 0.0:
        raise InadmissibleWordError(f"word {word} contains a forbidden transition")
    return measure


def is_reduced(shift: MarkovShift, word: Word) -> bool:
    """True when the last letter can be swapped for a different admissible one.

    A word a_1..a_m is reduced when some a' != a_m keeps (a_1..a_{m-1}, a')
    admissible. Length-1 words are reduced exactly when the alphabet has a
    second symbol.
    """
    if len(word) == 0:
        raise WordTooShortError("the empty word has no last letter to reduce")
    if not shift.is_admissible(word):
        raise InadmissibleWordError(f"word {word} is not admissible")
    last = word[-1]
    if len(word) == 1:
        return shift.alphabet_size >= 2
    prev = word[-2]
    return any(
        b != last and shift.transitions[prev, b] > 0.0
        for b in range(shift.alphabet_size)
    )


def admissible_words(
    shift: MarkovShift, length: int, cap: int = DEFAULT_STATE_CAP
) -> tuple[Word, ...]:
    """All admissible words of the given length, in lexicographic order.

    Raises RefinementTooLargeError when the alphabet power exceeds ``cap``.
    """
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    if shift.alphabet_size ** length > cap:
        raise RefinementTooLargeError(
            f"{shift.alphabet_size}^{length} words exceeds the cap of {cap} states"
        )
    words: list[Word] = [(a,) for a in range(shift.alphabet_size)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in shift.successors(w[-1])]
    return tuple(words)


# ===========================================================================
# Cylinder functions
# ===========================================================================

@dataclass(frozen=True)
class CylinderFunction:
    """Function of the first ``order`` coordinates, given by per-word values.

    ``lattice`` is set only when every value is an integer multiple of it;
    arithmetic machinery (suspensions, pressure windows) requires it.
    """

    order: int
    values: Mapping[Word, float]
    lattice: "float | None" = None

    def value(self, word: Word) -> float:
        """Value on the cylinder containing ``word`` (reads the first ``order`` letters)."""
        if len(word) < self.order:
            raise WordTooShortError(
                f"word of length {len(word)} is shorter than the function order {self.order}"
            )
        key = tuple(word[: self.order])
        try:
            return self.values[key]
        except KeyError:
            raise InadmissibleWordError(f"no value stored for word {key}") from None

    @property
    def sup_value(self) -> float:
        return max(self.values.values())

    @property
    def inf_value(self) -> float:
        return min(self.values.values())


def cylinder_function(
    order: int,
    values: Mapping[Word, float],
    lattice: "float | None" = None,
) -> CylinderFunction:
    """Build a CylinderFunction, checking the lattice claim when one is given."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not values:
        raise ValueError("a cylinder function needs at least one value")
    clean = {tuple(w): float(v) for w, v in values.items()}
    if any(len(w) != order for w in clean):
        raise ValueError(f"all value keys must be words of length {order}")
    if lattice is not None:
        if lattice <= 0.0:
            raise NonArithmeticCeilingError(f"lattice must be positive, got {lattice}")
        for w, v in clean.items():
            nearest = lattice * round(v / lattice)
            if abs(v - nearest) > 1e-12 * max(1.0, abs(v)):
                raise NonArithmeticCeilingError(
                    f"value {v} at word {w} is not a multiple of the lattice {lattice}"
                )
    return CylinderFunction(order=order, values=dict(clean), lattice=lattice)


def constant_function(shift: MarkovShift, value: float) -> CylinderFunction:
    """Order-1 cylinder function equal to ``value`` on every symbol."""
    return cylinder_function(
        1,
        {(a,): value for a in range(shift.alphabet_size)},
        lattice=abs(value) if value != 0.0 else None,
    )


def refine_cylinder_function(
    shift: MarkovShift,
    func: CylinderFunction,
    new_order: int,
    cap: int = DEFAULT_STATE_CAP,
) -> CylinderFunction:
    """Re-express ``func`` on cylinders of a larger order (values unchanged)."""
    if new_order < func.order:
        raise ValueError(f"cannot refine order {func.order} down to {new_order}")
    if new_order == func.order:
        return func
    values = {w: func.value(w) for w in admissible_words(shift, new_order, cap=cap)}
    return cylinder_function(new_order, values, lattice=func.lattice)


def birkhoff_sum(func: CylinderFunction, word: Word, steps: int) -> float:
    """Sum of ``func`` along the first ``steps`` shifts of ``word``.

    The word must carry enough letters for every window:
    len(word) >= steps + order - 1.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if steps == 0:
        return 0.0
    if len(word) < steps + func.order - 1:
        raise WordTooShortError(
            f"need {steps + func.order - 1} letters for {steps} windows, got {len(word)}"
        )
    return float(sum(func.value(word[j:]) for j in range(steps)))


def birkhoff_sum_cyclic(func: CylinderFunction, word: Word) -> float:
    """Birkhoff sum over one full period of the periodic point word^infinity."""
    period = len(word)
    if period < 1:
        raise WordTooShortError("cyclic sum needs a nonempty word")
    extended = tuple(word[i % period] for i in range(period + func.order - 1))
    return birkhoff_sum(func, extended, period)


# ===========================================================================
# Survivor chains, exact survival and the two exact DP kernels
# ===========================================================================

@dataclass(frozen=True, eq=False)
class SurvivorMatrix:
    """Transition matrix over word-states with hole rows zeroed.

    ``states`` lists the admissible words of the chosen order in lexicographic
    order; ``matrix`` is the base transition matrix on those states with every
    row starting with the hole word set to zero (``hole_rows``). With no hole
    the matrix is plain row-stochastic.
    """

    states: tuple[Word, ...]
    matrix: np.ndarray
    hole: "Word | None"
    hole_rows: tuple[int, ...] = field(default=())


def survivor_matrix(
    shift: MarkovShift,
    hole: "Word | None",
    order: "int | None" = None,
    cap: int = DEFAULT_STATE_CAP,
) -> SurvivorMatrix:
    """Word-level transition matrix with rows inside the hole cylinder zeroed.

    ``order`` defaults to the hole length (1 with no hole) and must be at least
    the hole length so the hole is a union of states.
    """
    hole_word: "Word | None" = tuple(hole) if hole is not None and len(hole) > 0 else None
    if hole_word is not None and not shift.is_admissible(hole_word):
        raise InadmissibleWordError(f"hole word {hole_word} is not admissible")
    min_order = len(hole_word) if hole_word is not None else 1
    if order is None:
        order = min_order
    if order < min_order:
        raise ValueError(f"order {order} is smaller than the hole length {min_order}")
    states = admissible_words(shift, order, cap=cap)
    mat = _word_transitions(shift, states)
    hole_rows: tuple[int, ...] = ()
    if hole_word is not None:
        hole_rows = tuple(
            i for i, w in enumerate(states) if w[: len(hole_word)] == hole_word
        )
        mat[list(hole_rows), :] = 0.0
    mat.setflags(write=False)
    return SurvivorMatrix(states=states, matrix=mat, hole=hole_word, hole_rows=hole_rows)


def _word_transitions(shift: MarkovShift, states: tuple[Word, ...]) -> np.ndarray:
    """Hole-free P on ``states`` (all admissible words of one length, in
    lexicographic order): p(last, b) from each word w to w[1:] + (b,)."""
    index = {w: i for i, w in enumerate(states)}
    mat = np.zeros((len(states), len(states)))
    for i, w in enumerate(states):
        for b in shift.successors(w[-1]):
            mat[i, index[w[1:] + (b,)]] = shift.transitions[w[-1], b]
    return mat


def escape_rate_from_survival_slope(
    shift: MarkovShift, hole: Word, n_lo: int = 20, n_hi: int = 60
) -> float:
    """Escape rate of the base map as the least-squares slope of -log survival.

    Fits log(survival(n)) against n over [n_lo, n_hi]; with a spectral gap the
    tail is exactly geometric, so the slope recovers -log(radius). Serves as
    an arithmetic-free cross-check on the spectral routes.
    """
    if not (0 < n_lo < n_hi):
        raise ValueError(f"need 0 < n_lo < n_hi, got ({n_lo}, {n_hi})")
    ns = np.arange(n_lo, n_hi + 1, dtype=float)
    values = _survival_by_length(shift, hole, n_hi)[n_lo:]
    if values.min() <= 0.0:
        raise InadmissibleWordError("survival hit zero inside the fit range")
    slope = np.polyfit(ns, np.log(values), 1)[0]
    return -float(slope)


def survival_measure_exact(shift: MarkovShift, hole: Word, n: int) -> float:
    """Measure of {x : none of the first n letters starts a copy of the hole word}.

    Equivalently, the stationary mass of n-cylinders whose word avoids the hole
    word as a substring. For n below the hole length nothing can have escaped,
    so the survival is exactly 1.
    """
    return float(_survival_by_length(shift, hole, n)[n])


def _survival_by_length(shift: MarkovShift, hole: Word, n: int) -> np.ndarray:
    """Survival for every length 0..n, from one pass of the survival kernel."""
    hole_word = tuple(hole)
    if len(hole_word) == 0:
        raise WordTooShortError("hole word must be nonempty")
    if not shift.is_admissible(hole_word):
        raise InadmissibleWordError(f"hole word {hole_word} is not admissible")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    m = len(hole_word)
    if n < m:
        return np.ones(n + 1)
    chain = survivor_matrix(shift, hole_word)
    mass = np.array([cylinder_measure(shift, w) for w in chain.states])
    return _survival_curve(mass, chain.matrix, chain.hole_rows, m, n - m + 1)


def _survival_curve(mass, matrix, hole_rows, lead: int, length: int, heights=None) -> np.ndarray:
    """Survival kernel: ``lead`` ones, then ``length`` rounds of zeroing the mass
    on the level-0 blocks of the words ``hole_rows``, recording the total and
    stepping it. ``mass`` lies on the tower of ``heights`` (default 1) blocks
    per word of ``matrix``, level 0 first: a step moves every level up one and
    sends the tops through ``matrix`` onto level 0."""
    if heights is None:
        heights = np.ones(len(matrix), dtype=int)
    tops = np.cumsum(heights) - 1
    starts = tops - heights + 1
    killer = np.ones(len(mass))
    killer[starts[list(hole_rows)]] = 0.0
    out = np.ones(lead + length)
    for t in range(lead, lead + length):
        mass = mass * killer
        out[t] = mass.sum()
        climbed = mass[tops] @ matrix
        mass[1:] = mass[:-1]
        mass[starts] = climbed
    return out


def _integer_heights(ceiling: CylinderFunction) -> dict[Word, int]:
    if ceiling.lattice is None:
        raise NonArithmeticCeilingError("this estimator needs an arithmetic ceiling")
    heights = {}
    for w, v in ceiling.values.items():
        if v <= 0.0:
            raise NonPositiveCeilingError(f"ceiling value {v} at word {w} is not positive")
        heights[w] = int(round(v / ceiling.lattice))
    return heights


def _lattice_links(shift: MarkovShift, heights, order: int, index, hole=None) -> list[tuple]:
    """Links (i, j, g, p) of the lattice-sum DP over (suffix word, integer ceiling sum):
    suffix i plus letter b, minus its first letter, is suffix j; g is the height of its
    last window and p = p(last, b). Extensions ending in ``hole`` are dropped."""
    links = []
    for w, i in index.items():
        for b in shift.successors(w[-1]):
            extended = w + (b,)
            if hole is not None and extended[-len(hole) :] == hole:
                continue
            prob = float(shift.transitions[w[-1], b])
            links.append((i, index[extended[1:]], heights[extended[-order:]], prob))
    return links


def _lattice_step(dist: np.ndarray, links: list[tuple]) -> np.ndarray:
    """One letter of the lattice-sum DP; sums pushed past the last column drop out."""
    width = dist.shape[1]
    new = np.zeros_like(dist)
    for i, j, g, p in links:
        if g < width:
            new[j, g:] += p * dist[i, : width - g]
    return new


# ===========================================================================
# JSON forms
# ===========================================================================

def shift_to_json(shift: MarkovShift) -> dict:
    return {
        "transitions": [[float(v) for v in row] for row in shift.transitions],
        "labels": list(shift.labels),
    }


def shift_from_json(doc: Mapping) -> MarkovShift:
    if "transitions" not in doc:
        raise ValueError('model document needs a "transitions" key')
    return build_markov_shift(doc["transitions"], labels=doc.get("labels"))


def load_model(path: "str | Path") -> MarkovShift:
    with open(path, encoding="utf-8") as fh:
        return shift_from_json(json.load(fh))


def ceiling_to_json(shift: MarkovShift, func: CylinderFunction) -> dict:
    return {
        "order": func.order,
        "values": {format_word(shift, w): float(v) for w, v in sorted(func.values.items())},
        "lattice": func.lattice,
    }


def ceiling_from_json(shift: MarkovShift, doc: Mapping) -> CylinderFunction:
    for key in ("order", "values"):
        if key not in doc:
            raise ValueError(f'ceiling document needs a "{key}" key')
    values = {parse_word(shift, text): float(v) for text, v in doc["values"].items()}
    return cylinder_function(int(doc["order"]), values, lattice=doc.get("lattice"))


def load_ceiling(shift: MarkovShift, path: "str | Path") -> CylinderFunction:
    with open(path, encoding="utf-8") as fh:
        return ceiling_from_json(shift, json.load(fh))
