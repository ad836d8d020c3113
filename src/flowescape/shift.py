"""Finite-alphabet Markov shifts: admissible words, cylinder measures,
cylinder functions, and exact survival through a cylinder hole.

Every exact word-level DP runs on one of two kernels here: the survival curve
and the lattice-sum DP over (word, integer ceiling sum), whose links are
grouped into one operator per gain of the sum. The lattice-sum words
are all suffixes of one length, or, for the truncated pressure, every
hole-avoiding word up to that length, so words shorter than it are their own
states. The survival DP, the refined rate and the pressure root run on the
hole's pattern automaton: (last letters, Knuth-Morris-Pratt match) states,
linear in the hole length, where the word chain has one state per word. Each
chain is kept as links (src, dst, p), sorted by (src, dst). The survival
kernel kills nothing itself: mass dies only on the links its operator lacks.

A shift is described by a row-stochastic, irreducible transition matrix P over
symbols 0..S-1 together with its stationary vector pi. Words are tuples of
symbol indices; the cylinder [a_1..a_k] has measure pi(a_1) * prod p(a_i, a_{i+1}).
All heavier machinery (suspensions, open systems, zeta determinants) builds on
the primitives here.
"""

from __future__ import annotations

import json
import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    AllMassEscapedError,
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

#: Hard cap on the states of a word chain or hole automaton and on the blocks
#: of a dense matrix. It counts the admissible words of the refined length,
#: not alphabet powers, and it is a constant, not a parameter.
DEFAULT_STATE_CAP = 4096

_ROW_SUM_TOL = 1e-9
_STATIONARY_TOL = 1e-12
_LATTICE_TOL = 1e-12  # relative to max(1, |value|), for every lattice check
_SLOPE_N_LO = 20  # the slope route fits log survival(n) for n in [lo, hi]
_SLOPE_N_HI = 60


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

    @cached_property
    def _successor_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            tuple(int(b) for b in np.nonzero(row > 0.0)[0]) for row in self.transitions
        )

    def successors(self, symbol: int) -> tuple[int, ...]:
        """Symbols b with p(symbol, b) > 0, read from a table built on first use."""
        return self._successor_table[symbol]

    def is_admissible(self, word: Word) -> bool:
        """True when the cylinder [word] has positive measure."""
        if len(word) == 0:
            return True
        size = self.alphabet_size
        if any(a < 0 or a >= size for a in word):
            return False
        table = self._successor_table
        return all(b in table[a] for a, b in zip(word, word[1:]))


def _stationary_vector(transitions: np.ndarray) -> np.ndarray:
    """Solve pi P = pi, sum(pi) = 1 by LU; NoConvergenceError at once where the
    system is singular or pi has an entry not finite or below -1e-10.

    The residual |pi P - pi| may exceed 1e-12 by the largest |row sum - 1|:
    pi P - pi sums to sum_i pi_i (row sum_i - 1), so an exact solution on
    rows off 1 carries that much residual."""
    size = transitions.shape[0]
    system = transitions.T - np.eye(size)
    system[-1, :] = 1.0
    rhs = np.zeros(size)
    rhs[-1] = 1.0
    try:
        pi = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as error:
        raise NoConvergenceError(f"stationary system is singular: {error}") from None
    if not np.all(np.isfinite(pi)) or pi.min() < -1e-10:
        worst = int(np.argmin(np.where(np.isfinite(pi), pi, -np.inf)))
        raise NoConvergenceError(
            f"LU stationary vector has pi[{worst}] = {float(pi[worst])!r}, "
            "not finite or below -1e-10"
        )
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    residual = np.abs(pi @ transitions - pi).max()
    tol = _STATIONARY_TOL + np.abs(transitions.sum(axis=1) - 1.0).max()
    if residual > tol:
        raise NoConvergenceError(f"stationary vector residual {residual:.3e} exceeds {tol:.3e}")
    return pi


def _strongly_connected_components(size: int, src, dst) -> list[list[int]]:
    """Tarjan's algorithm over sorted edges, iterative to survive large graphs."""
    succ: list[list[int]] = [[] for _ in range(size)]
    for a, b in zip(src.tolist(), dst.tolist()):
        succ[a].append(b)
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        # Each frame holds a node and an iterator over the successors it has
        # yet to read, so a return to the frame reads on where it stopped.
        work = [(root, iter(succ[root]))]
        while work:
            node, children = work[-1]
            for nxt in children:
                if index[nxt] == -1:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack[nxt] = True
                    work.append((nxt, iter(succ[nxt])))
                    break
                if on_stack[nxt] and index[nxt] < low[node]:
                    low[node] = index[nxt]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp.append(member)
                        if member == node:
                            break
                    components.append(comp)
    return components


def _cyclic_components(size: int, src, dst) -> list[list[int]]:
    """The strongly connected components of the sorted edges (src, dst) that
    hold a cycle: more than one state, or one state with a loop (src == dst).
    None exist exactly when the chain is nilpotent."""
    loops = set(src[src == dst].tolist())
    return [
        comp
        for comp in _strongly_connected_components(size, src, dst)
        if len(comp) > 1 or comp[0] in loops
    ]


def build_markov_shift(
    transitions: "np.ndarray | list[list[float]]",
    labels: "tuple[str, ...] | list[str] | None" = None,
) -> MarkovShift:
    """Validate a transition matrix and package it with its stationary vector.

    Raises NotRowStochasticError when an entry is not finite or negative or a
    row sum is off by more than 1e-9, and NotIrreducibleError when the
    positive-entry digraph is not strongly connected. NoConvergenceError is
    raised where the one LU solve for the stationary vector is singular, has
    an entry not finite or below -1e-10 (as on some nearly decomposable
    chains), or leaves a residual |pi P - pi| above 1e-12 plus the largest
    |row sum - 1|.
    """
    mat = np.array(transitions, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
        raise NotRowStochasticError(f"transition matrix must be square, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise NotRowStochasticError("transition matrix has entries that are not finite")
    if mat.min() < 0.0:
        raise NotRowStochasticError("transition matrix has negative entries")
    row_err = np.abs(mat.sum(axis=1) - 1.0).max()
    if row_err > _ROW_SUM_TOL:
        raise NotRowStochasticError(
            f"row sums deviate from 1 by {row_err:.3e} (tolerance {_ROW_SUM_TOL:.0e})"
        )
    if len(_strongly_connected_components(len(mat), *np.nonzero(mat))) != 1:
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
    size = shift.alphabet_size
    if any(a < 0 or a >= size for a in word):
        raise InadmissibleWordError(f"word {word} has symbols outside the alphabet")
    rows = shift.transitions.tolist()
    measure = float(shift.stationary[word[0]])
    for a, b in zip(word, word[1:]):
        measure *= rows[a][b]
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


def _checked_hole(shift: MarkovShift, hole: Word) -> Word:
    """The hole as a word; InadmissibleWordError when it is empty or not admissible."""
    word = tuple(hole)
    if len(word) == 0 or not shift.is_admissible(word):
        raise InadmissibleWordError(f"hole word {word} is not admissible")
    return word


def _word_count(shift: MarkovShift, length: int) -> int:
    """Number of admissible words of ``length``, 1^T A^(length-1) 1 for the 0/1
    transition pattern A: per-last-letter counts pushed through ``successors``."""
    counts = [1] * shift.alphabet_size
    for _ in range(length - 1):
        nxt = [0] * shift.alphabet_size
        for a, count in enumerate(counts):
            for b in shift.successors(a):
                nxt[b] += count
        counts = nxt
    return sum(counts)


def _within_state_cap(shift: MarkovShift, length: int) -> bool:
    """True when at most ``DEFAULT_STATE_CAP`` admissible words of ``length`` exist."""
    return _word_count(shift, length) <= DEFAULT_STATE_CAP


def _check_state_cap(shift: MarkovShift, length: int) -> None:
    """RefinementTooLargeError when more than ``DEFAULT_STATE_CAP`` words of
    ``length`` are admissible."""
    if not _within_state_cap(shift, length):
        raise RefinementTooLargeError(
            f"{_word_count(shift, length)} admissible words of length {length} exceed "
            f"the cap of {DEFAULT_STATE_CAP} states"
        )


def admissible_words(shift: MarkovShift, length: int) -> tuple[Word, ...]:
    """All admissible words of the given length, in lexicographic order.

    Raises RefinementTooLargeError, before building anything, when more than
    ``DEFAULT_STATE_CAP`` words of that length are admissible.
    """
    if length < 1:
        raise ValueError(f"word length must be >= 1, got {length}")
    _check_state_cap(shift, length)
    words: list[Word] = [(a,) for a in range(shift.alphabet_size)]
    for _ in range(length - 1):
        words = [w + (b,) for w in words for b in shift.successors(w[-1])]
    return tuple(words)


def _hole_free_words(shift: MarkovShift, hole: Word, length: int) -> list[list[Word]]:
    """The admissible words of lengths 1..``length`` that hold no copy of ``hole``,
    one lexicographic list per length. Words grow letter by letter, and an
    extension that ends in the hole is dropped. Raises RefinementTooLargeError,
    before building anything, as ``admissible_words`` does at ``length``."""
    _check_state_cap(shift, length)
    m = len(hole)
    layers = [[(a,) for a in range(shift.alphabet_size) if (a,) != hole]]
    for _ in range(length - 1):
        layers.append(
            [
                w + (b,)
                for w in layers[-1]
                for b in shift.successors(w[-1])
                if (w + (b,))[-m:] != hole
            ]
        )
    return layers


# ===========================================================================
# Cylinder functions
# ===========================================================================

@dataclass(frozen=True)
class CylinderFunction:
    """Function of the first ``order`` coordinates, given by per-word values.

    ``lattice`` is set only when every finite value is an integer multiple of it;
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


def cylinder_function(
    order: int,
    values: Mapping[Word, float],
    lattice: "float | None" = None,
) -> CylinderFunction:
    """Build a CylinderFunction, checking the lattice claim when one is given.

    The lattice must be positive and finite, and each finite value within
    1e-12 relative of a lattice multiple; NonArithmeticCeilingError
    otherwise, also where a value's ratio to the lattice overflows the float
    range. A value that is not finite is left to the routes that read it.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if not values:
        raise ValueError("a cylinder function needs at least one value")
    clean = {tuple(w): float(v) for w, v in values.items()}
    if any(len(w) != order for w in clean):
        raise ValueError(f"all value keys must be words of length {order}")
    if lattice is not None:
        if not 0.0 < lattice < math.inf:
            raise NonArithmeticCeilingError(f"lattice must be positive and finite, got {lattice}")
        for w, v in clean.items():
            if not math.isfinite(v):
                continue  # left to the routes that read it (``_ceiling_values``)
            try:
                nearest = lattice * round(v / lattice)
            except OverflowError:
                raise NonArithmeticCeilingError(
                    f"value {v} at word {w} overflows in steps of the lattice {lattice}"
                ) from None
            if abs(v - nearest) > _LATTICE_TOL * max(1.0, abs(v)):
                raise NonArithmeticCeilingError(
                    f"value {v} at word {w} is not a multiple of the lattice {lattice}"
                )
    return CylinderFunction(order=order, values=dict(clean), lattice=lattice)


def _ceiling_values(ceiling: CylinderFunction, words) -> list[float]:
    """The ceiling's values on ``words``, the words a route reads: a missing
    value raises InadmissibleWordError, a value that is not positive and
    finite (NaN included) NonPositiveCeilingError."""
    values = []
    for w in words:
        value = ceiling.value(w)
        if not 0.0 < value < math.inf:
            raise NonPositiveCeilingError(
                f"ceiling value {value} at word {w} is not positive and finite"
            )
        values.append(value)
    return values


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
) -> CylinderFunction:
    """Re-express ``func`` on cylinders of a larger order (values unchanged)."""
    if new_order < func.order:
        raise ValueError(f"cannot refine order {func.order} down to {new_order}")
    if new_order == func.order:
        return func
    values = {w: func.value(w) for w in admissible_words(shift, new_order)}
    return cylinder_function(new_order, values, lattice=func.lattice)


# ===========================================================================
# Word chains, exact survival and the two exact DP kernels
# ===========================================================================

def _borders(word: Word) -> list[int]:
    """The Knuth-Morris-Pratt failure function: entry j is the length of the
    longest proper border (prefix that is also a suffix) of word[:j], for j =
    0..len(word), in O(len(word)) steps. The borders of the whole word are
    the chain border[m], border[border[m]], ..., down to 0."""
    border = [0] * (len(word) + 1)
    k = 0
    for j in range(1, len(word)):
        while k and word[j] != word[k]:
            k = border[k]
        if word[j] == word[k]:
            k += 1
        border[j + 1] = k
    return border


def _hole_automaton(
    shift: MarkovShift, hole: Word, order: int
) -> tuple[list[tuple[Word, int]], tuple]:
    """The hole's pattern automaton over the base chain, as (states, links of P).

    A state (u, j) holds the last ``order`` letters u of a text that holds no
    copy of the hole, and the length j < len(hole) of the longest suffix of
    that text that is a proper prefix of the hole: its Knuth-Morris-Pratt
    state. Letter b leads to (u[1:] + b, j'), with P entry p(u[-1], b); an
    edge that completes the hole is dropped. The states are reached
    breadth-first from the hole-free words of length ``order``, which come
    first, in lexicographic order, each with the state it reaches from j = 0.
    So there are at most |words of length order| * len(hole) states, and
    RefinementTooLargeError is raised once they pass ``DEFAULT_STATE_CAP``.

    A closed walk of the automaton reads one period of a periodic text that
    avoids the hole, and so does a closed walk of the word chain: P on the
    admissible words of any one length >= len(hole), with the rows of the
    words that begin with the hole zeroed. With each row weighted by a
    function of u, traces of all powers agree, so the nonzero spectra do too:
    the rate roots and the survival slope need only this automaton. The chain
    has one state per word of length max(len(hole), order); the automaton's
    size grows with len(hole) only linearly.
    """
    m = len(hole)
    size = shift.alphabet_size
    border = _borders(hole)
    # delta[j][b]: the state after reading b in state j; m completes the hole.
    # Past a mismatch, state j reads on as its longest proper border does.
    delta = [[0] * size for _ in range(m)]
    delta[0][hole[0]] = 1
    for j in range(1, m):
        delta[j] = list(delta[border[j]])
        delta[j][hole[j]] = j + 1
    states: list[tuple[Word, int]] = []
    for u in _hole_free_words(shift, hole, order)[-1]:
        j = 0
        for a in u:
            j = delta[j][a]
        states.append((u, j))
    index = {state: i for i, state in enumerate(states)}
    transitions = shift.transitions.tolist()
    # Rows come out in state order, so sorting each row's few targets (distinct
    # letters reach distinct ones) sorts the links by (src, dst).
    rows, cols, probs = [], [], []
    for i, (u, j) in enumerate(states):  # grows while it is read: breadth-first
        row = []
        for b in shift.successors(u[-1]):
            k = delta[j][b]
            if k == m:
                continue
            target = (u[1:] + (b,), k)
            t = index.get(target)
            if t is None:
                if len(states) == DEFAULT_STATE_CAP:
                    raise RefinementTooLargeError(
                        f"the automaton of hole {hole} at order {order} passes the cap "
                        f"of {DEFAULT_STATE_CAP} states"
                    )
                t = index[target] = len(states)
                states.append(target)
            row.append((t, transitions[u[-1]][b]))
        for t, q in sorted(row):
            rows.append(i)
            cols.append(t)
            probs.append(q)
    src, dst = np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)
    return states, (src, dst, np.array(probs))


def escape_rate_from_survival_slope(shift: MarkovShift, hole: Word) -> float:
    """Escape rate of the base map as the least-squares slope of -log survival.

    Fits log(survival(n)) against n over the fixed window 20 <= n <= 60; with
    a spectral gap the tail is exactly geometric, so the slope recovers
    -log(radius). Serves as an arithmetic-free cross-check on the spectral
    routes. +inf where the order-1 hole automaton has no cyclic component,
    that is where every orbit meets the hole. An empty or inadmissible hole
    raises InadmissibleWordError, and AllMassEscapedError is raised where the
    survival underflows to 0 inside the fit window, so its log has no slope.
    """
    word = _checked_hole(shift, hole)
    states, links = _hole_automaton(shift, word, 1)
    if not _cyclic_components(len(states), *links[:2]):
        return math.inf
    ns = np.arange(_SLOPE_N_LO, _SLOPE_N_HI + 1, dtype=float)
    values = _survival_by_length(shift, word, states, links, _SLOPE_N_HI)[_SLOPE_N_LO:]
    if values.min() <= 0.0:
        raise AllMassEscapedError(
            f"survival underflowed to 0 inside the fit range n = {_SLOPE_N_LO}..{_SLOPE_N_HI}"
        )
    slope = np.polyfit(ns, np.log(values), 1)[0]
    return -float(slope)


def survival_measure_exact(shift: MarkovShift, hole: Word, n: int) -> float:
    """Measure of {x : none of the first n letters starts a copy of the hole word}.

    Equivalently, the stationary mass of n-cylinders whose word avoids the hole
    word as a substring. For n below the hole length nothing can have escaped,
    so the survival is exactly 1. An empty or inadmissible hole raises
    InadmissibleWordError.
    """
    word = _checked_hole(shift, hole)
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if n < len(word):
        return 1.0
    return float(_survival_by_length(shift, word, *_hole_automaton(shift, word, 1), n)[n])


def _survival_by_length(shift: MarkovShift, word: Word, states, links, n: int) -> np.ndarray:
    """Survival for every length 0..n >= len(word), from one pass of the
    survival kernel over the order-1 hole automaton (states, links) of ``word``."""
    # The automaton at order 1 starts from the hole-free letters, each with its
    # stationary mass; mass that completes the hole leaves on the dropped edges.
    letters = [a for a in range(shift.alphabet_size) if (a,) != word]
    mass = np.zeros(len(states))
    mass[: len(letters)] = shift.stationary[letters]
    out = _survival_curve(mass, links, n, np.ones(len(states), dtype=int))[0]
    out[: len(word)] = 1.0
    return out


def _survival_curve(mass, links, length: int, heights) -> tuple[np.ndarray, np.ndarray]:
    """Survival kernel: (a leading one, then ``length`` rounds of recording the
    total mass and stepping it; the mass after the last step). ``mass`` lies
    on the tower of ``heights`` blocks per state of the substochastic
    operator with ``links``, level 0 first: a step moves every level up one
    and sends the tops along the links onto level 0. Mass dies only where a
    row lacks an edge."""
    src, dst, p = links
    tops = np.cumsum(heights) - 1
    starts = tops - heights + 1
    feeds = tops[src]
    mass = np.array(mass, dtype=float)
    out = np.ones(1 + length)
    for t in range(1, 1 + length):
        out[t] = mass.sum()
        climbed = np.bincount(dst, weights=mass[feeds] * p, minlength=len(heights))
        mass[1:] = mass[:-1]
        mass[starts] = climbed
    return out, mass


def _lattice_operators(shift: MarkovShift, heights, order: int, index, hole=None) -> dict:
    """The lattice-sum DP over (word, integer ceiling sum) as one sparse operator per gain.

    Word i plus letter b, cut to its last ``depth`` letters (the longest word
    of ``index``), is word j, and its gain g is the height of its last window,
    0 while it is shorter than ``order``. Operator g holds its links as index
    arrays (src, dst, p): A_g[j, i] = p(last, b) on each link (i, j) of gain
    g, so it takes one entry per link, not states^2. Extensions ending in
    ``hole`` are dropped. Keys run upward, so the gain-0 links, which only
    lengthen words shorter than ``order - 1`` letters, come first.
    """
    depth = max(map(len, index))
    links: dict[int, list] = {}
    for w, i in index.items():
        for b in shift.successors(w[-1]):
            extended = w + (b,)
            if hole is not None and extended[-len(hole) :] == hole:
                continue
            gain = heights[extended[-order:]] if len(extended) >= order else 0
            prob = shift.transitions[w[-1], b]
            links.setdefault(gain, []).append((i, index[extended[-depth:]], prob))
    return {g: tuple(map(np.array, zip(*links[g]))) for g in sorted(links)}


def _gain_plan(operators: dict, stride: int, band: int) -> tuple:
    """One letter of the lattice-sum DP on a states x ``stride`` array as flat
    offsets (read, write, p): entry (src, c) times p adds into (dst, c + g)
    for the columns c < min(band, stride - g), link by link of each gain, so
    ``_gain_plan(ops, width, width)`` steps the whole array and drops the sums
    pushed past its last column. Swapping read and write gives T V, every
    link reversed: (dst, c + g) into (src, c), on the first ``band`` columns
    wherever stride - g >= band. Built once per DP and read by ``_gain_step``."""
    reads, writes, weights = [], [], []
    for g, (src, dst, p) in operators.items():
        if g < stride:
            cols = np.arange(min(band, stride - g))
            reads.append((src[:, None] * stride + cols).ravel())
            writes.append((dst[:, None] * stride + g + cols).ravel())
            weights.append(np.repeat(p, len(cols)))
    return np.concatenate(reads), np.concatenate(writes), np.concatenate(weights)


def _gain_step(dist: np.ndarray, plan: tuple) -> np.ndarray:
    """One letter of the lattice-sum DP on dist (states x sums) along a
    ``_gain_plan``: one gather, times p, and one ``np.bincount``. It adds in
    plan order from 0.0, so each cell sums its links in gain, then link order."""
    read, write, p = plan
    new = np.bincount(write, weights=dist.ravel()[read] * p, minlength=dist.size)
    return new.reshape(dist.shape)


# ===========================================================================
# JSON forms
# ===========================================================================

def _is_number(value) -> bool:
    """Whether ``value`` is a JSON number that reads as a float: a float, or
    an int (not a bool) inside the float range."""
    return isinstance(value, float) or (type(value) is int and abs(value) <= sys.float_info.max)


def _is_integer(value) -> bool:
    """Whether ``value`` is a Python or numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def shift_from_json(doc: Mapping) -> MarkovShift:
    """The shift of a model document: ``transitions``, a list of rows of
    numbers (a null entry reads as NaN, which ``build_markov_shift``
    rejects), and optional ``labels``, a list of strings. A document of
    another shape raises ValueError."""
    if not isinstance(doc, Mapping) or "transitions" not in doc:
        raise ValueError('model document needs a "transitions" key')
    rows, labels = doc["transitions"], doc.get("labels")
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and all(v is None or _is_number(v) for v in row) for row in rows
    ):
        raise ValueError('"transitions" must be a list of rows of numbers')
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(label, str) for label in labels)
    ):
        raise ValueError('"labels" must be a list of strings')
    return build_markov_shift(rows, labels=labels)


def load_model(path: "str | Path") -> MarkovShift:
    with open(path, encoding="utf-8") as fh:
        return shift_from_json(json.load(fh))


def ceiling_from_json(shift: MarkovShift, doc: Mapping) -> CylinderFunction:
    """The ceiling of a document: ``order``, an integer, ``values``, an
    object from words in label text to numbers, and optional ``lattice``, a
    number. A document of another shape raises ValueError."""
    for key in ("order", "values"):
        if not isinstance(doc, Mapping) or key not in doc:
            raise ValueError(f'ceiling document needs a "{key}" key')
    order, values, lattice = doc["order"], doc["values"], doc.get("lattice")
    if not isinstance(order, int) or isinstance(order, bool):
        raise ValueError(f'"order" must be an integer, got {order!r}')
    if not isinstance(values, Mapping) or not all(map(_is_number, values.values())):
        raise ValueError('"values" must be an object from words to numbers')
    if lattice is not None and not _is_number(lattice):
        raise ValueError(f'"lattice" must be a number, got {lattice!r}')
    words = {parse_word(shift, text): float(v) for text, v in values.items()}
    return cylinder_function(order, words, lattice=lattice)


def load_ceiling(shift: MarkovShift, path: "str | Path") -> CylinderFunction:
    with open(path, encoding="utf-8") as fh:
        return ceiling_from_json(shift, json.load(fh))
