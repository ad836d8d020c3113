"""Induced pressure of the hole-avoiding word collection, two ways.

The base potential is p(x) = log p(x_1, x_2), the log transition weight, whose
Gibbs property ties word weights to cylinder measures within a uniform
constant. For a ceiling phi and a hole word, the induced pressure of the
surviving collection is the growth rate

    P = lim (1/t) log sum_{w : S_w phi in (t - eta, t]} e^{S_w p}

over hole-avoiding words, with Birkhoff sums sup-completed over the cylinder.
It equals -rho, the escape rate of the suspension flow through the hole. Two
independent estimators live here: a truncated window sum via the lattice-sum
DP of ``shift`` on (suffix, ceiling sum) states, and the root beta* of
radius(W(beta)) = 1 for the weighted survivor matrix W(beta) with entries
p(a, b) e^{-beta phi}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    InadmissibleWordError,
    NoBracketError,
    NonPositiveCeilingError,
    PressureNotNegativeError,
    WindowEmptyError,
)
from .open_system import escape_rate_flow, matrix_spectral_radius
from .shift import (
    DEFAULT_STATE_CAP,
    CylinderFunction,
    MarkovShift,
    Word,
    _integer_heights,
    _lattice_links,
    _lattice_step,
    admissible_words,
    cylinder_function,
    cylinder_measure,
    refine_cylinder_function,
)
from .suspension import build_suspension


# ===========================================================================
# Log transition potential and its Gibbs constant
# ===========================================================================

def log_transition_potential(shift: MarkovShift) -> CylinderFunction:
    """Order-2 cylinder function p(x) = log p(x_1, x_2) on admissible pairs."""
    values = {
        (a, b): float(np.log(shift.transitions[a, b]))
        for a in range(shift.alphabet_size)
        for b in shift.successors(a)
    }
    return cylinder_function(2, values)


def word_log_weight(shift: MarkovShift, word: Word) -> float:
    """Sup-completed Birkhoff sum of the log potential over [word].

    All windows except the last are pinned by the word; the last one takes the
    best admissible continuation, so e^(this) = prod p(w_i, w_{i+1}) * max_s
    p(w_last, s).
    """
    word = tuple(word)
    if len(word) == 0 or not shift.is_admissible(word):
        raise InadmissibleWordError(f"word {word} is not admissible")
    total = 0.0
    for a, b in zip(word, word[1:]):
        total += float(np.log(shift.transitions[a, b]))
    total += float(np.log(shift.transitions[word[-1]].max()))
    return total


def gibbs_ratio(shift: MarkovShift, word: Word) -> float:
    """e^{S_w p} / mu([w]); bounded between 1/K and K by the Gibbs property."""
    return math.exp(word_log_weight(shift, word)) / cylinder_measure(shift, word)


def gibbs_constant(shift: MarkovShift) -> float:
    """Tight uniform Gibbs constant for the log transition potential.

    The ratio e^{S_w p}/mu([w]) depends only on (first, last) letter of the
    word, and irreducibility realizes every ordered pair, so the constant is
    the worst max(ratio, 1/ratio) over pairs.
    """
    row_max = shift.transitions.max(axis=1)
    worst = 1.0
    for first in range(shift.alphabet_size):
        for last in range(shift.alphabet_size):
            ratio = float(row_max[last] / shift.stationary[first])
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


# ===========================================================================
# Shared hole bookkeeping
# ===========================================================================

def _contains_hole(word: Word, hole: Word) -> bool:
    m = len(hole)
    return any(word[j : j + m] == hole for j in range(len(word) - m + 1))


# ===========================================================================
# Truncated window estimator
# ===========================================================================

def induced_pressure_truncated(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    hole: Word,
    t_max: float,
    eta: "float | None" = None,
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """(1/t) log of the window sum at t = t_max; converges to -rho like log(t)/t.

    The window keeps hole-avoiding words whose sup-completed ceiling sum lands
    in (t - eta, t]; eta defaults to one lattice step above the ceiling sup so
    the window is never starved. t_max must sit on the ceiling lattice.
    """
    hole_word = tuple(hole)
    if not shift.is_admissible(hole_word) or len(hole_word) == 0:
        raise InadmissibleWordError(f"hole word {hole_word} is not admissible")
    heights = _integer_heights(ceiling)
    lam = float(ceiling.lattice)
    n = ceiling.order
    m = len(hole_word)
    t_norm = t_max / lam
    if abs(t_norm - round(t_norm)) > 1e-9 or round(t_norm) < 1:
        raise ValueError(f"t_max = {t_max} does not sit on the ceiling lattice {lam}")
    t_norm = int(round(t_norm))
    sup_k = max(heights.values())
    min_k = min(heights.values())
    if eta is None:
        eta_norm = float(sup_k + 1)
    else:
        if eta <= 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        eta_norm = eta / lam

    depth = max(n - 1, m - 1, 1)
    row_max = {a: float(shift.transitions[a].max()) for a in range(shift.alphabet_size)}
    completion = _completion_table(shift, heights, n)

    def in_window(total: int) -> bool:
        return t_norm - eta_norm < total <= t_norm

    # Phase 1: explicit words up to the suffix depth. Each word is read out
    # (its sup-completed sum may already land in the window) and the
    # depth-length survivors seed the DP.
    total_sum = 0.0
    suffixes = [
        w for w in admissible_words(shift, depth, cap=cap) if not _contains_hole(w, hole_word)
    ]
    suffix_index = {w: i for i, w in enumerate(suffixes)}
    dist = np.zeros((len(suffixes), t_norm + 1))

    frontier: list[tuple[Word, float, int]] = [
        ((a,), 1.0, 0) for a in range(shift.alphabet_size) if not _contains_hole((a,), hole_word)
    ]
    for length in range(1, depth + 1):
        next_frontier = []
        for word, weight, determined in frontier:
            if in_window(_sup_completed_sum(shift, heights, n, word)):
                total_sum += weight * row_max[word[-1]]
            if length == depth:
                dist[suffix_index[word], determined] += weight
                continue
            for b in shift.successors(word[-1]):
                extended = word + (b,)
                if len(extended) >= m and extended[-m:] == hole_word:
                    continue
                gained = heights[extended[-n:]] if len(extended) >= n else 0
                next_frontier.append(
                    (extended, weight * float(shift.transitions[word[-1], b]), determined + gained)
                )
        frontier = next_frontier

    # Phase 2: DP on (suffix, determined sum). Sums above t_norm can never come
    # back down (heights are positive), so the sum axis is clipped there.
    links = _lattice_links(shift, heights, n, suffix_index, hole=hole_word)
    comp_by_suffix = np.array(
        [completion[w[-(n - 1) :]] if n > 1 else 0 for w in suffixes], dtype=int
    )
    readout_factor = np.array([row_max[w[-1]] for w in suffixes])
    totals = np.arange(t_norm + 1)[None, :] + comp_by_suffix[:, None]
    window_mask = (totals > t_norm - eta_norm) & (totals <= t_norm)

    max_length = t_norm // max(min_k, 1) + n + 1
    for _ in range(depth + 1, max_length + 1):
        dist = _lattice_step(dist, links)
        if not dist.any():
            break
        total_sum += float((dist * window_mask * readout_factor[:, None]).sum())

    if total_sum <= 0.0:
        raise WindowEmptyError(
            f"no hole-avoiding word lands in the window ({t_max - eta_norm * lam}, {t_max}]"
        )
    return math.log(total_sum) / float(t_max)


def _sup_completed_sum(
    shift: MarkovShift, heights: dict[Word, int], n: int, word: Word
) -> int:
    """Sup over x in [word] of the normalized Birkhoff len(word)-sum.

    Windows that stick out past the word's end are completed by the best
    admissible continuation of length n - 1, maximized jointly.
    """
    l = len(word)
    start = max(l - n + 1, 0)
    determined = sum(heights[word[j : j + n]] for j in range(start))
    if n == 1:
        return determined
    best = None
    stack: list[tuple[Word, int]] = [(word, n - 1)]
    while stack:
        tail, remaining = stack.pop()
        if remaining == 0:
            value = sum(heights[tail[j : j + n]] for j in range(start, l))
            best = value if best is None or value > best else best
            continue
        for b in shift.successors(tail[-1]):
            stack.append((tail + (b,), remaining - 1))
    return determined + (best or 0)


def _completion_table(
    shift: MarkovShift, heights: dict[Word, int], n: int
) -> dict[Word, int]:
    """Max ceiling sum of the n - 1 windows peeking past a word's end, keyed
    by its last n - 1 letters."""
    if n == 1:
        return {(): 0}
    memo: dict[tuple[Word, int], int] = {}

    def best(state: Word, steps: int) -> int:
        if steps == 0:
            return 0
        key = (state, steps)
        if key not in memo:
            memo[key] = max(
                heights[(state + (b,))[-n:]] + best((state + (b,))[1:], steps - 1)
                for b in shift.successors(state[-1])
            )
        return memo[key]

    return {w: best(w, n - 1) for w in admissible_words(shift, n - 1)}


# ===========================================================================
# Root estimator
# ===========================================================================

def induced_pressure_via_root(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    hole: Word,
    beta_lo: float = -50.0,
    tol: float = 1e-10,
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """The root beta* of radius(W(beta)) = 1; exactly -rho for lattice ceilings.

    W(beta) lives on hole-free words of length max(order, hole length), with
    entries p(last, next) * e^{-beta phi(prefix)}. The radius is strictly
    decreasing in beta, radius(0) < 1 for a genuine hole, so bisection on
    [beta_lo, 0] brackets the root; the ceiling need not be arithmetic here.
    """
    hole_word = tuple(hole)
    if not shift.is_admissible(hole_word) or len(hole_word) == 0:
        raise InadmissibleWordError(f"hole word {hole_word} is not admissible")
    if min(ceiling.values.values()) <= 0.0:
        raise NonPositiveCeilingError("the ceiling must be strictly positive")
    q = max(ceiling.order, len(hole_word))
    states = [
        w for w in admissible_words(shift, q, cap=cap) if not _contains_hole(w, hole_word)
    ]
    if not states:
        raise PressureNotNegativeError("no surviving words at all; the hole is everything")
    index = {w: i for i, w in enumerate(states)}
    phi = np.array([ceiling.value(w) for w in states])
    links = []
    for i, w in enumerate(states):
        for b in shift.successors(w[-1]):
            j = index.get(w[1:] + (b,))
            if j is not None:
                links.append((i, j, float(shift.transitions[w[-1], b])))

    def radius(beta: float) -> float:
        weights = np.exp(-beta * phi)
        mat = np.zeros((len(states), len(states)))
        for i, j, prob in links:
            mat[i, j] = prob * weights[i]
        return matrix_spectral_radius(mat)

    if radius(0.0) >= 1.0 - 1e-13:
        raise PressureNotNegativeError("spectral radius at beta = 0 is not below 1")
    if radius(beta_lo) < 1.0:
        raise NoBracketError(
            f"spectral radius stays below 1 down to beta = {beta_lo}; no root bracketed"
        )
    lo, hi = beta_lo, 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if radius(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    # Secant polish on log radius(beta), which is smooth and strictly
    # decreasing; bisection alone leaves an error of order tol.
    x0, x1 = lo, hi
    f0, f1 = math.log(radius(x0)), math.log(radius(x1))
    for _ in range(8):
        if f1 == f0:
            break
        x2 = x1 - f1 * (x1 - x0) / (f1 - f0)
        if not (beta_lo <= x2 <= 0.0):
            break
        x0, f0, x1 = x1, f1, x2
        f1 = math.log(radius(x1))
        if abs(x1 - x0) <= 1e-15 * max(1.0, abs(x1)):
            break
    return x1


# ===========================================================================
# Reports
# ===========================================================================

@dataclass(frozen=True)
class PressureRow:
    method: str
    beta: float
    rho: float
    abs_gap: float


@dataclass(frozen=True)
class PressureReport:
    rho: float
    rows: list[PressureRow]


def check_pressure_equals_minus_rho(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    hole: Word,
    t_max: float,
    eta: "float | None" = None,
    cap: int = DEFAULT_STATE_CAP,
) -> PressureReport:
    """Both pressure estimates against the escape rate of the suspension flow."""
    system = build_suspension(shift, ceiling, cap=cap)
    rho = escape_rate_flow(system, tuple(hole), cap=cap)
    beta_root = induced_pressure_via_root(shift, ceiling, hole, cap=cap)
    beta_trunc = induced_pressure_truncated(shift, ceiling, hole, t_max, eta=eta, cap=cap)
    rows = [
        PressureRow("root", beta_root, rho, abs(beta_root + rho)),
        PressureRow("truncated", beta_trunc, rho, abs(beta_trunc + rho)),
    ]
    return PressureReport(rho=rho, rows=rows)


@dataclass(frozen=True)
class SuperadditivityReport:
    pressure_a: float
    pressure_b: float
    pressure_sum: float
    slack: float
    holds: bool


def superadditivity_check(
    shift: MarkovShift,
    hole: Word,
    ceiling_a: CylinderFunction,
    ceiling_b: CylinderFunction,
    cap: int = DEFAULT_STATE_CAP,
) -> SuperadditivityReport:
    """1/P is superadditive in the ceiling: 1/P(a+b) >= 1/P(a) + 1/P(b) - 1e-10.

    All three pressures must be negative (PressureNotNegativeError otherwise);
    the combined ceiling is the plain sum of values on the common refinement.
    """
    order = max(ceiling_a.order, ceiling_b.order)
    fa = refine_cylinder_function(shift, ceiling_a, order, cap=cap)
    fb = refine_cylinder_function(shift, ceiling_b, order, cap=cap)
    combined = cylinder_function(
        order, {w: fa.value(w) + fb.value(w) for w in fa.values}
    )
    p_a = induced_pressure_via_root(shift, ceiling_a, hole, cap=cap)
    p_b = induced_pressure_via_root(shift, ceiling_b, hole, cap=cap)
    p_ab = induced_pressure_via_root(shift, combined, hole, cap=cap)
    for value in (p_a, p_b, p_ab):
        if value >= 0.0:
            raise PressureNotNegativeError(f"induced pressure {value} is not negative")
    slack = 1.0 / p_ab - (1.0 / p_a + 1.0 / p_b)
    return SuperadditivityReport(
        pressure_a=p_a,
        pressure_b=p_b,
        pressure_sum=p_ab,
        slack=slack,
        holds=bool(slack >= -1e-10),
    )
