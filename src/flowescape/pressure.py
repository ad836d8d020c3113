"""Induced pressure of the hole-avoiding word collection, two ways.

The base potential is p(x) = log p(x_1, x_2), the log transition weight, whose
Gibbs property ties word weights to cylinder measures within a uniform
constant. For a ceiling phi and a hole word, the induced pressure of the
surviving collection is the growth rate

    P = lim (1/t) log sum_{w : S_w phi in (t - eta, t]} e^{S_w p}

over hole-avoiding words, with Birkhoff sums sup-completed over the cylinder.
It equals -rho, the escape rate of the suspension flow through the hole. Two
estimators live here: a truncated window sum, one pass of the lattice-sum DP
of ``shift`` on (word, ceiling sum) states from length 1 on, with the short
words as their own states, and the root beta* of radius(W(beta)) = 1 for
W(beta) = diag(e^{-beta phi}) P, with P the hole automaton of ``shift`` (last
order letters, Knuth-Morris-Pratt match of the hole). The root is the
word-operator root of ``open_system`` that also gives the refined escape
rate, so it is -rho to rounding, and -inf exactly where rho is +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PressureNotNegativeError, WindowEmptyError
from .open_system import _word_operator_root, escape_rate_flow
from .shift import (
    _LATTICE_TOL,
    CylinderFunction,
    MarkovShift,
    Word,
    _ceiling_values,
    _checked_hole,
    _hole_automaton,
    _hole_free_words,
    _lattice_operators,
    cylinder_function,
    refine_cylinder_function,
)
from .suspension import build_suspension


# ===========================================================================
# Gibbs constant of the log transition potential
# ===========================================================================

def gibbs_constant(shift: MarkovShift) -> float:
    """Tight uniform Gibbs constant for the log transition potential.

    A word's sup-completed weight e^{S_w p} = prod p(w_i, w_{i+1}) * max_s
    p(w_last, s) over mu([w]) = pi(w_1) prod p(w_i, w_{i+1}) is max_s
    p(w_last, s) / pi(w_1). It depends only on the (first, last) letter of
    the word, and irreducibility realizes every ordered pair, so the constant
    is the worst max(ratio, 1/ratio) over pairs.
    """
    row_max = shift.transitions.max(axis=1)
    worst = 1.0
    for first in range(shift.alphabet_size):
        for last in range(shift.alphabet_size):
            ratio = float(row_max[last] / shift.stationary[first])
            worst = max(worst, ratio, 1.0 / ratio)
    return worst


# ===========================================================================
# Truncated window estimator
# ===========================================================================

def induced_pressure_truncated(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    hole: Word,
    t_max: float,
    eta: "float | None" = None,
) -> float:
    """(1/t) log of the window sum at t = t_max; converges to -rho like log(t)/t.

    The window keeps hole-avoiding words whose sup-completed ceiling sum lands
    in (t - eta, t]; eta defaults to one lattice step above the ceiling sup so
    the window is never starved. t_max must sit on the ceiling lattice, to
    the relative tolerance of ``build_suspension``; t is that lattice point.
    A t_max off the lattice or not finite, or an eta that is not positive,
    raises ValueError.

    Heights and lattice come from ``build_suspension(shift, ceiling)``, which
    reads every admissible word of the ceiling's order and raises as it does.

    The sum runs over the hole-avoiding words of every length. Their states
    are the words of length 1..depth, depth = max(order - 1, hole length - 1, 1):
    a word is its own state up to length depth, and its last depth letters
    after that. A state's sum is the ceiling sum of the windows that lie
    inside the word, and a word is read out when that sum plus its state's
    sup-completion lands in the window. The readout is linear, so it reads
    only F, the total over every word length of the (state, sum) distribution.

    With F[s] its vector over the states at sum s, F solves
    F[s] = init[s] + A_0 F[s] + sum_{g >= 1} A_g F[s - g], with A_g the sparse
    links of gain g (``_lattice_operators``) and init the one-letter words.
    A_0 only lengthens words shorter than order - 1 letters, so it is
    nilpotent, and the lift (I - A_0)^-1 is the finite sum I + A_0 + A_0^2 +
    .... Each A_g with g >= 1 lands on words of at least order - 1 letters,
    which A_0 leaves alone, so the lift acts on init only:
    F[s] = (I - A_0)^-1 init[s] + sum_{g >= 1} A_g F[s - g]. F is solved in
    sum order, g_min sums per pass over the links, g_min the smallest
    positive gain: those sums read only earlier ones. So the solve takes
    ceil((t + 1) / g_min) passes, each one gather and one scatter-add over
    g_min rows of links, and holds F, (t + g_max + g_min) x states, with no
    states x states matrix.
    """
    hole_word = _checked_hole(shift, hole)
    system = build_suspension(shift, ceiling)
    heights = dict(zip(system.words, system.heights.tolist()))
    lam = system.lattice_scale
    n = ceiling.order
    t_ratio = t_max / lam
    t_norm = round(t_ratio) if math.isfinite(t_ratio) else 0
    if t_norm < 1 or abs(t_max - t_norm * lam) > _LATTICE_TOL * max(1.0, abs(t_max)):
        raise ValueError(f"t_max = {t_max} does not sit on the ceiling lattice {lam}")
    sup_k = max(heights.values())
    if eta is None:
        eta_norm = float(sup_k + 1)
    else:
        if not eta > 0.0:
            raise ValueError(f"eta must be positive, got {eta}")
        eta_norm = eta / lam

    depth = max(n - 1, len(hole_word) - 1, 1)
    states = [w for layer in _hole_free_words(shift, hole_word, depth) for w in layer]
    index = {w: i for i, w in enumerate(states)}
    operators = _lattice_operators(shift, heights, n, index, hole=hole_word)
    a0 = operators.pop(0, None)
    # Sums above t_norm never come back down (heights are positive), so the
    # sum axis is clipped there and larger gains drop out.
    width = t_norm + 1
    gains = [g for g in operators if g <= t_norm]
    block = gains[0] if gains else width
    top = gains[-1] if gains else 0

    # Row top + s of F holds sum s; the top rows before it stand for negative
    # sums, and the last block may run past t_norm. A one-letter word starts
    # at the sum of its window, when the order is 1.
    size = len(states)
    F = np.zeros((top + -(-width // block) * block, size))
    for i, w in enumerate(states):
        seed = heights[w] if len(w) == n == 1 else 0
        if len(w) == 1 and seed <= t_norm:
            F[top + seed, i] = 1.0
    if a0 is not None:
        # Gain-0 links need order >= 3, where every one-letter word starts at
        # sum 0: the lift adds their extensions to that row, A_0 at a time.
        src, dst, p = a0
        term = F[top].copy()
        while term.any():
            term = np.bincount(dst, weights=p * term[src], minlength=size)
            F[top] += term
    if gains:
        # Entry (r, link) of a block starting at row `start` reads F at row
        # start + r - gain, column src, and adds into row start + r, column
        # dst; both are flat offsets into F, the read one relative to row
        # start - top.
        src, dst, p = (np.concatenate([operators[g][k] for g in gains]) for k in range(3))
        lag = np.repeat(gains, [len(operators[g][0]) for g in gains])
        rows = np.arange(block)[:, None]
        read = ((top + rows - lag) * size + src).ravel()
        write = (rows * size + dst).ravel()
        weights = np.tile(p, block)
        flat = F.reshape(-1)
        for start in range(top, len(F), block):
            moved = flat[(start - top) * size :][read] * weights
            F[start : start + block] += np.bincount(
                write, weights=moved, minlength=block * size
            ).reshape(block, size)

    completion = np.array([_sup_completion(shift, heights, n, w) for w in states])
    totals = np.arange(width)[:, None] + completion[None, :]
    row_max = np.array([shift.transitions[w[-1]].max() for w in states])
    readout = ((totals > t_norm - eta_norm) & (totals <= t_norm)) * row_max[None, :]
    total_sum = float((F[top : top + width] * readout).sum())
    if total_sum <= 0.0:
        raise WindowEmptyError(
            f"no hole-avoiding word lands in the window ({t_max - eta_norm * lam}, {t_max}]"
        )
    return math.log(total_sum) / (t_norm * lam)


def _sup_completion(shift: MarkovShift, heights: dict[Word, int], n: int, word: Word) -> int:
    """Max over admissible continuations of [word] of the normalized ceiling sum
    of its windows that stick out past its end (those starting in its last
    n - 1 letters; none when n = 1)."""
    tails = [word]
    for _ in range(n - 1):
        tails = [w + (b,) for w in tails for b in shift.successors(w[-1])]
    start = max(len(word) - n + 1, 0)
    return max(sum(heights[w[j : j + n]] for j in range(start, len(word))) for w in tails)


# ===========================================================================
# Root estimator
# ===========================================================================

def induced_pressure_via_root(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    hole: Word,
) -> float:
    """The root beta* of radius(W(beta)) = 1; exactly -rho for lattice ceilings.

    W(beta) = diag(e^{-beta phi}) P, with P the hole automaton of ``shift``
    at the ceiling's order: its states (u, j) hold the last order letters u
    of a hole-avoiding text and its Knuth-Morris-Pratt match j of the hole,
    and an edge that completes the hole is dropped. The ceiling is read only
    on the hole-avoiding words u: a missing value there raises
    InadmissibleWordError, a value <= 0 NonPositiveCeilingError. It need not
    be arithmetic. beta* = -s* for the word-operator root s* of ``open_system``,
    located to a few ulp. beta* = -inf exactly where the refined escape rate
    is +inf: no hole-avoiding word survives forever, including when every
    word holds the hole. Raises PressureNotNegativeError when beta* >= 0.
    """
    hole_word = _checked_hole(shift, hole)
    states, links = _hole_automaton(shift, hole_word, ceiling.order)
    phi = _ceiling_values(ceiling, [u for u, _ in states])

    beta = -_word_operator_root(links, phi)
    if beta >= 0.0:
        raise PressureNotNegativeError("spectral radius at beta = 0 is not below 1")
    return beta


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
) -> PressureReport:
    """Both pressure estimates against the escape rate of the suspension flow.
    An estimate equal to -rho has gap 0, also where rho is +inf."""
    system = build_suspension(shift, ceiling)
    rho = escape_rate_flow(system, tuple(hole))
    beta_root = induced_pressure_via_root(shift, ceiling, hole)
    beta_trunc = induced_pressure_truncated(shift, ceiling, hole, t_max, eta=eta)
    rows = [
        PressureRow(method, beta, rho, 0.0 if beta == -rho else abs(beta + rho))
        for method, beta in (("root", beta_root), ("truncated", beta_trunc))
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
) -> SuperadditivityReport:
    """1/P is superadditive in the ceiling: 1/P(a+b) >= 1/P(a) + 1/P(b) - 1e-10.

    All three pressures must be negative (``induced_pressure_via_root`` raises
    PressureNotNegativeError otherwise); the combined ceiling is the plain sum
    of values on the common refinement, on the words where both hold one.
    """
    order = max(ceiling_a.order, ceiling_b.order)
    fa = refine_cylinder_function(shift, ceiling_a, order)
    fb = refine_cylinder_function(shift, ceiling_b, order)
    combined = cylinder_function(
        order, {w: v + fb.values[w] for w, v in fa.values.items() if w in fb.values}
    )
    p_a = induced_pressure_via_root(shift, ceiling_a, hole)
    p_b = induced_pressure_via_root(shift, ceiling_b, hole)
    p_ab = induced_pressure_via_root(shift, combined, hole)
    slack = 1.0 / p_ab - (1.0 / p_a + 1.0 / p_b)
    return SuperadditivityReport(
        pressure_a=p_a,
        pressure_b=p_b,
        pressure_sum=p_ab,
        slack=slack,
        holds=bool(slack >= -1e-10),
    )
