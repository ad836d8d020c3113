"""Monte Carlo cross-checks: survival sampling and Birkhoff deviation bounds.

Simulation is fully deterministic given a seed: one Philox generator keyed by
the seed draws one row of ``samples`` uniforms per step. Philox is a stream, so
the rows are the same numbers as one (steps, samples) block drawn up front:
column i is sample i's private stream, and results are bit-identical across
reruns and independent of how many samples have already died. Both samplers
keep O(samples) state and build no (steps, samples) array. The survival sampler
walks the tower of the refined system's ``word_matrix``: an interior block
climbs one level and a top branches to its successors' level-0 blocks, so no
block matrix is built. Exact counterparts for both estimators (the survival
curve and the lattice-sum DP of ``shift`` for the deviation probabilities) let
tests hold the sampler to 3-sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMassEscapedError
from .open_system import _refined
from .shift import (
    DEFAULT_STATE_CAP,
    CylinderFunction,
    MarkovShift,
    Word,
    _integer_heights,
    _lattice_links,
    _lattice_step,
    admissible_words,
    cylinder_measure,
)
from .suspension import SuspensionSystem, flow_invariant_vector


@dataclass(frozen=True)
class SimulationConfig:
    """Sampling parameters; ``confidence_z`` scales every reported bracket."""

    seed: int
    samples: int
    t_max: int
    confidence_z: float = 3.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 100:
            raise ValueError(f"need at least 100 samples, got {self.samples}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.confidence_z <= 0.0:
            raise ValueError(f"confidence_z must be positive, got {self.confidence_z}")


def _uniform_rows(seed: int) -> np.random.Generator:
    """The canonical uniform stream: the t-th ``random(samples)`` call is the
    row that feeds step t, and column i is sample i."""
    return np.random.Generator(np.random.Philox(seed))


def _pick(
    columns: np.ndarray, states: np.ndarray, uniforms: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """``offsets`` (updated in place) plus each sample's branch: how many
    cumulative thresholds of its state lie below its uniform. ``columns[j]``
    is threshold j of every state, so the count runs one column at a time
    with no (samples, width) temporary."""
    for column in columns:
        offsets += uniforms > column[states]
    return offsets


# ===========================================================================
# Survival sampling
# ===========================================================================

@dataclass(frozen=True, eq=False)
class SurvivalEstimate:
    """Sampled survival curve; row t is the alive fraction after t kills."""

    ts: np.ndarray
    estimates: np.ndarray
    stderrs: np.ndarray
    config: SimulationConfig
    lattice_scale: float


def estimate_survival(
    system: SuspensionSystem,
    hole: Word,
    config: SimulationConfig,
    cap: int = DEFAULT_STATE_CAP,
) -> SurvivalEstimate:
    """Sample the block chain from the flow-invariant measure and record the
    fraction avoiding the hole through each time step.

    Dead samples keep being stepped so the uniform consumption pattern (and
    hence every later number) does not depend on who has died.
    """
    refined, hole_words = _refined(system, hole, cap)
    starts = refined._starts
    tops = starts + refined.heights - 1
    size = len(refined.block_measure)
    init_cum = np.cumsum(flow_invariant_vector(refined))[:-1]

    successors = [np.nonzero(row > 0.0)[0] for row in refined.word_matrix]
    width = max(len(js) for js in successors)
    # Row-major (block, branch) table, read at block * width + branch. An
    # interior block climbs to the next level; a top branches to the level-0
    # blocks of its word's successors.
    targets = np.repeat(np.arange(1, size + 1), width).reshape(size, width)
    # Padding 2.0 lies above every uniform, so a padded column never counts.
    columns = np.full((width - 1, size), 2.0)
    for top, row, js in zip(tops, refined.word_matrix, successors):
        targets[top, : len(js)] = starts[js]
        targets[top, len(js) :] = starts[js[-1]]
        columns[: len(js) - 1, top] = np.cumsum(row[js])[:-1]

    in_hole = np.zeros(size, dtype=bool)
    in_hole[starts[list(hole_words)]] = True

    rows = _uniform_rows(config.seed)
    states = np.searchsorted(init_cum, rows.random(config.samples), side="right")
    alive = np.ones(config.samples, dtype=bool)

    estimates = np.empty(config.t_max + 1)
    stderrs = np.zeros(config.t_max + 1)
    estimates[0] = 1.0
    for t in range(1, config.t_max + 1):
        if t > 1:
            uniforms = rows.random(config.samples)
            states = targets.ravel()[_pick(columns, states, uniforms, states * width)]
        alive &= ~in_hole[states]
        p_hat = np.count_nonzero(alive) / config.samples
        estimates[t] = p_hat
        stderrs[t] = math.sqrt(p_hat * (1.0 - p_hat) / config.samples)
    return SurvivalEstimate(
        ts=np.arange(config.t_max + 1),
        estimates=estimates,
        stderrs=stderrs,
        config=config,
        lattice_scale=system.lattice_scale,
    )


@dataclass(frozen=True)
class EscapeRateEstimate:
    """Confidence bracket [lower, upper] for the flow escape rate."""

    lower: float
    upper: float
    converged: bool
    window: tuple[int, int]


def fit_escape_rate(
    estimate: SurvivalEstimate, window: "tuple[int, int] | None" = None
) -> EscapeRateEstimate:
    """Bracket the escape rate from the sampled curve over a time window.

    Each t gives -log(p_hat -+ z * se) / (t * lambda) as rate bounds; the
    bracket is their union over the window (default: the second half of the
    curve). A zero estimate inside the window raises AllMassEscapedError; an
    interval within 10% of its midpoint counts as converged.
    """
    t_max = estimate.config.t_max
    if window is None:
        window = (max(1, t_max // 2), t_max)
    lo_t, hi_t = window
    if not (1 <= lo_t <= hi_t <= t_max):
        raise ValueError(f"window {window} does not fit inside [1, {t_max}]")
    z = estimate.config.confidence_z
    lam = estimate.lattice_scale
    lowers = []
    uppers = []
    for t in range(lo_t, hi_t + 1):
        p_hat = float(estimate.estimates[t])
        if p_hat <= 0.0:
            raise AllMassEscapedError(f"no surviving samples at t = {t}")
        se = float(estimate.stderrs[t])
        lowers.append(-math.log(min(p_hat + z * se, 1.0)) / (t * lam))
        down = p_hat - z * se
        uppers.append(float("inf") if down <= 0.0 else -math.log(down) / (t * lam))
    lower = min(lowers)
    upper = max(uppers)
    midpoint = 0.5 * (lower + upper)
    converged = bool(math.isfinite(upper) and midpoint > 0.0 and (upper - lower) <= 0.1 * midpoint)
    return EscapeRateEstimate(lower=lower, upper=upper, converged=converged, window=window)


# ===========================================================================
# Birkhoff deviation probabilities
# ===========================================================================

@dataclass(frozen=True, eq=False)
class DeviationEstimate:
    """P_k = P(|S_l phi / l - mean| >= epsilon for some l in [k, l_max])."""

    epsilon: float
    k_values: tuple[int, ...]
    probabilities: np.ndarray
    stderrs: np.ndarray
    decay: "float | None"
    l_max: int
    mean_value: float
    config: SimulationConfig


def _deviation_setup(shift, ceiling, epsilon, k_values, l_max):
    """Checks shared by both deviation routes; returns the sorted k values, l_max
    (default 4 * max k), heights, lattice, order and mean ceiling."""
    if epsilon <= 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ks = tuple(sorted({int(k) for k in k_values}))
    if not ks or ks[0] < 1:
        raise ValueError(f"k values must be positive integers, got {k_values}")
    heights = _integer_heights(ceiling)
    lam = float(ceiling.lattice)
    n = ceiling.order
    mean = lam * sum(
        cylinder_measure(shift, w) * heights[w] for w in admissible_words(shift, n)
    )
    if l_max is None:
        l_max = 4 * ks[-1]
    if l_max < ks[-1]:
        raise ValueError(f"l_max = {l_max} is below the largest k = {ks[-1]}")
    return ks, l_max, heights, lam, n, mean


def fit_decay(k_values, probabilities) -> "float | None":
    """exp(slope) of log P against k over the tail (last half, positive P)."""
    pts = [(k, p) for k, p in zip(k_values, probabilities) if p > 0.0]
    tail = pts[len(pts) // 2 :] if len(pts) >= 4 else pts
    if len(tail) < 2:
        return None
    ks = np.array([k for k, _ in tail], dtype=float)
    logs = np.log(np.array([p for _, p in tail]))
    return float(np.exp(np.polyfit(ks, logs, 1)[0]))


def estimate_deviation_prob(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    epsilon: float,
    k_values: "list[int] | tuple[int, ...]",
    config: SimulationConfig,
    l_max: "int | None" = None,
) -> DeviationEstimate:
    """Sample paths and estimate the deviation probabilities P_k.

    The ceiling sum is accumulated as exact lattice integers, and the
    deviation test |lambda * S / l - mean| >= epsilon uses the same float
    expression as the exact dynamic program, so the two can be compared at
    matching branch decisions.
    """
    ks, l_max, heights, lam, n, mean = _deviation_setup(shift, ceiling, epsilon, k_values, l_max)

    size = shift.alphabet_size
    kmap = np.zeros(size ** n, dtype=np.int64)
    for w, k in heights.items():
        code = 0
        for a in w:
            code = code * size + a
        kmap[code] = k

    samples = config.samples
    rows = _uniform_rows(config.seed)
    pi_cum = np.cumsum(shift.stationary)[:-1]
    trans_columns = np.cumsum(shift.transitions, axis=1)[:, :-1].T

    def successor(symbol):
        offsets = np.zeros(samples, dtype=np.int64)
        return _pick(trans_columns, symbol, rows.random(samples), offsets)

    symbol = np.searchsorted(pi_cum, rows.random(samples), side="right")
    codes = symbol
    for _ in range(n - 1):
        symbol = successor(symbol)
        codes = codes * size + symbol
    tail_mod = size ** (n - 1)
    running = np.zeros(samples, dtype=np.int64)
    # The last l at which each sample deviated (0: never); P_k is the fraction >= k.
    last_deviation = np.zeros(samples, dtype=np.int64)
    for l in range(1, l_max + 1):
        running += kmap[codes]
        last_deviation[np.abs(lam * running / l - mean) >= epsilon] = l
        if l < l_max:
            symbol = successor(symbol)
            codes = (codes % tail_mod) * size + symbol

    probabilities = np.array([(last_deviation >= k).mean() for k in ks])
    stderrs = np.sqrt(probabilities * (1.0 - probabilities) / samples)
    return DeviationEstimate(
        epsilon=epsilon,
        k_values=ks,
        probabilities=probabilities,
        stderrs=stderrs,
        decay=fit_decay(ks, probabilities),
        l_max=l_max,
        mean_value=mean,
        config=config,
    )


def exact_deviation_prob(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    epsilon: float,
    k_values: "list[int] | tuple[int, ...]",
    l_max: int,
) -> tuple[float, ...]:
    """Exact P_k by the lattice-sum DP of ``shift`` over (suffix, integer ceiling sum).

    Mass that has deviated at any l in [k, l_max] is absorbed; P_k is one
    minus what survives to l_max. The deviation test is the same float
    expression the sampler uses.
    """
    ks, l_max, heights, lam, n, mean = _deviation_setup(shift, ceiling, epsilon, k_values, l_max)
    suffix_len = max(n - 1, 1)
    index = {w: i for i, w in enumerate(admissible_words(shift, suffix_len))}
    links = _lattice_links(shift, heights, n, index)
    max_sum = l_max * max(heights.values())
    sums = np.arange(max_sum + 1, dtype=np.int64)

    start = np.zeros((len(index), max_sum + 1))
    for w in admissible_words(shift, max(n, suffix_len)):
        start[index[w[-suffix_len:]], heights[w[-n:]]] += cylinder_measure(shift, w)
    out = []
    for k in ks:
        dist = start
        for l in range(1, l_max + 1):
            if l > 1:
                dist = _lattice_step(dist, links)
            if l >= k:
                keep = np.abs(lam * sums / l - mean) < epsilon
                dist = dist * keep[None, :]
        out.append(1.0 - float(dist.sum()))
    return tuple(out)
