"""Monte Carlo cross-checks: survival sampling and Birkhoff deviation bounds.

Simulation is fully deterministic given a seed: every draw comes from
numpy's PCG64 stream (``default_rng(seed)``), and reruns are bit-identical
on one numpy build. The survival sampler steps the counts of samples on the
blocks of the tower on which ``survival_curve_flow`` steps its mass: the
samples are independent and exchangeable, so the counts are a Markov chain
with the law of the per-sample walk. Interior counts climb one level a
step, and each occupied top splits its count by one multinomial draw over
its state's links to their level-0 blocks, the deficit of its row going to
a sink where counts stay; its numbers also depend on numpy's binomial
algorithm, and no array grows with the number of samples. The deviation
sampler steps each path on one kernel, ``_brancher``, in buffers allocated
once, one row of ``samples`` uniforms per step (column i is sample i's
stream): a path's state is its row offset (state * width) into row-major
(state, branch) tables, and a step gathers each threshold column, adds the
count of thresholds below the uniform to the offset and gathers the packed
target, the next offset and the height it adds to the ceiling sum. It keeps
one boolean row per k bucket [k_i, k_{i+1}) (the last to l_max), set where
the sample deviated at some l in the bucket, and reads P_k off a reverse
cumulative OR of the rows. Exact counterparts for both estimators (the
survival curve and the lattice-sum DP of ``shift`` for the deviation
probabilities) let tests hold the samplers to 3-sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllMassEscapedError
from .open_system import _survival_tower
from .shift import (
    CylinderFunction,
    MarkovShift,
    Word,
    _gain_plan,
    _gain_step,
    _lattice_operators,
    _survival_curve,
    admissible_words,
)
from .suspension import SuspensionSystem, build_suspension


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
    """The canonical stream, numpy's PCG64. The deviation sampler's t-th
    ``random(samples)`` call is the row that feeds step t, and column i is
    sample i; the survival sampler draws its multinomial splits from it."""
    return np.random.default_rng(seed)


def _brancher(rows, thresholds, width, samples):
    """(start, step) of the deviation sampler on row-major (state, branch)
    tables read at a sample's offset, state * width: ``thresholds[offset + j]``
    is its state's cumulative threshold j < width - 1 (entry width - 1 of a
    row is never read).

    ``start(cum)`` draws the next uniform row u and returns the offsets of
    ``np.searchsorted(cum, u, side="right")``, cum a nondecreasing
    cumulative distribution. ``step(offsets, targets, out)`` draws the next
    uniform row, gathers each threshold column at the offsets and compares
    it with the uniforms, adds the count of thresholds below each uniform to
    its offset, and gathers ``targets`` there into ``out``: entry offset + b
    of ``targets`` is what branch b of the state leads to. Its buffers are
    allocated here, once, so a step allocates nothing."""
    uniforms = np.empty(samples)
    column = np.empty(samples)
    bits = np.empty(samples, dtype=bool)
    # The offset plus the branch count: the index into ``targets``.
    index = np.empty(samples, dtype=np.int64)
    # Column j is the table from entry j on, read at the same offsets.
    columns = [thresholds[j:] for j in range(width - 1)]

    def start(cum):
        rows.random(out=uniforms)
        offsets = np.searchsorted(cum, uniforms, side="right")
        offsets *= width
        return offsets

    def step(offsets, targets, out):
        rows.random(out=uniforms)
        # The first column adds into ``index`` from the offsets, the rest in place.
        source = offsets
        for col in columns:
            # Every offset is in range by construction; mode="clip" lets take
            # write into its out buffer without the buffered copy of mode="raise".
            np.take(col, offsets, out=column, mode="clip")
            np.greater(uniforms, column, out=bits)
            np.add(source, bits, out=index)
            source = index
        np.take(targets, source, out=out, mode="clip")

    return start, step


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
) -> SurvivalEstimate:
    """Sample the block chain from the flow-invariant measure and record the
    fraction avoiding the hole through each time step.

    It steps the counts of samples on the tower of ``_survival_tower``, plus
    a sink that holds the dead. The counts start as one multinomial draw
    over the exact mass at the tower's delay, the mass dead by then going to
    the sink; a step moves every interior count up one level and splits each
    occupied top's count by one multinomial draw over its state's links to
    their level-0 blocks and the deficit of its row. The estimate at t is
    the fraction outside the sink. A step costs O(tops x branches) whatever
    the number of samples, and reruns and t_max prefixes are byte-identical.
    """
    links, heights, start, delay = _survival_tower(system, hole)
    mass = _survival_curve(start, links, delay, heights)[1]
    tops = np.cumsum(heights) - 1
    starts = tops - heights + 1
    sink = size = len(mass)

    # (state, branch) tables of a top's split, one column per link and a last
    # one, the sink, which numpy's multinomial gives what the others leave.
    # A link's share is the step of its row's cumulative weight, cut at 1;
    # the last link of a row whose weight reaches 1 takes the sink's column.
    src, dst, p = links
    states = len(heights)
    rank = np.arange(len(src)) - np.searchsorted(src, src)
    branches = np.bincount(src, minlength=states)
    pvals = np.zeros((states, 1 + int(branches.max(initial=0))))
    pvals[src, rank] = p
    cum = np.minimum(np.cumsum(pvals, axis=1), 1.0)
    pvals = np.diff(cum, axis=1, prepend=0.0)
    targets = np.full(pvals.shape, sink)
    targets[src, rank] = starts[dst]
    full = np.flatnonzero(cum[:, -1] == 1.0)
    targets[full, -1] = targets[full, branches[full] - 1]
    pvals[full, branches[full] - 1] = 0.0

    samples = config.samples
    rng = _uniform_rows(config.seed)
    # The sink's entry is read as what the mass leaves: the samples already dead.
    counts = rng.multinomial(samples, np.append(mass, 0.0))

    estimates = np.empty(config.t_max + 1)
    stderrs = np.zeros(config.t_max + 1)
    estimates[0] = 1.0
    for t in range(1, config.t_max + 1):
        if t > 1:
            top = counts[tops]
            occupied = np.flatnonzero(top)
            # A top's count climbs onto the next state's level 0, which the
            # split then refills.
            counts[1:size] = counts[: size - 1]
            counts[starts] = 0
            split = rng.multinomial(top[occupied], pvals[occupied])
            np.add.at(counts, targets[occupied], split)
        p_hat = (samples - int(counts[sink])) / samples
        estimates[t] = p_hat
        stderrs[t] = math.sqrt(p_hat * (1.0 - p_hat) / samples)
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


def fit_escape_rate(estimate: SurvivalEstimate) -> EscapeRateEstimate:
    """Bracket the escape rate from the sampled curve over its second half.

    Each t in the window [max(1, t_max // 2), t_max] gives -log(p_hat -+ z * se)
    / (t * lambda) as rate bounds; the bracket is their union. A zero estimate
    inside the window raises AllMassEscapedError; an interval within 10% of its
    midpoint counts as converged.
    """
    t_max = estimate.config.t_max
    lo_t, hi_t = window = (max(1, t_max // 2), t_max)
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
    (default 4 * max k), heights, lattice, order, mean ceiling and the
    cylinder measure of each word of ``heights``, in its order."""
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    ks = tuple(sorted({int(k) for k in k_values}))
    if not ks or ks[0] < 1:
        raise ValueError(f"k values must be positive integers, got {k_values}")
    system = build_suspension(shift, ceiling)
    heights = dict(zip(system.words, system.heights.tolist()))
    if l_max is None:
        l_max = 4 * ks[-1]
    if l_max < ks[-1]:
        raise ValueError(f"l_max = {l_max} is below the largest k = {ks[-1]}")
    masses = system.block_measure[system._starts]
    return ks, l_max, heights, system.lattice_scale, ceiling.order, system.total_mass, masses


def fit_decay(k_values, probabilities) -> "float | None":
    """exp(slope) of log P against k over the tail (last half, positive P)."""
    pts = [(k, p) for k, p in zip(k_values, probabilities) if p > 0.0]
    tail = pts[len(pts) // 2 :] if len(pts) >= 4 else pts
    if len(tail) < 2:
        return None
    ks = np.array([k for k, _ in tail], dtype=float)
    logs = np.log(np.array([p for _, p in tail]))
    return float(np.exp(np.polyfit(ks, logs, 1)[0]))


def _kept_sums(lam: float, mean: float, epsilon: float, l_max: int, h_max: int):
    """(lo, hi), entry l - 1 for each l = 1..l_max: the ceiling sums s in
    0..l * h_max with |lam * s / l - mean| < epsilon, as one interval
    [lo, hi] (lo > hi when every sum deviates).

    Both deviation routes decide through this one float expression. It is
    monotone in s (rounding keeps order under a positive scale and a shift),
    so the sums that do not deviate are contiguous: lo counts the sums with
    offset <= -epsilon, and hi + 1 those with offset < epsilon. The float
    expression is off the exact one by far less than a lattice step lam / l,
    so it decides as exact arithmetic does on every sum more than one step
    from the boundary l * (mean -+ epsilon) / lam; each count evaluates it only
    on the five sums around that boundary, from two below its floor.
    """
    ls = np.arange(1, l_max + 1)
    tops = ls * h_max

    def count(bound, holds):
        # Clipped in float before the int64 cast, which an epsilon of 1e300 or
        # inf overflows; a window at either end of 0..top still counts right.
        floor = np.clip(np.floor(ls * (mean + bound) / lam), 0, tops + 3)
        first = floor.astype(np.int64) - 2
        sums = first[:, None] + np.arange(5)
        offset = lam * sums / ls[:, None] - mean
        inside = (sums >= 0) & (sums <= tops[:, None]) & holds(offset, bound)
        return np.clip(first, 0, tops + 1) + np.count_nonzero(inside, axis=1)

    return count(-epsilon, np.less_equal), count(epsilon, np.less) - 1


def estimate_deviation_prob(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    epsilon: float,
    k_values: "list[int] | tuple[int, ...]",
    config: SimulationConfig,
    l_max: "int | None" = None,
) -> DeviationEstimate:
    """Sample paths and estimate the deviation probabilities P_k.

    The ceiling sum is accumulated as exact lattice integers. The deviation
    test |lambda * S / l - mean| >= epsilon is the float expression of the
    exact dynamic program, decided for every l and every reachable sum
    0..l * h_max at once as intervals (``_kept_sums``), so each sample's
    decision is one unsigned comparison and matches the exact route bit for
    bit. The ceiling is read as ``exact_deviation_prob`` reads it, with its errors.
    """
    ks, l_max, heights, lam, n, mean, _ = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )

    size = shift.alphabet_size
    # Row-major (window code, letter) tables read at offset code * size + b.
    # A step takes a code to the code of its last n - 1 letters, times size,
    # plus the next letter b, on the thresholds of the code's last letter: a
    # gather, a branch count and no int64 %. A window of fewer than n letters
    # steps the same way, so it grows to n letters. ``height`` holds each
    # code's height at its offset.
    codes = np.arange(size ** n)
    targets = ((codes % size ** (n - 1) * size)[:, None] + np.arange(size)).ravel() * size
    table = np.empty((size ** n, size))
    table[:, :-1] = np.cumsum(shift.transitions, axis=1)[codes % size, :-1]
    height = np.zeros(size ** n * size, dtype=np.int64)
    for w, k in heights.items():
        code = 0
        for a in w:
            code = code * size + a
        height[code * size] = k
    h_max = max(heights.values())

    samples = config.samples
    rows = _uniform_rows(config.seed)
    start, step = _brancher(rows, table.ravel(), size, samples)
    offsets = start(np.cumsum(shift.stationary)[:-1])
    for _ in range(n - 1):
        step(offsets, targets, offsets)

    lows, highs = _kept_sums(lam, mean, epsilon, l_max, h_max)
    # Each sample carries gap = S_l - lows[l], its ceiling sum less the low
    # end of l's kept interval. A step's target table packs the target's
    # offset in the low bits and its height less the step of lows in the
    # high bits, so one mask and one arithmetic shift unpack what moves the
    # offset and the gap; there is one table per distinct step of lows.
    low = int(targets.max()).bit_length()
    packed = np.left_shift(height[targets], low) + targets
    tables = {d: packed - (d << low) for d in set(np.diff(lows).tolist())}
    mask = (1 << low) - 1
    lows, highs = lows.tolist(), highs.tolist()
    # Row i: the sample deviated at some l in [k_i, k_{i+1}), the last row to
    # l_max, so P_k is the fraction deviating in row i or any later one.
    flags = np.zeros((len(ks), samples), dtype=bool)
    bucket = (np.searchsorted(ks, np.arange(1, l_max + 1), side="right") - 1).tolist()
    gap = np.take(height, offsets) - lows[0]
    word = np.empty(samples, dtype=np.int64)
    bits = np.empty(samples, dtype=bool)
    for l in range(1, l_max + 1):
        if l >= ks[0]:
            lo, hi = lows[l - 1], highs[l - 1]
            row = flags[bucket[l - 1]]
            if lo > hi:
                row[:] = True
            else:
                # S_l lies outside [lo, hi] iff the gap, read unsigned (a
                # negative gap wraps past every bound), exceeds hi - lo.
                np.greater(gap.view(np.uint64), np.uint64(hi - lo), out=bits)
                np.logical_or(row, bits, out=row)
        if l < l_max:
            step(offsets, tables[lows[l] - lows[l - 1]], word)
            np.bitwise_and(word, mask, out=offsets)
            np.add(gap, np.right_shift(word, low, out=word), out=gap)

    probabilities = np.logical_or.accumulate(flags[::-1], axis=0)[::-1].mean(axis=1)
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

    One forward pass, with no absorption, gives the distribution dist_k at each
    k. One backward pass gives V_l, the probability of not deviating at any l'
    in [l, l_max] from each (suffix, sum): V_{l_max} = keep_{l_max} and
    V_l = keep_l * (T V_{l+1}), where keep_l is the non-deviating interval of
    ``_kept_sums``, the sampler's test. Then P_k = 1 - sum(dist_k * V_k), so
    every k costs max k + l_max - min k steps in all. Both passes run in
    length order, since keep_l depends on l, and step with the sparse
    per-gain operators A_g of ``_lattice_operators``, laid out once by
    ``_gain_plan``: the forward step is new[:, g:] += A_g @ dist[:, :width - g],
    and T V, new[:, :width - g] += A_g^T @ V[:, g:], is the same plan with read
    and write swapped. Heights, lattice, mean and the start masses (the cylinder
    measures of the words of the ceiling's order) come from
    ``build_suspension(shift, ceiling)``, which reads every admissible word of
    that order and raises as it does.
    """
    ks, l_max, heights, lam, n, mean, masses = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    suffix_len = max(n - 1, 1)
    index = {w: i for i, w in enumerate(admissible_words(shift, suffix_len))}
    operators = _lattice_operators(shift, heights, n, index)
    h_max = max(heights.values())
    width = l_max * h_max + 1

    cells = [index[w[-suffix_len:]] * width + k for w, k in heights.items()]
    dist = np.bincount(cells, weights=masses, minlength=len(index) * width)
    dist = dist.reshape(len(index), width)
    forward = _gain_plan(operators, width)
    dists = {}
    for l in range(1, ks[-1] + 1):
        if l > 1:
            dist = _gain_step(dist, forward)
        if l in ks:
            dists[l] = dist

    # T V reads where the forward step writes and writes where it reads.
    read, write, p = forward
    backward = (write, read, p)
    lows, highs = (bound.tolist() for bound in _kept_sums(lam, mean, epsilon, l_max, h_max))
    survive = np.ones_like(dist)
    out = {}
    for l in range(l_max, ks[0] - 1, -1):
        if l < l_max:
            survive = _gain_step(survive, backward)
        # Sums above l * h_max are unreachable at l, so zeroing them is harmless.
        survive[:, : lows[l - 1]] = 0.0
        survive[:, highs[l - 1] + 1 :] = 0.0
        if l in dists:
            out[l] = 1.0 - float(np.sum(dists[l] * survive))
    return tuple(out[k] for k in ks)
