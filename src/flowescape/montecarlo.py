"""Monte Carlo cross-checks: survival sampling and Birkhoff deviation bounds.

Simulation is fully deterministic given a seed: every draw comes from
numpy's PCG64 stream (``default_rng(seed)``), and reruns are bit-identical
on one numpy build. Neither sampler walks a sample: the samples are
independent and exchangeable, so the counts of samples on the states of a
path form a Markov chain with the law of the per-sample walk, and each
sampler steps those counts, splitting every occupied state's count by one
``Generator.multinomial`` call vectorized over the states. A share is the
step of its row's cumulative weight cut at 1, the threshold a per-sample
walk would compare a uniform with, and numpy gives what the shares leave to
the last column, a successor or the sink, so a row summing just above 1
never trips numpy. The survival
sampler steps the blocks of the tower on which ``survival_curve_flow``
steps its mass, plus a sink that holds the dead: interior counts climb one
level a step, and each occupied top splits its count over its state's links
and the deficit of its row. The deviation sampler steps cells (ceiling sum,
window suffix, last k bucket in which the sample deviated), plus a sink for
samples that deviated in the last bucket; a cell whose sum no path can take
out of the kept band before l_max is settled, and its count leaves the steps
for its tag's total. The numbers depend on numpy's binomial algorithm, a
step costs O(states x branches) over the occupied states (for the deviation
sampler, the unsettled ones), and no array grows with the number of
samples. Exact counterparts for both estimators (the survival curve and the
lattice-sum DP of ``shift`` for the deviation probabilities) let tests hold
the samplers to 3-sigma.
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
    """Sampling parameters. Each route reads only some of them.

    ``estimate_survival`` reads ``seed``, ``samples`` and ``t_max``, its
    horizon in kills. ``estimate_deviation_prob`` reads only ``seed`` and
    ``samples``: its horizon is its own ``l_max``, so any valid ``t_max``
    (such as 1) serves. ``confidence_z`` is read only by ``fit_escape_rate``,
    which widens the survival sampler's standard errors by it.
    """

    seed: int
    samples: int
    t_max: int
    confidence_z: float = 3.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.samples < 100:
            raise ValueError(f"need at least 100 samples, got {self.samples}")
        if self.samples >= 2**63:
            raise ValueError(f"samples must be below 2**63 (int64 counts), got {self.samples}")
        if self.t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {self.t_max}")
        if self.confidence_z <= 0.0:
            raise ValueError(f"confidence_z must be positive, got {self.confidence_z}")


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
    rng = np.random.default_rng(config.seed)
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
    (default 4 * max k), heights, lattice, order n, mean ceiling, the
    cylinder measure of each word of ``heights``, in its order, and the index
    of the admissible words of max(n - 1, 1) letters, the DP's suffixes."""
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
    n = ceiling.order
    index = {w: i for i, w in enumerate(admissible_words(shift, max(n - 1, 1)))}
    return ks, l_max, heights, system.lattice_scale, n, system.total_mass, masses, index


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


def _settled_sums(lows, highs, first: int, h_min: int, h_max: int):
    """(lo, hi), entry l - 1 for each l = 1..l_max: the ceiling sums S at l
    from which no path deviates at any tested l' in (l, l_max], as one
    interval [lo, hi] (lo > hi when none is settled).

    After d more steps a path's sum lies in [S + d h_min, S + d h_max], and
    the kept sums of ``_kept_sums`` (``lows``, ``highs``) form an interval, so
    S is settled when both ends are kept at every l' > l from ``first`` on:
    S >= lo(l') - (l' - l) h_min and S <= hi(l') - (l' - l) h_max. An l'
    below ``first`` is not tested. Each bound is one reversed running
    maximum or minimum over l'; at l_max nothing is left to test, so every
    sum is settled.
    """
    l_max = len(lows)
    ls = np.arange(1, l_max + 1)
    tested = ls >= first
    # Untested l' get the loosest value a tested one can take, so they bind nothing.
    need_lo = np.where(tested, lows - ls * h_min, -l_max * h_min)
    need_hi = np.where(tested, highs - ls * h_max, 0)
    lo = np.append(np.maximum.accumulate(need_lo[:0:-1])[::-1], -l_max * h_min)
    hi = np.append(np.minimum.accumulate(need_hi[:0:-1])[::-1], 0)
    return lo + ls * h_min, hi + ls * h_max


def estimate_deviation_prob(
    shift: MarkovShift,
    ceiling: CylinderFunction,
    epsilon: float,
    k_values: "list[int] | tuple[int, ...]",
    config: SimulationConfig,
    l_max: "int | None" = None,
) -> DeviationEstimate:
    """Estimate the deviation probabilities P_k by sampling.

    It steps the counts of samples on cells (S_l, suffix, tag) plus a sink:
    S_l is the ceiling sum as an exact lattice integer, the suffix the last
    max(n - 1, 1) letters of the window, and the tag the last k bucket
    [k_i, k_{i+1}) in which the sample deviated, or none. A cell is the flat
    key (S * suffixes + suffix) * buckets + tag, so a sum's cells are one key
    range. The counts start as one multinomial draw over the cylinder masses
    of the n-words. At each l >= min k the cells outside the key range of
    ``_kept_sums``' interval, the exact DP's test, deviate: they take l's
    bucket as their tag, or go to the sink in the last bucket. Then the cells
    whose sums ``_settled_sums`` calls settled at l, one key slice, can
    neither deviate nor change their tag before l_max: one ``np.bincount``
    moves their counts to per-tag totals, and they leave the steps. Before
    the next l every remaining cell splits its count in one multinomial draw
    over its last letter's successors, a letter's share the step of the
    row's cumulative weight cut at 1 and the last letter taking the
    remainder, and one ``np.bincount`` merges the split counts onto their
    cells. The other cells split as they would without the settled ones, so
    the law of every P_k is unchanged; the steps end at l_max, where every
    cell is settled, or once no cell is left. P_k is the fraction in the
    sink or tagged k's bucket or a later one. A step costs O(unsettled cells
    x successors) and no array grows with the number of samples. The
    ceiling is read as ``exact_deviation_prob`` reads it, with its errors.

    Besides its draw, a step costs mostly numpy's per-call overhead, so it
    makes few calls: one ``searchsorted`` finds l's kept and settled key
    ranges together; the split's shares and key steps are gathered with
    ``take`` from tables with one row per key modulo suffixes * buckets;
    the merge's offset is the first key plus the least step, read without
    a pass over the moved keys; a retag skips an empty side, and a settled
    slice at either end is sliced off, not cut out by concatenation.
    """
    ks, l_max, heights, lam, n, mean, masses, index = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    samples = config.samples
    if samples > 2**53:
        raise ValueError(f"counts merge in float64, exact up to 2**53 samples, got {samples}")

    suffix_len = max(n - 1, 1)
    states = len(index)
    buckets = len(ks)
    per_sum = states * buckets
    # (suffix, branch) tables of a cell's split: the shares of its last
    # letter's successors, the last one in the final column, where numpy's
    # multinomial puts what the others leave, and the step each adds to a key.
    width = max(len(shift.successors(a)) for a in range(shift.alphabet_size))
    pvals = np.zeros((states, width))
    delta = np.zeros((states, width), dtype=np.int64)
    for w, i in index.items():
        succ = shift.successors(w[-1])
        cum = np.minimum(np.cumsum(shift.transitions[w[-1], list(succ)]), 1.0)
        pvals[i, : len(succ) - 1] = np.diff(cum, prepend=0.0)[:-1]
        for col, b in zip([*range(len(succ) - 1), -1], succ):
            x = w + (b,)
            delta[i, col] = (heights[x[-n:]] * states + index[x[-suffix_len:]] - i) * buckets
    # One row per (suffix, tag), the key modulo per_sum, gathered by ``take``
    # (a 2-D fancy index costs about five times as much per step). The steps
    # are stored above the least one, so a step's keys start at or above its
    # first key plus that least step.
    pvals = np.repeat(pvals, buckets, axis=0)
    least = int(delta.min())
    delta = np.repeat(delta - least, buckets, axis=0)

    rng = np.random.default_rng(config.seed)
    # Normalized, so the masses of all but the last word never pass 1.
    start = rng.multinomial(samples, masses / masses.sum())
    first = np.array([(k * states + index[w[-suffix_len:]]) * buckets for w, k in heights.items()])
    merged = np.bincount(first, weights=start)
    keys = np.flatnonzero(merged)
    counts = merged[keys].astype(np.int64)

    h_min, h_max = min(heights.values()), max(heights.values())
    kept = _kept_sums(lam, mean, epsilon, l_max, h_max)
    bucket = (np.searchsorted(ks, np.arange(1, l_max + 1), side="right") - 1).tolist()
    # Each l's kept sums, then its settled sums, as the key ranges of their
    # cells: one row of four bounds per l, for one ``np.searchsorted``.
    settle_lo, settle_hi = _settled_sums(*kept, ks[0], h_min, h_max)
    bounds = list(np.column_stack((kept[0], kept[1] + 1, settle_lo, settle_hi + 1)) * per_sum)
    sink = 0
    settled = np.zeros(buckets)
    for l in range(1, l_max + 1):
        lo, hi, a, b = keys.searchsorted(bounds[l - 1]).tolist()
        if l >= ks[0]:
            # Keys are sorted, so the kept cells are one slice [lo, hi) (empty
            # when the kept sums are) and the rest deviate.
            tag = bucket[l - 1] + 1
            if tag == buckets:
                sink += int(counts[:lo].sum() + counts[hi:].sum())
                keys, counts = keys[lo:hi], counts[lo:hi]
                # The settled range within the kept slice (a >= b if none).
                a, b = max(a - lo, 0), min(b, hi) - lo
            else:
                # A retag moves a key inside its sum's range: the order of
                # the keys and the settled range's bounds stay.
                for out in (keys[:lo], keys[hi:]):
                    if len(out):
                        out += tag - out % buckets
        # Settled cells keep their tag to the end: their counts leave the
        # steps for per-tag totals. At l_max every cell is settled.
        if a < b:
            settled += np.bincount(keys[a:b] % buckets, weights=counts[a:b], minlength=buckets)
            if a == 0:
                keys, counts = keys[b:], counts[b:]
            elif b == len(keys):
                keys, counts = keys[:a], counts[:a]
            else:
                keys, counts = (np.concatenate((x[:a], x[b:])) for x in (keys, counts))
        if not len(keys):
            break
        rows = keys % per_sum
        split = rng.multinomial(counts, pvals.take(rows, axis=0))
        moved = delta.take(rows, axis=0)
        moved += (keys - keys[0])[:, None]
        merged = np.bincount(moved.ravel(), weights=split.ravel())
        occupied = merged.nonzero()[0]
        keys = occupied + (keys[0] + least)
        counts = merged[occupied].astype(np.int64)

    # Tag t >= 1 is bucket t - 1: the samples that deviated at some l >= k_i
    # are those tagged above i and the sink.
    hits = sink + np.cumsum(settled[::-1])[::-1].astype(np.int64)
    probabilities = np.append(hits[1:], sink) / samples
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
    per-gain operators A_g of ``_lattice_operators``: the forward step is
    new[:, g:] += A_g @ dist[:, :width - g] along ``_gain_plan``, and T V is
    new[:, c] += A_g^T @ V[:, c + g] along a ``_gain_plan`` with read and
    write swapped. Each pass steps only the sums that can hold mass:
    - the forward pass runs on the max k * h_max + 1 sums that max k letters
      reach, and each dist_k is padded with zero columns to all
      l_max * h_max + 1 sums for its final sum, so ``np.sum`` adds the terms
      of the full-width product in its order;
    - V_l is zero outside the kept band [lo_l, hi_l], so the backward step
      reads and writes a window placed at lo_l, and its plan is sorted by
      written column (a stable sort, so each cell keeps its gain, then link
      order); the step at l takes the plan's prefix for the band's
      hi_l - lo_l + 1 columns, and the columns past the band stay zero.
      V carries the widest band plus h_max zero columns past the last sum,
      where the window's reads of c + g land.
    Each cell still sums its links in gain, then link order, and the terms
    dropped or read as padding are exact zeros, so every P_k is the
    full-width pass's float. Where no sum can deviate, that float is
    rounding off 0, a few units of 1e-16 either way; P_k is clamped at 0.
    Heights, lattice, mean and the start masses (the cylinder measures of
    the words of the ceiling's order) come from ``build_suspension(shift,
    ceiling)``, which reads every admissible word of that order and raises
    as it does.
    """
    ks, l_max, heights, lam, n, mean, masses, index = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    suffix_len = max(n - 1, 1)
    operators = _lattice_operators(shift, heights, n, index)
    h_max = max(heights.values())
    width = l_max * h_max + 1
    # The forward pass holds every sum it can reach by max k.
    reach = ks[-1] * h_max + 1

    cells = [index[w[-suffix_len:]] * reach + k for w, k in heights.items()]
    dist = np.bincount(cells, weights=masses, minlength=len(index) * reach)
    dist = dist.reshape(len(index), reach)
    forward = _gain_plan(operators, reach, reach)
    dists = {}
    for l in range(1, ks[-1] + 1):
        if l > 1:
            dist = _gain_step(dist, forward)
        if l in ks:
            dists[l] = dist

    lows, highs = (bound.tolist() for bound in _kept_sums(lam, mean, epsilon, l_max, h_max))
    band = max(1, max(hi - lo + 1 for lo, hi in zip(lows[ks[0] - 1 :], highs[ks[0] - 1 :])))
    stride = width + band + h_max
    read, write, p = _gain_plan(operators, stride, band)
    # T V on the first band columns, in column order: its first ends[c]
    # entries write the first c columns.
    column = read % stride
    order = np.argsort(column, kind="stable")
    back_read, back_write, back_p = write[order], read[order], p[order]
    ends = np.searchsorted(column[order], np.arange(band + 1)).tolist()
    # From origin lo <= width the window's last read, lo + (states - 1) * stride
    # + band - 1 + h_max, stays inside V.
    span = (len(index) - 1) * stride + band + h_max
    survive = np.zeros(len(index) * stride)  # V, row by row
    survive.reshape(-1, stride)[:, lows[-1] : highs[-1] + 1] = 1.0
    out = {}
    for l in range(l_max, ks[0] - 1, -1):
        lo, hi = lows[l - 1], highs[l - 1]
        if l < l_max:
            window = slice(lo, lo + span)
            stepped = np.zeros(survive.size)
            live = ends[hi - lo + 1]
            plan = (back_read[:live], back_write[:live], back_p[:live])
            stepped[window] = _gain_step(survive[window], plan)
            survive = stepped
        if l in dists:
            # Summed at the full width, as the full-width pass sums it.
            full = np.zeros((len(index), width))
            full[:, :reach] = dists[l]
            terms = full * survive.reshape(-1, stride)[:, :width]
            out[l] = max(0.0, 1.0 - float(np.sum(terms)))
    return tuple(out[k] for k in ks)
