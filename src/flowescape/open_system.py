"""Open suspension systems: punch a cylinder hole into the block chain.

The hole over a word a_1..a_m is the bottom slab of its cylinder. Removing it
from the time-lambda block chain zeroes the rows of all level-0 blocks whose
word extends the hole word. The open operator has two representations, and
``escape_rate_flow(..., representation=...)`` is the public route to each:

* ``refined``: the order-n chain run on the hole's pattern automaton (below),
  with no refinement of the ceiling to order max(m, n). Dimension at most
  n-words * m.
* ``bordered``: keep the order-n chain and append k0 - 1 border rows/columns
  that carry the hole's overlap structure (alpha, the correlation coefficients
  c_k, and a return column). Dimension n-blocks + k0 - 1, independent of m.

Both have the same escape rate, and neither route builds its tall matrix.
This module holds the refined route, the choice between the two, block
holes and the survival tower. ``zeta`` holds the bordered operator: the
hole quantities, the bordered tower and the root of its determinant. The
refined rate collapses each word's tower: with P the hole automaton of
``shift`` (states: the last n letters u and the Knuth-Morris-Pratt match
j < m of the text read; an edge that completes the hole is dropped) and k_u
the ceiling heights, the radius is e^{-s*} for the root s* of
rho(diag(e^{s k}) P) = 1. The automaton has at most |words of length n| * m
states, where the refined block chain has one tower per word of length
max(m, n). The exact survival curve and the survival sampler step on one
tower: the order-n word operator with the hole's edges dropped, or, for a
hole longer than the order, the hole automaton, read k0 steps late. An orbit
dies only on an edge that operator lacks, and no route builds the words of
the hole's length. The radius of a cyclic component of 1-2 states is closed
form, and one of 3-4 states a guarded Newton root of its characteristic
polynomial; only one of 5 to 128 states, a 3-4 state one Newton does not
settle, or a larger one whose power iteration stalls, goes dense.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionTooLargeError,
    HoleShorterThanCeilingOrderError,
    NoConvergenceError,
    NotReducedError,
    RefinementTooLargeError,
)
from .shift import (
    Word,
    _checked_hole,
    _hole_automaton,
    _is_integer,
    _strongly_connected_components,
    _survival_curve,
    _within_state_cap,
)
from .suspension import SuspensionSystem, _prefix_height, flow_invariant_vector
from .zeta import _bordered_root, hole_quantities


# ===========================================================================
# Spectral radii
# ===========================================================================

_TINY = float(np.finfo(float).tiny)
# Relative width at which the power iteration's bracket on a radius closes,
# and its iteration budget.
_RADIUS_TOL = 1e-13
_RADIUS_MAX_ITER = 200_000


def _power_iteration_radius(links, size: int) -> "float | None":
    """Collatz-Wielandt bracket via power iteration on (M + I)/2, M the block
    of ``size`` states with ``links``, over the iterate's normal-float entries.

    The shift makes the iteration primitive on an irreducible block, so the
    min/max ratio bounds close geometrically, to ``_RADIUS_TOL``. Returns None
    when ``_RADIUS_MAX_ITER`` steps run out (caller falls back to dense
    eigenvalues).
    """
    src, dst, p = links
    vec = np.full(size, 1.0 / size)
    for _ in range(_RADIUS_MAX_ITER):
        nxt = 0.5 * (vec + np.bincount(dst, weights=vec[src] * p, minlength=size))
        # Entries below the smallest normal float carry no digits (0/0 on a
        # long hole's Perron vector), so the ratios skip them.
        normal = vec >= _TINY
        ratios = nxt[normal] / vec[normal]
        low, high = float(ratios.min()), float(ratios.max())
        if high - low <= _RADIUS_TOL * max(1.0, high):
            return max(2.0 * 0.5 * (low + high) - 1.0, 0.0)
        vec = nxt / nxt.sum()
    return None


def _char_poly(a: list, sign: float) -> tuple:
    """Coefficients, highest first, of det(xI - A) (``sign`` -1.0) or of
    per(xI + A) (``sign`` 1.0) for the 3x3 or 4x4 list ``a``: five of them,
    led by an exact 0.0 at 3 states, so that one Horner form serves both.

    The coefficient of x^(d-k) is sign^k times the sum of the principal
    k x k determinants (permanents) of A: the same products, with sign
    taken where the determinant subtracts."""
    if len(a) == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        m12 = a11 * a22 + sign * a12 * a21
        pairs = a00 * a11 + sign * a01 * a10 + a00 * a22 + sign * a02 * a20 + m12
        full = (
            a00 * m12
            + sign * a01 * (a10 * a22 + sign * a12 * a20)
            + a02 * (a10 * a21 + sign * a11 * a20)
        )
        return 0.0, 1.0, sign * (a00 + a11 + a22), pairs, sign * full
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), (a30, a31, a32, a33) = a
    # The 2 x 2 minors of rows 0-1 (u) and of rows 2-3 (v), by column pair:
    # the 3 x 3 minors expand along a row of the other pair, and the 4 x 4
    # one by Laplace over complementary column pairs.
    u01, u02 = a00 * a11 + sign * a01 * a10, a00 * a12 + sign * a02 * a10
    u03, u12 = a00 * a13 + sign * a03 * a10, a01 * a12 + sign * a02 * a11
    u13, u23 = a01 * a13 + sign * a03 * a11, a02 * a13 + sign * a03 * a12
    v01, v02 = a20 * a31 + sign * a21 * a30, a20 * a32 + sign * a22 * a30
    v03, v12 = a20 * a33 + sign * a23 * a30, a21 * a32 + sign * a22 * a31
    v13, v23 = a21 * a33 + sign * a23 * a31, a22 * a33 + sign * a23 * a32
    pairs = (
        u01 + v23 + a00 * a22 + sign * a02 * a20 + a00 * a33 + sign * a03 * a30
        + a11 * a22 + sign * a12 * a21 + a11 * a33 + sign * a13 * a31
    )
    triples = (
        a20 * u12 + sign * a21 * u02 + a22 * u01
        + a30 * u13 + sign * a31 * u03 + a33 * u01
        + a00 * v23 + sign * a02 * v03 + a03 * v02
        + a11 * v23 + sign * a12 * v13 + a13 * v12
    )
    full = u01 * v23 + sign * u02 * v13 + u03 * v12 + u12 * v03 + sign * u13 * v02 + u23 * v01
    return 1.0, sign * (a00 + a11 + a22 + a33), pairs, sign * triples, full


# A 3-4 state Newton root stands when it stops within _NEWTON_MAX_STEPS and
# its condition number against the rounding of the characteristic
# polynomial is at most _NEWTON_MAX_CONDITION.
_NEWTON_MAX_CONDITION = 16.0
_NEWTON_MAX_STEPS = 60


def _newton_radius(rows: list) -> "float | None":
    """Perron root of the irreducible nonnegative 3x3 or 4x4 list ``rows``;
    None where Newton does not settle it to a few ulp.

    The matrix is scaled by a power of two so that its largest row sum, an
    upper bound on the root (Collatz-Wielandt), lies in [0.5, 1). Newton on
    p(x) = det(xI - A) runs down from that bound: p is increasing and convex
    right of the root (Gauss-Lucas), so the iterates fall monotonically until
    rounding stops them. p is evaluated from its coefficients, so its
    rounding error is a few ulp of P(x) = per(xI + A), the same polynomial
    with every sign +, and the root's relative error is that many ulp times
    the condition number P(x) / (x p'(x)). The root stands where that is
    at most 16; a near-double Perron root, a small spectral gap, fails it.
    Newton takes more than 60 steps only from a bound six or more orders of
    magnitude above the root, on a badly balanced block; it then returns
    None, as where the guard trips, and the caller's dense eigenvalues, which
    balance the block first, take both exits. The cap also keeps the root's
    x^4 far above the float range's floor, below which products of entries
    would lose digits.
    """
    top = max(map(sum, rows))
    if not 0.0 < top < math.inf:
        return None
    _, exponent = math.frexp(top)
    if exponent < -1020:
        # Subnormal rows: 2^-exponent is past the float range.
        return None
    scale = math.ldexp(1.0, -exponent)
    a = [[w * scale for w in row] for row in rows]
    b0, b1, b2, b3, b4 = _char_poly(a, -1.0)
    x = top * scale
    for _ in range(_NEWTON_MAX_STEPS):
        value = (((b0 * x + b1) * x + b2) * x + b3) * x + b4
        slope = ((4.0 * b0 * x + 3.0 * b1) * x + 2.0 * b2) * x + b3
        if value <= 0.0 or slope <= 0.0:
            break
        step = x - value / slope
        if not step < x:
            break
        x = step
    else:
        return None
    e0, e1, e2, e3, e4 = _char_poly(a, 1.0)
    bound = (((e0 * x + e1) * x + e2) * x + e3) * x + e4
    if not bound <= _NEWTON_MAX_CONDITION * x * slope:
        return None
    return math.ldexp(x, exponent)


def _component_radius(links, size: int) -> float:
    """Spectral radius of one irreducible nonnegative block of ``size`` states,
    its links (rows, cols, weights) numbered within the block. The word-operator
    root passes Python lists at 1-4 states and numpy arrays past that."""
    # 1-2 states are closed form, and 3-4 states take guarded Newton on the
    # characteristic polynomial, on the links as Python floats. Dense
    # eigenvalues beat power iteration outright up to 128 states, and take
    # over wherever Newton returns None (its guard trips or it spends its
    # step cap) or a small spectral gap stalls the power iteration past 128.
    src, dst, p = links
    if size <= 4 and isinstance(p, np.ndarray):  # arrays from other callers
        src, dst, p = src.tolist(), dst.tolist(), p.tolist()
    if size == 1:
        return float(p[0])
    if size == 2:
        # The Perron root of [[a, b], [c, d]]: a sum of nonnegative terms with
        # b * c taken as sqrt(b) * sqrt(c), so it neither cancels nor overflows.
        entries = [[0.0, 0.0], [0.0, 0.0]]
        for i, j, w in zip(src, dst, p):
            entries[i][j] = w
        (a, b), (c, d) = entries
        return 0.5 * (a + d) + math.hypot(0.5 * (a - d), math.sqrt(b) * math.sqrt(c))
    if size <= 4:
        entries = [[0.0] * size for _ in range(size)]
        for i, j, w in zip(src, dst, p):
            entries[i][j] = w
        estimate = _newton_radius(entries)
    else:
        estimate = _power_iteration_radius(links, size) if size > 128 else None
    if estimate is None:
        sub = np.zeros((size, size))
        sub[src, dst] = p
        estimate = float(np.abs(np.linalg.eigvals(sub)).max())
    return estimate


# The word-operator root stops once its bracket is 4 ulp of s* wide or
# |log rho| is within 4 ulp of max(1, s h_max), the rounding of s h.
_ROOT_WIDTH = 4.0 * float(np.finfo(float).eps)
_ROOT_MAX_STEPS = 100
# Largest log of a row weight the root evaluates (e^709 is the float limit).
_ROOT_MAX_LOG_WEIGHT = 700.0


def _word_operator_root(links, heights) -> float:
    """The s* with rho(diag(e^{s h}) P) = 1, for the links of P substochastic
    and heights h positive; +inf when P is nilpotent. rho(P) <= 1 makes s* >=
    0, so where rounding puts log rho(P) at or above 0 the root is +0.0.

    f(s) = log rho(diag(e^{s h}) P) is convex, with slope a Perron average of
    the heights on the cyclic components of P. So from f(0) = log rho(P) the
    root lies between near = -f(0)/h_max and -f(0)/h_min, over those
    heights. Equal heights close that bracket with one radius evaluation.
    Otherwise f(near) is evaluated. When rho(P) < 1, convexity keeps f above
    the chord through (0, f(0)) and (near, f(near)) past near, so the chord's
    zero is a second, usually much closer, upper end. Illinois steps
    then shrink the bracket to about 4 ulp of s*. They stop early, as does
    the chord's zero, where |f| is within 4 ulp of max(1, s h_max): rounding
    s h alone moves log rho by that much, so no float comes closer to 0.
    Weights are e^{s h} unscaled, so the radii are near 1 close to the
    root. The upper end is clamped where a weight reaches e^700, and
    NoConvergenceError is raised only when the root lies past that clamp,
    outside the float range.

    The links inside each cyclic component are split off once per root, on
    Python lists, and laid end to end, one component after another. Each
    evaluation of f makes one pass p e^{s h} over all of them, and each
    component's radius reads its slice of that pass: as Python floats at
    1-4 states, as a numpy array past that. f(0) reads the weights p
    themselves, since e^{0 h} = 1 exactly.
    """
    src, dst, p = links
    h = list(map(float, heights))
    # Positive row weights keep the strongly connected components. The
    # cyclic ones are those with a link inside: more than one state, or a
    # loop. Their links are taken in order, renumbered within the component,
    # each with its row's height.
    comps = _strongly_connected_components(len(h), src, dst)
    label, local = [0] * len(h), [0] * len(h)
    for c, comp in enumerate(comps):
        for k, state in enumerate(comp):
            label[state], local[state] = c, k
    src_list, dst_list, p_list = src.tolist(), dst.tolist(), p.tolist()
    inside: list[list[int]] = [[] for _ in comps]
    for e, (a, b) in enumerate(zip(src_list, dst_list)):
        if label[a] == label[b]:
            inside[label[a]].append(e)
    parts, probs, powers = [], [], []
    for comp, edges in zip(comps, inside):
        if not edges:
            continue
        rows = [local[src_list[e]] for e in edges]
        cols = [local[dst_list[e]] for e in edges]
        if len(comp) > 4:
            rows, cols = np.array(rows), np.array(cols)
        parts.append((rows, cols, len(probs), len(probs) + len(edges), len(comp)))
        probs += [p_list[e] for e in edges]
        powers += [h[src_list[e]] for e in edges]
    if not parts:
        return math.inf
    h_min, h_max = min(powers), max(powers)
    weights, powers = np.array(probs), np.array(powers)
    listed = any(size <= 4 for *_, size in parts)

    def log_radius(product: np.ndarray, values) -> float:
        # ``values`` holds ``product`` as a list where a component is listed.
        return math.log(
            max(
                _component_radius(
                    (rows, cols, (values if size <= 4 else product)[start:stop]), size
                )
                for rows, cols, start, stop, size in parts
            )
        )

    def f(s: float) -> float:
        product = weights * np.exp(s * powers)
        return log_radius(product, product.tolist() if listed else product)

    f0 = log_radius(weights, probs)
    if f0 >= 0.0:
        return 0.0
    near = -f0 / h_max
    if h_min == h_max:
        return near
    limit = _ROOT_MAX_LOG_WEIGHT / h_max
    if near > limit:
        raise NoConvergenceError(
            f"word-operator root lies past s = {near!r}, where the weights "
            "e^(s h) leave the float range"
        )
    f_near = f(near)
    if f_near * f0 <= 0.0:
        # The bounds put the root on the far side of near, so a value of the
        # other sign there is rounding noise.
        return near
    far = -f0 / h_min
    if f0 < f_near < 0.0:
        far = min(far, near - f_near * near / (f_near - f0))
    clamped = far > limit
    if clamped:
        far = limit
    f_far = f(far)
    if f_far * f0 >= 0.0:
        if clamped and f_far != 0.0:
            raise NoConvergenceError(
                f"word-operator root lies past s = {limit!r}, where the weights "
                "e^(s h) leave the float range"
            )
        # far is a bound too, so its value there is noise as well.
        return far
    if abs(f_far) <= _ROOT_WIDTH * max(1.0, far * h_max):
        return far
    (lo, f_lo), (hi, f_hi) = sorted(((near, f_near), (far, f_far)))
    kept = None
    for _ in range(_ROOT_MAX_STEPS):
        if hi - lo <= _ROOT_WIDTH * max(-lo, hi):
            return 0.5 * (lo + hi)
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= _ROOT_WIDTH * max(1.0, mid * h_max):
            # log rho carries the rounding noise of s h, so no further
            # step would sharpen the root.
            return mid
        # Illinois: an end kept twice running has its value halved, so the
        # false-position point moves towards it and that end is replaced too.
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
            if kept == "hi":
                f_hi *= 0.5
            kept = "hi"
        else:
            hi, f_hi = mid, f_mid
            if kept == "lo":
                f_lo *= 0.5
            kept = "lo"
    raise NoConvergenceError(
        f"word-operator root bracket [{lo!r}, {hi!r}] still open after "
        f"{_ROOT_MAX_STEPS} steps"
    )


def _open_root(system: SuspensionSystem, hole: Word) -> float:
    """Word-operator root s* of the refined open system, so its radius is e^{-s*}.

    P is the hole automaton of the base at the system's order, each state
    (u, j) weighted by the ceiling height of its last letters u.
    """
    word = _checked_hole(system.base, hole)
    states, links = _hole_automaton(system.base, word, system.order)
    index, heights = system._word_index, system.heights.tolist()
    return _word_operator_root(links, [heights[index[u]] for u, _ in states])


# ===========================================================================
# Escape rates and survival curves
# ===========================================================================

def _open_rate(
    system: SuspensionSystem, hole: Word, representation: str
) -> tuple[str, float, float]:
    """(representation with ``auto`` resolved, flow escape rate, radius of the
    open time-lambda operator), from one root of that representation.

    ``auto`` is refined when the admissible words of length max(len(hole),
    order) number at most ``DEFAULT_STATE_CAP``, bordered past it, except
    that a hole the bordered route rejects on a precondition of its own (not
    reduced, shorter than the order, too many states, a determinant past the
    dense cap) takes the refined root, which needs only the hole automaton.
    When that automaton is past the cap too, its RefinementTooLargeError is
    raised from the bordered route's error."""
    if representation not in ("auto", "refined", "bordered"):
        raise ValueError(f"unknown representation {representation!r}")
    resolved = representation
    if representation == "auto":
        within = _within_state_cap(system.base, max(len(hole), system.order))
        resolved = "refined" if within else "bordered"
    bordered_error = None
    if resolved == "bordered":
        try:
            root = _bordered_root(system, hole_quantities(system, hole))
        except (NotReducedError, HoleShorterThanCeilingOrderError, DimensionTooLargeError) as error:
            if representation != "auto":
                raise
            resolved, bordered_error = "refined", error
        else:
            # A root of 1 is a rate below float resolution: +0.0, not -0.0.
            # A root of inf (every orbit meets the hole) is a rate of inf.
            with np.errstate(divide="ignore"):
                rate = -float(np.log(1.0 / root)) / system.lattice_scale if root > 1.0 else 0.0
            return resolved, rate, 1.0 / root
    try:
        root = _open_root(system, hole)
    except RefinementTooLargeError as error:
        if bordered_error is None:
            raise
        raise error from bordered_error
    return resolved, root / system.lattice_scale, math.exp(-root)


def escape_rate_flow(
    system: SuspensionSystem,
    hole: Word,
    representation: str = "auto",
) -> float:
    """Escape rate of the suspension flow through the hole, in flow-time units.

    This is -log(radius)/lambda for the open time-lambda operator; +inf when
    everything escapes (radius 0). The refined route returns the word-operator
    root s*/lambda directly rather than -log(e^{-s*})/lambda, which would
    lose relative accuracy when s* is small. It needs no block matrix, nor
    does the bordered route from 30 states. A radius that rounds to 1 gives
    +0.0. ``auto`` answers on the refined route wherever the bordered one
    rejects the hole and the hole automaton fits ``DEFAULT_STATE_CAP``; where
    it does not, ``auto`` raises RefinementTooLargeError, whose ``__cause__``
    is the bordered route's error.
    """
    return _open_rate(system, hole, representation)[1]


def escape_rate_block_hole(system: SuspensionSystem, rows: "tuple[int, ...] | list[int]") -> float:
    """Escape rate when the hole is an arbitrary union of blocks (given as row
    indices 0..blocks-1 of the block matrix; ValueError otherwise, fractions
    included). A row at any level of a word's tower removes that whole word:
    its links of ``word_links`` are dropped before the word-operator root."""
    size = system._block_count
    # The range check comes first, so that int() never sees inf or nan.
    if not rows or not all(0 <= r < size and int(r) == r for r in rows):
        raise ValueError(f"block hole needs rows within [0, {size}), got {list(rows)}")
    src, dst, p = system.word_links
    kept = ~np.isin(src, np.searchsorted(system._starts, rows, side="right") - 1)
    return _word_operator_root((src[kept], dst[kept], p[kept]), system.heights) / system.lattice_scale


def _survival_tower(
    system: SuspensionSystem, hole: Word
) -> tuple[tuple, np.ndarray, np.ndarray, int]:
    """(links, heights, start mass, delay): the tower on which the exact
    survival curve and the survival sampler step. Each state of the
    substochastic operator owns a tower of its height, level 0 first, and
    the start mass is the flow-invariant vector laid out on those blocks.
    Mass dies only on an edge the operator lacks, and it dies ``delay``
    lattice steps after the level-0 visit of the hole it records.

    With the hole no longer than the order n, the hole is the level-0 blocks
    of the words that begin with it: the operator is ``word_links`` without
    the links into them, their level-0 start mass is zeroed, and the delay
    is 0. A longer hole runs on the hole automaton at order n, each state
    (u, j) a tower of the height of u. The edge that completes a copy of the
    hole comes k0 (``_prefix_height``) steps after the level-0 block of the
    copy's first n letters u0, so the delay is k0. The mass above level 0 of
    u0 starts on one extra last state whose links are u0's links of
    ``word_links``, so it takes no part in the copy that starts below it:
    the automaton's first states are the system's words, in the same order.
    RefinementTooLargeError where the automaton passes ``DEFAULT_STATE_CAP``.
    """
    word = _checked_hole(system.base, hole)
    n, m = system.order, len(word)
    start = np.array(flow_invariant_vector(system))
    src, dst, p = system.word_links
    if m <= n:
        rows = [i for i, w in enumerate(system.words) if w[:m] == word]
        kept = ~np.isin(dst, rows)
        start[system._starts[rows]] = 0.0
        return (src[kept], dst[kept], p[kept]), system.heights, start, 0
    states, automaton = _hole_automaton(system.base, word, n)
    first = system._word_index[word[:n]]
    row = src == first
    extra = (np.full(np.count_nonzero(row), len(states)), dst[row], p[row])
    links = tuple(map(np.concatenate, zip(automaton, extra)))
    heights = np.array([system.height_of(u) for u, _ in states] + [system.heights[first]])
    mass = np.zeros(int(heights.sum()))
    mass[: len(start)] = start
    above = slice(system._starts[first] + 1, system._starts[first] + heights[-1])
    mass[len(mass) - heights[-1] + 1 :] = mass[above]
    mass[above] = 0.0
    return links, heights, mass, _prefix_height(system, word)


def survival_curve_flow(system: SuspensionSystem, hole: Word, t_max: int) -> np.ndarray:
    """Exact survival probabilities S(0..t_max) under the flow-invariant measure.

    S(t) is the mass of points whose first t block-chain positions all avoid
    the hole; S(0) = 1 by convention (no kill has happened yet). Time is in
    lattice steps: one step is lambda units of flow time. The mass steps on
    the tower of ``_survival_tower``, the word operator with the hole's edges
    dropped, or the hole automaton for a hole longer than the order; there S
    is read k0 steps late, where the dropped edges complete the hole. No
    block matrix is built, and RefinementTooLargeError is raised exactly
    where ``escape_rate_flow(..., "refined")`` raises it.
    """
    if not _is_integer(t_max) or t_max < 0:
        raise ValueError(f"t_max must be an integer >= 0, got {t_max!r}")
    links, heights, start, delay = _survival_tower(system, hole)
    curve = _survival_curve(start, links, delay + t_max, heights)[0][delay:]
    curve[0] = 1.0
    return curve
