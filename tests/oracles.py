"""Dense and step-by-step references the library routes are checked against.

The library's rate and determinant routes never build these matrices; the
tests build them here to check the routes against a dense radius,
determinant or sampler: the open matrices of the paper's two
representations, the word chain with the hole's rows zeroed, a plain
Faddeev-LeVerrier pass with the determinant and cofactor read off it, and
the spectral radius of a nonnegative matrix. ``dense`` rebuilds the matrix of
a chain the library keeps as sparse links. The lattice-sum DP is here one
slice-add per link and one step per word length, where the library groups
links by gain and solves the truncated pressure in sum order, and the
deviation routes' kept sums are bisected one l at a time, where the library
solves every l at once. ``Polynomial``'s arithmetic is here one generator or
double loop per operation on coefficient tuples. The shrinking-hole expansion
and open determinant are rebuilt in that arithmetic from the family's public
fields at every nu, with the dense correlation polynomial and every term of
the root equation's series, where the library keeps the nu-free pieces on the
family and assembles only what is nonzero, and the exact deviation DP steps
the full sum range in both passes, where the library steps forward only the
sums that max k letters reach and backward only each l's kept band.
The word-operator root is kept here as the numpy-masked version, which splits
each cyclic component's links with boolean masks and takes e^{s h} one
component at a time, and Tarjan's algorithm as the version that reads each
state's successors off ``searchsorted`` bounds; the library splits the links
once per root on Python lists and builds the successor lists in one pass.
The hole automaton's links are rebuilt here by matching every prefix of the
hole and put in order by ``np.lexsort``, where the library sorts each row's
few targets as it builds the row; the exact deviation DP's backward plan is
kept as its own builder, where the library swaps read and write of
``_gain_plan`` and sorts the plan by written column. The deviation sampler
``estimate_deviation_prob`` is kept as it was before its per-step numpy
overhead was cut: it gathers a step's rows by a 2-D fancy index on the
suffix, searches the kept and settled key ranges apart, merges from the
least moved key and drops a settled slice by concatenation. The tower
passes and the root scan are kept as they were before their per-call numpy
overhead was cut: ``leverrier`` gathers the dense iterate's diagonal with
``take`` and a fancy index, ``word_layers`` builds each power's dense layer
of W and gathers its rows, ``word_leverrier`` gathers the diagonal
polynomials, ``first_sign_change`` scans one bracket from poly(left), and
``polish_candidate`` evaluates deriv(cand) before its Newton pass.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from flowescape import (
    CylinderFunction,
    DeviationEstimate,
    MarkovShift,
    NoZeroAtOneError,
    Polynomial,
    SimulationConfig,
    admissible_words,
    build_suspension,
    cylinder_measure,
    family_hole_word,
    fit_decay,
    hole_quantities,
    refine_suspension,
)
from flowescape.montecarlo import _deviation_setup, _kept_sums, _settled_sums
from flowescape.errors import NoConvergenceError
from flowescape.open_system import (
    _ROOT_MAX_LOG_WEIGHT,
    _ROOT_MAX_STEPS,
    _ROOT_WIDTH,
    _component_radius,
)
from flowescape.pressure import _sup_completion
from flowescape.shift import (
    Word,
    _gain_plan,
    _gain_step,
    _hole_free_words,
    _cyclic_components,
    _lattice_operators,
)
from flowescape.suspension import SuspensionSystem
from flowescape.zeta import _DENSE_MAX_DIMENSION, _bordered_matrix, _newton_polish


def dense(links, n):
    """The n x n matrix of the links (src, dst, p): entry p at (src, dst)."""
    src, dst, p = links
    matrix = np.zeros((n, n))
    matrix[src, dst] = p
    return matrix


def refined_open_matrix(system, hole):
    """(matrix, refined system, hole rows): the block matrix of ``system``
    refined to order max(len(hole), order), with the level-0 rows of the
    words that begin with the hole zeroed."""
    hole = tuple(hole)
    refined = refine_suspension(system, max(len(hole), system.order))
    rows = [refined.block_index(w, 0) for w in refined.words if w[: len(hole)] == hole]
    matrix = refined.block_matrix.copy()
    matrix[rows, :] = 0.0
    return matrix, refined, rows


def bordered_open_matrix(system, hole):
    """The bordered open matrix: the order-n blocks plus k0 - 1 border states."""
    return _bordered_matrix(system, hole_quantities(system, hole))


@dataclass(frozen=True, eq=False)
class SurvivorMatrix:
    """The word chain: the base transition matrix on the admissible words of
    one order, in lexicographic order, with the rows ``hole_rows`` of the
    words that begin with the hole zeroed."""

    states: tuple[Word, ...]
    matrix: np.ndarray
    hole_rows: tuple[int, ...]


def survivor_matrix(shift, hole, order=None):
    """The word chain at ``order`` (default the hole length) for ``hole``;
    RefinementTooLargeError past ``DEFAULT_STATE_CAP`` words."""
    hole = tuple(hole)
    states = admissible_words(shift, len(hole) if order is None else order)
    index = {w: i for i, w in enumerate(states)}
    links = _lattice_operators(shift, dict.fromkeys(states, 0), len(states[0]), index)[0]
    matrix = dense(links, len(states))
    hole_rows = tuple(i for i, w in enumerate(states) if w[: len(hole)] == hole)
    matrix[list(hole_rows), :] = 0.0
    return SurvivorMatrix(states=states, matrix=matrix, hole_rows=hole_rows)


def hole_automaton_links(shift, hole, states):
    """The links (src, dst, p) of the hole automaton on ``states``, the
    library's (last letters, match) states, sorted by ``np.lexsort``: letter b
    leads from (u, j) to (u[1:] + b, k), with k the longest prefix of the hole
    that ends hole[:j] + b, and the link is dropped when k is the whole hole."""
    index = {state: i for i, state in enumerate(states)}
    src, dst, p = [], [], []
    for i, (u, j) in enumerate(states):
        for b in range(shift.alphabet_size):
            if shift.transitions[u[-1], b] > 0.0:
                text = hole[:j] + (b,)
                k = max(m for m in range(len(text) + 1) if text[len(text) - m :] == hole[:m])
                if k < len(hole):
                    src.append(i)
                    dst.append(index[u[1:] + (b,), k])
                    p.append(float(shift.transitions[u[-1], b]))
    src, dst = np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)
    ranked = np.lexsort((dst, src))
    return src[ranked], dst[ranked], np.array(p)[ranked]


def dense_leverrier(matrix, entry):
    """Faddeev-LeVerrier with one dense n x n product per step: the ascending
    coefficients of det(I - zM) and of the ``entry`` = (row, col) entry of
    adj(I - zM)."""
    mat = np.asarray(matrix, dtype=float)
    size = mat.shape[0]
    det_coeffs = [1.0]
    adj_coeffs = [1.0 if entry[0] == entry[1] else 0.0]
    acc = mat.copy()
    coeff = -float(np.trace(acc))
    det_coeffs.append(coeff)
    for k in range(2, size + 1):
        adj_coeffs.append(float(acc[entry]) + (coeff if entry[0] == entry[1] else 0.0))
        acc = mat @ (acc + coeff * np.eye(size))
        coeff = -float(np.trace(acc)) / k
        det_coeffs.append(coeff)
    return det_coeffs, adj_coeffs


def char_poly(matrix):
    """det(I - zM) as a polynomial in z (reversed characteristic polynomial)."""
    return Polynomial(tuple(dense_leverrier(matrix, (0, 0))[0]))


def cofactor_poly(matrix, t_index, r_index):
    """(t, r) cofactor of I - zM, i.e. adj(I - zM)[r, t], 0-based indices."""
    return Polynomial(tuple(dense_leverrier(matrix, (r_index, t_index))[1]))


def matrix_spectral_radius(matrix):
    """Spectral radius of a nonnegative matrix, the largest radius of its
    cyclic components, each taken as the word-operator root takes it; 0
    when there is none."""
    radius = 0.0
    for comp in _cyclic_components(len(matrix), *np.nonzero(matrix)):
        sub = matrix[np.ix_(comp, comp)]
        radius = max(radius, _component_radius((*np.nonzero(sub), sub[sub != 0.0]), len(comp)))
    return radius


def strongly_connected_components(size: int, src, dst) -> list[list[int]]:
    """Tarjan's algorithm over sorted edges, iterative to survive large graphs."""
    bounds, targets = np.searchsorted(src, np.arange(size + 1)).tolist(), dst.tolist()
    succ = [targets[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    index = [-1] * size
    low = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            node, child_pos = work[-1]
            if child_pos == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            for pos in range(child_pos, len(succ[node])):
                nxt = succ[node][pos]
                if index[nxt] == -1:
                    work[-1] = (node, pos + 1)
                    work.append((nxt, 0))
                    advanced = True
                    break
                if on_stack[nxt]:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
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


def word_operator_root(links, heights: np.ndarray) -> float:
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
    """
    h = np.asarray(heights, dtype=float)
    src, dst, p = links
    # Positive row weights keep the strongly connected components, so the links
    # inside each cyclic one are split off once, renumbered, with their row's height.
    comps = _cyclic_components(len(h), src, dst)
    if not comps:
        return math.inf
    label, local, parts = np.full(len(h), -1), np.zeros(len(h), dtype=np.int64), []
    for c, comp in enumerate(comps):
        label[comp], local[comp] = c, np.arange(len(comp))
        inside = (label[src] == c) & (label[dst] == c)
        rows, cols = src[inside], dst[inside]
        parts.append((local[rows], local[cols], p[inside], h[rows], len(comp)))
    cyclic = h[np.concatenate(comps)]
    h_min, h_max = float(cyclic.min()), float(cyclic.max())

    def f(s: float) -> float:
        return math.log(
            max(
                _component_radius((ls, ld, lp * np.exp(s * hl)), size)
                for ls, ld, lp, hl, size in parts
            )
        )

    f0 = f(0.0)
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


def lattice_links(shift, heights, order, index, hole=None):
    """Links (i, j, g, p) of the lattice-sum DP over (word, integer ceiling
    sum), one per link: word i plus letter b, cut to its last ``depth``
    letters (the longest word of ``index``), is word j; g is the height of
    its last window, 0 while it is shorter than ``order``, and p = p(last, b).
    Extensions ending in ``hole`` are dropped."""
    depth = max(map(len, index))
    links = []
    for w, i in index.items():
        for b in shift.successors(w[-1]):
            extended = w + (b,)
            if hole is not None and extended[-len(hole) :] == hole:
                continue
            gain = heights[extended[-order:]] if len(extended) >= order else 0
            prob = float(shift.transitions[w[-1], b])
            links.append((i, index[extended[-depth:]], gain, prob))
    return links


def lattice_step(dist, links):
    """One letter of the lattice-sum DP, one slice-add per link; sums pushed
    past the last column drop out."""
    width = dist.shape[1]
    new = np.zeros_like(dist)
    for i, j, g, p in links:
        if g < width:
            new[j, g:] += p * dist[i, : width - g]
    return new


def truncated_pressure_by_length(shift, ceiling, hole, t_max, eta=None):
    """``induced_pressure_truncated`` the length-order way: one lattice-sum
    DP step per word length, each length read out on its own, until every
    sum has passed t; -inf where no word lands in the window. Checks are left
    to the library route."""
    system = build_suspension(shift, ceiling)
    heights = dict(zip(system.words, system.heights.tolist()))
    lam = system.lattice_scale
    n = ceiling.order
    t_norm = round(t_max / lam)
    eta_norm = float(max(heights.values()) + 1) if eta is None else eta / lam

    depth = max(n - 1, len(hole) - 1, 1)
    states = [w for layer in _hole_free_words(shift, hole, depth) for w in layer]
    index = {w: i for i, w in enumerate(states)}
    links = lattice_links(shift, heights, n, index, hole=hole)
    dist = np.zeros((len(states), t_norm + 1))
    for i, w in enumerate(states):
        seed = heights[w] if len(w) == n == 1 else 0
        if len(w) == 1 and seed <= t_norm:
            dist[i, seed] = 1.0
    completion = np.array([_sup_completion(shift, heights, n, w) for w in states])
    totals = np.arange(t_norm + 1)[None, :] + completion[:, None]
    row_max = np.array([shift.transitions[w[-1]].max() for w in states])
    readout = ((totals > t_norm - eta_norm) & (totals <= t_norm)) * row_max[:, None]
    total_sum = float((dist * readout).sum())
    while dist.any():
        dist = lattice_step(dist, links)
        total_sum += float((dist * readout).sum())
    return math.log(total_sum) / (t_norm * lam) if total_sum > 0.0 else -math.inf


def kept_sums(lam, mean, epsilon, l, top):
    """The ceiling sums s in 0..top with |lam * s / l - mean| < epsilon, as one
    interval [lo, hi] (lo > hi when every sum deviates), by bisecting on the
    float expression itself, which is monotone in s."""
    sums = range(top + 1)

    def offset(s):
        return lam * s / l - mean

    lo = bisect.bisect_right(sums, -epsilon, key=offset)
    return lo, bisect.bisect_left(sums, epsilon, lo=lo, key=offset) - 1


# ---------------------------------------------------------------------------
# Polynomial arithmetic on ascending coefficient tuples
# ---------------------------------------------------------------------------
# ``Polynomial``'s arithmetic as a generator or a double loop per operation,
# each coefficient converted by ``float`` and trailing zeros trimmed, for the
# library's forms to give the same floats.


def poly(coeffs):
    """The coefficients as floats, trailing zeros trimmed, (0.0,) when none
    are left: the ``Polynomial`` constructor."""
    coeffs = tuple(map(float, coeffs))
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0.0:
        end -= 1
    return coeffs[:end] if end else (0.0,)


def poly_call(coeffs, z):
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def poly_derivative(coeffs):
    if len(coeffs) == 1:
        return poly((0.0,))
    return poly(tuple(i * c for i, c in enumerate(coeffs) if i > 0))


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return poly(tuple(x + (b[i] if i < len(b) else 0.0) for i, x in enumerate(a)))


def poly_mul(a, b):
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0.0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(tuple(out))


def poly_scale(coeffs, factor):
    return poly(tuple(factor * c for c in coeffs))


def poly_shift_power(coeffs, exponent):
    return poly((0.0,) * exponent + coeffs)


def poly_taylor_at_one(coeffs, terms):
    """Term l is sum_{i >= l} c_i comb(i, l), a builtin ``sum`` in ascending i."""
    out = []
    for l in range(terms):
        out.append(float(sum(c * math.comb(i, l) for i, c in enumerate(coeffs) if i >= l)))
    return tuple(out)


def poly_deflate_at_one(coeffs):
    """G with coeffs = (1 - z) G, by synthetic division; NoZeroAtOneError
    unless |p(1)| < 1e-9."""
    if abs(poly_call(coeffs, 1.0)) >= 1e-9:
        raise NoZeroAtOneError("no zero at 1")
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1])
    if len(coeffs) == 1:
        out = [0.0]
    return poly(tuple(out))


def series_quotient(num, den, order):
    out = []
    for l in range(order + 1):
        acc = num[l] - sum(out[j] * den[l - j] for j in range(l))
        out.append(acc / den[0])
    return tuple(out)


def times_one_minus_z(series):
    return (0.0,) + tuple(-c for c in series)


def _truncated_product(a, b, terms):
    out = [0.0] * terms
    for i, x in enumerate(a[:terms]):
        if x == 0.0:
            continue
        for j, y in enumerate(b[: terms - i]):
            out[i + j] += x * y
    return out


def root_equation_series(a, b, s, terms):
    """Coefficients in mu of sum_l a_l delta^l + mu sum_l b_l delta^l,
    truncated past mu^(terms-1), delta(mu) = sum_i s_i mu^i, every term of
    every power."""
    delta = [0.0] + s
    delta += [0.0] * (terms - len(delta))
    out = [0.0] * terms
    power = [1.0] + [0.0] * (terms - 1)
    for l in range(terms):
        if 1 <= l < len(a):
            for i in range(terms):
                out[i] += a[l] * power[i]
        if l < len(b):
            for i in range(terms - 1):
                out[i + 1] += b[l] * power[i]
        power = _truncated_product(power, delta, terms)
    return out


# ---------------------------------------------------------------------------
# Shrinking-hole families, rebuilt at every nu
# ---------------------------------------------------------------------------


def family_zeta_op(family, nu):
    """The coefficients of the family's open inverse zeta at ``nu``: the dense
    correlation polynomial, (1 - z)G, mu_nu and mu_t rebuilt from the family's
    public fields, in tuple arithmetic."""
    s = nu - family.order_over_period
    o = family.orbit_height
    corr = [0.0] * (o * (s - 1) + 1)
    for k in range(s):
        corr[o * k] = family.orbit_weight ** k
    base = family.system.base
    closed = poly_mul((1.0, -1.0), family.deflated.coefficients)
    alpha = cylinder_measure(base, family_hole_word(family, nu)) / cylinder_measure(
        base, family.t_word
    )
    cofactor = poly_scale(poly_shift_power(family.cofactor.coefficients, o * s), alpha)
    return poly_add(poly_mul(closed, poly(corr)), cofactor)


def expansion_coefficients(family, nu, order):
    """(s_normalized, closed_normalized) at ``nu``, every Taylor series,
    quotient and closed-form term rebuilt from the family's public fields,
    and every term of the root equation's series solved for at each s_j."""
    o = family.orbit_height
    c_o = family.orbit_weight
    k0 = o * (nu - family.order_over_period)
    g_poly, c_poly = family.deflated.coefficients, family.cofactor.coefficients
    den = poly((1.0,) + (0.0,) * (o - 1) + (-c_o,))
    den_series = poly_taylor_at_one(den, order + 1)
    a = series_quotient(times_one_minus_z(poly_taylor_at_one(g_poly, order)), den_series, order)
    b_order = max(order - 1, 0)
    mu_t = cylinder_measure(family.system.base, family.t_word)
    head = poly_shift_power(poly_scale(poly_mul(c_poly, den), 1.0 / mu_t), k0)
    tail = poly_shift_power(
        poly_scale(g_poly, c_o ** (1 - family.order_over_period) / family.word_measure), k0
    )
    g2_num = [
        h - t
        for h, t in zip(
            poly_taylor_at_one(head, b_order + 1),
            times_one_minus_z(poly_taylor_at_one(tail, b_order)),
        )
    ]
    b = series_quotient(g2_num, den_series, b_order)
    s_values = [0.0] * order
    for j in range(1, order + 1):
        series = root_equation_series(a, b, s_values, order + 1)
        s_values[j - 1] = -series[j] / a[1]

    mass = family.system.mass_normalized
    s1 = (1.0 - c_o) / mass
    bracket = (
        k0
        - poly_call(poly_derivative(g_poly), 1.0) / poly_call(g_poly, 1.0)
        - c_o * o / (1.0 - c_o)
        + poly_call(poly_derivative(c_poly), 1.0) / poly_call(c_poly, 1.0)
        + mass * c_o ** (1 - family.order_over_period)
        / (family.word_measure * (1.0 - c_o))
    )
    return tuple(s_values), (s1, s1 * s1 * bracket)


def band_plan(operators: dict, stride: int, band: int) -> tuple:
    """T V on the first ``band`` columns of a states x ``stride`` array, as
    flat offsets (read, write, p) in ``_gain_plan``'s (gain, link, column)
    order: cell (src, c) adds p times (dst, c + g). A step at origin o reads
    and writes o offsets further on."""
    cols = np.arange(band)
    reads, writes, weights = [], [], []
    for g, (src, dst, p) in operators.items():
        reads.append((dst[:, None] * stride + g + cols).ravel())
        writes.append((src[:, None] * stride + cols).ravel())
        weights.append(np.repeat(p, band))
    return np.concatenate(reads), np.concatenate(writes), np.concatenate(weights)


def exact_deviation_prob(shift, ceiling, epsilon, k_values, l_max):
    """``exact_deviation_prob`` with both passes over every sum column,
    0..l_max * h_max, at every l; the library steps forward only the sums
    that max k letters reach and backward only the kept band. P_k is left
    unclamped: where no sum can deviate it may round a little below 0."""
    ks, l_max, heights, lam, n, mean, masses, index = _deviation_setup(
        shift, ceiling, epsilon, k_values, l_max
    )
    suffix_len = max(n - 1, 1)
    operators = _lattice_operators(shift, heights, n, index)
    h_max = max(heights.values())
    width = l_max * h_max + 1
    cells = [index[w[-suffix_len:]] * width + k for w, k in heights.items()]
    dist = np.bincount(cells, weights=masses, minlength=len(index) * width)
    dist = dist.reshape(len(index), width)
    read, write, p = _gain_plan(operators, width, width)
    dists = {}
    for l in range(1, ks[-1] + 1):
        if l > 1:
            dist = _gain_step(dist, (read, write, p))
        if l in ks:
            dists[l] = dist
    lows, highs = (bound.tolist() for bound in _kept_sums(lam, mean, epsilon, l_max, h_max))
    survive = np.ones_like(dist)
    out = {}
    for l in range(l_max, ks[0] - 1, -1):
        if l < l_max:
            survive = _gain_step(survive, (write, read, p))
        survive[:, : lows[l - 1]] = 0.0
        survive[:, highs[l - 1] + 1 :] = 0.0
        if l in dists:
            out[l] = 1.0 - float(np.sum(dists[l] * survive))
    return tuple(out[k] for k in ks)


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

    rng = np.random.default_rng(config.seed)
    # Normalized, so the masses of all but the last word never pass 1.
    start = rng.multinomial(samples, masses / masses.sum())
    first = np.array([(k * states + index[w[-suffix_len:]]) * buckets for w, k in heights.items()])
    merged = np.bincount(first, weights=start)
    keys = np.flatnonzero(merged)
    counts = merged[keys].astype(np.int64)

    h_min, h_max = min(heights.values()), max(heights.values())
    kept = _kept_sums(lam, mean, epsilon, l_max, h_max)
    lows, highs = (bound.tolist() for bound in kept)
    bucket = (np.searchsorted(ks, np.arange(1, l_max + 1), side="right") - 1).tolist()
    per_sum = states * buckets
    # Each l's settled sums, as the key range of their cells.
    settle_lo, settle_hi = _settled_sums(*kept, ks[0], h_min, h_max)
    settle = list(zip((settle_lo * per_sum).tolist(), ((settle_hi + 1) * per_sum).tolist()))
    sink = 0
    settled = np.zeros(buckets)
    for l in range(1, l_max + 1):
        if l >= ks[0]:
            # Keys are sorted, so the kept cells are one slice [lo, hi) (empty
            # when lows[l - 1] = highs[l - 1] + 1) and the rest deviate.
            lo, hi = np.searchsorted(keys, (lows[l - 1] * per_sum, (highs[l - 1] + 1) * per_sum))
            tag = bucket[l - 1] + 1
            if tag == buckets:
                sink += int(counts[:lo].sum() + counts[hi:].sum())
                keys, counts = keys[lo:hi], counts[lo:hi]
            else:
                for out in (keys[:lo], keys[hi:]):
                    out += tag - out % buckets
        # Settled cells keep their tag to the end: their counts leave the
        # steps for per-tag totals. At l_max every cell is settled.
        a, b = np.searchsorted(keys, settle[l - 1])
        if a < b:
            settled += np.bincount(keys[a:b] % buckets, weights=counts[a:b], minlength=buckets)
            keys, counts = (np.concatenate((x[:a], x[b:])) for x in (keys, counts))
        if not len(keys):
            break
        suffix = keys // buckets % states
        split = rng.multinomial(counts, pvals[suffix])
        moved = keys[:, None] + delta[suffix]
        base = moved.min()
        merged = np.bincount((moved - base).ravel(), weights=split.ravel())
        occupied = np.flatnonzero(merged)
        keys = occupied + base
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


def leverrier(matrix: np.ndarray, entry: "tuple[int, int] | None" = None):
    """One dense Faddeev-LeVerrier pass for det(I - zM), M a tower's square
    matrix of at most ``_DENSE_MAX_DIMENSION`` dims.

    Returns the ascending coefficients of det(I - zM) and, when ``entry`` =
    (row, col) is given, the ascending coefficients of that entry of
    adj(I - zM) (which is the (col, row) cofactor of I - zM). Step k forms
    A_k = M X_{k-1}, c_k = -tr(A_k) / k and X_k = A_k + c_k I, and X_k[row,
    col] is the z^k coefficient of the adjugate entry, at one O(n^3) product
    per step.
    """
    size = matrix.shape[0]
    det_coeffs = [1.0]
    adj_coeffs: "list[float] | None" = None
    if entry is not None:
        adj_coeffs = [1.0 if entry[0] == entry[1] else 0.0]
        adj_flat = entry[0] * size + entry[1]
    diagonal = np.arange(size) * (size + 1)
    cur = matrix.copy()
    nxt = np.empty_like(cur)
    for k in range(1, size + 1):
        coeff = -float(cur.take(diagonal).sum()) / k
        det_coeffs.append(coeff)
        if k == size:
            break
        cur.reshape(-1)[diagonal] += coeff
        if adj_coeffs is not None:
            adj_coeffs.append(float(cur.take(adj_flat)))
        np.matmul(matrix, cur, out=nxt)
        cur, nxt = nxt, cur
    return det_coeffs, adj_coeffs


def word_layers(
    system: SuspensionSystem,
    q: "HoleQuantities | None",
    size: int,
    entry: "tuple[int, int] | None" = None,
):
    """The word operator W(z) of the block matrix, or of the bordered open
    matrix of ``q``, as (d, layers, loop, entry): ``layers`` lists the
    triples (p, rows, W_p[rows]) of the rows with a z^p term, in ascending
    p; ``loop`` is None or (b, a, g) with W[b, b] = sum_i a[i] z^i, the row
    of b in I - W scaled by g; ``entry`` is the states of the words of
    ``entry``. None, before any layer is allocated, when FL over W costs as
    much as the dense pass at min(``size``, ``_DENSE_MAX_DIMENSION``) states.

    The states are the level-0 blocks of the words, W[u, v] = z^{h_u} P[u,
    v], and for a hole that overlaps itself (some c_k nonzero) one border
    state b: W[t, b] = -alpha z, W[b, b] = -sum_k c_k z^k, W[b, r] = z^{k0 -
    1}. Otherwise k0 = 0 zeroes the row of t and k0 >= 1 adds -alpha z^k0 to
    W[t, r]. A word u whose only successor is another word v is folded into
    the rows that lead to it, W[w, v] += W[w, u] z^{h_u} P[u, v], along
    chains of such words, except for t, the words of ``entry`` and one word
    on each cycle made only of such words. The other states (levels above
    0, border states but b, folded words) lead at most one step on among
    themselves, so I - zM is unit triangular on them and, by the Schur
    complement, det(I - zM) = det(I - W(z)), with equal adjugate entries
    between kept states (Parry & Pollicott, Asterisque 187-188, ch. 6).
    """
    (src, dst, prob), heights, words = system.word_links, system.heights.tolist(), len(system.words)
    first = np.searchsorted(src, np.arange(words))  # each word's first link
    follow = np.where(np.bincount(src, minlength=words) == 1, dst[first], -1).tolist()
    keep = [u for u in range(words) if follow[u] == u] + list(entry or ())
    if q is not None:
        t, r = system._word_index[q.t_word], system._word_index[q.r_word]
        keep.append(t)
    for u in keep:
        follow[u] = -1
    # A folded word resolves to the kept word its chain ends on, with the
    # heights and transition weights of the chain from it on.
    target, extra, weight = list(range(words)), [0] * words, [1.0] * words
    seen = [u < 0 for u in follow]
    for start in range(words):
        path, u = [], start
        while not seen[u]:
            seen[u] = True
            path.append(u)
            u = follow[u]
        if u in path:
            follow[u] = -1
        for w in reversed(path):
            if (v := follow[w]) >= 0:
                target[w], extra[w] = target[v], heights[w] + extra[v]
                weight[w] = prob.item(first[w]) * weight[v]
    state = np.cumsum(np.array(follow) < 0) - 1
    state[np.array(follow) >= 0] = -1
    overlaps = q is not None and any(q.correlation)
    dim = int(state.max()) + 1 + overlaps

    def term(i, v, p, value):
        """The term value z^p of W from state i to word v, carried along the
        chain of v to the state it ends on."""
        return i, state.item(target[v]), p + extra[v], value * weight[v]

    terms = [
        term(state.item(u), v, heights[u], value)
        for u, v, value in zip(src.tolist(), dst.tolist(), prob.tolist())
        if follow[u] < 0 and not (q is not None and q.k0 == 0 and u == t)
    ]
    loop = None
    if overlaps:
        # Row b of I - W is scaled by g = 2^-e near 1 / Q(1), Q(z) = 1 +
        # sum_k c_k z^k, which is exact in binary: W[b, b] = 1 - g Q(z) then
        # has coefficients summing to at most 2.5 in absolute value. Unscaled,
        # -sum_k c_k z^k sums to up to 1 / (1 - p) on a hole that overlaps
        # itself with weight p, and FL cancels terms of size (1 / (1 - p))^d.
        scale = 2.0 ** round(math.log2(1.0 + math.fsum(q.correlation)))
        coeffs = np.array((1.0 - scale,) + q.correlation) / -scale
        loop = (dim - 1, np.trim_zeros(coeffs, "b"), scale)
        terms += [(state.item(t), dim - 1, 1, -q.alpha), term(dim - 1, r, q.k0 - 1, 1.0 / scale)]
    elif q is not None and q.k0 >= 1:
        terms.append(term(state.item(t), r, q.k0, -q.alpha))
    # Cost in multiply-adds: d steps of, per power p, the rows of W_p times
    # a d x d(n + 1) iterate, and of the loop's convolution along the degrees
    # of row b; against n steps of one n x n by n x n product.
    row_terms = len({(p, i) for i, _, p, _ in terms})
    loop_terms = 0 if loop is None else loop[1].size
    if dim**2 * (size + 1) * (row_terms * dim + loop_terms) >= min(size, _DENSE_MAX_DIMENSION) ** 4:
        return None
    layers: dict[int, np.ndarray] = {}
    for i, j, p, value in terms:
        layers.setdefault(p, np.zeros((dim, dim)))[i, j] += value
    rows = {p: np.flatnonzero(layer.any(axis=1)) for p, layer in layers.items()}
    return dim, [
        (p, slice(None) if rows[p].size == dim else rows[p], layers[p][rows[p]])
        for p in sorted(layers)
    ], loop, None if entry is None else (state.item(entry[0]), state.item(entry[1]))


def word_leverrier(size: int, dim: int, layers, loop, entry):
    """Faddeev-LeVerrier over the d states of the word operator W(z) with
    ``layers`` and ``loop``, with polynomial entries truncated at degree
    ``size``.

    X_0 = I, A_k = W X_{k-1}, c_k = -tr(A_k) / k, X_k = A_k + c_k I. For the
    characteristic polynomial det(lambda I - W) = sum_k c_k lambda^{d-k}, so
    det(I - W) = sum_{k=0}^{d} c_k and adj(I - W) = sum_{k=0}^{d-1} X_k. The
    iterate is stored degree-major within each row, x[j, deg, col], so
    multiplying by z^p is a shift of its flattened rows by p d columns, and
    the loop on b is one convolution per column of row b.
    """
    width = size + 1
    diag = np.arange(dim)
    det = np.zeros(width)
    det[0] = 1.0
    cur = np.zeros((dim, width, dim))
    cur[diag, 0, diag] = 1.0
    adj = None
    if entry is not None:
        r, t = entry
        adj = cur[r, :, t].copy()
    nxt = np.empty_like(cur)
    for k in range(1, dim + 1):
        nxt.fill(0.0)
        flat_in, flat_out = cur.reshape(dim, -1), nxt.reshape(dim, -1)
        for p, rows, block in layers:
            flat_out[rows, p * dim :] += block @ flat_in[:, : (width - p) * dim]
        if loop is not None:
            b, coeffs, _ = loop
            for col in range(dim):
                nxt[b, :, col] += np.convolve(cur[b, :, col], coeffs)[:width]
        coeff = nxt[diag, :, diag].sum(axis=0) / -k
        det += coeff
        if k == dim:
            break
        nxt[diag, :, diag] += coeff
        if adj is not None:
            adj += nxt[r, :, t]
        cur, nxt = nxt, cur
    scale = 1.0 if loop is None else loop[2]
    return (det * scale).tolist(), None if adj is None else (adj[:size] * scale).tolist()


def first_sign_change(
    poly: Polynomial, left: float, right: float
) -> "tuple[float, float, float, float] | None":
    """The first neighbours (x, y) of ``np.linspace(left, right, 512)`` with
    poly(x) > 0 >= poly(y), as (x, y, poly(x), poly(y)), or None.

    The points are linspace's floats, j * step + left with the last one
    ``right``. The first 32 points are evaluated one at a time, and the rest
    of the bracket takes one vectorized Horner pass, a multiply and an add per
    coefficient, which rounds as ``poly(x)`` does, so the same pair is found.
    The split is for speed: on the root calls of the ``zeta-grid`` benchmark
    (seeds 5 and 6), 486 of the 576 sign changes lie in the first 32 points
    and half of all of them by the fourth, where a few scalar calls beat a
    numpy pass over the whole bracket: one numpy pass over all 512 points
    took the seed-5 calls from 3.2 to 12.8 ms and the whole seed-5 pass from
    about 50 to 60 ms (best of 9 passes, one BLAS thread, 2-core x86-64 Xeon).
    """
    step = (right - left) / 511
    prev_x, prev_v = left, poly(left)
    for j in range(1, 32):
        x = j * step + left
        v = poly(x)
        if prev_v > 0.0 >= v:
            return prev_x, x, prev_v, v
        prev_x, prev_v = x, v
    xs = np.arange(31, 512) * step + left
    xs[-1] = right
    values = np.zeros_like(xs)
    # Python floats overflow to inf and nan without a warning; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        for c in reversed(poly.coefficients):
            np.multiply(values, xs, out=values)
            np.add(values, c, out=values)
    hits = np.flatnonzero((values[:-1] > 0.0) & (values[1:] <= 0.0))
    if len(hits) == 0:
        return None
    i = hits[0]
    return float(xs[i]), float(xs[i + 1]), float(values[i]), float(values[i + 1])


def polish_candidate(
    poly: Polynomial, cand: float, lo: float, hi: float, scale: float
) -> float:
    """Newton-polish ``cand``, switching to the derivative at multiple roots.

    Near a multiple root the residual is noise-dominated and plain Newton
    stalls at sqrt(eps) accuracy, but the root location is then a simple root
    of the derivative, which polishes cleanly. The switch is only trusted when
    the polished derivative root really annihilates the polynomial.
    """
    deriv = poly.derivative()
    if poly.degree >= 2 and abs(deriv(cand)) <= 1e-7 * max(1.0, scale):
        # The true root can sit slightly outside a bracket that converged
        # inside the noise band, so polish within a pad, not the bracket.
        pad = 1e-6 * max(1.0, abs(cand))
        alt = _newton_polish(deriv, deriv.derivative(), cand, cand - pad, cand + pad)
        if abs(poly(alt)) <= 1e-12 * max(1.0, scale):
            return alt
    return _newton_polish(poly, deriv, cand, lo, hi)
