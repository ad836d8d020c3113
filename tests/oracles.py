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
solves every l at once. The shrinking-hole expansion and open determinant are
rebuilt from the family's public fields at every nu, where the library keeps
the nu-free pieces on the family, and the exact deviation DP steps the full
sum range backward, where the library steps only the kept band.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from flowescape import (
    Polynomial,
    admissible_words,
    build_suspension,
    cylinder_measure,
    family_hole_measure,
    hole_quantities,
    refine_suspension,
)
from flowescape.asymptotics import _root_equation_series, _times_one_minus_z
from flowescape.montecarlo import _deviation_setup, _kept_sums
from flowescape.open_system import _component_radius
from flowescape.pressure import _sup_completion
from flowescape.shift import (
    Word,
    _gain_plan,
    _gain_step,
    _hole_free_words,
    _cyclic_components,
    _lattice_operators,
)
from flowescape.zeta import (
    ONE_MINUS_Z,
    _bordered_matrix,
    _open_determinant,
    _series_quotient,
)


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


def family_zeta_op(family, nu):
    """The family's open inverse zeta at ``nu``, with (1 - z)G and mu_t
    rebuilt from the family's public fields."""
    s = nu - family.order_over_period
    o = family.orbit_height
    corr = [0.0] * (o * (s - 1) + 1)
    for k in range(s):
        corr[o * k] = family.orbit_weight ** k
    closed = ONE_MINUS_Z * family.deflated
    alpha = family_hole_measure(family, nu) / cylinder_measure(
        family.system.base, family.t_word
    )
    return _open_determinant(closed, Polynomial(tuple(corr)), family.cofactor, alpha, o * s)


def expansion_coefficients(family, nu, order):
    """(s_normalized, closed_normalized) at ``nu``, every Taylor series,
    quotient and closed-form term rebuilt from the family's public fields."""
    o = family.orbit_height
    c_o = family.orbit_weight
    k0 = o * (nu - family.order_over_period)
    den = Polynomial((1.0,) + (0.0,) * (o - 1) + (-c_o,))
    den_series = den.taylor_at_one(order + 1)
    a = _series_quotient(
        _times_one_minus_z(family.deflated.taylor_at_one(order)), den_series, order
    )
    b_order = max(order - 1, 0)
    mu_t = cylinder_measure(family.system.base, family.t_word)
    head = (family.cofactor * den).scale(1.0 / mu_t).shift_power(k0)
    tail = family.deflated.scale(
        c_o ** (1 - family.order_over_period) / family.word_measure
    ).shift_power(k0)
    g2_num = [
        h - t
        for h, t in zip(
            head.taylor_at_one(b_order + 1),
            _times_one_minus_z(tail.taylor_at_one(b_order)),
        )
    ]
    b = _series_quotient(g2_num, den_series, b_order)
    s_values = [0.0] * order
    for j in range(1, order + 1):
        series = _root_equation_series(a, b, s_values, order + 1)
        s_values[j - 1] = -series[j] / a[1]

    mass = family.system.mass_normalized
    g_poly, c_poly = family.deflated, family.cofactor
    s1 = (1.0 - c_o) / mass
    bracket = (
        k0
        - g_poly.derivative()(1.0) / g_poly(1.0)
        - c_o * o / (1.0 - c_o)
        + c_poly.derivative()(1.0) / c_poly(1.0)
        + mass * c_o ** (1 - family.order_over_period)
        / (family.word_measure * (1.0 - c_o))
    )
    return tuple(s_values), (s1, s1 * s1 * bracket)


def exact_deviation_prob(shift, ceiling, epsilon, k_values, l_max):
    """``exact_deviation_prob`` with the backward pass over every sum column,
    0..l_max * h_max, at every l; the library steps only the kept band."""
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
    read, write, p = _gain_plan(operators, width)
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
