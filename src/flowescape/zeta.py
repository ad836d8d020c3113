"""Zeta determinants of the block chain and their open factorization.

For the closed chain, det(I - z Mbar) is the inverse zeta function of the
time-lambda map: a polynomial with a simple zero at z = 1 (row-stochastic
Perron root). Punching a cylinder hole multiplies in the hole's overlap
structure: with the quantities (alpha, k0, c_k) of the hole and the (t, r)
cofactor of I - z Mbar,

    det(I - z M_op) = det(I - z Mbar) * (1 + sum_k c_k z^k)
                      + C_{t,r}(z) * alpha * z^{k0}.

Everything here is polynomial arithmetic in float64: determinants and
cofactors come from a Faddeev-LeVerrier pass, the (1 - z) factor is removed
by synthetic division, Taylor data at z = 1 feeds the asymptotic expansions,
and root isolation on [1, oo) turns determinants back into spectral radii.

Block and bordered matrices are towers over the word operator W(z) =
diag(z^h) P (Parry & Pollicott, Asterisque 187-188, ch. 6): det(I - z
M_block) = det(I - W(z)), and for a hole that overlaps itself the bordered
matrix adds one border state whose loop carries the correlation polynomial.
From 64 states on, the determinants of a (system, hole) pair are taken over
W with polynomial entries, built from the words' P and heights with each
word of a single successor folded into the rows that lead to it, so neither
matrix is built and a hole that overlaps itself at many shifts, such as 0^m,
keeps one border state for all of them. W is taken where its pass costs less
than the dense one, and past 320 states less than the dense one at 320
states. Below 64 states, where the dense pass is faster, it builds the
tower's matrix and takes one dense O(n^3) product per step; a tower past 320
states whose W costs more raises DimensionTooLargeError before either pass
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
import math
from math import comb

import numpy as np

from .errors import (
    DimensionTooLargeError,
    FactorizationMismatchError,
    NoSignChangeError,
    NoZeroAtOneError,
    PoleAtOneError,
)
from .open_system import (
    HoleQuantities,
    _bordered_matrix,
    _tower_dimension,
    hole_quantities,
)
from .shift import Word, cylinder_measure
from .suspension import SuspensionSystem

# ===========================================================================
# Polynomials
# ===========================================================================

@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients, trailing zeros trimmed."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs:
            coeffs = (0.0,)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial((0.0,))
        return Polynomial(tuple(i * c for i, c in enumerate(self.coefficients) if i > 0))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return Polynomial(tuple(x + (b[i] if i < len(b) else 0.0) for i, x in enumerate(a)))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial(tuple(factor * c for c in self.coefficients))

    def shift_power(self, exponent: int) -> "Polynomial":
        """Multiply by z**exponent."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        return Polynomial((0.0,) * exponent + self.coefficients)

    def taylor_at_one(self, terms: int) -> tuple[float, ...]:
        """First ``terms`` Taylor coefficients at z = 1 (powers of z - 1)."""
        return tuple(
            float(sum(c * comb(i, l) for i, c in enumerate(self.coefficients) if i >= l))
            for l in range(terms)
        )


ONE_MINUS_Z = Polynomial((1.0, -1.0))


# ===========================================================================
# Characteristic polynomials and cofactors (Faddeev-LeVerrier)
# ===========================================================================

#: Size from which tower determinants run over the word operator
#: (``_tower_leverrier``). The two passes break even near 32 dims (3-shift
#: [[.5,.3,.2],[.1,.6,.3],[.4,.4,.2]], heights near n/3, one OpenBLAS thread
#: on a 2-core x86-64 Xeon: dense 1.7-2.3x faster at 16-20 dims, W 2.3x
#: faster at 48 and 3.5-4.3x at 64). Below the cut the per-step overhead of
#: the polynomial layers costs more than the dense products it saves: with W
#: at every size, the ``zeta-grid`` benchmark (seed 5, two alternating 10 s
#: pairs on the same host, one BLAS thread) ran 347-357 cases/s at a median
#: case time of 1.89-1.96 ms, against 437-447 cases/s and 1.04-1.07 ms with
#: this cut.
_WORD_OPERATOR_MIN_DIMENSION = 64

#: Largest tower the dense pass takes. Its cost grows as n^4 and its error
#: with n; past it, the word operator is taken only where it costs less than
#: the dense pass at this size, and the tower raises DimensionTooLargeError
#: otherwise.
_DENSE_MAX_DIMENSION = 320


def _leverrier(matrix: np.ndarray, entry: "tuple[int, int] | None" = None):
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


def _word_layers(
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


def _tower_leverrier(
    system: SuspensionSystem,
    q: "HoleQuantities | None" = None,
    entry: "tuple[int, int] | None" = None,
):
    """``_leverrier`` for the block matrix of ``system``, or for the bordered
    open matrix of ``q``, with ``entry`` = (row, col) the words whose level-0
    blocks hold the adjugate entry. From ``_WORD_OPERATOR_MIN_DIMENSION``
    states it runs over ``_word_layers`` where that pays; otherwise the dense
    pass builds the tower's matrix, after the ``_DENSE_MAX_DIMENSION`` check.
    DimensionTooLargeError past ``DEFAULT_STATE_CAP`` states comes first.
    """
    size = _tower_dimension(system, q)
    if size >= _WORD_OPERATOR_MIN_DIMENSION:
        tower = _word_layers(system, q, size, entry)
        if tower is not None:
            return _word_leverrier(size, *tower)
    if size > _DENSE_MAX_DIMENSION:
        raise DimensionTooLargeError(
            f"dimension {size} exceeds the dense cap {_DENSE_MAX_DIMENSION}, and "
            "its word operator costs more than the dense pass at the cap"
        )
    matrix = system.block_matrix if q is None else _bordered_matrix(system, q)
    if entry is not None:
        entry = (system._starts.item(entry[0]), system._starts.item(entry[1]))
    return _leverrier(matrix, entry)


def _word_leverrier(size: int, dim: int, layers, loop, entry):
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


def _closed_and_cofactor(system: SuspensionSystem, t_word: Word, r_word: Word):
    """det(I - z M_block) and its cofactor adj(I - z M_block)[r, t] between the
    level-0 blocks r, t of ``r_word`` and ``t_word``, from one pass."""
    index = system._word_index
    det, adj = _tower_leverrier(system, entry=(index[r_word], index[t_word]))
    return Polynomial(tuple(det)), Polynomial(tuple(adj))


# ===========================================================================
# Deflation, Taylor data, root isolation
# ===========================================================================

#: Largest |p(1)| that ``deflate_at_one`` takes for a zero at z = 1.
_DEFLATE_TOL = 1e-9


def deflate_at_one(poly: Polynomial) -> Polynomial:
    """Divide by (1 - z), requiring a zero at z = 1 within ``_DEFLATE_TOL``.

    Returns G with poly = (1 - z) G. Raises NoZeroAtOneError otherwise.
    """
    value = poly(1.0)
    if abs(value) >= _DEFLATE_TOL:
        raise NoZeroAtOneError(f"|p(1)| = {abs(value):.3e} is not below {_DEFLATE_TOL:.0e}")
    coeffs = poly.coefficients
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1])
    if len(coeffs) == 1:
        out = [0.0]
    return Polynomial(tuple(out))


def taylor_at_one(
    numerator: Polynomial, denominator: Polynomial, order: int
) -> tuple[float, ...]:
    """Taylor coefficients of numerator/denominator at z = 1, in powers of (z - 1).

    Common zeros at z = 1 are cancelled first; if the denominator still
    vanishes, PoleAtOneError is raised. Returns ``order + 1`` coefficients.
    """
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    slack = 8
    num = list(numerator.taylor_at_one(order + 1 + slack))
    den = list(denominator.taylor_at_one(order + 1 + slack))
    num_scale = max(1.0, max(abs(c) for c in num))
    den_scale = max(1.0, max(abs(c) for c in den))
    for _ in range(slack):
        if abs(den[0]) > 1e-11 * den_scale:
            break
        if abs(num[0]) > 1e-11 * num_scale:
            raise PoleAtOneError("denominator vanishes at z = 1 but numerator does not")
        num.pop(0)
        den.pop(0)
    else:
        raise PoleAtOneError("denominator vanishes to high order at z = 1")
    return _series_quotient(num, den, order)


def _series_quotient(num, den, order: int) -> tuple[float, ...]:
    """First ``order + 1`` coefficients of the power-series quotient num/den,
    from at least that many coefficients of each; den[0] must not vanish."""
    out = []
    for l in range(order + 1):
        acc = num[l] - sum(out[j] * den[l - j] for j in range(l))
        out.append(acc / den[0])
    return tuple(out)


#: Right ends of the brackets that ``smallest_root_geq_one`` scans in turn:
#: [1, 2], [2, 4], ..., up to 2^21.
_ROOT_BRACKETS = tuple(float(2**j) for j in range(1, 22))


def smallest_root_geq_one(poly: Polynomial) -> float:
    """Smallest real root of ``poly`` in [1, 2^21], assuming poly(1) >= 0.

    Scans 512 points of each bracket [2^(j-1), 2^j] in turn for a sign change,
    then bisects and polishes with Newton. Without a sign change (even roots)
    it falls back to companion-matrix eigenvalues and polishes on the
    derivative when the root is multiple. A positive constant has no root:
    math.inf. Raises NoSignChangeError when nothing is found.
    """
    scale = max(abs(c) for c in poly.coefficients)
    at_one = poly(1.0)
    if abs(at_one) <= 1e-12 * max(1.0, scale):
        return 1.0
    if at_one < 0.0:
        raise ValueError(f"poly(1) = {at_one:.3e} is negative; no survival mass")
    if poly.degree == 0:
        return math.inf

    left = 1.0
    found: "tuple[float, float] | None" = None
    for right in _ROOT_BRACKETS:
        found = _first_sign_change(poly, left, right)
        if found is not None:
            break
        left = right
    if found is not None:
        a, b = found
        for _ in range(200):
            if b - a <= 1e-15 * b:
                break
            mid = 0.5 * (a + b)
            if poly(mid) > 0.0:
                a = mid
            else:
                b = mid
        return _polish_candidate(poly, 0.5 * (a + b), a, b, scale)

    if poly.degree >= 1:
        roots = np.roots(list(reversed(poly.coefficients)))
        top = _ROOT_BRACKETS[-1]
        candidates = [
            float(r.real)
            for r in roots
            if abs(r.imag) <= 1e-6 * max(1.0, abs(r.real))
            and 1.0 - 1e-8 <= r.real <= top * (1.0 + 1e-9)
        ]
        if candidates:
            cand = min(candidates)
            return _polish_candidate(poly, cand, 1.0, top, scale)
    raise NoSignChangeError("no root found at or beyond z = 1")


def _first_sign_change(
    poly: Polynomial, left: float, right: float
) -> "tuple[float, float] | None":
    """The first neighbours (x, y) of ``np.linspace(left, right, 512)`` with
    poly(x) > 0 >= poly(y), or None.

    The points are linspace's floats, j * step + left with the last one
    ``right``. The first 32 points are evaluated one at a time, and the rest
    of the bracket takes one vectorized Horner pass, a multiply and an add per
    coefficient, which rounds as ``poly(x)`` does, so the same pair is found.
    The split is for speed: on the root calls of the ``zeta-grid`` benchmark
    (seeds 5 and 6), 486 of the 576 sign changes lie in the first 32 points
    and half of all of them by the fourth, where a few scalar calls beat a
    numpy pass over the whole bracket: one numpy pass over all 512 points
    took the seed-5 calls from 2.6 to 10.6 ms and the whole seed-5 pass from
    110 to 125 ms.
    """
    step = (right - left) / 511
    prev_x, prev_v = left, poly(left)
    for j in range(1, 32):
        x = j * step + left
        v = poly(x)
        if prev_v > 0.0 >= v:
            return prev_x, x
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
    return float(xs[hits[0]]), float(xs[hits[0] + 1])


def _polish_candidate(
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


def _newton_polish(
    poly: Polynomial, deriv: Polynomial, start: float, lo: float, hi: float
) -> float:
    x = start
    for _ in range(30):
        dv = deriv(x)
        if dv == 0.0:
            break
        step = poly(x) / dv
        nxt = x - step
        if not (lo - 1e-12 <= nxt <= hi + 1e-9):
            break
        x = nxt
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
    return x


# ===========================================================================
# Open factorization
# ===========================================================================

@dataclass(frozen=True, eq=False)
class ZetaBundle:
    """Closed and open inverse zeta polynomials of a (system, hole) pair.

    ``zeta_open_inverse`` is assembled from the factorization (closed part
    times correlation polynomial plus cofactor term); ``max_deviation`` is its
    worst coefficient difference against the direct determinant of the
    bordered open matrix. ``cofactor_value`` = C_{t,r}(1) comes with its
    predicted value mu_t * G(1) / mass, the residue identity tying the
    cofactor to the invariant measure.
    """

    quantities: HoleQuantities
    zeta_closed_inverse: Polynomial
    deflated: Polynomial
    correlation: Polynomial
    cofactor: Polynomial
    zeta_open_inverse: Polynomial
    max_deviation: float
    cofactor_value: float
    cofactor_predicted: float


def _correlation_poly(quantities: HoleQuantities) -> Polynomial:
    """The hole's correlation polynomial 1 + sum_{k=1}^{k0-1} c_k z^k."""
    return Polynomial((1.0,) + quantities.correlation)


def _open_determinant(
    closed: Polynomial, corr: Polynomial, cofactor: Polynomial, alpha: float, k0: int
) -> Polynomial:
    """det(I - z M_op) = closed * corr + alpha z^k0 C_{t,r}. With k0 = 0 (hole
    length equals the order) expanding det along the zeroed t-row leaves
    exactly the (t, t) minor C."""
    if k0 == 0:
        return cofactor
    return closed * corr + cofactor.shift_power(k0).scale(alpha)


#: Largest coefficient gap that ``zeta_op_factorized`` accepts between the
#: assembled and the direct open determinant.
_FACTORIZATION_TOL = 1e-9


def zeta_op_factorized(system: SuspensionSystem, hole: Word) -> ZetaBundle:
    """Assemble det(I - z M_op) from the factorization and cross-check it.

    The direct route takes the characteristic polynomial of the bordered open
    matrix; the assembled route multiplies the closed determinant by the
    correlation polynomial and adds the cofactor term. Coefficientwise
    disagreement beyond ``_FACTORIZATION_TOL`` raises
    FactorizationMismatchError.
    """
    q = hole_quantities(system, hole)
    closed, cof = _closed_and_cofactor(system, q.t_word, q.r_word)
    deflated = deflate_at_one(closed)
    corr = _correlation_poly(q)
    assembled = _open_determinant(closed, corr, cof, q.alpha, q.k0)
    direct = Polynomial(tuple(_tower_leverrier(system, q)[0]))
    pairs = zip_longest(assembled.coefficients, direct.coefficients, fillvalue=0.0)
    deviation = max(abs(a - d) for a, d in pairs)
    if deviation > _FACTORIZATION_TOL:
        raise FactorizationMismatchError(
            f"factorized and direct determinants differ by {deviation:.3e}"
        )
    mu_t = cylinder_measure(system.base, q.t_word)
    return ZetaBundle(
        quantities=q,
        zeta_closed_inverse=closed,
        deflated=deflated,
        correlation=corr,
        cofactor=cof,
        zeta_open_inverse=assembled,
        max_deviation=deviation,
        cofactor_value=cof(1.0),
        cofactor_predicted=mu_t * deflated(1.0) / system.mass_normalized,
    )


def escape_rate_zeta(system: SuspensionSystem, hole: Word) -> float:
    """Escape rate from the smallest zero >= 1 of the open inverse zeta; +inf
    where that inverse is a constant, so every orbit meets the hole."""
    bundle = zeta_op_factorized(system, hole)
    root = smallest_root_geq_one(bundle.zeta_open_inverse)
    return float(np.log(root)) / system.lattice_scale
