"""Zeta determinants of the block chain and their open factorization.

For the closed chain, det(I - z Mbar) is the inverse zeta function of the
time-lambda map: a polynomial with a simple zero at z = 1 (row-stochastic
Perron root). Punching a cylinder hole multiplies in the hole's overlap
structure: with the quantities (alpha, k0, c_k) of the hole and the (t, r)
cofactor of I - z Mbar,

    det(I - z M_op) = det(I - z Mbar) * (1 + sum_k c_k z^k)
                      + C_{t,r}(z) * alpha * z^{k0}.

``hole_quantities``, the bordered matrix M_op, and the root of det(I - z
M_op) behind the bordered ``escape_rate_flow`` all live here.

Everything here is polynomial arithmetic in float64: determinants and
cofactors come from a Faddeev-LeVerrier pass, the (1 - z) factor is removed
by synthetic division, Taylor data at z = 1 feeds the asymptotic expansions,
and root isolation on [1, oo) turns determinants back into spectral radii: a
sign scan brackets the smallest root, Illinois false position narrows the
bracket and Newton polishes the root.

Block and bordered matrices are towers over the word operator W(z) =
diag(z^h) P (Parry & Pollicott, Asterisque 187-188, ch. 6): det(I - z
M_block) = det(I - W(z)), and for a hole that overlaps itself the bordered
matrix adds one border state whose loop carries the correlation polynomial.
From 30 states on, the determinants of a (system, hole) pair are taken over
W with polynomial entries, built from the words' P and heights with each
word of a single successor folded into the rows that lead to it, so neither
matrix is built and a hole that overlaps itself at many shifts, such as 0^m,
keeps one border state for all of them. W is taken where its pass costs less
than the dense one, and past 320 states less than the dense one at 320
states. Below 30 states, where the dense pass is faster, it builds the
tower's matrix and takes one dense O(n^3) product per step; a tower past 320
states whose W costs more raises DimensionTooLargeError before either pass
starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
import math
from operator import add, mul, sub

import numpy as np

from .errors import (
    DimensionTooLargeError,
    FactorizationMismatchError,
    HoleShorterThanCeilingOrderError,
    NoSignChangeError,
    NotReducedError,
    NoZeroAtOneError,
    PoleAtOneError,
)
from .shift import (
    DEFAULT_STATE_CAP,
    Word,
    _borders,
    _checked_hole,
    cylinder_measure,
    is_reduced,
)
from .suspension import SuspensionSystem, _shift_heights

# ===========================================================================
# Polynomials
# ===========================================================================

def _trim(coeffs: tuple) -> tuple:
    """``coeffs`` without trailing zeros, or (0.0,) when nothing is left."""
    end = len(coeffs)
    while end > 1 and coeffs[end - 1] == 0.0:
        end -= 1
    return coeffs[:end] if end else (0.0,)


def _shifted_taylor(coeffs: tuple, k0: int, terms: int) -> tuple[float, ...]:
    """First ``terms`` Taylor coefficients at z = 1 of z^k0 f, from the
    coefficients of f, without building the k0 leading zeros.

    Term l is sum_j coeffs[j] comb(k0 + j, l) over j >= max(l - k0, 0), a
    builtin ``sum`` in ascending j; past the degree of z^k0 f it is the empty
    sum, 0.0. On ``coeffs`` padded with k0 zeros ``Polynomial.taylor_at_one``
    takes the same sum with the padding's products in front. Those are exact
    zeros, and a sum, plain or compensated (the builtin ``sum`` of floats
    from Python 3.12 on), that starts with zeros reaches its first other term
    in the same state as one that starts there, so the two agree bit for bit.

    The row of binomials comb(k0 + j, l) is built from the previous one:
    while l <= k0 as its running sums from comb(k0, l) on, and from there,
    where the first j drops out, as its running sums from 1.
    """
    count = min(terms, k0 + len(coeffs))
    row = [1] * len(coeffs)
    out = []
    for l in range(count):
        if l > k0:
            row = list(accumulate(row[:-1]))
        elif l:
            row = list(accumulate(row[:-1], initial=math.comb(k0, l)))
        out.append(float(sum(map(mul, coeffs[len(coeffs) - len(row):], row))))
    return tuple(out) + (0.0,) * (terms - count)


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial with ascending coefficients, trailing zeros trimmed.

    Every coefficient is a Python float: the constructor converts each one
    with ``float``, so no numpy scalar reaches the arithmetic or the CLI's
    JSON. Arithmetic results, whose tuples are float already, come from the
    private ``Polynomial._trimmed``, which only trims.
    """

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _trim(tuple(map(float, self.coefficients))))

    @classmethod
    def _trimmed(cls, coeffs: tuple) -> "Polynomial":
        """The polynomial of a tuple of Python floats, trimmed as the
        constructor trims, without its conversion."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "coefficients", _trim(coeffs))
        return poly

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def __call__(self, z: float) -> float:
        acc = 0.0
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def derivative(self) -> "Polynomial":
        coeffs = self.coefficients
        if len(coeffs) == 1:
            return Polynomial._trimmed((0.0,))
        return Polynomial._trimmed(tuple(map(mul, range(1, len(coeffs)), coeffs[1:])))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        return Polynomial._trimmed(tuple(map(add, a, b + (0.0,) * (len(a) - len(b)))))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out = [0.0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0.0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial._trimmed(tuple(out))

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial._trimmed(tuple(map(mul, self.coefficients, repeat(float(factor)))))

    def shift_power(self, exponent: int) -> "Polynomial":
        """Multiply by z**exponent."""
        if exponent < 0:
            raise ValueError(f"exponent must be >= 0, got {exponent}")
        return Polynomial._trimmed((0.0,) * exponent + self.coefficients)

    def taylor_at_one(self, terms: int) -> tuple[float, ...]:
        """First ``terms`` Taylor coefficients at z = 1 (powers of z - 1).

        Term l is sum_{i >= l} c_i comb(i, l), summed in ascending i; past
        the degree it is the empty sum, 0.0. ``_shifted_taylor`` at k0 = 0.
        """
        return _shifted_taylor(self.coefficients, 0, terms)


ONE_MINUS_Z = Polynomial((1.0, -1.0))


# ===========================================================================
# Hole quantities and the bordered tower
# ===========================================================================

@dataclass(frozen=True)
class HoleQuantities:
    """Overlap data of a hole word a_1..a_m relative to the ceiling order n.

    ``alpha`` is the conditional weight p(a_n,a_{n+1})..p(a_{m-1},a_m) of the
    hole past its first n letters; ``k0`` the ceiling sum over the first m - n
    shifts (normalized lattice); ``correlation[k-1]`` = c_k for k = 1..k0-1,
    nonzero exactly when the word overlaps itself at a shift whose ceiling sum
    is k, in which case ``overlap_shift[k-1]`` records that shift.
    ``t_word`` and ``r_word`` are the first and last n letters.
    """

    word: Word
    alpha: float
    k0: int
    correlation: tuple[float, ...]
    overlap_shift: tuple["int | None", ...]
    t_word: Word
    r_word: Word


def hole_quantities(system: SuspensionSystem, hole: Word) -> HoleQuantities:
    """Compute the overlap data of a reduced hole word at least as long as the order.

    Raises InadmissibleWordError, NotReducedError, or
    HoleShorterThanCeilingOrderError when the word fails a precondition.
    """
    base = system.base
    word = _checked_hole(base, hole)
    if not is_reduced(base, word):
        raise NotReducedError(f"hole word {word} admits no last-letter substitution")
    n = system.order
    m = len(word)
    if m < n:
        raise HoleShorterThanCeilingOrderError(
            f"hole length {m} is below the ceiling order {n}"
        )

    heights = _shift_heights(system, word)
    k0 = sum(heights)
    transitions = base.transitions.tolist()
    alpha = 1.0
    for i in range(n - 1, m - 1):
        alpha *= transitions[word[i]][word[i + 1]]

    # The word overlaps itself at shift j when it has a border of length m - j.
    border, overlaps, length = _borders(word), set(), m
    while length := border[length]:
        overlaps.add(m - length)
    correlation = [0.0] * max(k0 - 1, 0)
    overlap_shift: list["int | None"] = [None] * max(k0 - 1, 0)
    partial_sum = 0
    weight = 1.0
    for j in range(1, m - n):
        partial_sum += heights[j - 1]
        weight *= transitions[word[j - 1]][word[j]]
        if partial_sum <= k0 - 1 and j in overlaps:
            correlation[partial_sum - 1] = weight
            overlap_shift[partial_sum - 1] = j

    t_word = word[:n]
    r_word = word[m - n :]
    return HoleQuantities(
        word=word,
        alpha=alpha,
        k0=k0,
        correlation=tuple(correlation),
        overlap_shift=tuple(overlap_shift),
        t_word=t_word,
        r_word=r_word,
    )


def _tower_dimension(system: SuspensionSystem, q: "HoleQuantities | None") -> int:
    """States of the block matrix, or of the bordered open matrix of ``q``;
    DimensionTooLargeError past ``DEFAULT_STATE_CAP``."""
    size = len(system.block_measure)
    dim = size if q is None else size + max(q.k0 - 1, 0)
    if dim > DEFAULT_STATE_CAP:
        raise DimensionTooLargeError(
            f"{size} blocks and {dim - size} border states exceed the cap of "
            f"{DEFAULT_STATE_CAP} for a dense matrix"
        )
    return dim


def _bordered_matrix(system: SuspensionSystem, q: HoleQuantities) -> np.ndarray:
    """The read-only bordered open matrix of the hole's quantities ``q``: the
    original blocks plus k0 - 1 border states. The t-row leaks -alpha into
    the border chain, border state k carries the correlation coefficient
    c_k, and the last border state re-enters at the r-block. With k0 = 0
    the matrix is the block matrix with the hole row zeroed; with k0 = 1 it
    subtracts alpha from the (t, r) entry. Raises DimensionTooLargeError
    past ``DEFAULT_STATE_CAP`` states, before anything is allocated."""
    dim, size = _tower_dimension(system, q), len(system.block_measure)
    t, r = system.block_index(q.t_word, 0), system.block_index(q.r_word, 0)
    base_matrix = system.block_matrix
    if q.k0 == 0:
        matrix = base_matrix.copy()
        matrix[t, :] = 0.0
    elif q.k0 == 1:
        matrix = base_matrix.copy()
        matrix[t, r] -= q.alpha
    else:
        matrix = np.zeros((dim, dim))
        matrix[:size, :size] = base_matrix
        matrix[t, size] = -q.alpha
        for k in range(1, q.k0):
            matrix[size + k - 1, size] = -q.correlation[k - 1]
        for k in range(1, q.k0 - 1):
            matrix[size + k - 1, size + k] = 1.0
        matrix[size + q.k0 - 2, r] = 1.0
    matrix.setflags(write=False)
    return matrix


# ===========================================================================
# Characteristic polynomials and cofactors (Faddeev-LeVerrier)
# ===========================================================================

#: Size from which tower determinants run over the word operator
#: (``_tower_leverrier``), where its cost rule allows. Timed on two random
#: sweeps of 268 and 258 towers of 15-63 states (2-4 letters, orders 1-2,
#: 2-9 words, random heights, closed towers with an adjugate entry and
#: bordered towers of holes of length 2-5; best of 7 per pass, one OpenBLAS
#: thread on a 2-core x86-64 Xeon): the median dense/W time ratio per 4-state
#: bin is 0.61-0.83 below 27 states, 1.01-1.05 at 27-30 and 1.12-1.30 at
#: 31-34, and the sweeps' total time is 118.2 ms with the cut here, within
#: 1.3% of that for every cut from 28 to 36 and 188.0 ms with the cut at 64.
#: Below the cut the per-step overhead of the polynomial layers costs more
#: than the dense products it saves.
_WORD_OPERATOR_MIN_DIMENSION = 30

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
    per step. The trace and the diagonal update go through a strided view of
    each iterate's diagonal, the adjugate entry through ``item``.
    """
    size = matrix.shape[0]
    det_coeffs = [1.0]
    adj_coeffs: "list[float] | None" = None
    if entry is not None:
        adj_coeffs = [1.0 if entry[0] == entry[1] else 0.0]
    cur = matrix.copy()
    nxt = np.empty_like(cur)
    diag, nxt_diag = cur.reshape(-1)[:: size + 1], nxt.reshape(-1)[:: size + 1]
    for k in range(1, size + 1):
        coeff = -float(diag.sum()) / k
        det_coeffs.append(coeff)
        if k == size:
            break
        diag += coeff
        if adj_coeffs is not None:
            adj_coeffs.append(cur.item(entry))
        np.matmul(matrix, cur, out=nxt)
        cur, nxt = nxt, cur
        diag, nxt_diag = nxt_diag, diag
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
    bounds = src.searchsorted(range(words + 1)).tolist()  # each word's links
    src, dst, prob = src.tolist(), dst.tolist(), prob.tolist()
    follow = [dst[a] if b - a == 1 else -1 for a, b in zip(bounds, bounds[1:])]
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
                weight[w] = prob[bounds[w]] * weight[v]
    state, kept = [-1] * words, 0
    for u in range(words):
        if follow[u] < 0:
            state[u], kept = kept, kept + 1
    overlaps = q is not None and any(q.correlation)
    dim = kept + overlaps

    def term(i, v, p, value):
        """The term value z^p of W from state i to word v, carried along the
        chain of v to the state it ends on."""
        return i, state[target[v]], p + extra[v], value * weight[v]

    terms = [
        term(state[u], v, heights[u], value)
        for u, v, value in zip(src, dst, prob)
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
        terms += [(state[t], dim - 1, 1, -q.alpha), term(dim - 1, r, q.k0 - 1, 1.0 / scale)]
    elif q is not None and q.k0 >= 1:
        terms.append(term(state[t], r, q.k0, -q.alpha))
    # Cost in multiply-adds: d steps of, per power p, the rows of W_p times
    # a d x d(n + 1) iterate, and of the loop's convolution along the degrees
    # of row b; against n steps of one n x n by n x n product.
    row_terms = len({(p, i) for i, _, p, _ in terms})
    loop_terms = 0 if loop is None else loop[1].size
    if dim**2 * (size + 1) * (row_terms * dim + loop_terms) >= min(size, _DENSE_MAX_DIMENSION) ** 4:
        return None
    # Each entry sums its terms in order from +0.0; a row of W_p counts as
    # one with a z^p term when an entry is nonzero or nan, as ``any`` has it.
    layers: dict[int, dict[int, list[float]]] = {}
    for i, j, p, value in terms:
        row = layers.setdefault(p, {}).setdefault(i, [0.0] * dim)
        row[j] += value
    blocks = []
    for p in sorted(layers):
        rows = sorted(i for i, row in layers[p].items() if any(row))
        block = np.array([layers[p][i] for i in rows]).reshape(len(rows), dim)
        blocks.append((p, slice(None) if len(rows) == dim else np.array(rows, dtype=np.intp), block))
    return dim, blocks, loop, None if entry is None else (state[entry[0]], state[entry[1]])


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

    The diagonal polynomials X[i, :, i] are d strided views of each iterate.
    Their sum runs over i in turn, as ``sum(axis=0)`` of their gather does.
    It starts on the first view rather than on +0.0; no entry of an iterate
    is -0.0, each being a sum started at +0.0, so both starts give the same
    floats.
    """
    width = size + 1
    det = np.zeros(width)
    det[0] = 1.0
    cur = np.zeros((dim, width, dim))
    nxt = np.empty_like(cur)
    diags, nxt_diags = ([x[i, :, i] for i in range(dim)] for x in (cur, nxt))
    for view in diags:
        view[0] = 1.0
    adj = None
    if entry is not None:
        r, t = entry
        adj = cur[r, :, t].copy()
    for k in range(1, dim + 1):
        nxt.fill(0.0)
        flat_in, flat_out = cur.reshape(dim, -1), nxt.reshape(dim, -1)
        for p, rows, block in layers:
            flat_out[rows, p * dim :] += block @ flat_in[:, : (width - p) * dim]
        if loop is not None:
            b, coeffs, _ = loop
            for col in range(dim):
                nxt[b, :, col] += np.convolve(cur[b, :, col], coeffs)[:width]
        coeff = nxt_diags[0].copy()
        for view in nxt_diags[1:]:
            coeff += view
        coeff /= -k
        det += coeff
        if k == dim:
            break
        for view in nxt_diags:
            view += coeff
        if adj is not None:
            adj += nxt[r, :, t]
        cur, nxt = nxt, cur
        diags, nxt_diags = nxt_diags, diags
    scale = 1.0 if loop is None else loop[2]
    return (det * scale).tolist(), None if adj is None else (adj[:size] * scale).tolist()


def _closed_and_cofactor(system: SuspensionSystem, t_word: Word, r_word: Word):
    """det(I - z M_block) and its cofactor adj(I - z M_block)[r, t] between the
    level-0 blocks r, t of ``r_word`` and ``t_word``, from one pass."""
    index = system._word_index
    det, adj = _tower_leverrier(system, entry=(index[r_word], index[t_word]))
    return Polynomial._trimmed(tuple(det)), Polynomial._trimmed(tuple(adj))


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
    return Polynomial._trimmed(tuple(accumulate(poly.coefficients[:-1])))


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
        # out[j] * den[l - j] for j = 0..l-1, in ascending j.
        out.append((num[l] - sum(map(mul, out, den[l:0:-1]))) / den[0])
    return tuple(out)


#: Right ends of the brackets that ``smallest_root_geq_one`` scans in turn:
#: [1, 2], [2, 4], ..., up to 2^21.
_ROOT_BRACKETS = tuple(float(2**j) for j in range(1, 22))


def _scan_points() -> np.ndarray:
    """Row j: the 512 points of ``np.linspace`` over bracket j of
    ``_ROOT_BRACKETS``, k * step + left with step = (right - left) / 511 and
    the last point ``right``, the floats that Python's ``k * step + left``
    gives; read-only."""
    right = np.array(_ROOT_BRACKETS)[:, None]
    left = right / 2
    points = np.arange(512) * ((right - left) / 511) + left
    points[:, -1] = _ROOT_BRACKETS
    points.setflags(write=False)
    return points


_SCAN_POINTS = _scan_points()

#: The points 1..31 of [1, 2], which ``_first_sign_change`` evaluates one at
#: a time, and the blocks of ``_SCAN_POINTS`` it then evaluates in one pass
#: each: the rest of [1, 2] from point 31, then 1, 2, 4, 8 and 5 brackets.
_SCAN_HEAD = tuple(_SCAN_POINTS[0, 1:32].tolist())
_SCAN_CHUNKS = (_SCAN_POINTS[:1, 31:],) + tuple(
    _SCAN_POINTS[a:b] for a, b in ((1, 2), (2, 4), (4, 8), (8, 16), (16, 21))
)


def smallest_root_geq_one(poly: Polynomial) -> float:
    """Smallest real root of ``poly`` in [1, 2^21], assuming poly(1) >= 0.

    Scans 512 points of each bracket [2^(j-1), 2^j] in turn for a sign change,
    narrows the first one found by Illinois false position
    (``_refine_bracket``) and polishes with Newton. Without a sign change
    (even roots) it falls back to companion-matrix eigenvalues and polishes
    on the derivative when the root is multiple. A positive constant has no
    root: math.inf. Raises NoSignChangeError when nothing is found.
    """
    scale = max(map(abs, poly.coefficients))
    at_one = poly(1.0)
    if abs(at_one) <= 1e-12 * max(1.0, scale):
        return 1.0
    if at_one < 0.0:
        raise ValueError(f"poly(1) = {at_one:.3e} is negative; no survival mass")
    if poly.degree == 0:
        return math.inf

    found = _first_sign_change(poly, at_one)
    if found is not None:
        a, b = _refine_bracket(poly, *found)
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
    poly: Polynomial, at_one: float
) -> "tuple[float, float, float, float] | None":
    """The first neighbours (x, y) of ``np.linspace(left, right, 512)`` with
    poly(x) > 0 >= poly(y), over the brackets [left, right] of
    ``_ROOT_BRACKETS`` in turn, as (x, y, poly(x), poly(y)), or None;
    ``at_one`` is poly(1.0).

    The points are the rows of ``_SCAN_POINTS``, and each bracket's last
    point is the next one's first, so the pairs of neighbours are the pairs
    within the brackets. The points 1..31 of [1, 2] are evaluated one at a
    time, by the Horner loop of ``poly(x)``, and the blocks of
    ``_SCAN_CHUNKS`` one vectorized Horner pass each, a multiply and an add
    per coefficient, which rounds as ``poly(x)`` does, so the same pair is
    found; the scan stops at the first block that holds a change.

    The split is for speed, timed on the root calls of the ``zeta-grid``
    benchmark at seeds 5 and 6 (best of 15 passes, one BLAS thread, 2-core
    x86-64 Xeon). 486 of their 576 sign changes lie in the first 32 points,
    half of all of them by the fourth, where a few scalar steps beat a numpy
    pass; the other 90 lie further into [1, 2]. A numpy Horner step costs
    about as much on 33 points as on 481 (0.88 against 1.0 us), so the rest
    of [1, 2] is one block. Only a polynomial with no sign change in [1, 2]
    reaches the later brackets: 4 of the 244 calls, whose double roots give
    none anywhere, scan all 21, and the doubling blocks took such a call from
    636 to 153 us, where each bracket had 31 scalar steps and a pass of its
    own. With poly(1.0) and the first Newton step's derivative reused, root
    isolation on the 122 seed-5 calls went from 5.4-5.6 to 4.5-4.7 ms, and on
    the seed-6 calls from 7.6-7.9 to 5.0-5.2 ms.
    """
    coeffs = poly.coefficients[::-1]
    prev_x, prev_v = 1.0, at_one
    for x in _SCAN_HEAD:
        v = 0.0
        for c in coeffs:
            v = v * x + c
        if prev_v > 0.0 >= v:
            return prev_x, x, prev_v, v
        prev_x, prev_v = x, v
    # Python floats overflow to inf and nan without a warning; so does this.
    with np.errstate(over="ignore", invalid="ignore"):
        for xs in _SCAN_CHUNKS:
            values = np.zeros(xs.shape)
            for c in coeffs:
                np.multiply(values, xs, out=values)
                np.add(values, c, out=values)
            hits = np.flatnonzero((values[:, :-1] > 0.0) & (values[:, 1:] <= 0.0))
            if len(hits):
                row, col = divmod(hits.item(0), xs.shape[1] - 1)
                return (
                    xs.item(row, col), xs.item(row, col + 1),
                    values.item(row, col), values.item(row, col + 1),
                )
    return None


def _refine_bracket(
    poly: Polynomial, a: float, b: float, fa: float, fb: float
) -> "tuple[float, float]":
    """Narrow a bracket with fa = poly(a) > 0 >= fb = poly(b) to
    b - a <= 1e-15 b, in at most 200 steps, keeping that sign pattern; a
    value that is not finite counts as nonpositive. The end values come from
    the scan that found the bracket, so neither end is evaluated again.

    Each step takes the false-position point of the two ends, with the
    Illinois rule: an end kept twice running has its value halved, so the
    next point moves towards it and that end is replaced too (Dowell &
    Jarratt, BIT 11, 1971). The point is kept at least a quarter of the
    stopping width inside either end: once one end sits within rounding of
    the root, the point falls on that end, and the short step past it
    closes the bracket. A bisection step is taken instead where the point
    falls outside [a, b], an end value is not finite, or the last two steps
    each left more than half of the bracket. On the open determinants of
    the acceptance grid and the shrinking-hole families this takes about 7
    evaluations past the two ends, where bisection took about 42.
    """
    kept = slow = 0
    for _ in range(200):
        width = b - a
        if width <= 1e-15 * b:
            break
        mid = 0.5 * (a + b)
        if slow < 2 and math.isfinite(fa) and math.isfinite(fb):
            point = b - fb * width / (fb - fa)
            if a <= point <= b:
                # A quarter of the stopping width, more than half an ulp of
                # either end, so the point never rounds back onto one.
                tol = 0.25e-15 * b
                mid = min(max(point, a + tol), b - tol)
        value = poly(mid)
        if value > 0.0:
            a, fa = mid, value
            if kept == 1:
                fb *= 0.5
            kept = 1
        else:
            b, fb = mid, value
            if kept == -1:
                fa *= 0.5
            kept = -1
        slow = slow + 1 if b - a > 0.5 * width else 0
    return a, b


def _polish_candidate(
    poly: Polynomial, cand: float, lo: float, hi: float, scale: float
) -> float:
    """Newton-polish ``cand``, switching to the derivative at multiple roots.

    Near a multiple root the residual is noise-dominated and plain Newton
    stalls at sqrt(eps) accuracy, but the root location is then a simple root
    of the derivative, which polishes cleanly. The switch is only trusted when
    the polished derivative root really annihilates the polynomial. The
    derivative at ``cand`` that decides the switch is the one the first
    Newton step evaluates.
    """
    deriv = poly.derivative()
    flat_slope = 1e-7 * max(1.0, scale) if poly.degree >= 2 else -1.0
    root = _newton_polish(poly, deriv, cand, lo, hi, flat_slope)
    if root is not None:
        return root
    # The true root can sit slightly outside a bracket that converged
    # inside the noise band, so polish within a pad, not the bracket.
    pad = 1e-6 * max(1.0, abs(cand))
    alt = _newton_polish(deriv, deriv.derivative(), cand, cand - pad, cand + pad)
    if abs(poly(alt)) <= 1e-12 * max(1.0, scale):
        return alt
    return _newton_polish(poly, deriv, cand, lo, hi)


#: Newton steps ``_newton_polish`` takes at most.
_POLISH_STEPS = 30


def _newton_polish(
    poly: Polynomial,
    deriv: Polynomial,
    start: float,
    lo: float,
    hi: float,
    flat_slope: float = -1.0,
) -> "float | None":
    """Newton iterates from ``start`` for ``_POLISH_STEPS`` steps, stopping
    early on a zero derivative, an iterate outside [lo - 1e-12, hi + 1e-9]
    (the last one inside is kept) or a step within 1e-16 relative. None,
    before the first step, where |deriv(start)| <= ``flat_slope``.

    From 1 on, 1e-16 relative is under an ulp, so next to a root the
    iterates often stay on one float or bounce between a few neighbours
    without meeting that stop. Each step depends on x alone, so once an
    iterate recurs the rest is periodic, and the member of the cycle the
    last step would land on is returned at once: the same float as the full
    loop, for any start.

    ``deriv`` is ``poly.derivative()``, one coefficient shorter than
    ``poly`` from degree 1 on, so one Horner loop over their pairs evaluates
    both: each accumulator takes the multiply and add of its own pass, in the
    same order, and ends on the float of ``poly(x)`` or ``deriv(x)``.
    """
    coeffs = poly.coefficients
    pairs, last = tuple(zip(coeffs[:0:-1], reversed(deriv.coefficients))), coeffs[0]
    x = start
    path, index = [x], {x: 0}
    for k in range(1, _POLISH_STEPS + 1):
        value = dv = 0.0
        for c, d in pairs:
            dv = dv * x + d
            value = value * x + c
        if k == 1 and abs(dv) <= flat_slope:
            return None
        if dv == 0.0:
            break
        step = (value * x + last) / dv
        nxt = x - step
        if not (lo - 1e-12 <= nxt <= hi + 1e-9):
            break
        x = nxt
        if abs(step) <= 1e-16 * max(1.0, abs(x)):
            break
        first = index.setdefault(x, k)
        if first < k:
            return path[first + (_POLISH_STEPS - first) % (k - first)]
        path.append(x)
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
    exactly the (t, t) minor C.

    The product is taken over the nonzero coefficients corr_k only, k from
    high to low, so that each coefficient adds its products closed_i corr_k
    in ascending i, as ``Polynomial.__mul__`` does; the products it skips and
    those this skips are exact zeros, which leave a sum that starts at +0.0
    unchanged. The cofactor term comes last, as in ``Polynomial.__add__``.
    """
    if k0 == 0:
        return cofactor
    low, high, cof = closed.coefficients, corr.coefficients, cofactor.coefficients
    out = [0.0] * max(len(low) + len(high) - 1, k0 + len(cof))
    for k in range(len(high) - 1, -1, -1):
        weight = high[k]
        if weight == 0.0:
            continue
        for i, c in enumerate(low, k):
            out[i] += c * weight
    alpha = float(alpha)
    for i, c in enumerate(cof, k0):
        out[i] += c * alpha
    return Polynomial._trimmed(tuple(out))


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
    direct = Polynomial._trimmed(tuple(_tower_leverrier(system, q)[0]))
    a, d = assembled.coefficients, direct.coefficients
    pad = len(d) - len(a)
    deviation = max(map(abs, map(sub, a + (0.0,) * pad, d + (0.0,) * -pad)))
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


def _bordered_root(system: SuspensionSystem, q: HoleQuantities) -> float:
    """Smallest root >= 1 of det(I - z M_op), M_op the bordered matrix of
    ``q``: the bordered radius is its reciprocal."""
    det, _ = _tower_leverrier(system, q)
    return smallest_root_geq_one(Polynomial._trimmed(tuple(det)))


def escape_rate_zeta(system: SuspensionSystem, hole: Word) -> float:
    """Escape rate from the smallest zero >= 1 of the open inverse zeta; +inf
    where that inverse is a constant, so every orbit meets the hole."""
    bundle = zeta_op_factorized(system, hole)
    root = smallest_root_geq_one(bundle.zeta_open_inverse)
    return float(np.log(root)) / system.lattice_scale
