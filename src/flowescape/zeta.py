"""Zeta determinants of the block chain and their open factorization.

For the closed chain, det(I - z Mbar) is the inverse zeta function of the
time-lambda map: a polynomial with a simple zero at z = 1 (row-stochastic
Perron root). Punching a cylinder hole multiplies in the hole's overlap
structure: with the quantities (alpha, k0, c_k) of the hole and the (t, r)
cofactor of I - z Mbar,

    det(I - z M_op) = det(I - z Mbar) * (1 + sum_k c_k z^k)
                      + C_{t,r}(z) * alpha * z^{k0}.

Everything here is dense polynomial arithmetic in float64: characteristic
polynomials and cofactors come from a Faddeev-LeVerrier pass, the (1 - z)
factor is removed by synthetic division, Taylor data at z = 1 feeds the
asymptotic expansions, and root isolation on [1, oo) turns determinants back
into spectral radii.

Block and bordered matrices are towers: of their rows, all but a few (word
tops with several successors, border rows carrying a correlation
coefficient) have at most one nonzero. Removing those states leaves the tower
expansion det(I - z M_block) = det(I - W(z)), W(z) = diag(z^h) P (Parry &
Pollicott, Asterisque 187-188, ch. 6): from 64 dims on, the pass runs over
the few kept states with polynomial entries, and the tower levels, border
links and zeroed hole rows never enter it. Below 64 dims, and where the
collapse removes too few states to pay, it is one dense O(n^3) product per
step, and past 320 dims such a matrix raises DimensionTooLargeError (the
bordered matrix of a hole that overlaps itself at many shifts, such as 0^m,
keeps nearly all of its border states).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .errors import (
    DimensionTooLargeError,
    FactorizationMismatchError,
    NoSignChangeError,
    NoZeroAtOneError,
    PoleAtOneError,
)
from .open_system import HoleQuantities, _bordered_matrix, hole_quantities
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

#: Dimension from which ``_leverrier`` tries the tower collapse; every
#: matrix below it keeps the dense pass. The value is the threshold of the
#: earlier row-gathering pass, kept so that the small matrices give the same
#: coefficients as before. It is not the collapse's crossover: on the block
#: matrices of the 3-shift [[.5,.3,.2],[.1,.6,.3],[.4,.4,.2]] with heights
#: near n/3 each and the (0, 1) adjugate entry (5 kept states; one OpenBLAS
#: thread on a 2-core x86-64 Xeon, set-up included), the two passes break
#: even at about 32 dims, the dense one is 1.7-2.3x faster at 16-20 dims,
#: and the collapse 2.3x faster at 48 and 3.5-4.3x at 64.
_COLLAPSE_MIN_DIMENSION = 64

#: Largest matrix the dense pass accepts. Its cost grows as n^4 and its
#: error with n, so a matrix past this that the collapse does not shrink
#: raises DimensionTooLargeError at once.
_DENSE_MAX_DIMENSION = 320


def _leverrier(matrix: np.ndarray, entry: "tuple[int, int] | None" = None):
    """One Faddeev-LeVerrier pass for det(I - zM).

    Returns the ascending coefficients of det(I - zM) and, when ``entry`` =
    (row, col) is given, the ascending coefficients of that entry of
    adj(I - zM) (which is the (col, row) cofactor of I - zM).

    From ``_COLLAPSE_MIN_DIMENSION`` dims on, the pass runs on the tower
    collapse of M (``_collapse``) when it pays: the states whose rows have
    at most one nonzero are removed, and FL runs over the few kept states
    with polynomial entries (``_collapsed_leverrier``). Otherwise, and
    always below that dimension, it is the dense pass: step k forms
    A_k = M X_{k-1}, c_k = -tr(A_k) / k and X_k = A_k + c_k I, and X_k[row,
    col] is the z^k coefficient of the adjugate entry, at one O(n^3) product
    per step. A matrix past ``_DENSE_MAX_DIMENSION`` dims that would take
    the dense pass raises DimensionTooLargeError instead; the collapsed pass
    has no dimension cap.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    size = mat.shape[0]
    if size >= _COLLAPSE_MIN_DIMENSION:
        collapse = _collapse(mat, entry)
        if collapse is not None:
            return _collapsed_leverrier(size, entry, *collapse)
    if size > _DENSE_MAX_DIMENSION:
        raise DimensionTooLargeError(
            f"dimension {size} exceeds the dense cap {_DENSE_MAX_DIMENSION}, and "
            "the tower collapse does not shrink it enough to pay"
        )
    det_coeffs = [1.0]
    adj_coeffs: "list[float] | None" = None
    if entry is not None:
        adj_coeffs = [1.0 if entry[0] == entry[1] else 0.0]
        adj_flat = entry[0] * size + entry[1]
    diagonal = np.arange(size) * (size + 1)
    cur = mat.copy()
    nxt = np.empty_like(cur)
    for k in range(1, size + 1):
        coeff = -float(cur.take(diagonal).sum()) / k
        det_coeffs.append(coeff)
        if k == size:
            break
        cur.reshape(-1)[diagonal] += coeff
        if adj_coeffs is not None:
            adj_coeffs.append(float(cur.take(adj_flat)))
        np.matmul(mat, cur, out=nxt)
        cur, nxt = nxt, cur
    return det_coeffs, adj_coeffs


def _collapse(mat: np.ndarray, entry: "tuple[int, int] | None"):
    """The tower collapse of M for ``_leverrier``, or None when it removes
    no state or costs more than the dense pass.

    A state whose row has at most one nonzero (a tower level, a border link,
    a zeroed hole row) is removed, unless it is ``entry``'s row or column.
    On each cycle made only of such states the first state reached is kept
    instead. So the removed states form a forest under their single
    successors, the block of I - zM on them is unit triangular, and by the
    Schur complement det(I - zM) = det(I - W(z)), with the adjugate entries
    between kept states equal too. W(z)[i, j] sums, over each nonzero
    M[i, c] of a kept row, the chain from c through removed states to kept
    state j: z to the chain's number of steps, times the product of its
    entries. A chain ending on a zero row adds nothing.

    Returns d, ``position`` (``position[i]`` is the index of kept state i
    among the d kept states, -1 when i is removed) and ``layers``, the pairs
    (p, W_p) with W_p the d x d coefficient of z^p in W, in ascending p.
    """
    size = mat.shape[0]
    nonzero = mat != 0.0
    counts = np.count_nonzero(nonzero, axis=1)
    keep = counts >= 2
    if entry is not None:
        keep[list(entry)] = True
    if keep.all():
        return None
    successor = np.argmax(nonzero, axis=1)
    step = mat[np.arange(size), successor].tolist()
    successor = successor.tolist()
    single = (counts == 1).tolist()
    keep = keep.tolist()
    # A removed state resolves to (kept target, steps, product of entries),
    # or to target -1 when its chain ends on a zero row; -2 is unresolved.
    target = [-2] * size
    steps = [0] * size
    weight = [0.0] * size
    on_path = [False] * size
    for start in range(size):
        if keep[start] or target[start] != -2:
            continue
        path = []
        cur = start
        while not keep[cur] and target[cur] == -2 and single[cur]:
            if on_path[cur]:
                # An unresolved state met again closes a cycle on this path.
                keep[cur] = True
                break
            on_path[cur] = True
            path.append(cur)
            cur = successor[cur]
        if keep[cur]:
            t, p, w = cur, 0, 1.0
        elif target[cur] == -2:
            target[cur] = -1
            t, p, w = -1, 0, 0.0
        else:
            t, p, w = target[cur], steps[cur], weight[cur]
        for state in reversed(path):
            if keep[state]:
                t, p, w = state, 0, 1.0
                continue
            if t >= 0:
                p, w = p + 1, step[state] * w
            target[state], steps[state], weight[state] = t, p, w
    kept = [i for i in range(size) if keep[i]]
    dim = len(kept)
    # Cost in multiply-adds: d steps of one d x d by d x d(n + 1) product per
    # power, against n steps of one n x n by n x n product. One power is the
    # least, so a collapse that fails this does not pay.
    if dim**4 * (size + 1) >= size**4:
        return None
    position = np.full(size, -1, dtype=np.intp)
    position[kept] = np.arange(dim)
    terms: dict[int, np.ndarray] = {}
    for i in kept:
        row = position[i]
        for col in np.flatnonzero(nonzero[i]).tolist():
            value = float(mat[i, col])
            if keep[col]:
                t, p = col, 1
            elif target[col] >= 0:
                t, p, value = target[col], steps[col] + 1, value * weight[col]
            else:
                continue
            layer = terms.get(p)
            if layer is None:
                layer = terms[p] = np.zeros((dim, dim))
            layer[row, position[t]] += value
    if len(terms) * dim**4 * (size + 1) >= size**4:
        return None
    return dim, position, sorted(terms.items())


def _collapsed_leverrier(size: int, entry, dim: int, position: np.ndarray, layers):
    """Faddeev-LeVerrier over the d kept states of ``_collapse``, with
    polynomial entries truncated at degree ``size``.

    X_0 = I, A_k = W X_{k-1}, c_k = -tr(A_k) / k, X_k = A_k + c_k I. For the
    characteristic polynomial det(lambda I - W) = sum_k c_k lambda^{d-k}, so
    det(I - W) = sum_{k=0}^{d} c_k and adj(I - W) = sum_{k=0}^{d-1} X_k. The
    iterate is stored degree-major within each row, x[j, deg, col], so
    multiplying by z^p is a shift of its flattened rows by p d columns.
    """
    width = size + 1
    diag = np.arange(dim)
    det = np.zeros(width)
    det[0] = 1.0
    cur = np.zeros((dim, width, dim))
    cur[diag, 0, diag] = 1.0
    adj = None
    if entry is not None:
        r, t = int(position[entry[0]]), int(position[entry[1]])
        adj = cur[r, :, t].copy()
    nxt = np.empty_like(cur)
    for k in range(1, dim + 1):
        nxt.fill(0.0)
        flat_in, flat_out = cur.reshape(dim, -1), nxt.reshape(dim, -1)
        for p, layer in layers:
            flat_out[:, p * dim :] += layer @ flat_in[:, : (width - p) * dim]
        coeff = nxt[diag, :, diag].sum(axis=0) / -k
        det += coeff
        if k == dim:
            break
        nxt[diag, :, diag] += coeff
        if adj is not None:
            adj += nxt[r, :, t]
        cur, nxt = nxt, cur
    return det.tolist(), None if adj is None else adj[:size].tolist()


def char_poly(matrix: np.ndarray) -> Polynomial:
    """det(I - zM) as a polynomial in z (reversed characteristic polynomial)."""
    det_coeffs, _ = _leverrier(matrix)
    return Polynomial(tuple(det_coeffs))


def cofactor_poly(matrix: np.ndarray, t_index: int, r_index: int) -> Polynomial:
    """(t, r) cofactor of I - zM, i.e. adj(I - zM)[r, t], 0-based indices."""
    return _closed_and_cofactor(matrix, t_index, r_index)[1]


def _closed_and_cofactor(
    matrix: np.ndarray, t_index: int, r_index: int
) -> tuple[Polynomial, Polynomial]:
    """det(I - zM) and its (t, r) cofactor from one Faddeev-LeVerrier pass."""
    size = np.asarray(matrix).shape[0]
    if not (0 <= t_index < size and 0 <= r_index < size):
        raise ValueError(f"cofactor indices ({t_index}, {r_index}) out of range for size {size}")
    det_coeffs, adj_coeffs = _leverrier(matrix, entry=(r_index, t_index))
    return Polynomial(tuple(det_coeffs)), Polynomial(tuple(adj_coeffs))


# ===========================================================================
# Deflation, Taylor data, root isolation
# ===========================================================================

def deflate_at_one(poly: Polynomial, tol: float = 1e-9) -> Polynomial:
    """Divide by (1 - z), requiring a zero at z = 1 within ``tol``.

    Returns G with poly = (1 - z) G. Raises NoZeroAtOneError otherwise.
    """
    value = poly(1.0)
    if abs(value) >= tol:
        raise NoZeroAtOneError(f"|p(1)| = {abs(value):.3e} is not below {tol:.0e}")
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


def smallest_root_geq_one(
    poly: Polynomial,
    hi: "float | None" = None,
    companion_fallback: bool = True,
) -> float:
    """Smallest real root of ``poly`` in [1, hi], assuming poly(1) >= 0.

    Scans for a sign change, then bisects and polishes with Newton. Without a
    sign change (even roots) it falls back to companion-matrix eigenvalues and
    polishes on the derivative when the root is multiple. Raises
    NoSignChangeError when nothing is found.
    """
    scale = max(abs(c) for c in poly.coefficients)
    at_one = poly(1.0)
    if abs(at_one) <= 1e-12 * max(1.0, scale):
        return 1.0
    if at_one < 0.0:
        raise ValueError(f"poly(1) = {at_one:.3e} is negative; no survival mass")

    brackets = [hi] if hi is not None else [float(2 ** j) for j in range(1, 22)]
    left = 1.0
    found: "tuple[float, float] | None" = None
    for right in brackets:
        if right <= left:
            continue
        xs = np.linspace(left, right, 512)
        prev_x, prev_v = left, poly(left)
        for x in xs[1:]:
            v = poly(float(x))
            if prev_v > 0.0 >= v:
                found = (prev_x, float(x))
                break
            prev_x, prev_v = float(x), v
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

    if companion_fallback and poly.degree >= 1:
        roots = np.roots(list(reversed(poly.coefficients)))
        top = hi if hi is not None else float(2 ** 21)
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
        alt = _newton_polish(deriv, cand, cand - pad, cand + pad)
        if abs(poly(alt)) <= 1e-12 * max(1.0, scale):
            return alt
    return _newton_polish(poly, cand, lo, hi)


def _newton_polish(poly: Polynomial, start: float, lo: float, hi: float) -> float:
    deriv = poly.derivative()
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


def correlation_poly(quantities: HoleQuantities) -> Polynomial:
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


def zeta_op_factorized(
    system: SuspensionSystem, hole: Word, tol: float = 1e-9
) -> ZetaBundle:
    """Assemble det(I - z M_op) from the factorization and cross-check it.

    The direct route takes the characteristic polynomial of the bordered open
    matrix; the assembled route multiplies the closed determinant by the
    correlation polynomial and adds the cofactor term. Coefficientwise
    disagreement beyond ``tol`` raises FactorizationMismatchError.
    """
    q = hole_quantities(system, hole)
    closed, cof = _closed_and_cofactor(system.block_matrix, q.t_index, q.r_index)
    deflated = deflate_at_one(closed)
    corr = correlation_poly(q)
    assembled = _open_determinant(closed, corr, cof, q.alpha, q.k0)
    direct = char_poly(_bordered_matrix(system, q))
    width = max(len(assembled.coefficients), len(direct.coefficients))
    deviation = 0.0
    for i in range(width):
        a = assembled.coefficients[i] if i < len(assembled.coefficients) else 0.0
        d = direct.coefficients[i] if i < len(direct.coefficients) else 0.0
        deviation = max(deviation, abs(a - d))
    if deviation > tol:
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
    """Escape rate from the smallest zero >= 1 of the open inverse zeta."""
    bundle = zeta_op_factorized(system, hole)
    root = smallest_root_geq_one(bundle.zeta_open_inverse)
    return float(np.log(root)) / system.lattice_scale
