"""Open suspension systems: punch a cylinder hole into the block chain.

The hole over a word a_1..a_m is the bottom slab of its cylinder. Removing it
from the time-lambda block chain zeroes the rows of all level-0 blocks whose
word extends the hole word. Two matrix representations of the open operator
are built here:

* ``refined``: refine the ceiling to order max(m, n) so the hole is a union of
  blocks, then zero those rows. Dimension grows with the refinement.
* ``bordered``: keep the order-n chain and append k0 - 1 border rows/columns
  that carry the hole's overlap structure (alpha, the correlation coefficients
  c_k, and a return column). Dimension n-blocks + k0 - 1, independent of m.

Both have the same escape rate; the refined matrix is entrywise nonnegative
while the bordered one mixes signs, so the two need different spectral-radius
strategies. The refined radius collapses each word's tower: with P the
``shift.survivor_matrix`` of the hole (the base chain on the words of length
max(m, n), hole rows zeroed) and k_C the ceiling heights, the radius is
e^{-s*} for the root s* of rho(diag(e^{s k}) P) = 1, found on the small word
operator. The exact survival curve steps mass on the tower of the refined
words' hole-free P. Neither builds the tall block matrix. The bordered radius
is the reciprocal of a polynomial root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HoleShorterThanCeilingOrderError,
    InadmissibleWordError,
    NoConvergenceError,
    NotReducedError,
)
from .shift import DEFAULT_STATE_CAP, Word, _survival_curve, is_reduced, survivor_matrix
from .suspension import SuspensionSystem, flow_invariant_vector, refine_suspension


# ===========================================================================
# Hole quantities
# ===========================================================================

@dataclass(frozen=True)
class HoleQuantities:
    """Overlap data of a hole word a_1..a_m relative to the ceiling order n.

    ``alpha`` is the conditional weight p(a_n,a_{n+1})..p(a_{m-1},a_m) of the
    hole past its first n letters; ``k0`` the ceiling sum over the first m - n
    shifts (normalized lattice); ``correlation[k-1]`` = c_k for k = 1..k0-1,
    nonzero exactly when the word overlaps itself at a shift whose ceiling sum
    is k, in which case ``overlap_shift[k-1]`` records that shift. ``t_index``
    and ``r_index`` locate the blocks of the first and last n letters at level
    0 in the block chain.
    """

    word: Word
    alpha: float
    k0: int
    correlation: tuple[float, ...]
    overlap_shift: tuple["int | None", ...]
    t_word: Word
    r_word: Word
    t_index: int
    r_index: int


def _self_overlap(word: Word, shift_by: int) -> bool:
    return all(word[i] == word[i + shift_by] for i in range(len(word) - shift_by))


def hole_quantities(system: SuspensionSystem, hole: Word) -> HoleQuantities:
    """Compute the overlap data of a reduced hole word at least as long as the order.

    Raises InadmissibleWordError, NotReducedError, or
    HoleShorterThanCeilingOrderError when the word fails a precondition.
    """
    word = tuple(hole)
    base = system.base
    if not base.is_admissible(word) or len(word) == 0:
        raise InadmissibleWordError(f"hole word {word} is not admissible")
    if not is_reduced(base, word):
        raise NotReducedError(f"hole word {word} admits no last-letter substitution")
    n = system.order
    m = len(word)
    if m < n:
        raise HoleShorterThanCeilingOrderError(
            f"hole length {m} is below the ceiling order {n}"
        )

    k0 = sum(system.height_of(word[j : j + n]) for j in range(m - n))
    alpha = 1.0
    for i in range(n - 1, m - 1):
        alpha *= float(base.transitions[word[i], word[i + 1]])

    correlation = [0.0] * max(k0 - 1, 0)
    overlap_shift: list["int | None"] = [None] * max(k0 - 1, 0)
    partial_sum = 0
    weight = 1.0
    for j in range(1, m - n):
        partial_sum += system.height_of(word[j - 1 : j - 1 + n])
        weight *= float(base.transitions[word[j - 1], word[j]])
        if partial_sum <= k0 - 1 and _self_overlap(word, j):
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
        t_index=system.block_index(t_word, 0),
        r_index=system.block_index(r_word, 0),
    )


# ===========================================================================
# Open matrix representations
# ===========================================================================

@dataclass(frozen=True, eq=False)
class OpenMatrix:
    """Matrix form of the open (hole-punched) time-lambda operator.

    For the ``refined`` representation ``system`` is the refined suspension and
    ``hole_rows`` lists the zeroed block rows. For ``bordered`` the matrix acts
    on the original blocks plus k0 - 1 border states and ``quantities`` carries
    the overlap data used to assemble it.
    """

    representation: str
    matrix: np.ndarray
    system: SuspensionSystem
    hole: Word
    hole_rows: tuple[int, ...] = ()
    quantities: "HoleQuantities | None" = None


def _refined(system: SuspensionSystem, hole: Word, cap: int) -> tuple[SuspensionSystem, tuple]:
    """The system at order max(len(hole), order), and the indices of its words
    that begin with the hole word (their level-0 blocks are the hole)."""
    word = tuple(hole)
    if not system.base.is_admissible(word) or len(word) == 0:
        raise InadmissibleWordError(f"hole word {word} is not admissible")
    refined_order = max(len(word), system.order)
    refined = (
        refine_suspension(system, refined_order, cap=cap)
        if refined_order > system.order
        else system
    )
    rows = tuple(i for i, w in enumerate(refined.words) if w[: len(word)] == word)
    return refined, rows


def build_open_refined(
    system: SuspensionSystem, hole: Word, cap: int = DEFAULT_STATE_CAP
) -> OpenMatrix:
    """Open matrix on blocks refined to order max(len(hole), order)."""
    refined, rows = _refined(system, hole, cap)
    hole_rows = tuple(int(refined._starts[i]) for i in rows)
    matrix = refined.block_matrix.copy()
    matrix[list(hole_rows), :] = 0.0
    matrix.setflags(write=False)
    return OpenMatrix(
        representation="refined",
        matrix=matrix,
        system=refined,
        hole=tuple(hole),
        hole_rows=hole_rows,
    )


def build_open_bordered(system: SuspensionSystem, hole: Word) -> OpenMatrix:
    """Open matrix on the original blocks plus k0 - 1 border states.

    Requires len(hole) >= order. The border encodes the passage through the
    hole: the t-row leaks -alpha into the border chain, border state k carries
    the correlation coefficient c_k, and the last border state re-enters at the
    r-block. With k0 = 0 (hole length equals the order) the border is empty and
    the matrix is the block matrix with the single hole row zeroed; with k0 = 1
    it collapses to subtracting alpha from the (t, r) entry.
    """
    q = hole_quantities(system, hole)
    base_matrix = system.block_matrix
    size = base_matrix.shape[0]
    if q.k0 == 0:
        matrix = base_matrix.copy()
        matrix[q.t_index, :] = 0.0
    elif q.k0 == 1:
        matrix = base_matrix.copy()
        matrix[q.t_index, q.r_index] -= q.alpha
    else:
        dim = size + q.k0 - 1
        matrix = np.zeros((dim, dim))
        matrix[:size, :size] = base_matrix
        matrix[q.t_index, size] = -q.alpha
        for k in range(1, q.k0):
            matrix[size + k - 1, size] = -q.correlation[k - 1]
        for k in range(1, q.k0 - 1):
            matrix[size + k - 1, size + k] = 1.0
        matrix[size + q.k0 - 2, q.r_index] = 1.0
    matrix.setflags(write=False)
    return OpenMatrix(
        representation="bordered",
        matrix=matrix,
        system=system,
        hole=tuple(hole),
        quantities=q,
    )


def build_open_matrix(
    system: SuspensionSystem,
    hole: Word,
    representation: str = "auto",
    cap: int = DEFAULT_STATE_CAP,
) -> OpenMatrix:
    """Build the requested representation; ``auto`` prefers refined and falls
    back to bordered when the refinement would exceed the state cap."""
    if _representation(system, hole, representation, cap) == "refined":
        return build_open_refined(system, hole, cap=cap)
    return build_open_bordered(system, hole)


def _representation(
    system: SuspensionSystem, hole: Word, representation: str, cap: int
) -> str:
    """``representation`` with ``auto`` resolved: refined when the alphabet
    power of the refined order is within the cap, bordered otherwise."""
    if representation == "auto":
        refined_order = max(len(hole), system.order)
        return "refined" if system.base.alphabet_size ** refined_order <= cap else "bordered"
    if representation not in ("refined", "bordered"):
        raise ValueError(f"unknown representation {representation!r}")
    return representation


# ===========================================================================
# Spectral radii
# ===========================================================================

def _strongly_connected_components(adjacency: np.ndarray) -> list[list[int]]:
    """Tarjan's algorithm, iterative to survive large graphs."""
    size = adjacency.shape[0]
    succ = [np.nonzero(adjacency[i])[0].tolist() for i in range(size)]
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


def _power_iteration_radius(matrix: np.ndarray, tol: float, max_iter: int) -> "float | None":
    """Collatz-Wielandt bracket via power iteration on (M + I)/2.

    The shift makes the iteration primitive on an irreducible block, so the
    min/max ratio bounds close geometrically. Returns None when the budget runs
    out (caller falls back to dense eigenvalues).
    """
    half = 0.5 * (matrix + np.eye(matrix.shape[0]))
    vec = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(max_iter):
        nxt = vec @ half
        ratios = nxt / vec
        low, high = float(ratios.min()), float(ratios.max())
        if high - low <= tol * max(1.0, high):
            return max(2.0 * 0.5 * (low + high) - 1.0, 0.0)
        total = nxt.sum()
        if total <= 0.0:
            return 0.0
        vec = nxt / total
    return None


def matrix_spectral_radius(
    matrix: np.ndarray, tol: float = 1e-13, max_iter: int = 200_000
) -> float:
    """Spectral radius of an entrywise nonnegative matrix.

    Decomposes into strongly connected components and power-iterates each
    irreducible block, so reducible matrices with defective eigenvalues (the
    usual shape of survivor chains) still converge geometrically. Falls back
    to dense eigenvalues if a block stalls.
    """
    mat = np.asarray(matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"matrix must be square, got shape {mat.shape}")
    if mat.shape[0] == 0:
        return 0.0
    if mat.min() < 0.0:
        raise ValueError("matrix_spectral_radius needs a nonnegative matrix")
    radius = 0.0
    for comp in _strongly_connected_components(mat > 0.0):
        if len(comp) == 1:
            node = comp[0]
            radius = max(radius, float(mat[node, node]))
            continue
        radius = max(radius, _component_radius(mat[np.ix_(comp, comp)], tol, max_iter))
    return radius


def _component_radius(sub: np.ndarray, tol: float, max_iter: int = 200_000) -> float:
    """Spectral radius of one irreducible nonnegative block."""
    if len(sub) <= 128:
        # Dense eigenvalues beat power iteration outright at this size,
        # and stay fast when a small spectral gap would stall it.
        return float(np.abs(np.linalg.eigvals(sub)).max())
    estimate = _power_iteration_radius(sub, tol, max_iter)
    if estimate is None:
        estimate = float(np.abs(np.linalg.eigvals(sub)).max())
    return estimate


# The word-operator root stops once its bracket is 4 ulp of s* wide or
# |log rho| is within 4 ulp of 0.
_ROOT_WIDTH = 4.0 * float(np.finfo(float).eps)
_ROOT_MAX_STEPS = 100
# Largest log of a row weight the root evaluates (e^709 is the float limit).
_ROOT_MAX_LOG_WEIGHT = 700.0


def _word_operator_root(P: np.ndarray, heights: np.ndarray, tol: float = 1e-13) -> float:
    """The s* with rho(diag(e^{s h}) P) = 1, for P nonnegative and heights h
    positive; +inf when P is nilpotent.

    f(s) = log rho(diag(e^{s h}) P) is convex, with slope a Perron average of
    the heights on the cyclic components of P. So from f(0) = log rho(P) the
    root lies between near = -f(0)/h_max and -f(0)/h_min, over those
    heights. Equal heights close that bracket with one radius evaluation.
    Otherwise f(near) is evaluated. When rho(P) < 1, convexity keeps f above
    the chord through (0, f(0)) and (near, f(near)) past near, so the chord's
    zero is a second, usually much closer, upper end. Illinois steps
    then shrink the bracket to about 4 ulp of s*, or stop early where |f| is
    within 4 ulp of 0. Weights are e^{s h} unscaled, so the radii are near 1
    close to the root. The upper end is clamped where a weight reaches e^700,
    and NoConvergenceError is raised only when the root lies past that
    clamp, outside the float range. ``tol`` is the power-iteration tolerance
    of each radius.
    """
    h = np.asarray(heights, dtype=float)
    live = h[P.any(axis=1)]
    if live.size == 0:
        return math.inf
    if live.min() == live.max():
        radius = matrix_spectral_radius(P, tol=tol)
        return -math.log(radius) / live[0] if radius > 0.0 else math.inf
    # Positive row weights keep the strongly connected components, so they
    # are found once; each evaluation takes the radius of the cyclic ones.
    parts = [
        (P[np.ix_(comp, comp)], h[comp])
        for comp in _strongly_connected_components(P > 0.0)
        if len(comp) > 1 or P[comp[0], comp[0]] > 0.0
    ]
    if not parts:
        return math.inf
    cyclic = np.concatenate([hp for _, hp in parts])
    h_min, h_max = float(cyclic.min()), float(cyclic.max())

    def f(s: float) -> float:
        return math.log(
            max(_component_radius(np.exp(s * hp)[:, None] * sub, tol) for sub, hp in parts)
        )

    f0 = f(0.0)
    near = -f0 / h_max
    if f0 == 0.0 or h_min == h_max:
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
    (lo, f_lo), (hi, f_hi) = sorted(((near, f_near), (far, f_far)))
    kept = None
    for _ in range(_ROOT_MAX_STEPS):
        if hi - lo <= _ROOT_WIDTH * max(-lo, hi):
            return 0.5 * (lo + hi)
        mid = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid) <= _ROOT_WIDTH:
            # log rho carries rounding noise of a few ulp, so no further
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


def _open_root(
    system: SuspensionSystem, hole: Word, cap: int = DEFAULT_STATE_CAP, tol: float = 1e-13
) -> float:
    """Word-operator root s* of the refined open system, so its radius is e^{-s*}.

    P is ``survivor_matrix`` of the base at order q = max(len(hole), order),
    weighted by the ceiling height of each word. ``cap`` is charged only when
    q exceeds the order: the system already holds its own order-n words,
    whatever cap it was built at.
    """
    word = tuple(hole)
    if not system.base.is_admissible(word) or len(word) == 0:
        raise InadmissibleWordError(f"hole word {word} is not admissible")
    q = max(len(word), system.order)
    chain = survivor_matrix(
        system.base, word, order=q, cap=cap if q > system.order else math.inf
    )
    heights = np.array([system.height_of(w) for w in chain.states])
    return _word_operator_root(chain.matrix, heights, tol=tol)


def open_spectral_radius(open_matrix: OpenMatrix, tol: float = 1e-13) -> float:
    """Spectral radius of the open operator in either representation.

    The refined radius is e^{-s*} for the root s* of the word operator
    rho(diag(e^{s k}) P) = 1, where P is the survivor matrix of the refined
    system's words and k their heights; ``open_matrix.matrix`` is not read.
    ``tol`` is the power-iteration tolerance of each radius the root
    evaluates. The bordered matrix has signed entries whose determinant
    identity pins the radius as the reciprocal of the smallest real root >= 1
    of its characteristic polynomial det(I - zA).
    """
    if open_matrix.representation == "refined":
        return math.exp(-_open_root(open_matrix.system, open_matrix.hole, tol=tol))
    from .zeta import char_poly, smallest_root_geq_one

    poly = char_poly(open_matrix.matrix)
    root = smallest_root_geq_one(poly)
    if root <= 0.0:
        raise NoConvergenceError("characteristic polynomial root search degenerated")
    return 1.0 / root


# ===========================================================================
# Escape rates and survival curves
# ===========================================================================

def _open_rate(
    system: SuspensionSystem, hole: Word, representation: str, cap: int
) -> tuple[str, float, float]:
    """(representation with ``auto`` resolved, flow escape rate, radius of the
    open time-lambda operator), from one root of that representation."""
    representation = _representation(system, hole, representation, cap)
    if representation == "refined":
        root = _open_root(system, hole, cap)
        return representation, root / system.lattice_scale, math.exp(-root)
    radius = open_spectral_radius(build_open_bordered(system, hole))
    if radius <= 0.0:
        return representation, float("inf"), radius
    return representation, -float(np.log(radius)) / system.lattice_scale, radius


def escape_rate_flow(
    system: SuspensionSystem,
    hole: Word,
    representation: str = "auto",
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Escape rate of the suspension flow through the hole, in flow-time units.

    This is -log(radius)/lambda for the open time-lambda operator; +inf when
    everything escapes (radius 0). The refined route returns the word-operator
    root s*/lambda directly rather than -log(e^{-s*})/lambda, which would
    lose relative accuracy when s* is small. It needs no block matrix.
    """
    return _open_rate(system, hole, representation, cap)[1]


def escape_rate_block_hole(system: SuspensionSystem, rows: "tuple[int, ...] | list[int]") -> float:
    """Escape rate when the hole is an arbitrary union of blocks (given as row
    indices 0..blocks-1 of the block matrix; ValueError otherwise). A row at
    any level of a word's tower removes that whole word: its row of the
    system's ``word_matrix`` is zeroed before the word-operator root."""
    rows = [int(r) for r in rows]
    size = len(system.block_measure)
    if not rows or not all(0 <= r < size for r in rows):
        raise ValueError(f"block hole needs rows within [0, {size}), got {rows}")
    P = system.word_matrix.copy()
    P[np.searchsorted(system._starts, rows, side="right") - 1, :] = 0.0
    return _word_operator_root(P, system.heights) / system.lattice_scale


def survival_curve_flow(
    system: SuspensionSystem,
    hole: Word,
    t_max: int,
    cap: int = DEFAULT_STATE_CAP,
) -> np.ndarray:
    """Exact survival probabilities S(0..t_max) under the flow-invariant measure.

    S(t) is the mass of points whose first t block-chain positions all avoid
    the hole; S(0) = 1 by convention (no kill has happened yet). Time is in
    lattice steps: one step is lambda units of flow time. The mass steps on
    the tower of the refined hole-free ``word_matrix``, so mass above level 0
    of a hole word climbs out alive. No block matrix is built.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    refined, rows = _refined(system, hole, cap)
    mass = flow_invariant_vector(refined)
    return _survival_curve(mass, refined.word_matrix, rows, 1, t_max, refined.heights)
