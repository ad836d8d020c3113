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
strategies (power iteration vs polynomial root).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    HoleShorterThanCeilingOrderError,
    InadmissibleWordError,
    NoConvergenceError,
    NotReducedError,
)
from .shift import DEFAULT_STATE_CAP, Word, _survival_curve, is_reduced
from .suspension import SuspensionSystem, refine_suspension


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


def build_open_refined(
    system: SuspensionSystem, hole: Word, cap: int = DEFAULT_STATE_CAP
) -> OpenMatrix:
    """Open matrix on blocks refined to order max(len(hole), order)."""
    word = tuple(hole)
    if not system.base.is_admissible(word) or len(word) == 0:
        raise InadmissibleWordError(f"hole word {word} is not admissible")
    refined_order = max(len(word), system.order)
    refined = (
        refine_suspension(system, refined_order, cap=cap)
        if refined_order > system.order
        else system
    )
    hole_rows = tuple(
        i
        for i, (w, level) in enumerate(refined.blocks)
        if level == 0 and w[: len(word)] == word
    )
    matrix = refined.block_matrix.copy()
    matrix[list(hole_rows), :] = 0.0
    matrix.setflags(write=False)
    return OpenMatrix(
        representation="refined",
        matrix=matrix,
        system=refined,
        hole=word,
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
    if representation == "refined":
        return build_open_refined(system, hole, cap=cap)
    if representation == "bordered":
        return build_open_bordered(system, hole)
    if representation != "auto":
        raise ValueError(f"unknown representation {representation!r}")
    refined_order = max(len(hole), system.order)
    if system.base.alphabet_size ** refined_order <= cap:
        return build_open_refined(system, hole, cap=cap)
    return build_open_bordered(system, hole)


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
        sub = mat[np.ix_(comp, comp)]
        if len(comp) <= 128:
            # Dense eigenvalues beat power iteration outright at this size,
            # and stay fast when a small spectral gap would stall it.
            estimate = float(np.abs(np.linalg.eigvals(sub)).max())
        else:
            estimate = _power_iteration_radius(sub, tol, max_iter)
            if estimate is None:
                estimate = float(np.abs(np.linalg.eigvals(sub)).max())
        radius = max(radius, estimate)
    return radius


def open_spectral_radius(open_matrix: OpenMatrix, tol: float = 1e-13) -> float:
    """Spectral radius of the open operator in either representation.

    The refined matrix is nonnegative, so component-wise power iteration
    applies directly. The bordered matrix has signed entries whose determinant
    identity pins the radius as the reciprocal of the smallest real root >= 1
    of its characteristic polynomial det(I - zA).
    """
    if open_matrix.representation == "refined":
        return matrix_spectral_radius(open_matrix.matrix, tol=tol)
    from .zeta import char_poly, smallest_root_geq_one

    poly = char_poly(open_matrix.matrix)
    root = smallest_root_geq_one(poly)
    if root <= 0.0:
        raise NoConvergenceError("characteristic polynomial root search degenerated")
    return 1.0 / root


# ===========================================================================
# Escape rates and survival curves
# ===========================================================================

def escape_rate_flow(
    system: SuspensionSystem,
    hole: Word,
    representation: str = "auto",
    cap: int = DEFAULT_STATE_CAP,
) -> float:
    """Escape rate of the suspension flow through the hole, in flow-time units.

    This is -log(radius)/lambda for the open time-lambda operator; +inf when
    everything escapes (radius 0).
    """
    om = build_open_matrix(system, hole, representation=representation, cap=cap)
    radius = open_spectral_radius(om)
    if radius <= 0.0:
        return float("inf")
    return -float(np.log(radius)) / system.lattice_scale


def escape_rate_block_hole(system: SuspensionSystem, rows: "tuple[int, ...] | list[int]") -> float:
    """Escape rate when the hole is an arbitrary union of blocks (given as row
    indices of the block matrix)."""
    rows = tuple(int(r) for r in rows)
    if len(rows) == 0:
        raise ValueError("block hole needs at least one row")
    matrix = system.block_matrix.copy()
    matrix[list(rows), :] = 0.0
    radius = matrix_spectral_radius(matrix)
    if radius <= 0.0:
        return float("inf")
    return -float(np.log(radius)) / system.lattice_scale


def survival_curve_flow(
    system: SuspensionSystem,
    hole: Word,
    t_max: int,
    cap: int = DEFAULT_STATE_CAP,
) -> np.ndarray:
    """Exact survival probabilities S(0..t_max) under the flow-invariant measure.

    S(t) is the mass of points whose first t block-chain positions all avoid
    the hole; S(0) = 1 by convention (no kill has happened yet). Time is in
    lattice steps: one step is lambda units of flow time.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    om = build_open_refined(system, hole, cap=cap)
    mass = om.system.block_measure / om.system.mass_normalized
    return _survival_curve(mass, om.system.block_matrix, om.hole_rows, 1, t_max)
