"""Dense open matrices of the paper's two representations, as test oracles.

The library's rate routes never build these; the tests build them here to
check the routes against a dense radius, determinant or sampler.
"""

from flowescape import hole_quantities, refine_suspension
from flowescape.open_system import _bordered_matrix


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
