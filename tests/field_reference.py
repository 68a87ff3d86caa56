"""Reference computations that the package's own results are checked against."""

from fractions import Fraction

from adelic import FieldElement, flatten_kvector
from adelic.exactla import is_integral_vec, mat_inv, mat_mul, solve_vec, transpose


def complementary_basis(field):
    """Trace-dual basis of the integral basis: Tr(dual_i * b_j) = delta_ij.

    Computed directly from the trace Gram matrix, independently of the
    ideal and module duals in `adelic.omodules`.
    """
    dual_coords = mat_mul(mat_inv(field.trace_gram), field.basis_matrix)
    return [field.element(row) for row in dual_coords]


def t_n(x, y) -> Fraction:
    """Sum of Tr(x_k * y_k), element by element: the standard pairing on K^n."""
    if len(x) != len(y):
        raise ValueError("vectors of different length")
    return sum(((a * b).trace() for a, b in zip(x, y)), Fraction(0))


def contains(lattice, x) -> bool:
    """Membership of a field element in an ideal or of a K-vector in a module.

    x lies in it when its coordinates over the exact Z-basis are integers.
    """
    if isinstance(x, FieldElement):
        rows, v = lattice.coord_matrix, list(x.coords)
    else:
        rows, v = lattice.flat, flatten_kvector(x)
    return is_integral_vec(solve_vec(transpose(rows), v))
