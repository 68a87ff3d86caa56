"""Lattices whose minima, kissing numbers and duals are known in closed form.

Constructions from Conway and Sloane, *Sphere Packings, Lattices and
Groups* (3rd ed., 1999), ch. 4 and 7, each given as a module:

- E8 over Q in the even coordinate system: the Z-span of 2e1,
  e2 - e1, ..., e7 - e6 and (1/2, ..., 1/2), of determinant 1, even and
  unimodular, so self-dual, with minimal norm 2 and 240 minimal vectors.
- E8 over the Eisenstein integers Z[w] of Q(sqrt -3) from the tetracode:
  the Z[w]-span of (1, 0, 1, -1), (0, 1, 1, 1), theta e3 and theta e4,
  theta = sqrt -3, that is the x in Z[w]^4 whose residues mod theta form
  a tetracode word.  A nonzero residue class mod theta has Hermitian
  norm at least 1, and theta Z[w] at least 3, so the minimal Hermitian
  norm sum |x_k|^2 is 3: the 8 weight-3 words lift to 3^3 vectors each
  (three units per residue +-1) and theta u e_i gives 6 * 4 more, 240 in
  all.  Read as R^8 with the Euclidean norm of (Re, Im), it is
  sqrt(3/2) E8.
"""

from fractions import Fraction

from adelic import module_from_matrix, preset_field, rational_field
from adelic.exactla import transpose

E8_ROWS = ([[2, 0, 0, 0, 0, 0, 0, 0]]
           + [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(8)] for i in range(6)]
           + [[Fraction(1, 2)] * 8])

E8_KISSING = 240


def e8_over_q():
    """E8 as a rank-8 module over Q, its Z-basis the rows of `E8_ROWS`."""
    q = rational_field()
    return module_from_matrix(q, transpose([[q.from_rational(x) for x in row]
                                            for row in E8_ROWS]))


def e8_over_eisenstein():
    """E8 as a rank-4 module over the ring of integers Z[w] of Q_sqrt-3 (nd 8)."""
    k = preset_field("Q_sqrt-3")
    one, zero, theta = k.one(), k.zero(), k.theta()
    rows = [[one, zero, one, -one], [zero, one, one, one],
            [zero, zero, theta, zero], [zero, zero, zero, theta]]
    return module_from_matrix(k, transpose(rows))
