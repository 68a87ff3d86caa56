"""Lattices whose minima, kissing numbers and duals are known in closed form.

Constructions from Conway and Sloane, *Sphere Packings, Lattices and
Groups* (3rd ed., 1999), ch. 4 and 7, each given as a module:

- D_n over Q, the x in Z^n of even coordinate sum: the Z-span of 2e1,
  e2 - e1, ..., en - e(n-1), of determinant 2, with minimal norm 2 and
  2n(n-1) minimal vectors +-e_i +- e_j.  Its dual D_n* is Z^n together
  with Z^n + (1/2, ..., 1/2), of minimal norm min(1, n/4): the 2n
  vectors +-e_i, and for n = 4 also the 16 vectors (+-1/2)^4.
- Barnes-Wall BW16 over Q in its unscaled form, the x in Z^16 with
  x mod 2 in the Reed-Muller code RM(1, 4) and sum x = 0 mod 4, of
  determinant 2^12 (index 2^11 for the code, 2 for the sum) and minimal
  norm 8: the 4 * 120 vectors +-2e_i +- 2e_j and, for each of the 30
  weight-8 words, the 128 sign patterns of even parity, 4320 in all.
  BW16 is similar to its dual: BW16* = BW16 / sqrt 8 up to rotation,
  so its minimal norm is 1.
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

Over number fields of every degree, two theorems give known answers:

- Kronecker: a nonzero algebraic integer with every conjugate of modulus
  at most 1 is a root of unity, and one whose norm is at least 1 has a
  conjugate of modulus at least 1.  So O_K^n with the unit ball at every
  place has lambda_1 = ... = lambda_n = 1, and its points of gauge 1 are
  the zeta e_i for zeta in mu_K, n |mu_K| / 2 +- pairs: a point with two
  nonzero coordinates would need each of modulus below 1 at every place.
  mu_K is +-1 for a field with a real place; Q(zeta_m) holds the m-th
  roots of unity and -1, so |mu_K| = m for even m and 2m for odd m.
- Power-of-two cyclotomics: K = Q(zeta_2d) with d a power of two has
  O_K = Z[zeta_2d], discriminant d^d and trace dual O^v = (1/d) O
  (Lyubashevsky-Peikert-Regev, EUROCRYPT 2010).  The polar of the unit
  ball at a complex place has radius 1/2 under the twisted form, so by
  Kronecker on d O^v = O, lambda_l(S*) = 2/d and every transference
  product is 2/d.

Over imaginary quadratic fields of class number above 1, Gauss's reduced
forms give known answers on every ideal class (Cox, *Primes of the Form
x^2 + ny^2*, sections 2-3 and 7):

- Each reduced form (a, b, c) of the field discriminant D, with
  |b| <= a <= c and b >= 0 when |b| = a or a = c, gives the ideal
  I = [a, (-b + sqrt D) / 2] of norm a, one per ideal class.  The
  element x = a u + v (-b + sqrt D) / 2 of I has
  |x|^2 = N(x) = a (a u^2 - b u v + c v^2), least a^2 for a reduced
  form, so under the unit ball lambda_1 = a exactly, attained at x = a.
- The trace dual of I is conj(I) / (a sqrt D), which holds
  1 / sqrt D, and the norms of conj(I) / a are at least 1.  Its least
  |y| is 1 / sqrt|D|, the polar of the unit ball has radius 1/2 under
  the twisted form, so lambda_1 of the polar is 2 / sqrt|D| in every
  class and the transference product is 2a / sqrt|D|.
"""

import math
from fractions import Fraction

from adelic import (
    FractionalIdeal,
    NumberField,
    module_from_matrix,
    preset_field,
    rational_field,
)
from adelic.exactla import transpose

E8_ROWS = ([[2, 0, 0, 0, 0, 0, 0, 0]]
           + [[-1 if j == i else 1 if j == i + 1 else 0 for j in range(8)] for i in range(6)]
           + [[Fraction(1, 2)] * 8])

E8_KISSING = 240


def rational_module(rows):
    """The module over Q whose Z-basis is the given rational rows."""
    q = rational_field()
    return module_from_matrix(q, transpose([[q.from_rational(x) for x in row] for row in rows]))


def d_n_rows(n):
    """A Z-basis of D_n: 2e1 and the differences e_(i+1) - e_i."""
    return [[2] + [0] * (n - 1)] + [[-1 if j == i else 1 if j == i + 1 else 0
                                      for j in range(n)] for i in range(n - 1)]


def bw16_rows():
    """A Z-basis of the unscaled BW16.

    RM(1, 4) is the affine functions on F_2^4, coordinate i the point
    with binary digits i.  Points 0, 1, 2, 4 and 8 are an information
    set: the words 1 + x1 + x2 + x3 + x4 and x1, ..., x4 are 1 at one of
    them and 0 at the others, so with 2e_j at the other 11 points they
    give a basis of {x : x mod 2 in RM(1, 4)}.  The words have weight 8,
    and 2e_j has coordinate sum 2, so the sum condition keeps the words,
    4e_j0 for the first such point j0 and 2e_j - 2e_j0 for the others.
    """
    x = [[i >> k & 1 for i in range(16)] for k in range(4)]
    words = [[(1 + sum(col)) % 2 for col in zip(*x)]] + x
    rest = [j for j in range(16) if j not in (0, 1, 2, 4, 8)]
    j0 = rest[0]
    evens = [[4 * (i == j0) for i in range(16)]] + [
        [2 * (i == j) - 2 * (i == j0) for i in range(16)] for j in rest[1:]]
    return words + evens


def e8_over_q():
    """E8 as a rank-8 module over Q, its Z-basis the rows of `E8_ROWS`."""
    return rational_module(E8_ROWS)


def e8_over_eisenstein():
    """E8 as a rank-4 module over the ring of integers Z[w] of Q_sqrt-3 (nd 8)."""
    k = preset_field("Q_sqrt-3")
    one, zero, theta = k.one(), k.zero(), k.theta()
    rows = [[one, zero, one, -one], [zero, one, one, one],
            [zero, zero, theta, zero], [zero, zero, zero, theta]]
    return module_from_matrix(k, transpose(rows))


# |mu_K| of each preset field and of each other field of the benchmark
# corpus (`perfbench/corpus.py`): +-1 where there is a real place; x^4+1,
# x^4-x^2+1 and x^6+x^3+1 are the cyclotomic polynomials of 8, 12 and 9
PRESET_ROOTS_OF_UNITY = {"Q": 2, "Q_sqrt2": 2, "Q_sqrt5": 2, "Q_i": 4, "Q_sqrt-3": 6}
CORPUS_ROOTS_OF_UNITY = {"x3-x-1": 2, "x3-3x-1": 2, "x4+1": 8, "x4-x-1": 2, "x4-x2+1": 12,
                         "x5-x-1": 2, "x6+x3+1": 18}


def cyclotomic_poly(m: int) -> list[int]:
    """Phi_m, constant term first: x^m - 1 divided by Phi_k for every other divisor k of m."""
    rest = [-1] + [0] * (m - 1) + [1]
    for k in range(1, m):
        if m % k == 0:
            div = cyclotomic_poly(k)
            quotient = [0] * (len(rest) - len(div) + 1)
            for i in reversed(range(len(quotient))):  # div is monic
                quotient[i] = c = rest[i + len(div) - 1]
                for j, x in enumerate(div):
                    rest[i + j] -= c * x
            assert not any(rest)
            rest = quotient
    return rest


def cyclotomic_field(m: int) -> NumberField:
    """Q(zeta_m) with the power basis, which spans its ring of integers Z[zeta_m]."""
    poly = cyclotomic_poly(m)
    d = len(poly) - 1
    return NumberField(poly, [[int(i == j) for j in range(d)] for i in range(d)])


# m: the class number of Q(sqrt m), for discriminants -20, -24 and -23
CLASS_NUMBERS = {-5: 2, -6: 2, -23: 3}


def reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """The reduced forms (a, b, c) of a negative fundamental discriminant b^2 - 4ac.

    There is one per class of forms, and so one per ideal class of the
    imaginary quadratic field of that discriminant.  A reduced form has
    3 a^2 <= |disc|, so a runs up to sqrt(|disc| / 3).
    """
    forms = []
    for a in range(1, math.isqrt(-disc // 3) + 1):
        for b in range(1 - a, a + 1):
            c, rest = divmod(b * b - disc, 4 * a)
            if not rest and c >= a and (b >= 0 or c > a):
                forms.append((a, b, c))
    return forms


def class_ideal(field: NumberField, form: tuple[int, int, int]) -> FractionalIdeal:
    """[a, (-b + sqrt D) / 2] in Q(sqrt m) on the power basis 1, theta = sqrt m.

    sqrt D is 2 theta when D = 4m and theta when D = m.
    """
    a, b, _ = form
    half_root = Fraction(1) if field.discriminant % 4 == 0 else Fraction(1, 2)  # sqrt D / 2
    return FractionalIdeal(field, [field.from_rational(a),
                                   field.element([Fraction(-b, 2), half_root])])
