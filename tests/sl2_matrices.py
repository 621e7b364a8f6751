"""Matrix realizations of both sl2 bases on the irreducible modules.

Each basis is realized by 2x2 matrices in its (lowering, cartan, raising)
order: the split basis by the standard triple, the compact basis by its
Cayley transform (Knapp, Representation Theory of Semisimple Groups, ch. II).
A 2x2 matrix A acts on the homogeneous polynomials of degree n in (x, y)
by the derivation sum_jk A[j][k] x_j d/dx_k, a Lie algebra homomorphism;
these are the irreducible modules of dimension n + 1.  Nothing here reads
the transition constants or the product of pbw: an element acts as the sum
of its PBW words, each a product of generator matrices.
"""

from fractions import Fraction

from sl2family.pbw import UEAElement
from sl2family.scalars import GaussianRational as GR

_H2 = Fraction(1, 2)
TRIPLES_2X2 = {
    "split": (
        [[0, 0], [1, 0]],
        [[1, 0], [0, -1]],
        [[0, 1], [0, 0]],
    ),
    "compact": (
        [[GR(_H2), GR(0, -_H2)], [GR(0, -_H2), GR(-_H2)]],
        [[0, GR(0, -1)], [GR(0, 1), 0]],
        [[GR(_H2), GR(0, _H2)], [GR(0, _H2), GR(-_H2)]],
    ),
}


def mat_mul(p: list, q: list) -> list:
    n = len(p)
    return [
        [sum((p[i][k] * q[k][j] for k in range(n)), GR(0)) for j in range(n)]
        for i in range(n)
    ]


def mat_bracket(p: list, q: list) -> list:
    return [[x - y for x, y in zip(r, s)] for r, s in zip(mat_mul(p, q), mat_mul(q, p))]


def rho_2x2(a, n: int) -> list:
    """The matrix of the derivation of a on x^(n-k) y^k, k = 0..n."""
    out = [[GR(0)] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        exps = (n - k, k)
        for j in range(2):
            for l in range(2):
                if not a[j][l] or not exps[l]:
                    continue
                e = list(exps)
                e[l] -= 1
                e[j] += 1
                out[e[1]][k] = out[e[1]][k] + GR.of(a[j][l]) * exps[l]
    return out


def rho_element(u: UEAElement, n: int) -> list:
    low, car, rai = (rho_2x2(a, n) for a in TRIPLES_2X2[u.basis.name])
    total = [[GR(0)] * (n + 1) for _ in range(n + 1)]
    for (a, b, c), coeff in u.terms.items():
        word = [[GR(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
        for m, e in ((low, a), (rai, c), (car, b)):
            for _ in range(e):
                word = mat_mul(word, m)
        total = [
            [total[i][j] + coeff * word[i][j] for j in range(n + 1)] for i in range(n + 1)
        ]
    return total
