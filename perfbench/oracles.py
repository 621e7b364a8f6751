"""Reference arithmetic for checking benchmark results, independent of sl2family.

Results are checked on their rendered JSON, never through the library's own
types, so a check runs no library code (and adds nothing to a traced run's
counts).  Scalars are pairs (re, im) of Fractions; a Laurent polynomial is a
dict exponent -> scalar; an element of the enveloping algebra or of a chart
section is checked through the standard irreducible representations of sl2,
where the rewriting of PBW words is replaced by plain matrix products.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

ZERO = (Fraction(0), Fraction(0))


def gr(re, im=0):
    return (Fraction(re), Fraction(im))


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


# -- Laurent polynomials: dict exponent -> scalar, no zero values ----------


def ladd(p, q):
    out = dict(p)
    for e, c in q.items():
        s = gadd(out.get(e, ZERO), c)
        if s == ZERO:
            out.pop(e, None)
        else:
            out[e] = s
    return out


def lmul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out = ladd(out, {e1 + e2: gmul(c1, c2)})
    return out


def lscale(p, c, shift=0):
    out = {}
    for e, v in p.items():
        w = gmul(v, c)
        if w != ZERO:
            out[e + shift] = w
    return out


# -- parsing rendered JSON --------------------------------------------------


def parse_scalar(obj):
    """A scalar as rendered by to_json ({"re","im"}) or scalar_to_json."""
    if isinstance(obj, dict):
        return gr(Fraction(obj["re"]), Fraction(obj.get("im", "0")))
    return gr(Fraction(obj))


def parse_laurent(obj):
    """Laurent JSON: dense coefficients from exponent 0 or from "valuation"."""
    lo = obj.get("valuation", 0)
    out = {}
    for k, c in enumerate(obj["coeffs"]):
        v = parse_scalar(c)
        if v != ZERO:
            out[lo + k] = v
    return out


def parse_uea(doc):
    """UEAElement JSON -> (basis, {(a, b, c): scalar})."""
    return doc["basis"], {tuple(t["mono"]): parse_scalar(t["coeff"]) for t in doc["terms"]}


def parse_section(doc):
    """FamilySection JSON -> (chart, {(a, b, c): Laurent})."""
    return doc["chart"], {tuple(t["mono"]): parse_laurent(t["coeff"]) for t in doc["terms"]}


def parse_cartan(doc):
    """CartanSection JSON -> {degree: Laurent}."""
    return {c["degree"]: parse_laurent(c["coeff"]) for c in doc["coeffs"]}


# -- closed forms -------------------------------------------------------------


def shifted_casimir_power(n, scale_exp):
    """R^scale_exp (h^2 - 1)^n as {degree: Laurent}, from the binomial coefficients."""
    return {
        2 * k: {scale_exp: gr(comb(n, k) * (-1) ** (n - k))} for k in range(n + 1)
    }


# -- matrix representations ---------------------------------------------------


def represent(terms, d, ladder_scale=False):
    """The image of sum coeff * Y^a X^c H^b on the irreducible module of dim d.

    Basis v_0..v_{d-1} of weights lam - 2i with lam = d - 1:
    H v_i = (lam - 2i) v_i,  X v_i = i (lam - i + 1) v_{i-1},  Y v_i = v_{i+1},
    so that [X, Y] = H, [H, X] = 2X and [H, Y] = -2Y.  A monomial sends each
    v_j to a multiple of one basis vector, so its image is built column by
    column without matrix products.

    ``terms`` maps (a, b, c) to a Laurent polynomial (dict).  With
    ladder_scale, the ladder generators are those of the chart at infinity,
    which act as R times the finite-chart ones, so a monomial picks up
    R^(a + c).  The result is a dict (i, j) -> Laurent.
    """
    lam = d - 1
    out = {}
    for (a, b, c), coeff in terms.items():
        shift = a + c if ladder_scale else 0
        for j in range(c, d):
            if j - c + a >= d:
                break
            value = Fraction(lam - 2 * j) ** b
            for i in range(j, j - c, -1):
                value *= i * (lam - i + 1)
            if value:
                key = (j - c + a, j)
                out[key] = ladd(out.get(key, {}), lscale(coeff, gr(value), shift))
    return {k: v for k, v in out.items() if v}


def matmul(A, B, d):
    out = {}
    for i in range(d):
        for j in range(d):
            acc = {}
            for k in range(d):
                if (i, k) in A and (k, j) in B:
                    acc = ladd(acc, lmul(A[(i, k)], B[(k, j)]))
            if acc:
                out[(i, j)] = acc
    return out


def constant_terms(terms):
    """Scalar-coefficient terms as Laurent-coefficient terms (constants)."""
    return {k: {0: v} for k, v in terms.items() if v != ZERO}


def degree(terms):
    """The PBW degree a + b + c of the highest monomial (0 for no terms)."""
    return max((sum(mono) for mono in terms), default=0)


def rep_dims(deg):
    """The irreducible modules an element of PBW degree <= deg is checked on.

    On the module of dim d, Y^a and X^c act as 0 once a >= d or c >= d, so
    smaller modules cannot see the top-degree monomials; dims 1..deg+2 reach
    past every monomial of degree <= deg.
    """
    return range(1, deg + 3)


def images(terms, dims, ladder_scale=False):
    return [represent(terms, d, ladder_scale) for d in dims]


def product_images(u_terms, v_terms, ladder_scale=False):
    """(degree bound, the image of u*v on each irrep of rep_dims(bound)): rho(u) rho(v)."""
    deg = degree(u_terms) + degree(v_terms)
    return deg, [
        matmul(represent(u_terms, d, ladder_scale), represent(v_terms, d, ladder_scale), d)
        for d in rep_dims(deg)
    ]
