"""Conversions between the two polynomial classes and the two charts.

The library holds ``Laurent`` and ``Poly`` on one sparse term map and
converts between them nowhere; the checks that compare the two classes, or
that carry a Casimir polynomial to the chart at infinity, build their
counterparts here.  Each helper reads only public attributes.
"""

from sl2family.scalars import GaussianRational as GR
from sl2family.scalars import Laurent, Poly


def from_poly(p: Poly) -> Laurent:
    """The Laurent polynomial with the terms of p."""
    return Laurent(p.var, dict(p.terms))


def to_poly(f: Laurent) -> Poly:
    """The Poly with the terms of f; a pole at 0 is a ValueError."""
    if not f.is_polynomial:
        raise ValueError(f"{f} has a pole at {f.var}=0")
    return Poly([f.terms.get(k, GR(0)) for k in range(max(f.terms, default=-1) + 1)], f.var)


def chart_substitute(p: Poly) -> tuple:
    """Substitute the reciprocal coordinate and clear the pole.

    For p of degree d in the variable r, p(1/R) = R^(-d) * q(R) with
    q(0) != 0; returns (q, d).  The zero polynomial maps to (0, 0), and the
    variable tag flips between the two charts.
    """
    return Poly(p.coeffs[::-1], "R" if p.var == "r" else "r"), max(p.degree(), 0)
