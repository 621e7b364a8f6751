"""Normal-form engine: fixtures, an independent module-action oracle,
basis changes, filtration order, and the Cartan projection."""

import copy
import random
from fractions import Fraction
from math import comb, gcd
from typing import Dict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2family import pbw
from sl2family.pbw import (
    COMPACT,
    SPLIT,
    Sl2Basis,
    UEAElement,
    casimir,
    change_basis,
    hc_projection,
    k_order,
)
from sl2family.scalars import GR_ONE, GaussianRational
from sl2_matrices import TRIPLES_2X2, mat_bracket, mat_mul, rho_2x2, rho_element

GR = GaussianRational
I = GR(0, 1)


def gen(name: str, basis=COMPACT) -> UEAElement:
    return UEAElement.monomial(basis, tuple(int(g == name) for g in basis.gens))


def commutator(u: UEAElement, v: UEAElement) -> UEAElement:
    return u * v - v * u


# a basis equal to neither hard-wired one
WEIRD = Sl2Basis("weird", ("A", "B", "C"))


# -- highest-weight module oracle -------------------------------------------
#
# On the Verma module with highest weight lam and basis v_0, v_1, ... the
# (lowering, cartan, raising) generators Y, H, X of either triple act by
#     Y v_j = v_{j+1},   H v_j = (lam - 2j) v_j,   X v_j = j(lam - j + 1) v_{j-1}.
# Applying elements to vectors never invokes the product under test, so
# comparing "apply(u*v)" with "apply(u) after apply(v)" is an independent
# check of the normal-form multiplication.

Vector = Dict[int, GaussianRational]


def _apply_gen(slot: int, vec: Vector, lam: GaussianRational) -> Vector:
    out: Vector = {}
    for j, c in vec.items():
        if slot == 0:  # lowering
            out[j + 1] = out.get(j + 1, GR(0)) + c
        elif slot == 1:  # cartan
            out[j] = out.get(j, GR(0)) + c * (lam - 2 * j)
        else:  # raising
            if j > 0:
                out[j - 1] = out.get(j - 1, GR(0)) + c * j * (lam - j + 1)
    return {j: c for j, c in out.items() if c}


def apply_element(u: UEAElement, vec: Vector, lam: GaussianRational) -> Vector:
    """u v on the Verma module of u's own triple."""
    total: Vector = {}
    for (a, b, c), coeff in u.terms.items():
        cur = dict(vec)
        for _ in range(b):
            cur = _apply_gen(1, cur, lam)
        for _ in range(c):
            cur = _apply_gen(2, cur, lam)
        for _ in range(a):
            cur = _apply_gen(0, cur, lam)
        for j, x in cur.items():
            total[j] = total.get(j, GR(0)) + coeff * x
    return {j: x for j, x in total.items() if x}


LAMBDAS = [GR(5), GR(Fraction(7, 2)), GR(0, 1), GR(Fraction(-1, 3), Fraction(1, 2))]


class TestNormalForm:
    def test_product_fixtures(self):
        X, Y, H = gen("X"), gen("Y"), gen("H")
        # X*Y = YX + H in normal order
        assert (X * Y).terms == {(1, 0, 1): GR(1), (0, 1, 0): GR(1)}
        # H*X = XH + 2X
        assert (H * X).terms == {(0, 1, 1): GR(1), (0, 0, 1): GR(2)}
        # Y*X is already normal
        assert (Y * X).terms == {(1, 0, 1): GR(1)}
        assert (X * X).terms == {(0, 0, 2): GR(1)}

    def test_bracket_relations(self):
        X, Y, H = gen("X"), gen("Y"), gen("H")
        assert commutator(H, X) == 2 * X
        assert commutator(H, Y) == -2 * Y
        assert commutator(X, Y) == H

    def test_split_bracket_relations(self):
        Xs, Ys, Hs = gen("Xs", SPLIT), gen("Ys", SPLIT), gen("Hs", SPLIT)
        assert commutator(Hs, Xs) == 2 * Xs
        assert commutator(Hs, Ys) == -2 * Ys
        assert commutator(Xs, Ys) == Hs

    def test_casimir_shape_and_centrality(self):
        om = casimir(COMPACT)
        assert om.terms == {(0, 2, 0): GR(1), (0, 1, 0): GR(2), (1, 0, 1): GR(4)}
        for name in ("X", "Y", "H"):
            assert not commutator(om, gen(name))
        oms = casimir(SPLIT)
        for name in ("Xs", "Ys", "Hs"):
            assert not commutator(oms, gen(name, SPLIT))

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_casimir_eigenvalue_on_highest_weight_module(self, lam):
        om = casimir(COMPACT)
        expected = lam * lam + 2 * lam
        for j in (0, 1, 2, 5):
            out = apply_element(om, {j: GR_ONE}, lam)
            assert out == {j: expected}

    @pytest.mark.parametrize("lam", LAMBDAS[:2])
    def test_products_against_module_oracle(self, lam):
        X, Y, H = gen("X"), gen("Y"), gen("H")
        om = casimir(COMPACT)
        samples = [X * Y, H * X, om, om * om, (X * X) * Y, Y * (H * H) * X, om * X]
        pairs = [(X, Y), (H, X), (om, om), (X * Y, Y * X), (om, om * om)]
        for u, v in pairs:
            uv = u * v
            for j in (0, 1, 3):
                vec = {j: GR_ONE}
                lhs = apply_element(uv, vec, lam)
                rhs = apply_element(u, apply_element(v, vec, lam), lam)
                assert lhs == rhs, (u, v, j)
        for u in samples:
            assert apply_element(u, {}, lam) == {}

    def test_associativity_fuzz_1000_triples(self):
        rng = random.Random(987654321)

        def rand_elem() -> UEAElement:
            terms = {}
            for _ in range(rng.randint(1, 2)):
                key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                coeff = GR(
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                    Fraction(rng.randint(-2, 2), 1),
                )
                terms[key] = terms.get(key, GR(0)) + coeff
            return UEAElement(COMPACT, terms)

        for _ in range(1000):
            u, v, w = rand_elem(), rand_elem(), rand_elem()
            assert (u * v) * w == u * (v * w)

    def test_scalar_and_additive_structure(self):
        X, Y = gen("X"), gen("Y")
        assert (X + Y) - Y == X
        assert 2 * X - X - X == UEAElement.zero(COMPACT)
        assert (I * X) * (I * Y) == -(X * Y)


class TestChangeBasis:
    def test_round_trip_on_generators(self):
        for name in ("X", "Y", "H"):
            u = gen(name)
            assert change_basis(change_basis(u, SPLIT), COMPACT) == u
        for name in ("Xs", "Ys", "Hs"):
            u = gen(name, SPLIT)
            assert change_basis(change_basis(u, COMPACT), SPLIT) == u

    def test_transition_constants(self):
        # mutual inverse on generators
        for basis, target in ((COMPACT, SPLIT), (SPLIT, COMPACT)):
            for name in basis.gens:
                g = gen(name, basis)
                assert change_basis(change_basis(g, target), basis) == g, name
        # brackets are intertwined
        for basis, target in ((COMPACT, SPLIT), (SPLIT, COMPACT)):
            low, car, rai = (gen(name, basis) for name in basis.gens)
            for u, v in ((car, rai), (car, low), (rai, low)):
                lhs = change_basis(commutator(u, v), target)
                rhs = commutator(change_basis(u, target), change_basis(v, target))
                assert lhs == rhs
        # the Casimir element keeps its shape
        assert change_basis(casimir(COMPACT), SPLIT) == casimir(SPLIT)
        assert change_basis(casimir(SPLIT), COMPACT) == casimir(COMPACT)

    def test_homomorphism_property(self):
        rng = random.Random(424242)
        X, Y, H = gen("X"), gen("Y"), gen("H")
        elems = [X, Y, H, X * Y, H * H + 2 * X, casimir(COMPACT)]
        for _ in range(50):
            u = rng.choice(elems)
            v = rng.choice(elems)
            assert change_basis(u * v, SPLIT) == change_basis(u, SPLIT) * change_basis(v, SPLIT)
            assert change_basis(u + v, SPLIT) == change_basis(u, SPLIT) + change_basis(v, SPLIT)

    def test_casimir_is_basis_independent(self):
        for n in range(1, 7):
            assert change_basis(casimir(COMPACT) ** n, SPLIT) == casimir(SPLIT) ** n, n
            assert change_basis(casimir(SPLIT) ** n, COMPACT) == casimir(COMPACT) ** n, n

    def test_doubled_tables(self):
        # each doubled row, halved, writes the 2x2 matrix of its source
        # generator in the 2x2 matrices of the target triple
        assert set(pbw._DOUBLED) == {COMPACT, SPLIT}
        for target, table in pbw._DOUBLED.items():
            source = SPLIT if target == COMPACT else COMPACT
            assert sorted(table) == [0, 1, 2]
            for slot, row in table.items():
                image = [[GR(0)] * 2 for _ in range(2)]
                for t, re, im in row:
                    assert type(re) is int and type(im) is int
                    half = GR(Fraction(re, 2), Fraction(im, 2))
                    m = TRIPLES_2X2[target.name][t]
                    image = [[image[j][k] + half * m[j][k] for k in range(2)] for j in range(2)]
                assert image == [[GR.of(x) for x in r] for r in TRIPLES_2X2[source.name][slot]]

    def test_value_equal_bases_take_the_same_table(self):
        split, compact = copy.deepcopy(SPLIT), copy.deepcopy(COMPACT)
        assert split is not SPLIT and compact is not COMPACT
        assert change_basis(gen("Hs", SPLIT), split) == gen("Hs", SPLIT)
        assert change_basis(gen("H", compact), COMPACT) == gen("H")
        assert change_basis(gen("Hs", SPLIT), compact) == gen("X") + gen("Y")
        for basis, target, twin in ((COMPACT, SPLIT, split), (SPLIT, COMPACT, compact)):
            low, car, rai = (gen(name, basis) for name in basis.gens)
            u = low * car + rai * I
            assert change_basis(u, twin) == change_basis(u, target)

    def test_foreign_basis_is_refused(self):
        with pytest.raises(ValueError, match="weird"):
            change_basis(casimir(COMPACT), WEIRD)
        with pytest.raises(ValueError, match="weird"):
            change_basis(casimir(WEIRD), SPLIT)
        with pytest.raises(ValueError, match="weird"):
            change_basis(casimir(WEIRD), WEIRD)


# -- the integer rewrite against products of generator images ---------------
#
# change_basis runs on Gaussian-integer term maps; the oracle multiplies the
# generator images, written out here and checked on the 2x2 realizations,
# with the Q(i) product of UEAElement.

def _images(target, rows) -> tuple:
    """The images of a (lowering, cartan, raising) triple, from (name, coeff) rows."""
    return tuple(
        sum((gen(name, target) * GR.of(c) for name, c in row), UEAElement.zero(target))
        for row in rows
    )


HALF = Fraction(1, 2)
HALF_I = GR(0, HALF)
IMAGES = {
    SPLIT: _images(SPLIT, (
        (("Hs", HALF), ("Xs", -HALF_I), ("Ys", -HALF_I)),
        (("Ys", I), ("Xs", -I)),
        (("Hs", HALF), ("Xs", HALF_I), ("Ys", HALF_I)),
    )),
    COMPACT: _images(COMPACT, (
        (("H", -HALF_I), ("X", -HALF_I), ("Y", HALF_I)),
        (("X", 1), ("Y", 1)),
        (("H", HALF_I), ("X", -HALF_I), ("Y", HALF_I)),
    )),
}
OTHER = {COMPACT: SPLIT, SPLIT: COMPACT}


def product_oracle(u: UEAElement) -> UEAElement:
    """sum coeff * low^a * rai^c * car^b over u's terms, in images."""
    target = OTHER[u.basis]
    low, car, rai = IMAGES[target]
    out = UEAElement.zero(target)
    for (a, b, c), coeff in u.terms.items():
        out = out + low ** a * rai ** c * car ** b * coeff
    return out


COEFFS = st.builds(
    lambda re, im, den: GR(Fraction(re, den), Fraction(im, den)),
    st.integers(-(2 ** 80), 2 ** 80), st.integers(-(2 ** 80), 2 ** 80).filter(bool),
    st.integers(1, 10 ** 6),
)
MONOS = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6)).filter(
    lambda m: sum(m) <= 6)
ELEMENTS = st.builds(
    UEAElement, st.sampled_from([COMPACT, SPLIT]),
    st.dictionaries(MONOS, COEFFS | st.integers(-3, 3), max_size=4),
)


class TestChangeBasisProductOracle:
    @pytest.mark.parametrize("target", [COMPACT, SPLIT])
    def test_images_act_like_the_generators(self, target):
        source = OTHER[target]
        for name, image in zip(source.gens, IMAGES[target]):
            for n in range(4):
                assert rho_element(image, n) == rho_element(gen(name, source), n), name

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ELEMENTS)
    @example(UEAElement.zero(COMPACT))
    @example(UEAElement.zero(SPLIT))
    def test_matches_products_of_generator_images(self, u):
        assert change_basis(u, OTHER[u.basis]) == product_oracle(u)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ELEMENTS, st.integers(1, 4))
    def test_coefficients_in_lowest_terms(self, u, n):
        for w in (u, casimir(u.basis) ** n):
            for coeff in change_basis(w, OTHER[w.basis]).terms.values():
                assert type(coeff) is GaussianRational
                assert coeff.den > 0 and gcd(coeff.re_num, coeff.im_num, coeff.den) == 1


# -- matrix oracle for change_basis -----------------------------------------
#
# The realizations in sl2_matrices.py read neither the transition constants
# nor the product of pbw.

class TestChangeBasisMatrixOracle:
    def test_triples_satisfy_the_bracket_relations(self):
        for low, car, rai in TRIPLES_2X2.values():
            for n in range(1, 6):
                L, C, E = (rho_2x2(a, n) for a in (low, car, rai))
                assert mat_bracket(C, E) == [[2 * x for x in r] for r in E]
                assert mat_bracket(C, L) == [[-2 * x for x in r] for r in L]
                assert mat_bracket(E, L) == C

    @pytest.mark.parametrize("source,target", [(COMPACT, SPLIT), (SPLIT, COMPACT)])
    def test_seeded_elements_act_alike_in_both_bases(self, source, target):
        rng = random.Random(31415)
        for _ in range(12):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                deg = rng.randint(0, 4)
                a = rng.randint(0, deg)
                c = rng.randint(0, deg - a)
                coeff = GR(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                )
                key = (a, deg - a - c, c)
                terms[key] = terms.get(key, GR(0)) + coeff
            u = UEAElement(source, terms)
            v = change_basis(u, target)
            assert v.basis is target
            for n in range(6):
                assert rho_element(v, n) == rho_element(u, n), (str(u), n)

    @pytest.mark.parametrize("source,target", [(COMPACT, SPLIT), (SPLIT, COMPACT)])
    def test_casimir_polynomials_keep_their_terms(self, source, target):
        # the Cayley transform is inner: a central element is relabelled
        rng = random.Random(16180 + (source is SPLIT))
        for _ in range(4):
            z = UEAElement.zero(source)
            for j in rng.sample(range(4), rng.randint(1, 3)):
                z = z + casimir(source) ** j * GR(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            v = change_basis(z, target)
            assert v.basis is target and v.terms == z.terms
            for n in range(5):
                assert rho_element(v, n) == rho_element(z, n), (str(z), n)

    @pytest.mark.parametrize("source,target", [(COMPACT, SPLIT), (SPLIT, COMPACT)])
    def test_weight_zero_elements_that_are_not_central_are_rewritten(self, source, target):
        low, car, rai = (gen(name, source) for name in source.gens)
        cas = casimir(source)
        cases = [car, low * rai, car * cas, low * rai + car, cas + car * I,
                 cas * cas - car * car * GR(0, Fraction(1, 2))]
        for u in cases:
            assert all(a == c for a, _, c in u.terms) and commutator(rai, u)
            v = change_basis(u, target)
            assert v.terms != u.terms
            for n in range(5):
                assert rho_element(v, n) == rho_element(u, n), (str(u), n)


def _leading_symbol_order(u: UEAElement):
    """(L, L or None) for a nonzero split element u whose longest monomials
    have L letters.  Hs has the symbol s and Ys, Xs both (i/2)*d, for
    independent p-forms s and d, so Ys^a Hs^b Xs^c of length L has the
    symbol (i/2)^(a+c)*s^b*d^(a+c): the order is L exactly when the length-L
    coefficients of some group (b, a + c) have a nonzero sum, and None
    says that every group sum cancels."""
    length = max(map(sum, u.terms))
    sums: dict = {}
    for (a, b, c), x in u.terms.items():
        if a + b + c == length:
            sums[b, a + c] = sums.get((b, a + c), GR(0)) + x
    return length, length if any(sums.values()) else None


class TestOrderFiltration:
    def test_order_fixtures(self):
        om = casimir(COMPACT)
        assert k_order(om) == 2
        assert k_order(gen("H")) == 0
        assert k_order(om * om * om) == 6
        assert k_order(gen("X")) == 1
        assert k_order(UEAElement.zero(COMPACT)) == float("-inf")

    def test_order_subadditive(self):
        rng = random.Random(77)
        X, Y, H = gen("X"), gen("Y"), gen("H")
        pool = [X, Y, H, X * Y, casimir(COMPACT), H * X + Y]
        for _ in range(60):
            u, v = rng.choice(pool), rng.choice(pool)
            if not u * v:
                continue
            assert k_order(u * v) <= k_order(u) + k_order(v)

    def test_order_of_split_elements_via_rewrite(self):
        # Hs = X + Y has order 1 relative to the compact pair
        assert k_order(gen("Hs", SPLIT)) == 1
        assert k_order(gen("Xs", SPLIT)) == 1

    def test_split_projection_of_a_casimir_power_has_full_order(self):
        # the appendix suite checks only k_order <= 2n here
        power = UEAElement.one(COMPACT)
        for n in range(1, 7):
            power = power * casimir(COMPACT)
            assert k_order(hc_projection(power, "split")) == 2 * n

    @pytest.mark.parametrize("u", [
        gen("Ys", SPLIT) ** 2 - gen("Ys", SPLIT) * gen("Xs", SPLIT),
        gen("Ys", SPLIT) - gen("Xs", SPLIT),
        gen("Ys", SPLIT) ** 3 - gen("Xs", SPLIT) ** 3,
    ], ids=["Ys^2-Ys*Xs", "Ys-Xs", "Ys^3-Xs^3"])
    def test_leading_symbol_cancels(self, u):
        length, top_order = _leading_symbol_order(u)
        assert top_order is None and k_order(u) < length

    def test_leading_symbol_rule_on_seeded_split_elements(self):
        rng = random.Random(2718)
        checked = 0
        while checked < 100:
            terms = {}
            for _ in range(rng.randint(1, 4)):
                a, b = rng.randint(0, 3), rng.randint(0, 2)
                terms[(a, b, rng.randint(0, 4 - min(a + b, 4)))] = GR(rng.randint(-3, 3),
                                                                     rng.randint(-1, 1))
            u = UEAElement(SPLIT, terms)
            if not u:
                continue
            checked += 1
            length, top_order = _leading_symbol_order(u)
            ko = k_order(u)
            assert ko == top_order if top_order is not None else ko < length, str(u)

    def test_value_equal_and_foreign_bases(self):
        assert k_order(gen("Hs", copy.deepcopy(SPLIT))) == 1
        assert k_order(gen("H", copy.deepcopy(COMPACT))) == 0
        with pytest.raises(ValueError, match="weird"):
            k_order(casimir(WEIRD))


class TestCartanProjection:
    def h_poly(self, basis, coeffs) -> UEAElement:
        """sum coeffs[d] * h^d in the given basis."""
        return UEAElement(basis, {(0, d, 0): GR.of(c) for d, c in coeffs.items() if c})

    def test_casimir_projection_compact(self):
        image = hc_projection(casimir(COMPACT), "compact")
        assert image == self.h_poly(COMPACT, {2: 1, 0: -1})

    def test_casimir_projection_split(self):
        image = hc_projection(casimir(COMPACT), "split")
        assert image == self.h_poly(SPLIT, {2: 1, 0: -1})

    def test_casimir_square_projection(self):
        om = casimir(COMPACT)
        image = hc_projection(om * om, "compact")
        # (h^2 - 1)^2 = h^4 - 2h^2 + 1
        assert image == self.h_poly(COMPACT, {4: 1, 2: -2, 0: 1})
        image_s = hc_projection(om * om, "split")
        assert image_s == self.h_poly(SPLIT, {4: 1, 2: -2, 0: 1})

    def test_projection_drops_ladder_terms(self):
        X, Y, H = gen("X"), gen("Y"), gen("H")
        u = X * Y + H  # = YX + H + H in normal order
        image = hc_projection(u, "compact")
        # only the Cartan part 2H survives, shifted to 2(H - 1)
        assert image == self.h_poly(COMPACT, {1: 2, 0: -2})

    def test_shift_on_plain_cartan_polynomial(self):
        H = gen("H")
        image = hc_projection(H * H, "compact")
        assert image == self.h_poly(COMPACT, {2: 1, 1: -2, 0: 1})

    def test_order_inequality_through_projection(self):
        om = casimir(COMPACT)
        power = UEAElement.one(COMPACT)
        for n in range(1, 4):
            power = power * om
            assert k_order(power) == 2 * n
            for cartan in ("compact", "split"):
                assert k_order(hc_projection(power, cartan)) <= 2 * n

    def test_unknown_cartan_rejected(self):
        with pytest.raises(ValueError):
            hc_projection(gen("H"), "diagonal")

    def test_value_equal_and_foreign_bases(self):
        for basis in (COMPACT, SPLIT):
            u = casimir(copy.deepcopy(basis)) ** 2
            for cartan in ("compact", "split"):
                assert hc_projection(u, cartan) == hc_projection(casimir(basis) ** 2, cartan)
        with pytest.raises(ValueError, match="weird"):
            hc_projection(casimir(WEIRD), "compact")


def top_weight_coefficient(u: UEAElement, target, n: int) -> GR:
    """c with P rho(u) v = c v on the module of dimension n + 1, where P
    projects onto the top weight space of target's Cartan and v spans it."""
    car = rho_2x2(TRIPLES_2X2[target.name][1], n)
    proj = [[GR(int(i == j)) for j in range(n + 1)] for i in range(n + 1)]
    for k in range(1, n + 1):  # kill the weight n - 2k
        shifted = [[(x - (n - 2 * k) * (i == j)) / (2 * k) for j, x in enumerate(r)]
                   for i, r in enumerate(car)]
        proj = mat_mul(shifted, proj)
    v = next(col for col in zip(*proj) if any(col))
    w = [sum((x * y for x, y in zip(r, v)), GR(0)) for r in rho_element(u, n)]
    pw = [sum((x * y for x, y in zip(r, w)), GR(0)) for r in proj]
    k = next(k for k, x in enumerate(v) if x)
    c = pw[k] / v[k]
    assert pw == [c * x for x in v]
    return c


class TestCartanProjectionMatrixOracle:
    """A central z acts on the irreducible module of dimension n + 1 by the
    scalar hc_projection(z) at h = n + 1 (the Casimir by (n+1)^2 - 1)."""

    @pytest.mark.parametrize("basis", [COMPACT, SPLIT])
    def test_seeded_central_elements_act_by_their_projection(self, basis):
        rng = random.Random(27182 + (basis is SPLIT))
        powers = [UEAElement.one(basis)]
        for _ in range(4):
            powers.append(powers[-1] * casimir(basis))
        for _ in range(3):
            z = UEAElement.zero(basis)
            for j in rng.sample(range(5), rng.randint(1, 3)):
                g = GR(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                       Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                z = z + powers[j] * g
            images = {cartan: hc_projection(z, cartan) for cartan in ("compact", "split")}
            for n in range(7):
                action = rho_element(z, n)
                for cartan, image in images.items():
                    value = GR(0)
                    for (a, b, c), coeff in image.terms.items():
                        assert a == c == 0
                        value = value + coeff * (n + 1) ** b
                    scalar = [[value if i == j else GR(0) for j in range(n + 1)]
                              for i in range(n + 1)]
                    assert action == scalar, (str(z), cartan, n)

    @pytest.mark.parametrize("basis", [COMPACT, SPLIT])
    @pytest.mark.parametrize("cartan", ["compact", "split"])
    def test_seeded_elements_by_their_highest_weight_coefficient(self, basis, cartan):
        # on the module of dimension n + 1, with v the highest-weight vector of
        # the target Cartan, rho(u) v = p(n) v + (lower weights), where p(h - 1)
        # is the projection; the projector onto the top weight finds p(n)
        for u in seeded_elements(basis, 4242 + (basis is SPLIT)):
            image = hc_projection(u, cartan)
            for n in range(5):
                value = sum((coeff * (n + 1) ** b for (_, b, _), coeff in image.terms.items()),
                            GR(0))
                assert top_weight_coefficient(u, CARTANS[cartan], n) == value, (str(u), cartan, n)


# -- the projection against a full rewrite ------------------------------------
#
# hc_projection reads the Cartan part of change_basis(u, target).  The oracle
# below writes u in the target basis without change_basis, as the products of
# generator images of product_oracle, keeps its (0, b, 0) terms, then shifts
# h -> h - 1.

CARTANS = {"compact": COMPACT, "split": SPLIT}

# coefficients (re, im, den) of Casimir^0, Casimir^1, ...
CASIMIR_POLYS = st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(1, 4)),
                         min_size=1, max_size=3)


def rewrite_oracle(u: UEAElement, cartan: str) -> UEAElement:
    target = CARTANS[cartan]
    v = u if u.basis == target else product_oracle(u)
    out = UEAElement.zero(target)
    for (a, b, c), coeff in v.terms.items():
        if a == c == 0:
            for j in range(b + 1):
                shifted = coeff * comb(b, j) * (-1) ** (b - j)
                out = out + UEAElement.monomial(target, (0, j, 0), shifted)
    return out


def h_power_minus_one(basis, n: int) -> UEAElement:
    """(h^2 - 1)^n in the Cartan generator of the given basis."""
    return UEAElement(basis, {(0, 2 * k, 0): GR(comb(n, k) * (-1) ** (n - k))
                              for k in range(n + 1)})


def seeded_elements(basis, seed: int) -> list:
    """Zero, constants, polynomials in the Casimir and non-central elements,
    some of them of weight zero."""
    rng = random.Random(seed)

    def coeff() -> GR:
        return GR(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                  Fraction(rng.randint(-3, 3), rng.randint(1, 3)))

    one = UEAElement.one(basis)
    elems = [UEAElement.zero(basis), one, one * GR(0, Fraction(-1, 2))]
    cas = casimir(basis)
    for _ in range(4):
        z = UEAElement.zero(basis)
        for j in rng.sample(range(4), rng.randint(1, 3)):
            z = z + cas ** j * coeff()
        elems.append(z)
    for _ in range(16):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            key = (rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3))
            terms[key] = terms.get(key, GR(0)) + coeff()
        elems.append(UEAElement(basis, terms))
    low, car, rai = (gen(name, basis) for name in basis.gens)
    # of weight zero, but not central
    elems += [car * coeff(), low * rai + car * coeff(), car * cas * coeff()]
    return elems


def verma_coefficient(u: UEAElement, target, lam: GR) -> GR:
    """The v_0 coefficient of u v_0 on the Verma module of highest weight lam
    for the target triple.  A u in the other basis acts word by word, each
    generator through its image (IMAGES, checked on the 2x2 realizations)."""
    if u.basis == target:
        return apply_element(u, {0: GR_ONE}, lam).get(0, GR(0))
    low, car, rai = IMAGES[target]
    total = GR(0)
    for (a, b, c), coeff in u.terms.items():
        vec = {0: GR_ONE}
        for image, e in ((car, b), (rai, c), (low, a)):
            for _ in range(e):
                vec = apply_element(image, vec, lam)
        total = total + coeff * vec.get(0, GR(0))
    return total


class TestVermaProjection:
    """hc_projection(u) at h = lam + 1 is the v_0 coefficient of u v_0 on the
    Verma module of highest weight lam for the target Cartan."""

    @pytest.mark.parametrize("basis", [COMPACT, SPLIT])
    @pytest.mark.parametrize("cartan", ["compact", "split"])
    def test_highest_weight_coefficient_on_verma_modules(self, basis, cartan):
        for u in seeded_elements(basis, 6060 + (basis is SPLIT)):
            image = hc_projection(u, cartan)
            for lam in LAMBDAS:
                value = sum((coeff * (lam + 1) ** b for (_, b, _), coeff in image.terms.items()),
                            GR(0))
                assert verma_coefficient(u, CARTANS[cartan], lam) == value, (str(u), cartan, lam)

    @pytest.mark.parametrize("basis", [COMPACT, SPLIT])
    @pytest.mark.parametrize("cartan", ["compact", "split"])
    def test_matches_the_rewrite_oracle(self, basis, cartan):
        for u in seeded_elements(basis, 8080 + (basis is SPLIT)):
            image = hc_projection(u, cartan)
            assert image.basis is CARTANS[cartan]
            assert image == rewrite_oracle(u, cartan), (str(u), cartan)

    @pytest.mark.parametrize("basis,cartan", [(COMPACT, "split"), (SPLIT, "compact")])
    def test_casimir_powers_through_the_other_cartan(self, basis, cartan):
        power = UEAElement.one(basis)
        for n in range(1, 9):
            power = power * casimir(basis)
            assert hc_projection(power, cartan) == h_power_minus_one(CARTANS[cartan], n), n

    @pytest.mark.parametrize("basis,cartan", [(COMPACT, "split"), (SPLIT, "compact")])
    def test_central_elements_are_relabelled_not_rewritten(self, monkeypatch, basis, cartan):
        def refuse(*args):
            raise AssertionError("a central element was rewritten")

        monkeypatch.setattr(pbw, "_apply", refuse)
        target, power = CARTANS[cartan], UEAElement.one(basis)
        for n in range(1, 9):
            power = power * casimir(basis)
            assert change_basis(power, target) == casimir(target) ** n, n
            assert hc_projection(power, cartan) == h_power_minus_one(target, n), n
        with pytest.raises(AssertionError, match="rewritten"):
            change_basis(gen(basis.gens[1], basis), target)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.sampled_from([COMPACT, SPLIT]), st.sampled_from(["compact", "split"]),
           CASIMIR_POLYS, CASIMIR_POLYS)
    def test_multiplicative_on_the_center(self, basis, cartan, g1, g2):
        def central(g) -> UEAElement:
            z = UEAElement.zero(basis)
            for j, (re, im, den) in enumerate(g):
                z = z + casimir(basis) ** j * GR(Fraction(re, den), Fraction(im, den))
            return z

        z1, z2 = central(g1), central(g2)
        product = hc_projection(z1, cartan) * hc_projection(z2, cartan)
        assert hc_projection(z1 * z2, cartan) == product


# -- the Gaussian-integer core against Q(i) arithmetic --------------------------
#
# normal_multiply and the sum in change_basis run on int term maps over one
# common denominator and reduce each coefficient once.
# The references below keep GaussianRational coefficients at every step.

def q_multiply(ut: dict, vt: dict) -> dict:
    """The product by times_monomial with Q(i) coefficients, summed term by term."""
    out: dict = {}
    for mono, cv in vt.items():
        for key, cu in pbw.times_monomial(ut, mono).items():
            out[key] = out.get(key, GR(0)) + cu * cv
    return {key: c for key, c in out.items() if c}


def assert_lowest_terms(terms: dict) -> None:
    for coeff in terms.values():
        assert type(coeff) is GaussianRational
        assert coeff.den > 0 and gcd(coeff.re_num, coeff.im_num, coeff.den) == 1


# purely imaginary coefficients, with large numerators and distinct denominators
IMAGINARY = {
    basis: UEAElement(basis, {(1, 2, 1): GR(0, Fraction(3 * 2 ** 70, 7)),
                              (0, 3, 0): GR(0, -5), (2, 0, 1): GR(0, Fraction(-1, 6))})
    for basis in (COMPACT, SPLIT)
}


class TestIntegerCore:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(ELEMENTS, ELEMENTS)
    @example(UEAElement.zero(COMPACT), IMAGINARY[COMPACT])
    @example(IMAGINARY[SPLIT], UEAElement.zero(SPLIT))
    @example(IMAGINARY[COMPACT], IMAGINARY[COMPACT])
    @example(IMAGINARY[SPLIT], casimir(SPLIT) * GR(0, Fraction(2, 3)))
    def test_normal_multiply_matches_q_arithmetic(self, u, v):
        product = pbw.normal_multiply(u.terms, v.terms)
        assert product == q_multiply(u.terms, v.terms)
        assert_lowest_terms(product)

    @pytest.mark.parametrize("cartan", ["compact", "split"])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(u=ELEMENTS)
    @example(u=UEAElement.zero(COMPACT))
    @example(u=UEAElement.zero(SPLIT))
    @example(u=IMAGINARY[COMPACT])
    @example(u=IMAGINARY[SPLIT])
    @example(u=(casimir(SPLIT) * GR(Fraction(1, 3), Fraction(-2, 5))) ** 3)
    def test_hc_projection_matches_the_rewrite_oracle(self, cartan, u):
        image = hc_projection(u, cartan)
        assert image == rewrite_oracle(u, cartan)
        assert_lowest_terms(image.terms)

    @pytest.mark.parametrize("basis", [COMPACT, SPLIT])
    def test_is_central_matches_the_brackets(self, basis):
        """is_central(u) exactly when u commutes with the raising and the
        Cartan generator, both brackets formed by normal_multiply."""
        gens = [{(0, 0, 1): GR_ONE}, {(0, 1, 0): GR_ONE}]
        cas, h = casimir(basis), UEAElement.monomial(basis, (0, 1, 0))
        cases = seeded_elements(basis, 1618 + (basis is SPLIT))  # most not of weight zero
        # weight zero but not central, in one half or in both
        cases += [h, cas * h, cas + h * GR(0, 3), h + cas * GR(0, 3), cas ** 2 * GR(1, 1) + h * I]
        for u in list(cases):  # and the real and imaginary parts of each
            cases.append(UEAElement(basis, {k: GR(c.re) for k, c in u.terms.items()}))
            cases.append(UEAElement(basis, {k: GR(0, c.im) for k, c in u.terms.items()}))
        # Casimir^n, and for n >= 1 Casimir^n with the top coefficient of each u_k
        # moved by +-1: the recurrence of is_central then fails at step k - 1
        # (step 0 when k = 0), so each step up to n - 1 is the one that fails
        moved = []
        for n in range(9):
            power = cas ** n
            cases.append(power)
            for k in range(n + 1 if n else 0):  # moving the 1 = Casimir^0 stays central
                for step in (1, -1):
                    moved.append(power + UEAElement.monomial(basis, (k, 2 * (n - k), k), step))
        kinds = set()  # (central, has a real part, has an imaginary part)
        for u in cases + moved:
            got = pbw.is_central(u.terms)
            assert got == all(pbw.normal_multiply(g, u.terms) == pbw.normal_multiply(u.terms, g)
                              for g in gens), str(u)
            kinds.add((got, any(c.re for c in u.terms.values()), any(c.im for c in u.terms.values())))
        assert all(pbw.is_central((cas ** n).terms) for n in range(9))
        assert not any(pbw.is_central(u.terms) for u in moved)
        # central and non-central, with real-only, imaginary-only and mixed coefficients
        assert {(True, True, True), (False, True, True), (True, True, False),
                (False, True, False), (True, False, True), (False, False, True)} <= kinds
