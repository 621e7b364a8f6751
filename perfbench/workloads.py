"""Seeded task lists for the four benchmark workloads.

A task is one public request, from the call to the rendered JSON text: a
``cli.cmd_*`` command or the layer function the workload is about, followed
by ``cli.render_json``.  Every call goes through an attribute of the
``sl2family`` package or of one of its modules at call time, so the wrappers
that ``tracer.py`` installs see it.

Seeded inputs come from a fixed pool generated from constants, so that the
digest of every task's rendered output can be recorded once
(``digests.json``).  Each task kind has a fixed number of slots.  A slot
fixes every value that sets a task's cost and holds POOL_FACTOR variants
that cost the same: the coefficients times 1, i, -1 or -i, R and the level
grid up to sign, or the same base points in another order.  The run seed
picks one variant per slot and the order of the stream, so a different
seed gives other inputs but the same task count, mix of kinds and work:
the spread across seeds measures the code and the host, not the draw.

Expected results are computed before any pass, untimed and untraced.  Checks
read only the rendered JSON, through ``oracles.py``, and never call into the
library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, List, Optional

import sl2family as S
from sl2family import cli

import oracles as O

WORKLOADS = ("projection", "center", "fibers", "duals")
POOL_FACTOR = 4  # pool items per slot


@dataclass
class Task:
    kind: str
    key: str  # stable id: digests.json is keyed by it
    run: Callable[[], str]
    check: Callable[[object], Optional[str]]  # parsed output -> error message or None
    off_table_code: Optional[str] = field(default=None)


def _slots(workload: str, kind: str, count: int, shape, variant) -> list:
    """``count`` slots of one task kind, each a list of POOL_FACTOR pool items.

    ``shape(rng, slot)`` draws everything that sets a task's cost (supports,
    coefficients, descriptors, M); ``variant(shape, k)`` is the k-th item,
    which costs the same as the others.
    """
    out = []
    for s in range(count):
        sh = shape(_pool_rng(workload, f"{kind}:{s}"), s)
        out.append([variant(sh, k) for k in range(POOL_FACTOR)])
    return out


def _select(rng: Optional[random.Random], slots: list):
    """(slot, item index, item): one seeded item per slot, or all when rng is None."""
    for s, items in enumerate(slots):
        chosen = range(len(items)) if rng is None else [rng.randrange(len(items))]
        for i in chosen:
            yield s, i, items[i]


def _run_rng(workload: str, seed: Optional[int]) -> Optional[random.Random]:
    return None if seed is None else random.Random(f"{workload}:{seed}")


def _shuffled(rng: Optional[random.Random], tasks: List[Task]) -> List[Task]:
    if rng is not None:
        rng.shuffle(tasks)
    return tasks


def _pool_rng(workload: str, kind: str) -> random.Random:
    return random.Random(f"sl2family-bench-pool:{workload}:{kind}")


def _rand_q(rng: random.Random, num: int = 6, den: int = 4) -> Fraction:
    while True:
        q = Fraction(rng.randint(-num, num), rng.randint(1, den))
        if q:
            return q


def _rand_gr(rng: random.Random):
    # Both parts nonzero, so that every seeded coefficient costs the same to multiply.
    return S.GaussianRational(_rand_q(rng), _rand_q(rng))


def _support(rng: random.Random, degrees) -> list:
    """One PBW monomial (a, b, c) of each listed total degree, without repeats."""
    out = []
    for d in degrees:
        a = rng.randint(0, d)
        c = rng.randint(0, d - a)
        mono = (a, d - a - c, c)
        if mono not in out:
            out.append(mono)
    return out


# A variant's factor: multiplying by a unit moves and negates the parts of
# each coefficient, so the arithmetic on it costs the same.
UNITS = tuple(S.GaussianRational(re, im) for re, im in ((1, 0), (0, 1), (-1, 0), (0, -1)))


def _coeffs(rng: random.Random, keys) -> dict:
    return {key: _rand_gr(rng) for key in keys}


def _scaled(coeffs: dict, k: int) -> dict:
    return {key: c * UNITS[k] for key, c in coeffs.items()}


def _uea(coeffs: dict, k: int = 0) -> "S.UEAElement":
    return S.UEAElement(S.COMPACT, _scaled(coeffs, k))


def _laurent(var: str, coeffs: dict, k: int = 0) -> "S.Laurent":
    return S.Laurent(var, _scaled(coeffs, k))


def _exps(rng: random.Random, lo: int, hi: int) -> list:
    return rng.sample(range(lo, hi + 1), 2)


def _laurent_dict(f: "S.Laurent"):
    return {e: (c.re, c.im) for e, c in f.coeffs.items()}


def _uea_dict(u: "S.UEAElement"):
    return {k: (c.re, c.im) for k, c in u.terms.items()}


def _section_dict(s: "S.FamilySection"):
    return {k: _laurent_dict(f) for k, f in s.terms.items()}


def _err(ok: bool, what: str) -> Optional[str]:
    return None if ok else what


# -- projection: the pbw layer over Q(i) ----------------------------------------

PROJECTION_MAX_N = 4
PROJECTION_PRODUCTS = 24
PROJECTION_ROUND_TRIPS = 8
PROJECTION_CENTRAL = 8


def _hc_expected(coeffs_by_j) -> dict:
    """sum_j g_j (h^2 - 1)^j built with Poly, as {(0, k, 0): scalar}."""
    h2m1 = S.Poly.of([-1, 0, 1])
    total = S.Poly.zero()
    power = S.Poly.const(1)
    for j in range(max(coeffs_by_j) + 1):
        if j:
            power = power * h2m1
        total = total + power * coeffs_by_j.get(j, S.GR_ZERO)
    return {(0, k, 0): (c.re, c.im) for k, c in enumerate(total.coeffs) if c}


def _uea_check(basis: str, expected: dict):
    expected = {k: O.gr(*v) for k, v in expected.items()}

    def check(doc):
        got_basis, got = O.parse_uea(doc)
        return _err(got_basis == basis and got == expected, "element differs from the oracle")

    return check


def _rep_check(expected, ladder_scale=False, section=False):
    """expected: (PBW degree bound, the expected images on O.rep_dims(bound))."""
    deg, expected_images = expected

    def check(doc):
        terms = O.parse_section(doc)[1] if section else O.constant_terms(O.parse_uea(doc)[1])
        if O.degree(terms) > deg:
            return f"result has a monomial of degree above {deg}"
        ok = O.images(terms, O.rep_dims(deg), ladder_scale) == expected_images
        return _err(ok, "product differs from rho(u) rho(v) on the irreps")

    return check


def _projection_pools():
    products = _slots(
        "projection", "product", PROJECTION_PRODUCTS,
        lambda rng, s: (_coeffs(rng, _support(rng, (0, 1, 2, 3, 3))),
                        _coeffs(rng, _support(rng, (1, 2, 3, 3)))),
        lambda sh, k: (_uea(sh[0], k), _uea(sh[1])),
    )
    trips = _slots(
        "projection", "round_trip", PROJECTION_ROUND_TRIPS,
        lambda rng, s: _coeffs(rng, _support(rng, (1, 2, 3, 4))),
        _uea,
    )
    central = _slots(
        "projection", "central", PROJECTION_CENTRAL,
        lambda rng, s: _coeffs(rng, range(4)),
        _scaled,
    )
    return products, trips, central


def _central_element(g):
    cas = S.casimir(S.COMPACT)
    out = S.UEAElement.zero(S.COMPACT)
    power = S.UEAElement.one(S.COMPACT)
    for j in range(max(g) + 1):
        if j:
            power = power * cas
        out = out + power * g[j]
    return out


def build_projection(seed: Optional[int]) -> List[Task]:
    tasks: List[Task] = []
    cas = S.casimir(S.COMPACT)
    cas_split = S.casimir(S.SPLIT)
    power = S.UEAElement.one(S.COMPACT)
    power_split = S.UEAElement.one(S.SPLIT)
    for n in range(1, PROJECTION_MAX_N + 1):
        power = power * cas
        power_split = power_split * cas_split
        u = power
        tasks.append(Task(
            "change_basis", f"fixed:change_basis:{n}",
            lambda u=u: cli.render_json(S.change_basis(u, S.SPLIT).to_json()),
            _uea_check("split", _uea_dict(power_split)),
        ))
        for cartan in ("compact", "split"):
            tasks.append(Task(
                f"hc_{cartan}", f"fixed:hc_{cartan}:{n}",
                lambda u=u, cartan=cartan: cli.render_json(S.hc_projection(u, cartan).to_json()),
                _uea_check(cartan, _hc_expected({n: S.GR_ONE})),
            ))
        tasks.append(Task(
            "k_order", f"fixed:k_order:{n}",
            lambda u=u: cli.render_json({"k_order": S.k_order(u)}),
            lambda doc, n=n: _err(doc == {"k_order": 2 * n}, "k_order of Casimir^n is not 2n"),
        ))

    products, trips, central = _projection_pools()
    rng = _run_rng("projection", seed)
    stream: List[Task] = []
    for slot, i, (u, v) in _select(rng, products):
        stream.append(Task(
            "product", f"pool:product:{slot}:{i}",
            lambda u=u, v=v: cli.render_json((u * v).to_json()),
            _rep_check(O.product_images(O.constant_terms(_uea_dict(u)),
                                        O.constant_terms(_uea_dict(v)))),
        ))
    for slot, i, u in _select(rng, trips):
        stream.append(Task(
            "round_trip", f"pool:round_trip:{slot}:{i}",
            lambda u=u: cli.render_json(S.change_basis(S.change_basis(u, S.SPLIT), S.COMPACT).to_json()),
            _uea_check("compact", _uea_dict(u)),
        ))
    for slot, i, g in _select(rng, central):
        z = _central_element(g)
        for cartan in ("compact", "split"):
            stream.append(Task(
                f"central_hc_{cartan}", f"pool:central_hc_{cartan}:{slot}:{i}",
                lambda z=z, cartan=cartan: cli.render_json(S.hc_projection(z, cartan).to_json()),
                _uea_check(cartan, _hc_expected(g)),
            ))
    return tasks + _shuffled(rng, stream)


# -- center: sections with Laurent coefficients and tau = R^2 ----------------------

CENTER_MAX_N = 8
CENTER_ROUND_TRIPS = 12
CENTER_PRODUCTS = 8  # per chart
CENTER_NONCENTRAL = 8
CENTER_COMBOS = 8


def _gamma_check(n: int):
    expected = O.shifted_casimir_power(n, 2 * n)

    def check(doc):
        ok = doc["regular_at_inf"] is True and O.parse_cartan(doc["gamma"]) == expected
        return _err(ok, "gamma image differs from R^2n (h^2-1)^n or is not regular at inf")

    return check


def _decompose_doc(dec):
    if dec is None:
        return None
    return {str(j): g.to_json() for j, g in sorted(dec.items())}


def _decompose_check(expected):
    """expected: {j: Laurent dict} or None."""

    def check(doc):
        if expected is None:
            return _err(doc is None, "non-central section was decomposed")
        if doc is None:
            return "central section was not decomposed"
        got = {int(j): O.parse_laurent(f) for j, f in doc.items()}
        want = {j: {e: O.gr(*v) for e, v in f.items()} for j, f in expected.items()}
        return _err(got == want, "Casimir-power coefficients differ from the generator's")

    return check


def _section_check(chart: str, expected):
    expected = {k: {e: O.gr(*v) for e, v in f.items()} for k, f in expected.items()}

    def check(doc):
        got_chart, got = O.parse_section(doc)
        return _err(got_chart == chart and got == expected, "round trip changed the section")

    return check


def _noncentral_shape(rng: random.Random, slot: int):
    n = rng.randint(2, 4)
    if slot % 2:
        bad = (rng.randint(1, n), rng.randint(0, 2), 0)  # ladder-unbalanced monomial
    else:
        k = rng.randint(1, n - 1)
        bad = (k, rng.randint(1, 2), k)  # balanced, but not a Casimir polynomial
    return n, bad, _coeffs(rng, _exps(rng, -1, 3))


def _center_pools():
    trips = _slots(
        "center", "chart_round_trip", CENTER_ROUND_TRIPS,
        lambda rng, s: _coeffs(rng, _support(rng, (0, 1, 2, 3, 4))),
        _uea,
    )
    products = {
        chart: _slots(
            "center", f"section_product_{chart}", CENTER_PRODUCTS,
            lambda rng, s: (_coeffs(rng, _exps(rng, -1, 2)), _coeffs(rng, _support(rng, (0, 1, 2, 3))),
                            _coeffs(rng, _exps(rng, -1, 2)), _coeffs(rng, _support(rng, (1, 2, 3)))),
            lambda sh, k: (_laurent("r", sh[0], k), _uea(sh[1]), _laurent("r", sh[2]), _uea(sh[3])),
        )
        for chart in (S.CHART_FINITE, S.CHART_INFINITY)
    }
    noncentral = _slots(
        "center", "noncentral", CENTER_NONCENTRAL, _noncentral_shape,
        lambda sh, k: (sh[0], sh[1], _laurent("R", sh[2], k)),
    )
    combos = _slots(
        "center", "combo", CENTER_COMBOS,
        lambda rng, s: {j: _coeffs(rng, _exps(rng, -2, 2)) for j in range(3 + s % 3 + 1)},
        lambda sh, k: {j: _laurent("R", c, k) for j, c in sh.items()},
    )
    return trips, products, noncentral, combos


def build_center(seed: Optional[int]) -> List[Task]:
    tasks: List[Task] = []
    inf = S.ProjectivePoint.infinity()
    base = S.casimir_section(S.CHART_INFINITY)
    dims = O.rep_dims(2 * CENTER_MAX_N)  # Casimir^n has PBW degree 2n
    base_images = O.images(_section_dict(base), dims, ladder_scale=True)
    powers = {}
    acc = base
    for n in range(1, CENTER_MAX_N + 1):
        if n > 1:
            acc = acc * base
        powers[n] = acc
    expected_images = base_images
    for n in range(1, CENTER_MAX_N + 1):
        p = powers[n]
        if n > 1:
            expected_images = [O.matmul(x, y, d) for x, y, d in
                               zip(expected_images, base_images, dims)]
        tasks.append(Task(
            "section_power", f"fixed:section_power:{n}",
            lambda n=n: cli.render_json((S.casimir_section(S.CHART_INFINITY) ** n).to_json()),
            _rep_check((2 * n, expected_images[:len(O.rep_dims(2 * n))]),
                       ladder_scale=True, section=True),
        ))
        tasks.append(Task(
            "membership", f"fixed:membership:{n}",
            lambda p=p: cli.render_json({"member": S.center_membership(p)}),
            lambda doc: _err(doc == {"member": True}, "Casimir power is not central"),
        ))
        tasks.append(Task(
            "decompose", f"fixed:decompose:{n}",
            lambda p=p: cli.render_json(_decompose_doc(S.center_decompose(p))),
            _decompose_check({n: {0: (Fraction(1), Fraction(0))}}),
        ))
        for cartan in ("compact", "split"):
            tasks.append(Task(
                f"gamma_{cartan}", f"fixed:gamma_{cartan}:{n}",
                lambda p=p, cartan=cartan: cli.render_json(_gamma_doc(p, cartan, inf)),
                _gamma_check(n),
            ))

    trips, products, noncentral, combos = _center_pools()
    rng = _run_rng("center", seed)
    stream: List[Task] = []
    for slot, i, u in _select(rng, trips):
        expected = {k: {0: v} for k, v in _uea_dict(u).items()}
        stream.append(Task(
            "chart_round_trip", f"pool:chart_round_trip:{slot}:{i}",
            lambda u=u: cli.render_json(S.to_finite_chart(S.to_infinity_chart(
                S.section_from_constant(u, S.CHART_FINITE))).to_json()),
            _section_check(S.CHART_FINITE, expected),
        ))
    for chart in (S.CHART_FINITE, S.CHART_INFINITY):
        scale = chart == S.CHART_INFINITY
        for slot, i, (f, u, g, v) in _select(rng, products[chart]):
            s1 = S.section_from_constant(u) * f
            s2 = S.section_from_constant(v) * g
            if scale:
                s1, s2 = S.to_infinity_chart(s1), S.to_infinity_chart(s2)
            stream.append(Task(
                f"section_product_{chart}", f"pool:section_product_{chart}:{slot}:{i}",
                lambda s1=s1, s2=s2: cli.render_json((s1 * s2).to_json()),
                _rep_check(O.product_images(_section_dict(s1), _section_dict(s2), scale),
                           ladder_scale=scale, section=True),
            ))
    for slot, i, (n, bad, f) in _select(rng, noncentral):
        s = powers[n] + S.FamilySection(S.CHART_INFINITY, {bad: f})
        stream.append(Task(
            "noncentral", f"pool:noncentral:{slot}:{i}",
            lambda s=s: cli.render_json(_decompose_doc(S.center_decompose(s))),
            _decompose_check(None),
        ))
    for slot, i, g in _select(rng, combos):
        s = S.FamilySection.zero(S.CHART_INFINITY)
        for j, gj in g.items():
            s = s + (powers[j] * gj if j else S.FamilySection(S.CHART_INFINITY, {(0, 0, 0): gj}))
        expected = {j: _laurent_dict(gj) for j, gj in g.items()}
        polynomial = all(min(gj.coeffs) >= 0 for gj in g.values())
        stream.append(Task(
            "combo_decompose", f"pool:combo_decompose:{slot}:{i}",
            lambda s=s: cli.render_json(_decompose_doc(S.center_decompose(s))),
            _decompose_check(expected),
        ))
        stream.append(Task(
            "combo_membership", f"pool:combo_membership:{slot}:{i}",
            lambda s=s: cli.render_json({"member": S.center_membership(s)}),
            lambda doc, want=polynomial: _err(doc == {"member": want},
                                              "membership disagrees with the coefficients"),
        ))
    return tasks + _shuffled(rng, stream)


def _gamma_doc(p, cartan, inf):
    g = S.gamma_family(p, cartan)
    return {"gamma": g.to_json(), "regular_at_inf": g.is_regular_at(inf)}


# -- fibers: families + fibers + cli ------------------------------------------------

FIBER_KINDS = (
    "even_generic", "even_tilde", "even_window", "odd_generic", "odd_tilde",
    "odd_window", "ray_one", "ray_up", "ray_down",
)
FIBERS_PER_KIND = 6
FIBERS_OFF_TABLE = 12
FIBER_POINTS = 10


def _json_q(q: Fraction):
    return q.numerator if q.denominator == 1 else str(q)


def _fiber_shape(rng: random.Random, kind: str) -> dict:
    """The structure of a descriptor: its row, minimal K-type, window and ray sizes."""
    m = 0 if kind.startswith("even") else rng.choice((1, -1))
    return {
        "m": m,
        "given": rng.random() < 0.5,  # spell the K-types out, or let them be inferred
        "c2_sign": 1 if rng.random() < 0.75 else -1,
        "k": rng.choice((0, 2, 4, 6)) if kind == "even_window" else rng.choice((1, 3, 5)),
        "d": rng.randint(2, 7),
    }


def _fiber_descriptor(sh: dict, rng: random.Random, kind: str):
    """(descriptor, expected K-type string, expected tilde membership)."""
    m, parity = sh["m"], "2Z" if sh["m"] == 0 else "2Z+1"
    if kind in ("even_generic", "odd_generic"):
        c2, c1, c0 = _rand_q(rng, 4, 3), _rand_q(rng, 4, 3), _rand_q(rng, 8, 2)
        return {"m": m, "casimir": [_json_q(c0), _json_q(c1), _json_q(c2)]}, parity, False
    if kind in ("even_tilde", "odd_tilde"):
        s = _rand_q(rng, 4, 3)
        obj = {"m": m, "casimir": [-1, 0, _json_q(sh["c2_sign"] * s * s)]}
        if sh["given"]:
            obj["ktypes"] = parity
        return obj, parity, True
    if kind in ("even_window", "odd_window"):
        k = sh["k"]
        obj = {"m": m, "casimir": k * (k + 2)}
        if sh["given"]:
            obj["ktypes"] = f"{-k}..{k}"
        return obj, f"{-k}..{k}", False
    if kind == "ray_one":
        obj = {"m": m, "casimir": [-1]}
        if sh["given"]:
            obj["ktypes"] = "rayUp" if m == 1 else "rayDown"
        return obj, "1,3,..." if m == 1 else "-1,-3,...", True
    d = sh["d"]
    if kind == "ray_up":
        return {"m": d, "casimir": d * (d - 2)}, f"{d},{d + 2},...", True
    return {"m": -d, "casimir": d * (d - 2)}, f"{-d},{-d - 2},...", True


# Off-table descriptors, each with the FamilyValidationError.code it must raise.
def _off_table_descriptor(slot: int, rng: random.Random):
    k = rng.choice((0, 2, 4))
    d = rng.randint(2, 6)
    cases = [
        ({"m": 0, "casimir": k * (k + 2), "ktypes": "2Z"}, "row-mismatch"),
        ({"m": 1, "casimir": [-1, 0, 1], "ktypes": "2Z"}, "parity-mismatch"),
        ({"m": 2 * d, "casimir": 0, "ktypes": f"{-2 * d}..{2 * d}"}, "minimal-ktype-mismatch"),
        ({"m": 2 * d + 2, "casimir": 3, "ktypes": f"{-2 * d}..{2 * d}"}, "minimal-ktype-missing"),
        ({"m": 0, "casimir": [1, 2, 3, 4]}, "casimir-degree"),
        ({"m": d}, "descriptor-missing-field"),
        ({"m": 0, "casimir": [0.5]}, "descriptor-bad-field"),
        ({"m": d, "casimir": 0, "ktypes": f"{{{d}}}"}, "singleton-not-a-family"),
        ({"m": d, "casimir": d * (d - 2) + 1}, "row-mismatch"),
    ]
    return cases[slot % len(cases)]


_POINT_CHOICES = tuple(
    Fraction(p, q) for q in (1, 2, 3, 4) for p in range(-9, 10) if p and Fraction(p, q).denominator == q
)


def _fiber_points(rng: random.Random, fam_obj) -> List[str]:
    """FIBER_POINTS finite base points, the rational wall roots first, then inf."""
    fam = S.family_from_json(fam_obj)
    points = [str(p) for p in S.reducibility_points(fam).points if not p.is_infinity][:4]
    for q in rng.sample(_POINT_CHOICES, FIBER_POINTS):
        if len(points) < FIBER_POINTS and f"r={q}" not in points:
            points.append(f"r={q}")
    return points + ["inf"]


def _ktype_members(text: str, lo: int, hi: int) -> set:
    if text == "2Z":
        return {n for n in range(lo, hi + 1) if n % 2 == 0}
    if text == "2Z+1":
        return {n for n in range(lo, hi + 1) if n % 2}
    if text.startswith("{"):
        n = int(text[1:-1])
        return {n} if lo <= n <= hi else set()
    if text.endswith(",..."):
        first, second = (int(t) for t in text[:-4].split(","))
        stop = hi + 1 if second > first else lo - 1
        return {n for n in range(first, stop, second - first) if lo <= n <= hi}
    a, b = (int(t) for t in text.split(".."))
    return {n for n in range(a, b + 1, 2) if lo <= n <= hi}


_WINDOW = 40


def _analyze_check(ktypes: str, tilde: bool):
    def check(doc):
        if doc["family"]["ktypes"] != ktypes or doc["tilde"]["member"] is not tilde:
            return "family row or tilde membership differs from the generator's"
        if doc["pass"] is not True:
            return "analyze reported a disagreement"
        family = _ktype_members(ktypes, -_WINDOW, _WINDOW)
        for entry in doc["points"]:
            if tilde and entry["point"] != "r=0" and entry["agree"] is not True:
                return f"closed-form quotient disagrees at {entry['point']}"
            parts = [_ktype_members(f["ktypes"], -_WINDOW, _WINDOW) for f in entry["factors"]]
            covered = set().union(*parts)
            if sum(map(len, parts)) != len(covered) or not covered <= family:
                return f"factors overlap or leave the family at {entry['point']}"
            if entry["complete"]:
                if covered != family:
                    return f"factors do not cover the fiber at {entry['point']}"
            elif covered != {n for n in family if min(covered) <= n <= max(covered)}:
                return f"listed factors have a gap at {entry['point']}"
        return None

    return check


def _classify_check(ktypes: Optional[str], tilde: Optional[bool], code: Optional[str]):
    def check(doc):
        if code is not None:
            return _err(doc["valid"] is False and doc["error"] == code,
                        f"off-table descriptor not rejected with {code}")
        ok = (doc["valid"] is True and doc["family"]["ktypes"] == ktypes
              and doc["tilde"]["member"] is tilde)
        return _err(ok, "classification differs from the generator's row")

    return check


def _fiber_slot(kind: str):
    def shape(rng, s):
        obj, ktypes, tilde = _fiber_descriptor(_fiber_shape(rng, kind), rng, kind)
        return obj, ktypes, tilde, _fiber_points(rng, obj)

    return shape


def _fiber_variant(sh, k):
    """The same descriptor, with its base points listed from the k-th on."""
    obj, ktypes, tilde, points = sh
    return obj, ktypes, tilde, points[k:] + points[:k]


def _fiber_pools():
    pools = {
        kind: _slots("fibers", kind, FIBERS_PER_KIND, _fiber_slot(kind), _fiber_variant)
        for kind in FIBER_KINDS
    }
    # A rejection costs next to nothing, so its variants are all the same descriptor.
    pools["off_table"] = _slots("fibers", "off_table", FIBERS_OFF_TABLE,
                                lambda rng, s: _off_table_descriptor(s, rng), lambda sh, k: sh)
    return pools


def _classify_call(obj):
    doc, _status = cli.cmd_classify(obj)
    return cli.render_json(doc)


def _analyze_call(obj, points):
    doc, _status = cli.cmd_analyze(obj, [S.ProjectivePoint.parse(t) for t in points])
    return cli.render_json(doc)


def build_fibers(seed: Optional[int]) -> List[Task]:
    pools = _fiber_pools()
    rng = _run_rng("fibers", seed)
    tasks: List[Task] = []
    for kind in FIBER_KINDS:
        for slot, i, (obj, ktypes, tilde, points) in _select(rng, pools[kind]):
            tasks.append(Task(
                "classify", f"pool:{kind}:{slot}:{i}:classify",
                lambda obj=obj: _classify_call(obj),
                _classify_check(ktypes, tilde, None),
            ))
            tasks.append(Task(
                "analyze", f"pool:{kind}:{slot}:{i}:analyze",
                lambda obj=obj, points=points: _analyze_call(obj, points),
                _analyze_check(ktypes, tilde),
            ))
    for slot, i, (obj, code) in _select(rng, pools["off_table"]):
        tasks.append(Task(
            "classify_off_table", f"pool:off_table:{slot}:{i}:classify",
            lambda obj=obj: _classify_call(obj),
            _classify_check(None, None, code),
            off_table_code=code,
        ))
    return _shuffled(rng, tasks)


# -- duals: verify_conjecture1 + characterize_bijections ------------------------------

# One slot per M: the size of each bijection task is fixed, only its R and grid are seeded.
# An odd task count puts a pass's median on one task (a bijection of middle
# size), not on the edge between two groups of tasks.
DUAL_M = (12, 24, 36, 48, 60, 80, 100, 120) + tuple(range(140, 261, 10))
DUAL_GRID_SIZE = 10
DUAL_CANDIDATES = ("realizable", "vogan-extension", "tempered-preservation", "cross-m-consistency")
DUALS_PER_CANDIDATE = 2
_R_CHOICES = tuple(Fraction(p, q) for p in range(1, 6) for q in range(1, 5) if Fraction(p, q).denominator == q)


def _bijection_instance(rng: random.Random):
    R = rng.choice(_R_CHOICES)
    grid = {Fraction(0)}
    while len(grid) < DUAL_GRID_SIZE:
        grid.add(_rand_q(rng, 12, 4))
    return R, sorted(grid)


def _bijection_variant(sh, k):
    """R and the level grid up to sign: the same classes, the same work."""
    M, R, grid = sh
    r_sign, grid_sign = (1, -1)[k % 2], (1, -1)[k // 2]
    return M, r_sign * R, sorted(grid_sign * z for z in grid)


def _candidate(m: int, rng: random.Random, kind: str):
    """A candidate with the named violation injected at m (none when realizable)."""
    R = rng.choice(_R_CHOICES)
    a = 1 / (R * R)
    cand = {mm: [str(a), "-1"] for mm in (0, 1, -1)}
    if kind == "vogan-extension":
        cand[m][1] = str(rng.choice((0, 1, -2, Fraction(-1, 2))))
    elif kind == "tempered-preservation":
        cand[m][0] = str(-a) if rng.random() < 0.5 else {"re": str(a), "im": "1"}
    elif kind == "cross-m-consistency":
        cand[m][0] = str(a * 4)
    return cand, R


def _candidate_call(cand):
    parsed = {}
    for m, (a, b) in cand.items():
        scalar = S.GaussianRational.from_json(a) if isinstance(a, dict) else Fraction(a)
        parsed[m] = (scalar, Fraction(b))
    return cli.render_json(S.characterize_bijections(parsed).to_json())


def _candidate_check(kind: str, R: Fraction):
    def check(doc):
        if kind == "realizable":
            return _err(doc["matches"] == _json_q(R) and doc["violated"] is None,
                        "realizable candidate not matched to its R")
        return _err(doc["matches"] is None and doc["violated"] == kind,
                    f"candidate not rejected for {kind}")

    return check


def _bijection_check(n_reports: int):
    def check(doc):
        ok = (doc["pass"] is True and len(doc["reports"]) == n_reports
              and all(r["pass"] and all(e["pass"] for e in r["entries"]) for r in doc["reports"]))
        return _err(ok, "verify_conjecture1 failed")

    return check


def _dual_pools():
    pools = {"bijection": _slots("duals", "bijection", len(DUAL_M),
                                 lambda rng, s: (DUAL_M[s],) + _bijection_instance(rng),
                                 _bijection_variant)}
    # A candidate is decided in well under a millisecond, and its R is what the
    # check expects back, so its variants are all the same candidate.
    for kind in DUAL_CANDIDATES:
        pools[kind] = _slots("duals", kind, DUALS_PER_CANDIDATE,
                             lambda rng, s, kind=kind: _candidate((0, 1, -1)[s % 3], rng, kind),
                             lambda sh, k: sh)
    return pools


def build_duals(seed: Optional[int]) -> List[Task]:
    pools = _dual_pools()
    rng = _run_rng("duals", seed)
    tasks: List[Task] = []
    for slot, i, (M, R, grid) in _select(rng, pools["bijection"]):
        tasks.append(Task(
            "bijection", f"pool:bijection:M{M}:{i}",
            lambda R=R, M=M, grid=grid: cli.render_json(cli.cmd_bijection([R], M, grid)[0]),
            _bijection_check(1),
        ))
    for kind in DUAL_CANDIDATES:
        for slot, i, (cand, R) in _select(rng, pools[kind]):
            tasks.append(Task(
                "characterize", f"pool:{kind}:{slot}:{i}",
                lambda cand=cand: _candidate_call(cand),
                _candidate_check(kind, R),
            ))
    return _shuffled(rng, tasks)


BUILDERS = {
    "projection": build_projection,
    "center": build_center,
    "fibers": build_fibers,
    "duals": build_duals,
}


def build(workload: str, seed: Optional[int]) -> List[Task]:
    """The workload's task list for a run seed, or every pool task for seed None."""
    return BUILDERS[workload](seed)
