"""Seeded inputs, timed item bodies and correctness gates of the four workloads.

An *item* is one generated input taken to its verdict: a scenario through
``run_pipeline(k=2)`` and ``ReportBundle.dumps()``, or one lab case.  Each
workload builds a *cycle* of items from its seed; a run always completes
whole cycles, so every run of a workload covers the same mix of shapes.

Only ``Item.run`` is timed.  ``Item.check`` turns its result into report
bytes, verdict counts and a list of problems; any problem fails the item.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from nbhdext.cech import ProvenNonzero, Solved, UnresolvedWithinWindow
from nbhdext.filtered import (
    ChartRing,
    FilteredAutomorphism,
    PairDerivation,
    bch2,
    exp_nilpotent,
    log_unipotent,
)
from nbhdext.laurent import LaurentPoly
from nbhdext.linsolve import PolyMatrix
from nbhdext.mclift import AbelianExtension, GradedDgLie, add, is_mc, is_zero, lift_residual, vec
from nbhdext.scenarios import (
    OverlapSpec,
    Scenario,
    TripleSpec,
    generate_builtin,
    run_pipeline,
    scenario_from_json,
)

F = Fraction
# the seed draws signs only: drawn magnitudes such as 2 or 1/2 grow the exact
# numbers, and with them the cost, on some seeds and not others
SIGNS = (-1, 1)


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]


@dataclass
class Outcome:
    report: bytes
    verdicts: List[str]
    problems: List[str]


@dataclass
class Workload:
    name: str
    cycle: List[Item]
    # mclift.d_density is read from the generated input, not traced
    input_metrics: Dict[str, float]


def round_trip(s: Scenario) -> Scenario:
    """The scenario as the program reads it from a file."""
    return scenario_from_json(json.loads(s.dumps()))


# -- scenario items ---------------------------------------------------------------


def _kind(status) -> str:
    if isinstance(status, Solved):
        return "solved"
    if isinstance(status, ProvenNonzero):
        return "proven_nonzero"
    if isinstance(status, UnresolvedWithinWindow):
        return "unresolved_within_window"
    return type(status).__name__


def check_bundle(result, expected_closedness: Optional[str]) -> Outcome:
    """Correctness gate for a scenario that is known to extend.

    ``result`` is the report bundle and its bytes.  ``expected_closedness``
    is the verdict every computed order must get (``verified`` on a nerve
    with a quadruple); None accepts anything but ``FAILED``.
    """
    bundle, text = result
    verdicts, problems = [], []
    for r in bundle.reports:
        kind = _kind(r.status)
        verdicts.append(f"order{r.order}.{kind}")
        verdicts.append(f"order{r.order}.closedness.{r.closedness}")
        if kind == "proven_nonzero":
            problems.append(f"order {r.order}: proven_nonzero on a scenario that extends")
        if r.closedness == "FAILED":
            problems.append(f"order {r.order}: closedness FAILED")
        # order two is skipped, not computed, when order one is unresolved
        computed = r.closedness != "skipped"
        if expected_closedness and computed and r.closedness != expected_closedness:
            problems.append(
                f"order {r.order}: closedness {r.closedness}, expected {expected_closedness}"
            )
        if kind == "solved" and r.status.h1_oracle is not None:
            if r.status.torsor_dim != r.status.h1_oracle:
                problems.append(
                    f"order {r.order}: torsor {r.status.torsor_dim} != oracle {r.status.h1_oracle}"
                )
    if bundle.abelianized is not None:
        exact = bundle.abelianized["exact"]
        verdicts.append(f"abelianized.{'exact' if exact else 'not_exact'}")
        if not exact:
            problems.append("abelianized pair not exact")
    return Outcome(text.encode(), verdicts, problems)


def scenario_item(label, s: Scenario, window, expected_closedness: Optional[str]) -> Item:
    def run():
        bundle = run_pipeline(s, k=2, window=window)
        return bundle, bundle.dumps()

    return Item(label, run, lambda result: check_bundle(result, expected_closedness))


# -- four_chart: rank-two atlas of P^1 inside Tot O(2) -------------------------------

FOUR_NAMES = ("u1", "t1")
FOUR_K = 3
FOUR_M = 2  # normal bundle degree


def _P(terms) -> LaurentPoly:
    return LaurentPoly(FOUR_NAMES, terms)


def _four_chart_maps(shears):
    """Chart generator images over chart 0 and their inverses."""
    ring = ChartRing(("u1",), ("t1",))
    u, t = ring.u_var(0), ring.t_var(0)
    ident = {"u1": u, "t1": t}
    flip = {"u1": _P({(-1, 0): 1}), "t1": _P({(-FOUR_M, 1): 1})}

    def shear(a, b):
        # unipotent recoordinatization u -> u + a u^2 t, t -> t + b u t^2
        auto = FilteredAutomorphism(ring, FOUR_K, (u + u * u * t * a,), (t + u * t * t * b,))
        inv = exp_nilpotent(log_unipotent(auto).scaled(-1))
        return (
            {"u1": auto.u_images[0], "t1": auto.t_images[0]},
            {"u1": inv.u_images[0], "t1": inv.t_images[0]},
        )

    (a2, b2), (a3, b3) = shears
    s2_fwd, s2_bwd = shear(F(a2), F(b2))
    s3_fwd, s3_bwd = shear(F(a3), F(b3))
    return ring, [ident, flip, s2_fwd, s3_fwd], [ident, flip, s2_bwd, s3_bwd]


def four_chart_scenario(d1: int, d2: int, shears=((1, 1), (-1, 2))) -> Scenario:
    """Four charts, a genuine 3-simplex, every transition log nonzero.

    Charts 2 and 3 are unipotent shears of chart 0; the default ``shears``
    are those of the engine's own four-chart integration test.  The zero
    section retracts Tot O(2) onto the line, so the bundle extends to every
    order whatever its twist (d1, d2).
    """
    ring, M, N = _four_chart_maps(shears)

    def compose(outer, inner):
        return {n: ring.subst_trunc(img, inner, FOUR_K, target=ring) for n, img in outer.items()}

    laurent_pairs = {(0, 1), (1, 2), (1, 3)}
    overlaps = []
    for i in range(4):
        for j in range(i + 1, 4):
            fwd, bwd = compose(M[j], N[i]), compose(M[i], N[j])
            inv = ((1,),) if (i, j) in laurent_pairs else ()
            overlaps.append(
                OverlapSpec((i, j), {i: inv, j: inv}, (fwd["u1"],), (fwd["t1"],),
                            (bwd["u1"],), (bwd["t1"],))
            )
    triples = [
        TripleSpec(tri, () if tri == (0, 2, 3) else ((1,),))
        for tri in [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    ]
    one, zero, u = _P({(0, 0): 1}), _P({}), _P({(1, 0): 1})

    def mono(k):
        return _P({(k, 0): 1})

    # every g is a coboundary of chart frames, so the cocycle rule holds
    g = {
        (0, 1): PolyMatrix([[mono(-d1), zero], [zero, mono(-d2)]]),
        (0, 2): PolyMatrix([[one, u], [zero, one]]),
        (0, 3): PolyMatrix([[one, zero], [u * u, one]]),
        (1, 2): PolyMatrix([[mono(-d1), mono(-d1 - 1)], [zero, mono(-d2)]]),
        (1, 3): PolyMatrix([[mono(-d1), zero], [mono(-d2 - 2), mono(-d2)]]),
        (2, 3): PolyMatrix([[one - u * u * u, -u], [u * u, one]]),
    }
    zero_conn = [PolyMatrix.zero(2, 2, FOUR_NAMES)]
    return Scenario(
        name=f"four_chart_rank_two_{d1}_{d2}",
        p=1, q=1, e=2, max_order=FOUR_K,
        charts_inverted=[(), ((1,),), (), ()],
        overlaps=overlaps, triples=triples, g=g,
        gammas=[list(zero_conn) for _ in range(4)],
        flat=[True] * 4,
        window=(-4, 4),
    )


FOUR_TWIST = (1, -1)  # order two is out of reach in window 5 and solved in window 6


def four_chart(seed: int, size: str = "full") -> Workload:
    """Both windows on one scenario whose chart shears come from the seed.

    The shears change every transition log but not the supports, so the
    system sizes and verdicts, and with them the cost, do not depend on
    the seed; a drawn bundle twist would move the cost by a quarter.
    """
    rng = random.Random(seed)
    pairs = [(a, b) for a in SIGNS for b in SIGNS]
    # distinct shears keep the log on overlap (2, 3) nonzero
    shears = tuple(rng.sample(pairs, 2))
    s = round_trip(four_chart_scenario(*FOUR_TWIST, shears))
    windows = [(-5, 5), (-6, 6)] if size == "full" else [(-2, 2), (-3, 3)]
    cycle = [
        scenario_item(f"four_chart(shears={shears}) window={w[1]}", s, w, "verified")
        for w in windows
    ]
    return Workload("four_chart", cycle, {})


# -- builtin_sweep: every builtin generator, as a CLI user runs it -----------------------

BUILTIN_SCHEDULE = [  # (generator, d, whether the seed draws a twist)
    ("affine_split", 0, False),
    ("line_in_p2", -3, True), ("line_in_p2", 0, True), ("line_in_p2", 3, True),
    ("diagonal_p1xp1", -2, False), ("diagonal_p1xp1", 0, False), ("diagonal_p1xp1", 2, False),
    ("hyperplane_p2_in_p3", 0, True), ("hyperplane_p2_in_p3", 1, True),
    ("hyperplane_p2_in_p3", 2, True),
    ("p1_in_line_bundle", 2, False), ("p1_in_line_bundle", 3, False),
    ("p1_in_line_bundle", 4, False),
]
TWISTS = (F(1), F(-1))


def builtin_sweep(seed: int, size: str = "full") -> Workload:
    """A fixed (generator, d) schedule; the seed draws the coordinate twists.

    The hyperplane cases cost forty times the others, so each of its
    degrees is in every cycle rather than drawn.
    """
    rng = random.Random(seed)
    schedule = BUILTIN_SCHEDULE
    if size == "tiny":
        schedule = [entry for entry in schedule if entry[0] != "hyperplane_p2_in_p3"]
    cycle = []
    for name, d, twisted in schedule:
        tw = rng.choice(TWISTS) if twisted else F(0)
        s = round_trip(generate_builtin(name, d=d, twist=tw))
        cycle.append(scenario_item(f"{name}(d={d}, twist={tw})", s, None, None))
    return Workload("builtin_sweep", cycle, {})


# -- exp_log_roundtrip: truncated exp/log/BCH on a fixed shape schedule -----------------


def _shape_poly(slots, coeff_rng, ring, t_min, t_max, n_terms):
    """Support and magnitudes fixed by the shape, signs from the seed.

    Term ``s`` of the shape has u-degree ``s % 2`` on one tangential
    variable, t-degree cycling through [t_min, t_max] on one normal
    variable and coefficient +-(1 + s % 3), so supports stay small and
    alike across shapes and the exact numbers alike across seeds.
    """
    if t_min > t_max:
        return ring.zero()
    terms = {}
    for _ in range(n_terms):
        s = next(slots)
        u, t = [0] * ring.p, [0] * ring.q
        u[s % ring.p] = s % 2
        t[s % ring.q] = t_min + s % (t_max - t_min + 1)
        terms[tuple(u) + tuple(t)] = F(coeff_rng.choice(SIGNS) * (1 + s % 3))
    return LaurentPoly(ring.names, terms)


def _shape_derivation(slots, coeff_rng, ring, k, rank):
    module = None
    if rank:
        module = PolyMatrix(
            [[_shape_poly(slots, coeff_rng, ring, 1, k, 1) for _ in range(rank)]
             for _ in range(rank)]
        )
    return PairDerivation(
        ring, k,
        tuple(_shape_poly(slots, coeff_rng, ring, 1, k, 2) for _ in range(ring.p)),
        tuple(_shape_poly(slots, coeff_rng, ring, 2, k, 2) for _ in range(ring.q)),
        module,
    )


def _derivation_json(d: PairDerivation) -> list:
    out = [x.to_json_terms() for x in d.u_images + d.t_images]
    if d.module is not None:
        out.append([[d.module[r, c].to_json_terms() for c in range(d.module.cols)]
                    for r in range(d.module.rows)])
    return out


def exp_log_item(label, x: PairDerivation, y: PairDerivation) -> Item:
    def run():
        phi, psi = exp_nilpotent(x), exp_nilpotent(y)
        back = log_unipotent(phi)
        log_c = log_unipotent(phi.compose(psi))
        return back, log_c, bch2(x, y)

    def check(result) -> Outcome:
        back, log_c, z = result
        problems = []
        if back != x:
            problems.append("log(exp(x)) != x")
        for s in (1, 2):
            if log_c.component(s) != z.component(s):
                problems.append(f"log(exp x . exp y) != bch2(x, y) in component {s}")
        report = json.dumps([_derivation_json(log_c), _derivation_json(z)]).encode()
        return Outcome(report, ["roundtrip.fail" if problems else "roundtrip.exact"], problems)

    return Item(label, run, check)


def exp_log_roundtrip(seed: int, size: str = "full") -> Workload:
    coeff_rng = random.Random(seed)
    orders = (1, 2, 3) if size == "full" else (1, 2)
    cycle = []
    shapes = itertools.product((1, 2), (1, 2), orders, (None, 1, 2))
    for index, (p, q, k, rank) in enumerate(shapes):
        ring = ChartRing(tuple(f"u{i+1}" for i in range(p)), tuple(f"t{i+1}" for i in range(q)))
        slots = itertools.count(index)
        x = _shape_derivation(slots, coeff_rng, ring, k, rank)
        y = _shape_derivation(slots, coeff_rng, ring, k, rank)
        cycle.append(exp_log_item(f"exp_log(p={p}, q={q}, k={k}, rank={rank})", x, y))
    return Workload("exp_log_roundtrip", cycle, {})


# -- mc_lift: abelian extensions with their full Maurer-Cartan grid ------------------------

MC_SHAPES = [  # (n1, n2, k1, k2): degree-1 and degree-2 sizes and kernel sizes
    (2, 2, 1, 1), (2, 3, 1, 2), (3, 2, 1, 1), (3, 3, 1, 2),
    (3, 4, 2, 2), (4, 2, 1, 1), (4, 3, 2, 2), (4, 4, 1, 2),
]
MC_SHAPES_TINY = MC_SHAPES[:3]
PHI_GRID = (F(0), F(1), F(-1))
ALPHA_GRID = (F(0), F(1), F(-1), F(1, 2))


def _extension_data(pattern_rng, coeff_rng, n1, n2, k1, k2):
    """Structure constants of a degree-(1,2) dg Lie algebra and an abelian ideal.

    The pattern and magnitudes of the nonzero constants come from the shape
    generator and their signs from the seed.  Brackets land in degree two and vanish
    on it, so Jacobi and the derivation rule hold for any values.  The
    ideal spans the last k1 degree-1 and the last k2 degree-2 basis
    elements, and d and the bracket land in it, so the quotient is
    abelian with zero differential: every grid point is Maurer-Cartan
    downstairs and the number of lift checks is fixed by the shape.
    """
    n = n1 + n2
    degrees = tuple([1] * n1 + [2] * n2)
    kernel1 = range(n1 - k1, n1)
    kernel2 = range(n - k2, n)

    def draw(p):
        if pattern_rng.random() >= p:
            return None
        return F(pattern_rng.choice((1, 2)) * coeff_rng.choice(SIGNS))

    d = [[F(0)] * n for _ in range(n)]
    for j in range(n1):
        for i in kernel2:
            if (c := draw(0.5)) is not None:
                d[i][j] = c
    brackets = {}
    for i in range(n1):
        for j in range(i, n1):
            if i in kernel1 and j in kernel1:
                continue
            entry = {t: c for t in kernel2 if (c := draw(0.5)) is not None}
            if entry:
                brackets[(i, j)] = dict(entry)
                brackets[(j, i)] = dict(entry)
    kernel = tuple(kernel1) + tuple(kernel2)
    section = {}
    for i in (x for x in range(n) if x not in kernel):
        shift = {i: F(1)}
        for t in kernel:
            if degrees[t] == degrees[i] and (c := draw(0.5)) is not None:
                shift[t] = c
        section[i] = vec(n, shift)
    return degrees, tuple(tuple(r) for r in d), brackets, kernel, section


def mc_item(label, data) -> Item:
    degrees, d, brackets, kernel, section = data

    def run():
        ext = AbelianExtension(GradedDgLie(degrees, d, brackets), kernel=kernel, section=section)
        amb, quo = ext.ambient, ext.quotient
        deg1_q = [i for i, dd in enumerate(quo.degrees) if dd == 1]
        kernel_deg1 = [i for i in ext.kernel if amb.degrees[i] == 1]
        rows = []
        for coeffs in itertools.product(PHI_GRID, repeat=len(deg1_q)):
            phi = vec(quo.n, dict(zip(deg1_q, coeffs)))
            if not is_mc(quo, phi)[0]:
                continue
            for acoef in itertools.product(ALPHA_GRID, repeat=len(kernel_deg1)):
                alpha = vec(amb.n, dict(zip(kernel_deg1, acoef)))
                resid = lift_residual(ext, phi, alpha)
                direct, _ = is_mc(amb, add(ext.include_quotient(phi), alpha))
                rows.append((coeffs, acoef, is_zero(resid), direct))
        return rows

    def check(rows) -> Outcome:
        bad = [r for r in rows if r[2] != r[3]]
        problems = [f"{len(bad)} lift residuals disagree with the direct MC check"] if bad else []
        report = json.dumps([[[str(c) for c in phi], [str(c) for c in a], z, dr]
                             for phi, a, z, dr in rows]).encode()
        verdicts = ["grid.lifts" if r[2] else "grid.no_lift" for r in rows]
        return Outcome(report, verdicts, problems)

    return Item(label, run, check)


def mc_lift(seed: int, size: str = "full") -> Workload:
    coeff_rng = random.Random(seed)
    cycle, nonzero, cells = [], 0, 0
    for index, shape in enumerate(MC_SHAPES if size == "full" else MC_SHAPES_TINY):
        data = _extension_data(random.Random(index), coeff_rng, *shape)
        n = len(data[0])
        nonzero += sum(1 for row in data[1] for x in row if x != 0)
        cells += n * n
        cycle.append(mc_item(f"mc_lift(n1={shape[0]}, n2={shape[1]}, k1={shape[2]}, k2={shape[3]})", data))
    return Workload("mc_lift", cycle, {"mclift.d_density": nonzero / cells})


WORKLOADS = {
    "four_chart": four_chart,
    "builtin_sweep": builtin_sweep,
    "exp_log_roundtrip": exp_log_roundtrip,
    "mc_lift": mc_lift,
}
