"""Scenario ingestion, builtin geometries, validation and the run pipeline.

A scenario is a finite presentation of an embedded smooth variety with a
bundle: adapted coordinates per chart, two-way chart transitions per
overlap, bundle transition matrices and local connection forms (validated
for flatness, read by no verdict).  Exact rationals ride as strings in the
JSON; floats are rejected outright.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product as iproduct
from typing import Dict, List, Optional, Tuple

from . import __version__, cohomology
from .cech import (
    BundleData,
    CechCochain,
    CechContext,
    CoverNerve,
    OverlapGeometry,
    ProvenNonzero,
    Solved,
    UnresolvedWithinWindow,
    SYM_END,
    cech_differential,
    lift_obstruction,
    lift_transitions,
    solve_coboundary,
    solve_delta,
    transition_log_defect,
)
from .errors import ParseError, SchemaVersionError, UnknownScenario
from .filtered import ChartRing, ChartTransition, Substitution
from .laurent import Exponent, LaurentPoly, format_fraction
from .linsolve import PolyMatrix

SCHEMA_VERSION = 1
ENGINE_VERSION = __version__

Pair = Tuple[int, int]


@dataclass
class OverlapSpec:
    pair: Pair
    inverted: Dict[int, Tuple[Exponent, ...]]
    forward_u: Tuple[LaurentPoly, ...]
    forward_t: Tuple[LaurentPoly, ...]
    backward_u: Tuple[LaurentPoly, ...]
    backward_t: Tuple[LaurentPoly, ...]


@dataclass
class TripleSpec:
    simplex: Tuple[int, int, int]
    inverted: Tuple[Exponent, ...]  # in the lowest chart's coordinates


@dataclass
class Scenario:
    """Validated-or-not description of one embedding with a bundle."""

    name: str
    p: int
    q: int
    e: int
    max_order: int
    charts_inverted: List[Tuple[Exponent, ...]]
    overlaps: List[OverlapSpec]
    triples: List[TripleSpec]
    g: Dict[Pair, PolyMatrix]
    gammas: List[List[PolyMatrix]]
    flat: List[bool]
    window: Tuple[int, int] = (-6, 6)

    @property
    def u_names(self) -> Tuple[str, ...]:
        return tuple(f"u{i+1}" for i in range(self.p))

    @property
    def t_names(self) -> Tuple[str, ...]:
        return tuple(f"t{i+1}" for i in range(self.q))

    @property
    def names(self) -> Tuple[str, ...]:
        return self.u_names + self.t_names

    def chart_ring(self, i: int) -> ChartRing:
        return ChartRing(self.u_names, self.t_names, self.charts_inverted[i])

    def overlap_ring(self, spec: OverlapSpec, side: int) -> ChartRing:
        return ChartRing(self.u_names, self.t_names, spec.inverted[side])

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        def poly(p: LaurentPoly):
            return p.to_json_terms()

        def matrix(m: PolyMatrix):
            return [[poly(m.entries[r][c]) for c in range(m.cols)] for r in range(m.rows)]

        return {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "dims": {"p": self.p, "q": self.q, "e": self.e},
            "max_order": self.max_order,
            "charts": [
                {"inverted": [list(v) for v in inv]} for inv in self.charts_inverted
            ],
            "overlaps": [
                {
                    "pair": list(o.pair),
                    "inverted": {
                        str(side): [list(v) for v in invs]
                        for side, invs in sorted(o.inverted.items())
                    },
                    "forward_u": [poly(x) for x in o.forward_u],
                    "forward_t": [poly(x) for x in o.forward_t],
                    "backward_u": [poly(x) for x in o.backward_u],
                    "backward_t": [poly(x) for x in o.backward_t],
                }
                for o in self.overlaps
            ],
            "triples": [
                {
                    "simplex": list(t.simplex),
                    "inverted": [list(v) for v in t.inverted],
                }
                for t in self.triples
            ],
            "bundle": {
                "rank": self.e,
                "transitions": {
                    f"{i},{j}": matrix(m) for (i, j), m in sorted(self.g.items())
                },
                "connections": [
                    [matrix(m) for m in per_chart] for per_chart in self.gammas
                ],
                "flat": list(self.flat),
            },
            "window": list(self.window),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_json(), sort_keys=True).encode()
        ).hexdigest()


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ParseError(msg)


def _field(obj: dict, key: str, where: str, kind: type, default=None):
    """``obj[key]`` checked to be a ``kind``; required when ``default`` is None."""
    _require(isinstance(obj, dict), f"{where}: expected an object, got {obj!r}")
    path = f"{where}.{key}" if where else key
    if key not in obj:
        _require(default is not None, f"{path}: missing")
        return default
    value = obj[key]
    _require(isinstance(value, kind) and not isinstance(value, bool),
             f"{path}: expected {kind.__name__}, got {value!r}")
    return value


def _ints(obj, where: str, width: int) -> Tuple[int, ...]:
    _require(
        isinstance(obj, list) and len(obj) == width
        and all(isinstance(x, int) and not isinstance(x, bool) for x in obj),
        f"{where}: expected a list of {width} integers, got {obj!r}",
    )
    return tuple(obj)


def scenario_from_json(data: dict) -> Scenario:
    """Parse a scenario document, naming the field path of any malformed part."""
    if not isinstance(data, dict):
        raise ParseError("scenario document must be a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionError(
            f"schema_version {version!r} unsupported; engine speaks {SCHEMA_VERSION}"
        )
    dims = _field(data, "dims", "", dict)
    p, q, e = (_field(dims, k, "dims", int) for k in ("p", "q", "e"))
    _require(p >= 1 and q >= 1 and e >= 1, "dims must be positive")
    names = tuple(f"u{i+1}" for i in range(p)) + tuple(f"t{i+1}" for i in range(q))

    def poly(obj, where: str) -> LaurentPoly:
        _require(isinstance(obj, list), f"{where}: expected a list of terms, got {obj!r}")
        try:
            return LaurentPoly.from_json_terms(names, obj)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc

    def polys(obj: dict, key: str, where: str, width: int) -> Tuple[LaurentPoly, ...]:
        items = _field(obj, key, where, list)
        _require(len(items) == width, f"{where}.{key}: expected {width} entries")
        return tuple(poly(x, f"{where}.{key}[{n}]") for n, x in enumerate(items))

    def matrix(obj, where: str) -> PolyMatrix:
        _require(isinstance(obj, list) and len(obj) == e
                 and all(isinstance(row, list) and len(row) == e for row in obj),
                 f"{where}: expected a {e}x{e} matrix")
        return PolyMatrix([[poly(x, f"{where}[{r}][{c}]") for c, x in enumerate(row)]
                           for r, row in enumerate(obj)])

    def exps(obj, where: str) -> Tuple[Exponent, ...]:
        # allowed_exponent's search bound holds only for nonnegative inverted exponents
        _require(isinstance(obj, list), f"{where}: expected a list, got {obj!r}")
        out = tuple(_ints(item, f"{where}[{n}]", p) for n, item in enumerate(obj))
        _require(all(x >= 0 for v in out for x in v),
                 f"{where}: inverted exponents must be nonnegative")
        return out

    def chart_ids(obj, where: str, width: int) -> Tuple[int, ...]:
        ids = _ints(obj, where, width)
        _require(all(0 <= i < n_charts for i in ids),
                 f"{where}: chart index out of range for {n_charts} charts in {list(ids)}")
        _require(list(ids) == sorted(set(ids)), f"{where}: chart indices must increase")
        return ids

    charts = _field(data, "charts", "", list)
    n_charts = len(charts)
    _require(n_charts > 0, "charts must be a nonempty list")
    charts_inverted = [
        exps(_field(c, "inverted", f"charts[{i}]", list, []), f"charts[{i}].inverted")
        for i, c in enumerate(charts)
    ]

    overlaps: List[OverlapSpec] = []
    for n, o in enumerate(_field(data, "overlaps", "", list, [])):
        where = f"overlaps[{n}]"
        pair = chart_ids(_field(o, "pair", where, list), f"{where}.pair", 2)
        _require(all(pair != prior.pair for prior in overlaps),
                 f"{where}.pair: duplicate overlap {list(pair)}")
        inverted = _field(o, "inverted", where, dict, {})
        sides = [str(i) for i in pair]
        _require(set(inverted) == set(sides), f"{where}.inverted: expected the sides {sides}")
        overlaps.append(
            OverlapSpec(
                pair,
                {i: exps(inverted[str(i)], f"{where}.inverted[{i}]") for i in pair},
                polys(o, "forward_u", where, p),
                polys(o, "forward_t", where, q),
                polys(o, "backward_u", where, p),
                polys(o, "backward_t", where, q),
            )
        )

    triples: List[TripleSpec] = []
    for n, t in enumerate(_field(data, "triples", "", list, [])):
        where = f"triples[{n}]"
        simplex = chart_ids(_field(t, "simplex", where, list), f"{where}.simplex", 3)
        _require(all(simplex != prior.simplex for prior in triples),
                 f"{where}.simplex: duplicate triple {list(simplex)}")
        inverted = exps(_field(t, "inverted", where, list, []), f"{where}.inverted")
        triples.append(TripleSpec(simplex, inverted))

    bundle = _field(data, "bundle", "", dict, {})
    _require(_field(bundle, "rank", "bundle", int, e) == e, "bundle rank disagrees with dims.e")
    pair_of_key = {f"{i},{j}": (i, j) for i, j in (o.pair for o in overlaps)}
    g = {}
    for key, mat in _field(bundle, "transitions", "bundle", dict, {}).items():
        where = f"bundle.transitions[{key!r}]"
        _require(key in pair_of_key, f"{where}: not an overlap 'i,j' of this scenario")
        g[pair_of_key[key]] = matrix(mat, where)
    _require(len(g) == len(pair_of_key), "bundle.transitions: every overlap needs a transition")
    connections = _field(bundle, "connections", "bundle", list, [])
    _require(len(connections) in (0, n_charts),
             f"bundle.connections: expected one entry per chart ({n_charts})")
    gammas = []
    for ci, per_chart in enumerate(connections):
        where = f"bundle.connections[{ci}]"
        _require(isinstance(per_chart, list) and len(per_chart) == p,
                 f"{where}: expected {p} matrices, one per tangential variable")
        gammas.append([matrix(m, f"{where}[{b}]") for b, m in enumerate(per_chart)])
    flat = _field(bundle, "flat", "bundle", list, [True] * n_charts)
    _require(len(flat) == n_charts and all(isinstance(x, bool) for x in flat),
             f"bundle.flat: expected {n_charts} booleans, got {flat!r}")
    max_order = _field(data, "max_order", "", int, 2)
    _require(max_order >= 1, f"max_order: expected at least 1, got {max_order}")
    window = _ints(_field(data, "window", "", list, [-6, 6]), "window", 2)
    _require(window[0] <= window[1], f"window: expected lo <= hi, got {list(window)}")

    return Scenario(
        name=str(data.get("name", "unnamed")),
        p=p,
        q=q,
        e=e,
        max_order=max_order,
        charts_inverted=charts_inverted,
        overlaps=overlaps,
        triples=triples,
        g=g,
        gammas=gammas,
        flat=flat,
        window=window,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
    try:
        data = json.loads(text, parse_float=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_json(data)


def _reject_float(text: str):
    raise ParseError(f"float literal {text!r} rejected: the engine is exact-only")


def save_scenario(s: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(s.dumps())


# -- validation ------------------------------------------------------------------


@dataclass
class ValidationEntry:
    check: str
    location: str
    ok: bool
    detail: str = ""


@dataclass
class ValidationLog:
    entries: List[ValidationEntry] = field(default_factory=list)

    def record(self, check: str, location: str, ok: bool, detail: str = "") -> None:
        self.entries.append(ValidationEntry(check, location, ok, detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def to_json(self) -> list:
        return [
            {"check": e.check, "location": e.location, "ok": e.ok, "detail": e.detail}
            for e in self.entries
        ]


def _overlap_by_pair(s: Scenario) -> Dict[Pair, OverlapSpec]:
    return {o.pair: o for o in s.overlaps}


def validate_scenario(s: Scenario) -> ValidationLog:
    log = ValidationLog()
    k = s.max_order
    by_pair = _overlap_by_pair(s)

    for o in s.overlaps:
        ring_i = s.overlap_ring(o, o.pair[0])
        ring_j = s.overlap_ring(o, o.pair[1])
        loc = f"overlap {o.pair}"
        adapted = all(ring_i.restrict_to_x(img).is_zero() for img in o.forward_t) and all(
            ring_j.restrict_to_x(img).is_zero() for img in o.backward_t
        )
        log.record("adapted", loc, adapted,
                   "" if adapted else "a normal-variable image has a degree-0 part")
        if not adapted:
            continue
        # mutual inverse on generators, both ways, at order k
        fwd = {n: img for n, img in zip(s.names, tuple(o.forward_u) + tuple(o.forward_t))}
        bwd = {n: img for n, img in zip(s.names, tuple(o.backward_u) + tuple(o.backward_t))}
        fwd_sub, bwd_sub = Substitution(ring_i, fwd, k), Substitution(ring_j, bwd, k)
        ok = True
        detail = ""
        for name in s.names:
            round1 = fwd_sub(bwd[name])
            if not (round1 - LaurentPoly.variable(s.names, name)).is_zero():
                ok = False
                detail = f"backward o forward != id on {name}"
                break
            round2 = bwd_sub(fwd[name])
            if not (round2 - LaurentPoly.variable(s.names, name)).is_zero():
                ok = False
                detail = f"forward o backward != id on {name}"
                break
        log.record("transition_inverse", loc, ok, detail)

    for t in s.triples:
        i, j, h = t.simplex
        loc = f"triple {t.simplex}"
        needed = [(i, j), (i, h), (j, h)]
        if any(pr not in by_pair for pr in needed):
            log.record("cocycle", loc, False, "missing overlap data for a face")
            continue
        o_ij, o_ih, o_jh = by_pair[(i, j)], by_pair[(i, h)], by_pair[(j, h)]
        ring_i = ChartRing(s.u_names, s.t_names, t.inverted)
        fwd_ij = Substitution(
            ring_i, dict(zip(s.names, tuple(o_ij.forward_u) + tuple(o_ij.forward_t))), k
        )
        ok = True
        detail = ""
        for name, img_jh, img_ih in zip(
            s.names,
            tuple(o_jh.forward_u) + tuple(o_jh.forward_t),
            tuple(o_ih.forward_u) + tuple(o_ih.forward_t),
        ):
            via_j = fwd_ij(img_jh)
            if not (via_j - img_ih).is_zero():
                ok = False
                detail = f"chart cocycle fails on generator {name}"
                break
        log.record("cocycle", loc, ok, detail)
        # bundle cocycle g_ih = g_ij . T_i(g_jh); g lives on X, so the
        # transport goes through the base maps at t = 0
        if s.g:
            mul = lambda a, b: ring_i.mul(a, b, k)
            base_fwd = {
                n: ring_i.restrict_to_x(img)
                for n, img in zip(s.u_names, o_ij.forward_u)
            }
            base_fwd.update({n: ring_i.zero() for n in s.t_names})
            g_entries_on_x = all(
                s.overlap_ring(o_jh, j).restrict_to_x(poly) == poly
                for row in s.g[(j, h)].entries
                for poly in row
            )
            log.record("bundle_on_base", loc, g_entries_on_x,
                       "" if g_entries_on_x else "a bundle transition has normal-variable terms")
            g_jh_moved = s.g[(j, h)].map(Substitution(ring_i, base_fwd, k))
            lhs = s.g[(i, j)].matmul(g_jh_moved, mul)
            diff = lhs - s.g[(i, h)]
            okg = diff.is_zero()
            log.record("bundle_cocycle", loc, okg,
                       "" if okg else "g_ih != g_ij . g_jh on the triple")

    # connection flatness against the declared flags
    for ci in range(len(s.charts_inverted)):
        ring = s.chart_ring(ci)
        loc = f"chart {ci}"
        if not s.gammas:
            log.record("flatness", loc, True, "no connection data: exterior derivative assumed")
            continue
        gam = s.gammas[ci]
        curv_zero = True
        witness = ""
        for b in range(s.p):
            for c in range(b + 1, s.p):
                term = (
                    gam[c].map(lambda m: m.diff(s.u_names[b]))
                    - gam[b].map(lambda m: m.diff(s.u_names[c]))
                    + gam[b].commutator(gam[c])
                )
                if not term.is_zero():
                    curv_zero = False
                    witness = f"curvature({b},{c}) = {term!r}"
        ok = curv_zero == s.flat[ci]
        log.record("flatness", loc, ok,
                   "" if ok else (witness or "flag says curved but curvature vanishes"))
    return log


# -- context construction ----------------------------------------------------------


def build_context(s: Scenario, order: int) -> CechContext:
    chart_rings = [s.chart_ring(i) for i in range(len(s.charts_inverted))]
    pair_rings = {
        o.pair: {o.pair[0]: s.overlap_ring(o, o.pair[0]), o.pair[1]: s.overlap_ring(o, o.pair[1])}
        for o in s.overlaps
    }
    triple_rings = {
        t.simplex: ChartRing(s.u_names, s.t_names, t.inverted) for t in s.triples
    }
    nerve = CoverNerve(chart_rings, pair_rings, triple_rings)

    pairs = {
        o.pair: OverlapGeometry(
            ChartTransition(pair_rings[o.pair][o.pair[0]], pair_rings[o.pair][o.pair[1]],
                            o.forward_u, o.forward_t, o.backward_u, o.backward_t)
        )
        for o in s.overlaps
    }
    return CechContext(nerve, pairs, BundleData(rank=s.e, g=dict(s.g)), order)


# -- sheaf twist detection (for the cohomology oracle) -------------------------------


def detect_cover(s: Scenario) -> Optional[str]:
    """Recognize the standard projective covers used by the oracle."""
    n_charts = len(s.charts_inverted)
    by_pair = _overlap_by_pair(s)
    if s.p == 1 and n_charts == 2 and (0, 1) in by_pair:
        o = by_pair[(0, 1)]
        ring = s.overlap_ring(o, 0)
        uinv = LaurentPoly.monomial(s.names, (-1,) + (0,) * s.q)
        if (
            ring.restrict_to_x(o.forward_u[0]) == uinv
            and s.overlap_ring(o, 1).restrict_to_x(o.backward_u[0]) == uinv
        ):
            return "p1"
    if s.p == 2 and n_charts == 3 and all(pr in by_pair for pr in [(0, 1), (0, 2), (1, 2)]):
        def mono(*exps):
            return LaurentPoly.monomial(s.names, tuple(exps) + (0,) * s.q)

        o01, o02, o12 = by_pair[(0, 1)], by_pair[(0, 2)], by_pair[(1, 2)]
        base01 = tuple(s.overlap_ring(o01, 0).restrict_to_x(x) for x in o01.forward_u)
        base02 = tuple(s.overlap_ring(o02, 0).restrict_to_x(x) for x in o02.forward_u)
        base12 = tuple(s.overlap_ring(o12, 1).restrict_to_x(x) for x in o12.forward_u)
        if (
            base01 == (mono(-1, 0), mono(-1, 1))
            and base02 == (mono(0, -1), mono(1, -1))
            and base12 == (mono(1, -1), mono(0, -1))
        ):
            return "p2"
    return None


def _monomial_degree(p: LaurentPoly) -> Optional[Exponent]:
    if not p.is_monomial():
        return None
    ((exps, _),) = p.terms.items()
    return exps


def sheaf_twists(s: Scenario, ctx: CechContext, sdeg: int) -> Optional[List[int]]:
    """Twist decomposition of Sym^sdeg con (x) End E when diagonal monomial."""
    space = detect_cover(s)
    if space is None:
        return None
    probe = (0, 1)
    geom = ctx.pairs[probe]
    con = geom.conormal_ji
    diag_twists = []
    for a in range(s.q):
        for b in range(s.q):
            exps = _monomial_degree(con[a, b])
            if a == b:
                if exps is None:
                    return None
                diag_twists.append(exps[0])
            elif not con[a, b].is_zero():
                return None
    gmat = ctx.bundle.g[probe]
    g_twists = []
    for r in range(s.e):
        for c in range(s.e):
            exps = _monomial_degree(gmat[r, c])
            if r == c:
                if exps is None:
                    return None
                g_twists.append(exps[0])
            elif not gmat[r, c].is_zero():
                return None
    ring = ctx.nerve.pair_rings[probe][0]
    out = []
    for tm in ring.t_monomials(sdeg):
        con_twist = sum(m * e_ for m, e_ in zip(diag_twists, tm))
        for r in range(s.e):
            for c in range(s.e):
                out.append(con_twist + g_twists[r] - g_twists[c])
    return out


def h2_weight_test(s: Scenario, ctx: CechContext, sdeg: int):
    """Exact pairing of a SYM_END 2-cochain against the top-cohomology monomial basis.

    On the standard plane cover a coboundary can never reach a monomial
    whose homogeneous weight is negative in every slot, so a nonzero
    coefficient there certifies a nonzero class independently of any
    window.  Returns None when the cover or sheaf is not supported.
    """
    space = detect_cover(s)
    if space != "p2":
        return None
    twists = sheaf_twists(s, ctx, sdeg)
    if twists is None:
        return None
    geom01 = ctx.pairs[(0, 1)]
    con = geom01.conormal_ji
    gmat = ctx.bundle.g[(0, 1)]

    def test(c2: CechCochain):
        tri = (0, 1, 2)
        if tri not in c2.values:
            return []
        value = c2.values[tri]
        ring = ctx.nerve.triple_rings[tri]
        hits = []
        e = ctx.bundle.rank
        for r, c in iproduct(range(e), range(e)):
            for exps, coeff in value.entries[r][c].sorted_terms():
                u_part, t_part = exps[: s.p], exps[s.p:]
                con_twist = sum(
                    _monomial_degree(con[a, a])[0] * t_part[a] for a in range(s.q)
                )
                d = con_twist + _monomial_degree(gmat[r, r])[0] - _monomial_degree(gmat[c, c])[0]
                w0 = d - u_part[0] - u_part[1]
                if u_part[0] < 0 and u_part[1] < 0 and w0 < 0:
                    hits.append(
                        (f"entry {(r, c)} monomial {list(exps)}", format_fraction(coeff))
                    )
        return hits

    return test


# -- reports ---------------------------------------------------------------------


def _status_json(status) -> dict:
    if isinstance(status, Solved):
        return {
            "kind": "solved",
            "torsor_dim": status.torsor_dim,
            "h1_oracle": status.h1_oracle,
            "cochain": _cochain_json(status.cochain),
        }
    if isinstance(status, ProvenNonzero):
        return {
            "kind": "proven_nonzero",
            "class_coordinates": [list(x) for x in status.class_coordinates],
        }
    return {"kind": "unresolved_within_window", "window": list(status.window)}


def _cochain_json(c: CechCochain) -> dict:
    out = {}
    for simplex in sorted(c.values):
        v = c.values[simplex]  # report cochains are SYM_END matrices
        out[",".join(str(x) for x in simplex)] = [
            [v.entries[r][cc].to_json_terms() for cc in range(v.cols)]
            for r in range(v.rows)
        ]
    return {"degree": c.degree, "vtype": c.vtype, "sdeg": c.sdeg, "values": out}


@dataclass
class ObstructionReport:
    order: int
    closedness: str
    status: object
    obstruction: CechCochain
    notes: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "closedness": self.closedness,
            "status": _status_json(self.status),
            "obstruction": _cochain_json(self.obstruction),
            "notes": list(self.notes),
        }


@dataclass
class ReportBundle:
    scenario_name: str
    scenario_digest: str
    engine_version: str
    window: Tuple[int, int]
    validation: ValidationLog
    reports: List[ObstructionReport]
    abelianized: Optional[dict] = None

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario_name,
            "scenario_digest": self.scenario_digest,
            "engine_version": self.engine_version,
            "window": list(self.window),
            "validation": self.validation.to_json(),
            "reports": [r.to_json() for r in self.reports],
            "abelianized": self.abelianized,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=1) + "\n"


# -- the pipeline -----------------------------------------------------------------


def _closedness_verdict(ctx: CechContext, c2: CechCochain) -> str:
    if not ctx.nerve.quadruples():
        return "vacuous"
    return "verified" if cech_differential(ctx, c2).is_zero() else "FAILED"


def _window_notes(status) -> List[str]:
    if (
        isinstance(status, Solved)
        and status.h1_oracle is not None
        and status.h1_oracle != status.torsor_dim
    ):
        return [
            f"window undercounts the torsor: {status.torsor_dim} of "
            f"{status.h1_oracle} oracle dimensions reachable"
        ]
    return []


def _order_report(
    s: Scenario,
    ctx: CechContext,
    order: int,
    target: CechCochain,
    window: Tuple[int, int],
) -> ObstructionReport:
    """Check closedness of one order's obstruction, then solve it.

    A nonzero certificate is tried only on a cochain that is not known to
    be unclosed: the class of a cochain with a nonzero coboundary is not
    defined, so certifying it would prove nothing.
    """
    twists = sheaf_twists(s, ctx, order)
    h1_oracle = None
    if twists is not None:
        h1_oracle = cohomology.cohomology_dim(detect_cover(s), twists)[1]
    closedness = _closedness_verdict(ctx, target)
    unclosed = closedness == "FAILED"
    status = solve_coboundary(
        ctx, target, window, h1_oracle=h1_oracle,
        h2_basis_test=None if unclosed else h2_weight_test(s, ctx, order),
    )
    notes = _window_notes(status)
    if unclosed:
        notes.append(
            "closedness FAILED, so no nonzero certificate was tried: "
            "an unclosed cochain has no class to certify"
        )
    return ObstructionReport(order, closedness, status, target, notes=notes)


def run_pipeline(
    s: Scenario,
    k: int = 2,
    window: Optional[Tuple[int, int]] = None,
) -> ReportBundle:
    """Validate, lift the transitions order by order and solve each obstruction.

    Order n solves o_n, the t^n-part of the cocycle defect of the
    transitions G lifted through the lower orders, and its solution m lifts
    them to (1 + m) . G.  Orders after the first unresolved one are skipped.
    A k outside 1..``max_order``, the order the data is checked to, is an
    input error.
    """
    if not 1 <= k <= s.max_order:
        raise ParseError(
            f"order {k} requested but orders run from 1 to the scenario's "
            f"max_order {s.max_order}, the order its data is checked to"
        )
    window = tuple(window or s.window)
    log = validate_scenario(s)
    if not log.ok:
        raise ParseError(
            "scenario failed validation: "
            + "; ".join(
                f"{e.check}@{e.location}: {e.detail}" for e in log.entries if not e.ok
            )
        )
    ctx = build_context(s, k)
    # notes name orders one and two in words, as their reports always have
    name = lambda n: ("one", "two")[n - 1] if n <= 2 else str(n)
    G = ctx.bundle.g
    reports: List[ObstructionReport] = []
    for order in range(1, k + 1):
        failed = [r.order for r in reports if not isinstance(r.status, Solved)]
        if failed:
            note = f"order {name(failed[0])} did not resolve, so order {name(order)} is untested"
            empty = CechCochain(2, SYM_END, order, {})
            reports.append(
                ObstructionReport(order, "skipped", UnresolvedWithinWindow(window), empty, [note])
            )
            continue
        report = _order_report(s, ctx, order, lift_obstruction(ctx, G, order), window)
        report.notes += [
            f"order {name(r.order)} has a torsor of dimension {r.status.torsor_dim}: this "
            f"verdict is about the order-{name(r.order)} lift chosen here, and another "
            "choice may behave differently"
            for r in reports if r.status.torsor_dim > 0
        ]
        reports.append(report)
        if isinstance(report.status, Solved) and order < k:
            G = lift_transitions(ctx, G, report.status.cochain)

    abelianized = None
    if s.e == 1 and k >= 2:
        abelianized = solve_abelianized(ctx, window)

    return ReportBundle(
        scenario_name=s.name,
        scenario_digest=s.digest(),
        engine_version=ENGINE_VERSION,
        window=window,
        validation=log,
        reports=reports,
        abelianized=abelianized,
    )


def solve_abelianized(ctx: CechContext, window: Tuple[int, int]) -> dict:
    """Whether a rank-one bundle extends to order ``ctx.order``: delta(lambda) = rho.

    G_ij = g_ij . exp(lambda_ij) is a cocycle modulo t^(k+1) exactly when
    lambda_ij + F_ij^* lambda_jh - lambda_ih = rho_ijh, a linear system in
    the window-supported lambda on the doubles at t-degrees 1..k.
    """
    system, sol, _ = solve_delta(ctx, transition_log_defect(ctx), range(1, ctx.order + 1), window)
    return {
        "exact": sol.consistent,
        "unknowns": len(system.basis),
        "constraints": len(system.rows),
    }


# -- builtin generators ---------------------------------------------------------------


def generate_builtin(name: str, d: int = 0, twist: Fraction | int = 0) -> Scenario:
    """Exact adapted-coordinate presentations of the shipped embeddings."""
    twist = Fraction(twist)
    if name == "affine_split":
        return _affine_split(d)
    if name == "line_in_p2":
        return _line_in_p2(d, twist)
    if name == "diagonal_p1xp1":
        return _diagonal_p1xp1(d)
    if name == "hyperplane_p2_in_p3":
        return _hyperplane_p2_in_p3(d, twist)
    if name == "p1_in_line_bundle":
        return _p1_in_line_bundle(int(d), 0)
    raise UnknownScenario(
        f"unknown scenario {name!r}; builtins: affine_split, line_in_p2, "
        "diagonal_p1xp1, hyperplane_p2_in_p3, p1_in_line_bundle"
    )


BUILTIN_NAMES = (
    "affine_split",
    "line_in_p2",
    "diagonal_p1xp1",
    "hyperplane_p2_in_p3",
    "p1_in_line_bundle",
)


def _names(p: int, q: int) -> Tuple[str, ...]:
    return tuple(f"u{i+1}" for i in range(p)) + tuple(f"t{i+1}" for i in range(q))


def _affine_split(d: int) -> Scenario:
    names = _names(1, 1)
    e = 1
    return Scenario(
        name="affine_split",
        p=1,
        q=1,
        e=e,
        max_order=3,
        charts_inverted=[()],
        overlaps=[],
        triples=[],
        g={},
        gammas=[[PolyMatrix.zero(e, e, names)]],
        flat=[True],
        window=(-4, 4),
    )


def _p1_two_chart(name, forward_u, forward_t, backward_u, backward_t, d):
    names = _names(1, 1)
    e = 1
    g01 = PolyMatrix([[LaurentPoly.monomial(names, (d, 0))]])
    return Scenario(
        name=name,
        p=1,
        q=1,
        e=e,
        max_order=3,
        charts_inverted=[(), ()],
        overlaps=[
            OverlapSpec(
                (0, 1),
                {0: ((1,),), 1: ((1,),)},
                (forward_u,),
                (forward_t,),
                (backward_u,),
                (backward_t,),
            )
        ],
        triples=[],
        g={(0, 1): g01},
        gammas=[[PolyMatrix.zero(e, e, names)], [PolyMatrix.zero(e, e, names)]],
        flat=[True, True],
        window=(-6, 6),
    )


def _line_in_p2(d: int, twist: Fraction) -> Scenario:
    names = _names(1, 1)
    c = twist

    def P(terms):
        return LaurentPoly(names, terms)

    if c == 0:
        fwd_u = P({(-1, 0): 1})
        fwd_t = P({(-1, 1): 1})
        bwd_u = P({(-1, 0): 1})
        bwd_t = P({(-1, 1): 1})
    else:
        fwd_u = P({(-1, 0): 1, (-1, 1): c})
        fwd_t = P({(-1, 1): 1})
        bwd_u = P({(-1, 0): 1, (-2, 1): c, (-3, 2): c * c, (-4, 3): c ** 3})
        bwd_t = P({(-1, 1): 1, (-2, 2): c, (-3, 3): c * c})
    s = _p1_two_chart("line_in_p2", fwd_u, fwd_t, bwd_u, bwd_t, d)
    return s


def _diagonal_p1xp1(d: int) -> Scenario:
    names = _names(1, 1)

    def P(terms):
        return LaurentPoly(names, terms)

    series_t = P({(-2, 1): -1, (-3, 2): 1, (-4, 3): -1})
    s = _p1_two_chart(
        "diagonal_p1xp1",
        P({(-1, 0): 1}),
        series_t,
        P({(-1, 0): 1}),
        series_t,
        d,
    )
    return s


def _p1_in_line_bundle(m: int, d: int) -> Scenario:
    names = _names(1, 1)

    def P(terms):
        return LaurentPoly(names, terms)

    s = _p1_two_chart(
        f"p1_in_line_bundle_{m}",
        P({(-1, 0): 1}),
        P({(-m, 1): 1}),
        P({(-1, 0): 1}),
        P({(-m, 1): 1}),
        d,
    )
    # order-two classes live out to u^(-2m+1): keep the window wide enough
    half = max(6, 2 * abs(m))
    s.window = (-half, half)
    return s


def _hyperplane_p2_in_p3(d: int, twist: Fraction) -> Scenario:
    names = _names(2, 1)
    e = 1
    c = twist

    def P(terms):
        return LaurentPoly(names, terms)

    u1i = {(-1, 0, 0): 1}
    # overlap (0,1): chart-1 generators (v1, v2~, s) in chart-0 coordinates,
    # where the twist shifts the second tangential coordinate: v2~ = v2 + c s
    if c == 0:
        f01_u = (P(u1i), P({(-1, 1, 0): 1}))
        b01_u = (P(u1i), P({(-1, 1, 0): 1}))
        b01_t = (P({(-1, 0, 1): 1}),)
    else:
        f01_u = (P(u1i), P({(-1, 1, 0): 1, (-1, 0, 1): c}))
        # backward is exact: u1 = 1/v1, u2 = (v2~ - c s)/v1, t = s/v1
        b01_u = (P(u1i), P({(-1, 1, 0): 1, (-1, 0, 1): -c}))
        b01_t = (P({(-1, 0, 1): 1}),)
    f01_t = (P({(-1, 0, 1): 1}),)

    # overlap (0,2): chart-2 (w1, w2, s') in chart-0 coordinates, untwisted;
    # backward: u1 = w2/w1, u2 = 1/w1, t = s'/w1
    f02_u = (P({(0, -1, 0): 1}), P({(1, -1, 0): 1}))
    f02_t = (P({(0, -1, 1): 1}),)
    b02_u = (P({(-1, 1, 0): 1}), P({(-1, 0, 0): 1}))
    b02_t = (P({(-1, 0, 1): 1}),)

    # overlap (1,2): chart-2 in (possibly twisted) chart-1 coordinates;
    # with the twist, 1/v2 = (v2~ - c s)^(-1) expands as a geometric series
    if c == 0:
        f12_u = (P({(1, -1, 0): 1}), P({(0, -1, 0): 1}))
        f12_t = (P({(0, -1, 1): 1}),)
        b12_u = (P({(1, -1, 0): 1}), P({(0, -1, 0): 1}))
        b12_t = (P({(0, -1, 1): 1}),)
    else:
        inv = {
            (0, -1, 0): Fraction(1),
            (0, -2, 1): c,
            (0, -3, 2): c * c,
            (0, -4, 3): c ** 3,
        }
        shift = lambda dv1, dt: {
            (a + dv1, b, cc + dt): v for (a, b, cc), v in inv.items()
        }
        f12_u = (P(shift(1, 0)), P(inv))
        f12_t = (P(shift(0, 1)),)
        b12_u = (P({(1, -1, 0): 1}), P({(0, -1, 0): 1, (0, -1, 1): c}))
        b12_t = (P({(0, -1, 1): 1}),)

    g01 = PolyMatrix([[P({(d, 0, 0): 1})]])
    g02 = PolyMatrix([[P({(0, d, 0): 1})]])
    g12 = PolyMatrix([[P({(0, d, 0): 1})]])
    zero_conn = [
        PolyMatrix.zero(e, e, names),
        PolyMatrix.zero(e, e, names),
    ]
    return Scenario(
        name="hyperplane_p2_in_p3",
        p=2,
        q=1,
        e=e,
        max_order=3,
        charts_inverted=[(), (), ()],
        overlaps=[
            OverlapSpec((0, 1), {0: ((1, 0),), 1: ((1, 0),)}, f01_u, f01_t, b01_u, b01_t),
            OverlapSpec((0, 2), {0: ((0, 1),), 2: ((1, 0),)}, f02_u, f02_t, b02_u, b02_t),
            OverlapSpec((1, 2), {1: ((0, 1),), 2: ((0, 1),)}, f12_u, f12_t, b12_u, b12_t),
        ],
        triples=[TripleSpec((0, 1, 2), ((1, 0), (0, 1)))],
        g={(0, 1): g01, (0, 2): g02, (1, 2): g12},
        gammas=[list(zero_conn), list(zero_conn), list(zero_conn)],
        flat=[True, True, True],
        window=(-3, 3),
    )
