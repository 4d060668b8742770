"""Scenario ingestion, builtin geometries, validation and the run pipeline.

A scenario is a finite presentation of an embedded smooth variety with a
bundle: adapted coordinates per chart, two-way chart transitions per
overlap, bundle transition matrices and local connection forms (validated
for flatness, read by no verdict).  Exact rationals ride as strings in the
JSON; floats are rejected outright.  ``dumps_indented`` writes the bytes of
every scenario file and report, equal to ``json.dumps(doc, sort_keys=True,
indent=1)``; ``Scenario.digest`` stays on the compact C-encoded ``json.dumps``.

``run_pipeline`` reads the cover once per run, from the context: on a
standard P^1 or P^2 cover with diagonal monomial twists, one twist
formula gives both the h^1 count attached to each solved order and the
h^2 weight pairing that certifies an unresolved order nonzero.  The Cech
solve itself knows of neither.
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

_encode_str = json.encoder.encode_basestring_ascii


def dumps_indented(doc) -> str:
    """``json.dumps(doc, sort_keys=True, indent=1)`` in one pass, without the
    stdlib's pure-Python indented encoder.  TypeError on a float, a Fraction,
    a non-str key or any other type no exact report holds."""
    chunks: List[str] = []
    _write_json(doc, "\n", chunks.append)
    return "".join(chunks)


def _write_json(obj, newline: str, out) -> None:
    if isinstance(obj, str):
        out(_encode_str(obj))
    elif isinstance(obj, int):
        out("true" if obj is True else "false" if obj is False else int.__repr__(obj))
    elif obj is None:
        out("null")
    elif isinstance(obj, dict):
        inner, sep = newline + " ", "{"
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out(sep + inner + _encode_str(key) + ": ")
            _write_json(obj[key], inner, out)
            sep = ","
        out(newline + "}" if obj else "{}")
    elif isinstance(obj, (list, tuple)):
        inner, sep = newline + " ", "["
        for item in obj:
            out(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out(newline + "]" if obj else "[]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _names(p: int, q: int) -> Tuple[str, ...]:
    """The chart variables u1..up, t1..tq: every chart of a scenario uses these names."""
    return tuple(f"u{i+1}" for i in range(p)) + tuple(f"t{i+1}" for i in range(q))


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
    def names(self) -> Tuple[str, ...]:
        return _names(self.p, self.q)

    def ring(self, inverted: Tuple[Exponent, ...]) -> ChartRing:
        """The ring of a chart, overlap or triple that inverts the monomials ``inverted``."""
        names = self.names
        return ChartRing(names[:self.p], names[self.p:], inverted)

    def transition(self, o: OverlapSpec) -> ChartTransition:
        """The chart transition of the overlap ``o``, from its low chart's ring to its high one's."""
        i, j = o.pair
        return ChartTransition(self.ring(o.inverted[i]), self.ring(o.inverted[j]),
                               o.forward_u, o.forward_t, o.backward_u, o.backward_t)

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
        return dumps_indented(self.to_json()) + "\n"

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
        isinstance(obj, (list, tuple)) and len(obj) == width
        and all(isinstance(x, int) and not isinstance(x, bool) for x in obj),
        f"{where}: expected a list of {width} integers, got {obj!r}",
    )
    return tuple(obj)


def _window(obj) -> Tuple[int, int]:
    """A solve window: two integers lo <= hi, from a document or from Python."""
    window = _ints(obj, "window", 2)
    _require(window[0] <= window[1], f"window: expected lo <= hi, got {list(window)}")
    return window


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
    names = _names(p, q)

    def poly(obj, where: str) -> LaurentPoly:
        _require(isinstance(obj, list), f"{where}: expected a list of terms, got {obj!r}")
        try:
            out = LaurentPoly.from_json_terms(names, obj)
        except ParseError as exc:
            raise ParseError(f"{where}: {exc}") from exc
        # chart rings never invert a normal variable
        for exps, _ in out.sorted_terms():
            _require(min(exps[p:]) >= 0,
                     f"{where}: exponent vector {list(exps)} has a negative t-exponent")
        return out

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
        # the window cone's closed form is sound only for nonnegative inverted exponents
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
    window = _window(_field(data, "window", "", list, [-6, 6]))

    return Scenario(
        name=_field(data, "name", "", str, "unnamed"),
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
    except RecursionError as exc:
        raise ParseError(f"{path}: invalid JSON: nested too deeply to parse") from exc
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


def validate_scenario(s: Scenario) -> ValidationLog:
    """Check a scenario's transitions, cocycles and flatness flags at ``max_order``.

    Each overlap's transition and forward ``Substitution`` are kept, by
    pair, and the chart cocycle of a triple reuses the substitution of its
    (i, j) face with its memo, whether or not that face was adapted.  The
    triple ring differs from the overlap ring only in ``inverted``, which a
    substitution never reads, so both give the same polynomials.  A
    triple's ``bundle_on_base`` entry checks the bundle transitions of all
    three faces; a cover with no triples has no such entry.
    """
    log = ValidationLog()
    k = s.max_order
    transitions: Dict[Pair, ChartTransition] = {}
    forward: Dict[Pair, Substitution] = {}

    for o in s.overlaps:
        tr = transitions[o.pair] = s.transition(o)
        loc = f"overlap {o.pair}"
        adapted = all(tr.ring_low.restrict_to_x(img).is_zero() for img in tr.forward_t) and all(
            tr.ring_high.restrict_to_x(img).is_zero() for img in tr.backward_t
        )
        log.record("adapted", loc, adapted,
                   "" if adapted else "a normal-variable image has a degree-0 part")
        fwd_sub = forward[o.pair] = Substitution(tr.ring_low, tr.forward, k)
        if not adapted:
            continue
        # mutual inverse on generators, both ways, at order k
        bwd_sub = Substitution(tr.ring_high, tr.backward, k)
        ok = True
        detail = ""
        for name in s.names:
            round1 = fwd_sub(tr.backward[name])
            if not (round1 - LaurentPoly.variable(s.names, name)).is_zero():
                ok = False
                detail = f"backward o forward != id on {name}"
                break
            round2 = bwd_sub(tr.forward[name])
            if not (round2 - LaurentPoly.variable(s.names, name)).is_zero():
                ok = False
                detail = f"forward o backward != id on {name}"
                break
        log.record("transition_inverse", loc, ok, detail)

    for t in s.triples:
        i, j, h = t.simplex
        loc = f"triple {t.simplex}"
        if any(pr not in transitions for pr in [(i, j), (i, h), (j, h)]):
            log.record("cocycle", loc, False, "missing overlap data for a face")
            continue
        tr_ij, tr_ih, tr_jh = transitions[(i, j)], transitions[(i, h)], transitions[(j, h)]
        ring_i = s.ring(t.inverted)
        fwd_ij = forward[(i, j)]
        ok = True
        detail = ""
        for name in s.names:
            via_j = fwd_ij(tr_jh.forward[name])
            if not (via_j - tr_ih.forward[name]).is_zero():
                ok = False
                detail = f"chart cocycle fails on generator {name}"
                break
        log.record("cocycle", loc, ok, detail)
        # bundle cocycle g_ih = g_ij . T_i(g_jh); g lives on X, so the
        # transport goes through the base maps at t = 0
        if s.g:
            base_fwd = {n: ring_i.restrict_to_x(tr_ij.forward[n]) for n in ring_i.u_names}
            base_fwd.update({n: ring_i.zero() for n in ring_i.t_names})
            g_entries_on_x = all(
                ring_i.restrict_to_x(poly) == poly
                for face in ((i, j), (i, h), (j, h))
                for row in s.g[face].entries
                for poly in row
            )
            log.record("bundle_on_base", loc, g_entries_on_x,
                       "" if g_entries_on_x else "a bundle transition has normal-variable terms")
            g_jh_moved = s.g[(j, h)].map(Substitution(ring_i, base_fwd, k))
            lhs = ring_i.matmul(s.g[(i, j)], g_jh_moved, k)
            diff = lhs - s.g[(i, h)]
            okg = diff.is_zero()
            log.record("bundle_cocycle", loc, okg,
                       "" if okg else "g_ih != g_ij . g_jh on the triple")

    # connection flatness against the declared flags
    u_names = s.names[:s.p]
    for ci in range(len(s.charts_inverted)):
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
                    gam[c].map(lambda m: m.diff(u_names[b]))
                    - gam[b].map(lambda m: m.diff(u_names[c]))
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
    nerve = CoverNerve(
        [s.ring(inverted) for inverted in s.charts_inverted],
        {o.pair: s.transition(o) for o in s.overlaps},
        {t.simplex: s.ring(t.inverted) for t in s.triples},
    )
    return CechContext(nerve, BundleData(rank=s.e, g=dict(s.g)), order)


# -- the standard projective cover (for the oracle and the certificate) ---------------


@dataclass(frozen=True)
class Cover:
    """A standard projective cover with diagonal monomial twists, read off overlap (0, 1).

    ``conormal`` holds the u-degree of each diagonal entry of the conormal
    matrix and ``frame`` that of each diagonal bundle transition entry.
    """

    space: str
    conormal: Tuple[int, ...]
    frame: Tuple[int, ...]

    def twist(self, t_exps: Exponent, r: int, c: int) -> int:
        """Twist of entry (r, c) of Sym con (x) End E at the conormal monomial ``t_exps``."""
        return sum(m * a for m, a in zip(self.conormal, t_exps)) + self.frame[r] - self.frame[c]


def _diagonal_degrees(mat: PolyMatrix) -> Optional[Tuple[int, ...]]:
    """The u1-degree of each diagonal entry of a diagonal matrix of monomials, else None."""
    degrees = []
    for r, row in enumerate(mat.entries):
        for c, poly in enumerate(row):
            if r == c and not poly.is_monomial() or r != c and not poly.is_zero():
                return None
        ((exps, _),) = row[r].terms.items()
        degrees.append(exps[0])
    return tuple(degrees)


# the standard P^p cover, by p: its space and, on each overlap, the
# exponents of the base-map images of u1..up
_STANDARD_COVERS = {
    1: ("p1", {(0, 1): ((-1,),)}),
    2: ("p2", {
        (0, 1): ((-1, 0), (-1, 1)),
        (0, 2): ((0, -1), (1, -1)),
        (1, 2): ((1, -1), (0, -1)),
    }),
}


def detect_cover(ctx: CechContext) -> Optional[Cover]:
    """Recognize the standard P^1 or P^2 cover from the base maps of the overlaps.

    The base maps are the t-degree-0 parts of the forward u-images;
    validation has proved each backward map the inverse of its forward one.
    None unless the conormal matrix and the bundle transition on (0, 1) are
    diagonal with monomial entries.
    """
    ring = ctx.nerve.chart_rings[0]
    if ring.p not in _STANDARD_COVERS or ctx.nerve.n != ring.p + 1:
        return None
    space, base_maps = _STANDARD_COVERS[ring.p]
    for pair, exps in base_maps.items():
        if pair not in ctx.pairs:
            return None
        images = ctx.pairs[pair].images_ji
        if any(images[u] != ring.monomial(e + (0,) * ring.q) for u, e in zip(ring.u_names, exps)):
            return None
    conormal = _diagonal_degrees(ctx.pairs[(0, 1)].conormal_ji)
    frame = _diagonal_degrees(ctx.bundle.g[(0, 1)])
    if conormal is None or frame is None:
        return None
    return Cover(space, conormal, frame)


def h2_weight_test(cover: Optional[Cover], c2: CechCochain) -> List[Tuple[str, str]]:
    """Exact pairing of a SYM_END 2-cochain against the top-cohomology monomial basis.

    On the standard plane cover a coboundary can never reach a monomial
    whose homogeneous weight is negative in every slot, so a nonzero
    coefficient there certifies a nonzero class independently of any
    window.  Returns the certifying coordinates, none off the plane cover.
    """
    tri = (0, 1, 2)
    if cover is None or cover.space != "p2" or tri not in c2.values:
        return []
    value = c2.values[tri]
    hits = []
    for r, c in iproduct(range(value.rows), range(value.cols)):
        for exps, coeff in value.entries[r][c].sorted_terms():
            (u1, u2), t_exps = exps[:2], exps[2:]
            if u1 < 0 and u2 < 0 and cover.twist(t_exps, r, c) - u1 - u2 < 0:
                hits.append((f"entry {(r, c)} monomial {list(exps)}", format_fraction(coeff)))
    return hits


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
        v = c.values[simplex]  # every cochain value is a matrix, 1 x 1 for a FUNCTION
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
        return dumps_indented(self.to_json()) + "\n"


# -- the pipeline -----------------------------------------------------------------


def _closedness_verdict(ctx: CechContext, c2: CechCochain) -> str:
    if not ctx.nerve.quadruples():
        return "vacuous"
    return "verified" if cech_differential(ctx, c2).is_zero() else "FAILED"


def _window_notes(status) -> List[str]:
    if not isinstance(status, Solved) or status.h1_oracle in (None, status.torsor_dim):
        return []
    if status.torsor_dim > status.h1_oracle:
        return [
            f"window overcounts the torsor: {status.torsor_dim} dimensions counted "
            f"against the oracle's {status.h1_oracle}"
        ]
    return [
        f"window undercounts the torsor: {status.torsor_dim} of "
        f"{status.h1_oracle} oracle dimensions reachable"
    ]


def _order_report(
    cover: Optional[Cover],
    ctx: CechContext,
    order: int,
    target: CechCochain,
    window: Tuple[int, int],
) -> ObstructionReport:
    """Check closedness of one order's obstruction, solve it and read it against the cover.

    A solved order carries the h^1 count of the cover's twists.  A nonzero
    certificate is tried only on a cochain that is not known to be
    unclosed: the class of a cochain with a nonzero coboundary is not
    defined, so certifying it would prove nothing.
    """
    closedness = _closedness_verdict(ctx, target)
    unclosed = closedness == "FAILED"
    status = solve_coboundary(ctx, target, window)
    if isinstance(status, Solved):
        if cover is not None:
            e = ctx.bundle.rank
            twists = [
                cover.twist(tm, r, c)
                for tm in ctx.nerve.chart_rings[0].t_monomials(order)
                for r, c in iproduct(range(e), range(e))
            ]
            status.h1_oracle = cohomology.cohomology_dim(cover.space, twists)[1]
    elif not unclosed:
        coords = h2_weight_test(cover, target)
        if coords:
            status = ProvenNonzero(coords)
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
    input error, and so is a window, given or the scenario's, that is not
    two integers lo <= hi.
    """
    if not 1 <= k <= s.max_order:
        raise ParseError(
            f"order {k} requested but orders run from 1 to the scenario's "
            f"max_order {s.max_order}, the order its data is checked to"
        )
    window = _window(s.window if window is None else window)
    log = validate_scenario(s)
    if not log.ok:
        raise ParseError(
            "scenario failed validation: "
            + "; ".join(
                f"{e.check}@{e.location}: {e.detail}" for e in log.entries if not e.ok
            )
        )
    ctx = build_context(s, k)
    cover = detect_cover(ctx)
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
        report = _order_report(cover, ctx, order, lift_obstruction(ctx, G, order), window)
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
    the window-supported lambda on the doubles at t-degrees 1..k.  Only the
    blocks of the system that rho touches are eliminated; ``unknowns`` and
    ``constraints`` count the whole system.
    """
    solved = solve_delta(ctx, transition_log_defect(ctx), range(1, ctx.order + 1), window)
    return {
        "exact": solved.solution.consistent,
        "unknowns": solved.unknowns,
        "constraints": solved.constraints,
    }


# -- builtin generators ---------------------------------------------------------------


def generate_builtin(name: str, d: int = 0, twist: Fraction | int = 0) -> Scenario:
    """Exact adapted-coordinate presentations of the shipped embeddings."""
    if type(d) is not int:
        raise ParseError(f"builtin degree d must be an int, not {d!r}")
    twist = Fraction(twist)
    build = _BUILTINS.get(name)
    if build is None:
        raise UnknownScenario(f"unknown scenario {name!r}; builtins: {', '.join(BUILTIN_NAMES)}")
    return build(d, twist)


def _P(terms) -> LaurentPoly:
    """A builtin's polynomial on u1..up, t1, with p read off the exponent length."""
    return LaurentPoly(_names(len(next(iter(terms))) - 1, 1), terms)


def _rank_one(name, p, charts_inverted, overlaps, triples, g, window) -> Scenario:
    """A line bundle checked to order three: q = 1, zero connections, flat on every chart."""
    zero = PolyMatrix.zero(1, 1, _names(p, 1))
    return Scenario(
        name=name,
        p=p,
        q=1,
        e=1,
        max_order=3,
        charts_inverted=charts_inverted,
        overlaps=overlaps,
        triples=triples,
        g=g,
        gammas=[[zero] * p for _ in charts_inverted],
        flat=[True] * len(charts_inverted),
        window=window,
    )


def _p1_two_chart(name, forward_u, forward_t, backward_u, backward_t, d, window=(-6, 6)):
    overlap = OverlapSpec(
        (0, 1),
        {0: ((1,),), 1: ((1,),)},
        (forward_u,),
        (forward_t,),
        (backward_u,),
        (backward_t,),
    )
    g01 = PolyMatrix([[_P({(d, 0): 1})]])
    return _rank_one(name, 1, [(), ()], [overlap], [], {(0, 1): g01}, window)


def _line_in_p2(d: int, twist: Fraction) -> Scenario:
    c = twist
    fwd_u = _P({(-1, 0): 1, (-1, 1): c})
    fwd_t = _P({(-1, 1): 1})
    bwd_u = _P({(-1, 0): 1, (-2, 1): c, (-3, 2): c * c, (-4, 3): c ** 3})
    bwd_t = _P({(-1, 1): 1, (-2, 2): c, (-3, 3): c * c})
    return _p1_two_chart("line_in_p2", fwd_u, fwd_t, bwd_u, bwd_t, d)


def _diagonal_p1xp1(d: int) -> Scenario:
    inv_u = _P({(-1, 0): 1})
    series_t = _P({(-2, 1): -1, (-3, 2): 1, (-4, 3): -1})
    return _p1_two_chart("diagonal_p1xp1", inv_u, series_t, inv_u, series_t, d)


def _p1_in_line_bundle(m: int) -> Scenario:
    inv_u, t = _P({(-1, 0): 1}), _P({(-m, 1): 1})
    # order-two classes live out to u^(-2m+1): keep the window wide enough
    half = max(6, 2 * abs(m))
    return _p1_two_chart(f"p1_in_line_bundle_{m}", inv_u, t, inv_u, t, 0, (-half, half))


def _hyperplane_p2_in_p3(d: int, twist: Fraction) -> Scenario:
    c = twist
    u1i = {(-1, 0, 0): 1}
    # overlap (0,1): chart-1 generators (v1, v2~, s) in chart-0 coordinates,
    # where the twist shifts the second tangential coordinate: v2~ = v2 + c s
    f01_u = (_P(u1i), _P({(-1, 1, 0): 1, (-1, 0, 1): c}))
    # backward is exact: u1 = 1/v1, u2 = (v2~ - c s)/v1, t = s/v1
    b01_u = (_P(u1i), _P({(-1, 1, 0): 1, (-1, 0, 1): -c}))
    b01_t = (_P({(-1, 0, 1): 1}),)
    f01_t = (_P({(-1, 0, 1): 1}),)

    # overlap (0,2): chart-2 (w1, w2, s') in chart-0 coordinates, untwisted;
    # backward: u1 = w2/w1, u2 = 1/w1, t = s'/w1
    f02_u = (_P({(0, -1, 0): 1}), _P({(1, -1, 0): 1}))
    f02_t = (_P({(0, -1, 1): 1}),)
    b02_u = (_P({(-1, 1, 0): 1}), _P({(-1, 0, 0): 1}))
    b02_t = (_P({(-1, 0, 1): 1}),)

    # overlap (1,2): chart-2 in (possibly twisted) chart-1 coordinates;
    # with the twist, 1/v2 = (v2~ - c s)^(-1) expands as a geometric series
    inv = {
        (0, -1, 0): Fraction(1),
        (0, -2, 1): c,
        (0, -3, 2): c * c,
        (0, -4, 3): c ** 3,
    }
    shift = lambda dv1, dt: {
        (a + dv1, b, cc + dt): v for (a, b, cc), v in inv.items()
    }
    f12_u = (_P(shift(1, 0)), _P(inv))
    f12_t = (_P(shift(0, 1)),)
    b12_u = (_P({(1, -1, 0): 1}), _P({(0, -1, 0): 1, (0, -1, 1): c}))
    b12_t = (_P({(0, -1, 1): 1}),)

    g01 = PolyMatrix([[_P({(d, 0, 0): 1})]])
    g02 = PolyMatrix([[_P({(0, d, 0): 1})]])
    g12 = PolyMatrix([[_P({(0, d, 0): 1})]])
    return _rank_one(
        "hyperplane_p2_in_p3",
        p=2,
        charts_inverted=[(), (), ()],
        overlaps=[
            OverlapSpec((0, 1), {0: ((1, 0),), 1: ((1, 0),)}, f01_u, f01_t, b01_u, b01_t),
            OverlapSpec((0, 2), {0: ((0, 1),), 2: ((1, 0),)}, f02_u, f02_t, b02_u, b02_t),
            OverlapSpec((1, 2), {1: ((0, 1),), 2: ((0, 1),)}, f12_u, f12_t, b12_u, b12_t),
        ],
        triples=[TripleSpec((0, 1, 2), ((1, 0), (0, 1)))],
        g={(0, 1): g01, (0, 2): g02, (1, 2): g12},
        window=(-3, 3),
    )


# the one table behind ``generate_builtin``, its error message and BUILTIN_NAMES
_BUILTINS = {
    "affine_split": lambda d, twist: _rank_one("affine_split", 1, [()], [], [], {}, (-4, 4)),
    "line_in_p2": _line_in_p2,
    "diagonal_p1xp1": lambda d, twist: _diagonal_p1xp1(d),
    "hyperplane_p2_in_p3": _hyperplane_p2_in_p3,
    "p1_in_line_bundle": lambda d, twist: _p1_in_line_bundle(int(d)),
}
BUILTIN_NAMES = tuple(_BUILTINS)
# the builtins with an adapted-coordinate twist family; the others ignore ``twist``
TWISTED_BUILTINS = ("line_in_p2", "hyperplane_p2_in_p3")
