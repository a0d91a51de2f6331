"""Analysis reports and the statement-verification harness.

``analyze`` bundles every invariant of one complex into a report whose
JSON form is canonical and versioned.  ``verify_property`` evaluates one
of the registered statements on one complex, returning pass, fail (with a
counterexample payload) or skip (with the unmet hypothesis): statements
are conditional, so an unmet hypothesis must never count as a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable

from .banner import (
    BannerClass,
    _level_holds,
    _link_banner,
    _link_banner_value,
    banner_number,
    classify,
)
from .complexes import SimplicialComplex
from .errors import EmptyOutside, NotPure, ScxError, UnknownProperty
from .generators import catalog, display_name
from .graphs import _adjacency_masks, _reach, is_outside_connected, skeleton, vertex_connectivity
from .homology import z2_betti, z2_relative_betti
from .manifold import (
    _ridge_graph,
    _vertex_facets,
    is_pseudomanifold,
    manifold_class,
    verify_barnette_antistar,
)

SCHEMA = "scx-report/1"


@dataclass(frozen=True)
class AnalysisReport:
    name: str
    dim: int
    f_vector: tuple[int, ...]
    pseudomanifold: str
    strongly_connected: bool
    normal: bool | None
    homology_manifold: bool
    homology_sphere: bool
    betti: tuple[int, ...]
    flag: bool
    strongly_banner: bool
    banner: bool
    banner_witness: dict | None
    banner_number: int | None
    banner_number_witness: dict
    connectivity: int
    connectivity_certificate: dict | None
    bound: int | None
    bound_checked: bool
    bound_satisfied: bool | None


def analyze(c: SimplicialComplex, name: str = "complex") -> AnalysisReport:
    """Compute every invariant; the connectivity bound comparison is
    recorded unconditionally but only counts as checked when the complex
    is a closed normal pseudomanifold."""
    if not c.is_pure:
        raise NotPure("analysis reports are defined for pure complexes")
    mc = manifold_class(c)
    cls = classify(c)
    bn = banner_number(c)
    conn = vertex_connectivity(skeleton(c))

    witness = None
    if cls.witness is not None:
        witness = {
            "level": cls.witness.level,
            "kind": cls.witness.kind,
            "vertices": list(cls.witness.vertices),
        }
    certificate: dict | None
    if conn.complete:
        certificate = {"complete": True}
    elif conn.cut is not None:
        certificate = {"cut": list(conn.cut.vertices), "pair": list(conn.cut.pair)}
    else:
        certificate = None

    bound = 2 * c.dim - bn.value if bn.value is not None else None
    return AnalysisReport(
        name=name,
        dim=c.dim,
        f_vector=c.f_vector(),
        pseudomanifold=mc.pseudomanifold,
        strongly_connected=mc.strongly_connected,
        normal=mc.normal,
        homology_manifold=mc.homology_manifold,
        homology_sphere=mc.homology_sphere,
        betti=z2_betti(c),
        flag=cls.flag,
        strongly_banner=cls.strongly_banner,
        banner=cls.banner,
        banner_witness=witness,
        banner_number=bn.value,
        banner_number_witness={
            "passed_faces": bn.passed_faces,
            "failing_face": list(bn.failing_face) if bn.failing_face else None,
        },
        connectivity=conn.value,
        connectivity_certificate=certificate,
        bound=bound,
        bound_checked=CLOSED_NORMAL[0](c),
        bound_satisfied=(conn.value >= bound) if bound is not None else None,
    )


_REPORT_KEYS = ["schema"] + [f.name for f in fields(AnalysisReport)]
# the JSON type of each report field, read off its annotation: a tuple is a
# list of ints, and bool is not an int
_JSON_TYPES = {
    "str": str, "int": int, "bool": bool, "dict": dict, "None": type(None),
    "tuple[int,...]": list,
}
_REPORT_TYPES = {
    f.name: tuple(_JSON_TYPES[t] for t in f.type.replace(" ", "").split("|"))
    for f in fields(AnalysisReport)
}


def _is(t: type) -> Callable[[object], bool]:
    return lambda v: type(v) is t


def _labels(v: object) -> bool:
    return type(v) is list and all(type(x) is str for x in v)


# the shapes a dict field may take, as key -> test of its value; a dict must
# match one of them exactly
_DICT_SHAPES = {
    "banner_witness": [{"level": _is(str), "kind": _is(str), "vertices": _labels}],
    "banner_number_witness": [
        {"passed_faces": _is(int), "failing_face": lambda v: v is None or _labels(v)},
    ],
    "connectivity_certificate": [{"complete": _is(bool)}, {"cut": _labels, "pair": _labels}],
}


def report_json(r: AnalysisReport) -> str:
    data = {"schema": SCHEMA}
    for key in _REPORT_KEYS[1:]:
        value = getattr(r, key)
        if isinstance(value, tuple):
            value = list(value)
        data[key] = value
    return json.dumps(data, indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScxError(f"report is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ScxError("report is not a JSON object")
    if data.get("schema") != SCHEMA:
        raise ScxError(f"unsupported report schema {data.get('schema')!r}")
    unknown = set(data) - set(_REPORT_KEYS)
    if unknown:
        raise ScxError(f"unknown report fields: {sorted(unknown)}")
    missing = set(_REPORT_KEYS) - set(data)
    if missing:
        raise ScxError(f"missing report fields: {sorted(missing)}")
    kwargs = {}
    for key in _REPORT_KEYS[1:]:
        value = data[key]
        if type(value) not in _REPORT_TYPES[key]:
            raise ScxError(f"report field {key!r} has the wrong type: {value!r}")
        if type(value) is list:
            if any(type(x) is not int for x in value):
                raise ScxError(f"report field {key!r} holds a non-integer: {value!r}")
            value = tuple(value)
        if type(value) is dict and not any(
            value.keys() == shape.keys() and all(ok(value[k]) for k, ok in shape.items())
            for shape in _DICT_SHAPES[key]
        ):
            raise ScxError(f"report field {key!r} has the wrong shape: {value!r}")
        kwargs[key] = value
    return AnalysisReport(**kwargs)


# -- property checks -----------------------------------------------------
# A check is a list of (predicate, skip reason) hypotheses and a conclusion
# that returns ``(verdict, detail[, payload])``.  The first unmet hypothesis,
# in order, is the skip reason, so later predicates may assume earlier ones.


@dataclass(frozen=True)
class PropertyCheckResult:
    property_id: str
    verdict: str  # "pass", "fail" or "skip"
    detail: str
    payload: dict | None = None


if TYPE_CHECKING:  # typing caches subscripted aliases, which would pin each re-import
    Hypothesis = tuple[Callable[[SimplicialComplex], bool], str]
    Conclusion = Callable[[SimplicialComplex], tuple]
    Check = Callable[[SimplicialComplex], PropertyCheckResult]

PURE: Hypothesis = (lambda c: c.is_pure, "complex is not pure")
CLOSED: Hypothesis = (
    lambda c: c.is_pure and is_pseudomanifold(c) == "closed",
    "not a closed pseudomanifold",  # L2.1 gives this reason on non-pure input too
)
CLOSED_NORMAL: Hypothesis = (
    lambda c: is_pseudomanifold(c) == "closed" and manifold_class(c).normal is True,
    "not a closed normal pseudomanifold",
)
WITH_BOUNDARY: Hypothesis = (
    lambda c: is_pseudomanifold(c) == "with_boundary",
    "not a pseudomanifold with boundary",
)
BANNER: Hypothesis = (lambda c: classify(c).banner, "not banner")
FLAG: Hypothesis = (lambda c: classify(c).flag, "not flag")
HOMOLOGY_MANIFOLD: Hypothesis = (
    lambda c: manifold_class(c).homology_manifold,
    "not a homology manifold",
)
BANNER_NUMBER: Hypothesis = (
    lambda c: banner_number(c).value is not None,
    "banner number undefined",
)


def dim_at_least(k: int, reason: str) -> Hypothesis:
    return (lambda c: c.dim >= k, reason)


def _bound_holds(c: SimplicialComplex) -> tuple:
    bn = banner_number(c)
    if bn.value is None:
        return "fail", "banner number undefined", {"failing_face": bn.failing_face}
    bound = 2 * c.dim - bn.value
    kappa = vertex_connectivity(skeleton(c)).value
    if kappa >= bound:
        return "pass", f"connectivity {kappa} >= bound {bound}"
    payload = {"connectivity": kappa, "bound": bound}
    return "fail", f"connectivity {kappa} below bound {bound}", payload


def _kappa_at_least_2d(c: SimplicialComplex) -> tuple:
    kappa = vertex_connectivity(skeleton(c)).value
    if kappa >= 2 * c.dim:
        return "pass", f"connectivity {kappa} >= {2 * c.dim}"
    return "fail", f"connectivity {kappa} below {2 * c.dim}", {"connectivity": kappa}


def _antistars_connected(c: SimplicialComplex) -> tuple:
    ok, witness = verify_barnette_antistar(c)
    if ok:
        return "pass", f"all {c.n_vertices} antistars strongly connected"
    return "fail", f"antistar of {witness} not strongly connected", {"vertex": witness}


def _no_neighborhood_containment(c: SimplicialComplex) -> tuple:
    # closed neighborhoods as bitmasks; edges in id order, which is label order
    masks = _adjacency_masks(c)
    edges = sorted(c.faces_ids(2))
    for x, y in edges:
        hx, hy = masks[x] | 1 << x, masks[y] | 1 << y
        if hx & hy in (hx, hy):
            a, b = c.vertices[x], c.vertices[y]
            return "fail", f"neighborhood containment on edge {a}-{b}", {"edge": [a, b]}
    return "pass", f"no neighborhood containment over {len(edges)} edges"


def _skeleton_not_complete(c: SimplicialComplex) -> tuple:
    if skeleton(c).is_complete():
        return "fail", "skeleton is a complete graph", {}
    return "pass", "skeleton is not complete"


def _outsides_connected(c: SimplicialComplex) -> tuple:
    for v in c.vertices:
        try:
            if not is_outside_connected(c, v):
                return "fail", f"non-neighborhood of {v} is disconnected", {"vertex": v}
        except EmptyOutside:
            return "fail", f"every vertex is adjacent to {v}", {"vertex": v}
    return "pass", f"non-neighborhoods connected for all {c.n_vertices} vertices"


# L4.4-homological compares two numbers computed independently: the top
# relative Betti number of (c, c[N[v]]) and the connectivity of the skeleton
# outside N[v] (``is_outside_connected``).  Lefschetz duality is what makes
# them agree, so the check stays a test of the lemma.  On a homology manifold
# every ridge lies in exactly two facets, so the top boundary map of the pair
# is the incidence matrix of a graph: its nodes are the facets not inside
# N[v] and its edges the ridges not inside N[v] (both facets of such a ridge
# leave N[v] too).  A GF(2) vector on the nodes is a cycle exactly when it is
# constant on each component, so the top relative Betti number is the number
# of components; the full ranks of the pair are taken only on a failure.


def _outside_facet_components(c: SimplicialComplex, near: int) -> int:
    """Components of the facets not inside the vertex bitmask ``near``,
    joined by the ridges not inside it.

    Every ridge of a facet with two vertices outside ``near`` has one
    outside it too; a facet with one, y, keeps the ridges that hold y,
    which it shares with the facets holding y.
    """
    holding = _vertex_facets(c)
    joins = list(_ridge_graph(c))
    rest = 0
    for a, g in enumerate(c._masks):
        out = g & ~near
        if out:
            rest |= 1 << a
            if not out & (out - 1):
                joins[a] &= holding[out.bit_length() - 1]
    count = 0
    while rest:
        rest &= ~_reach(joins, rest & -rest, rest)
        count += 1
    return count


def _relative_homology_matches(c: SimplicialComplex) -> tuple:
    d = c.dim
    adjacency = _adjacency_masks(c)
    for i, v in enumerate(c.vertices):
        near = adjacency[i] | 1 << i
        hood = c._induced(near)
        betti = z2_betti(hood)
        betti += (0,) * (d + 1 - len(betti))
        if betti[d] != 0 or betti[d - 1] != 0:
            payload = {"vertex": v, "betti": list(betti)}
            return "fail", f"neighborhood complex of {v} has top homology", payload
        rel_top = _outside_facet_components(c, near)
        try:
            connected = is_outside_connected(c, v)
        except EmptyOutside:
            return "fail", f"every vertex is adjacent to {v}", {"vertex": v}
        if rel_top != 1 or not connected:
            rel = z2_relative_betti(c, hood)
            if rel[d] != rel_top:
                raise AssertionError("facet components disagree with the relative Betti number")
            detail = f"relative top Betti {rel_top} vs outside connected {connected} at {v}"
            return "fail", detail, {"vertex": v, "relative_betti": list(rel)}
    return "pass", "relative top homology matches outside connectivity at all vertices"


def _link_values_bounded(c: SimplicialComplex) -> tuple:
    """L5.2: the link of every face F with |F| <= b has banner number at most b - |F|.

    One scan of the link table at level b certifies a pass.  The
    (b - |F|)-vertex faces of lk F are the sets G with F u G a b-face, and
    lk_{lk F}(G) = lk(F u G), so if the link of every b-face is banner or a
    triangle, level b - |F| of lk F passes.  In a pure complex every face
    of at most b <= d - 1 vertices lies in a b-face, and ``banner_number``
    has already checked every b-face to return ``value = b``.  Only when
    the scan misses are the exact link values computed, face by face, to
    find the failing face.
    """
    value = banner_number(c).value
    if _level_holds(c, value):
        return "pass", f"inequality holds below level {value}"
    for size in range(1, value + 1):
        for face in sorted(c.faces(size)):
            sub = _link_banner_value(c, face)
            if sub is None or sub > value - size:
                payload = {"face": list(face), "link_value": sub, "value": value}
                return "fail", f"link of {face} breaks the banner-number inequality", payload
    return "pass", f"inequality holds below level {value}"


def _links_inherit(c: SimplicialComplex) -> tuple:
    """P3.7: the link of every vertex of a banner (strongly banner) complex
    of dimension d >= 2 is banner (strongly banner).

    The link table answers both sides.  It answers banner-or-triangle, and
    with c banner the link of no vertex v is a triangle abc: only for d = 2
    is it a graph, and then v, a, b, c span a simplex boundary if abc is a
    face and abc is a critical non-spanning clique if not.  For c strongly
    banner, let K be a d-clique of the skeleton of lk v.  Then K + v is a
    (d+1)-clique of c, so it is a facet, so K is a facet of lk v.  Hence
    lk v is strongly banner exactly when it is banner.
    """
    for i, v in enumerate(c.vertices):
        if not _link_banner(c, (i,)):
            return "fail", f"link of {v} loses the property", {"vertex": v}
    return "pass", "links inherit banner (and strongly banner) status"


def _triple(cls: BannerClass) -> list[bool]:
    return [cls.flag, cls.strongly_banner, cls.banner]


def _preserves_triple(construction: str) -> Conclusion:
    """P3.8i/ii: ``c.cone()`` or ``c.suspension()`` keeps the triple of ``c``."""

    def conclusion(c: SimplicialComplex) -> tuple:
        base, built = _triple(classify(c)), _triple(classify(getattr(c, construction)()))
        if base == built:
            return "pass", f"{construction} preserves flag / strongly banner / banner"
        payload = {"base": base, construction: built}
        return "fail", f"{construction} changes a banner-hierarchy property", payload

    return conclusion


def _boundary_cone_transfers(c: SimplicialComplex) -> tuple:
    """P3.8iii.  The cone apex is adjacent to the boundary vertices only, so
    it lies in a stranded clique exactly when an edge of ``c`` joins two
    boundary vertices without being a boundary edge: a stranded 3-clique."""
    bd = c.boundary()
    assert bd is not None
    ids = c._face_ids(bd.vertices)  # id i of bd is id ids[i] of c
    bd_edges = {(ids[a], ids[b]) for a, b in bd.faces_ids(2)}
    on_bd = set(ids)
    if any(a in on_bd and b in on_bd and (a, b) not in bd_edges for a, b in c.faces_ids(2)):
        return "skip", "stranded 3-cliques block the product rule"
    base, rim, closed = classify(c), classify(bd), classify(c._tilde(bd))
    for prop in ("flag", "strongly_banner", "banner"):
        lhs = getattr(closed, prop)
        rhs = getattr(base, prop) and getattr(rim, prop)
        if lhs != rhs:
            payload = {"property": prop, "closed": lhs, "ball_and_boundary": rhs}
            return "fail", f"{prop} does not transfer through the boundary cone", payload
    return "pass", "boundary cone preserves the property conjunction"


def _check(pid: str, hypotheses: list[Hypothesis], conclusion: Conclusion) -> Check:
    def check(c: SimplicialComplex) -> PropertyCheckResult:
        for holds, reason in hypotheses:
            if not holds(c):
                return PropertyCheckResult(pid, "skip", reason)
        return PropertyCheckResult(pid, *conclusion(c))

    return check


_CHECKS: dict[str, Check] = {
    pid: _check(pid, hypotheses, conclusion)
    for pid, hypotheses, conclusion in [
        (
            "T1.1",
            [PURE, CLOSED_NORMAL, dim_at_least(1, "the 0-sphere has no banner number")],
            _bound_holds,
        ),
        ("T4.1", [PURE, CLOSED_NORMAL, BANNER], _kappa_at_least_2d),
        ("L2.1", [CLOSED], _antistars_connected),
        ("L4.2", [PURE, CLOSED, BANNER], _no_neighborhood_containment),
        ("L4.3", [PURE, CLOSED, BANNER], _skeleton_not_complete),
        ("L4.4", [PURE, CLOSED, BANNER], _outsides_connected),
        (
            "L4.4-homological",
            [
                PURE,
                dim_at_least(1, "non-neighborhoods are empty in dimension 0"),
                BANNER,
                HOMOLOGY_MANIFOLD,
            ],
            _relative_homology_matches,
        ),
        ("L5.2", [PURE, BANNER_NUMBER], _link_values_bounded),
        (
            "P3.7",
            [
                PURE,
                dim_at_least(2, "links of a 1-dimensional complex are bare vertex pairs"),
                BANNER,
            ],
            _links_inherit,
        ),
        (
            "P3.8i",
            [PURE, dim_at_least(1, "cone equivalence starts at dimension 1")],
            _preserves_triple("cone"),
        ),
        (
            "P3.8ii",
            [PURE, dim_at_least(1, "suspension equivalence starts at dimension 1")],
            _preserves_triple("suspension"),
        ),
        (
            "P3.8iii",
            [
                PURE,
                dim_at_least(1, "a 0-dimensional complex has no boundary to cone over"),
                dim_at_least(
                    2, "a 1-dimensional boundary is bare points, which are never banner"
                ),
                WITH_BOUNDARY,
            ],
            _boundary_cone_transfers,
        ),
        ("A3.2-special-case", [PURE, CLOSED, FLAG], _kappa_at_least_2d),
    ]
}

PROPERTY_IDS = tuple(_CHECKS)


def verify_property(property_id: str, c: SimplicialComplex) -> PropertyCheckResult:
    """Evaluate one registered statement on one complex."""
    try:
        check = _CHECKS[property_id]
    except KeyError:
        raise UnknownProperty(
            f"unknown property {property_id!r}; known: {', '.join(PROPERTY_IDS)}"
        ) from None
    return check(c)


# -- corpus verification ---------------------------------------------------


@dataclass(frozen=True)
class CorpusRow:
    name: str
    property_id: str
    verdict: str  # "pass", "fail", "skip" or "error"
    detail: str
    payload: dict | None = None


@dataclass(frozen=True)
class CorpusSummary:
    rows: tuple[CorpusRow, ...]
    errors: tuple[str, ...]

    @property
    def failures(self) -> tuple[CorpusRow, ...]:
        return tuple(r for r in self.rows if r.verdict == "fail")

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.failures else 0


def verify_corpus(
    named: Iterable[tuple[str, SimplicialComplex]] | None = None,
    properties: Iterable[str] | None = None,
) -> CorpusSummary:
    """Run the property checks over the default corpus or given complexes.

    Rows are sorted by (name, property), so output is deterministic.  A
    check that raises ``ScxError`` on one input becomes an "error" row and
    an entry of ``errors``; the other rows are unaffected.
    """
    if named is None:
        named = [(display_name(spec), c) for spec, c in catalog()]
    else:
        named = list(named)
    props = list(properties) if properties is not None else list(PROPERTY_IDS)
    for pid in props:
        if pid not in _CHECKS:
            raise UnknownProperty(f"unknown property {pid!r}")

    def run(name: str, pid: str, c: SimplicialComplex) -> CorpusRow:
        try:
            res = verify_property(pid, c)
            return CorpusRow(name, pid, res.verdict, res.detail, res.payload)
        except ScxError as exc:
            return CorpusRow(name, pid, "error", f"{type(exc).__name__}: {exc}")

    rows = [run(name, pid, c) for name, c in named for pid in props]
    rows.sort(key=lambda r: (r.name, r.property_id))
    errors = tuple(
        f"{r.name} {r.property_id}: {r.detail}" for r in rows if r.verdict == "error"
    )
    return CorpusSummary(tuple(rows), errors)
