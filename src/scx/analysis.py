"""Analysis reports and the statement-verification harness.

``analyze`` bundles every invariant of one complex into a report whose
JSON form is canonical and versioned.  ``verify_property`` evaluates one
of the registered statements on one complex, returning pass, fail (with a
counterexample payload) or skip (with the unmet hypothesis): statements
are conditional, so an unmet hypothesis must never count as a pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from .banner import (
    BannerClass,
    _link_banner_value,
    banner_number,
    classify,
    classify_tilde_cliques,
)
from .complexes import SimplicialComplex
from .errors import EmptyOutside, NotPure, ScxError, UnknownProperty
from .generators import catalog, display_name
from .graphs import (
    is_outside_connected,
    neighborhood,
    skeleton,
    vertex_connectivity,
)
from .homology import z2_betti, z2_relative_betti
from .manifold import is_pseudomanifold, manifold_class, verify_barnette_antistar

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
    checked = mc.pseudomanifold == "closed" and bool(mc.normal)
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
        bound_checked=checked,
        bound_satisfied=(conn.value >= bound) if bound is not None else None,
    )


_REPORT_KEYS = [
    "schema",
    "name",
    "dim",
    "f_vector",
    "pseudomanifold",
    "strongly_connected",
    "normal",
    "homology_manifold",
    "homology_sphere",
    "betti",
    "flag",
    "strongly_banner",
    "banner",
    "banner_witness",
    "banner_number",
    "banner_number_witness",
    "connectivity",
    "connectivity_certificate",
    "bound",
    "bound_checked",
    "bound_satisfied",
]


def report_json(r: AnalysisReport) -> str:
    data = {"schema": SCHEMA}
    for key in _REPORT_KEYS[1:]:
        value = getattr(r, key)
        if isinstance(value, tuple):
            value = list(value)
        data[key] = value
    return json.dumps(data, indent=2) + "\n"


def report_from_json(text: str) -> AnalysisReport:
    data = json.loads(text)
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
        if key in ("f_vector", "betti"):
            value = tuple(value)
        kwargs[key] = value
    return AnalysisReport(**kwargs)


# -- property checks -----------------------------------------------------


@dataclass(frozen=True)
class PropertyCheckResult:
    property_id: str
    verdict: str  # "pass", "fail" or "skip"
    detail: str
    payload: dict | None = None


def _skip(pid: str, reason: str) -> PropertyCheckResult:
    return PropertyCheckResult(pid, "skip", reason)


def _ok(pid: str, detail: str) -> PropertyCheckResult:
    return PropertyCheckResult(pid, "pass", detail)


def _fail(pid: str, detail: str, payload: dict) -> PropertyCheckResult:
    return PropertyCheckResult(pid, "fail", detail, payload)


def _closed_normal(c: SimplicialComplex) -> bool:
    return is_pseudomanifold(c) == "closed" and manifold_class(c).normal is True


def _check_t11(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "T1.1"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if not _closed_normal(c):
        return _skip(pid, "not a closed normal pseudomanifold")
    if c.dim < 1:
        return _skip(pid, "the 0-sphere has no banner number")
    bn = banner_number(c)
    if bn.value is None:
        return _fail(pid, "banner number undefined", {"failing_face": bn.failing_face})
    bound = 2 * c.dim - bn.value
    kappa = vertex_connectivity(skeleton(c)).value
    if kappa >= bound:
        return _ok(pid, f"connectivity {kappa} >= bound {bound}")
    return _fail(
        pid,
        f"connectivity {kappa} below bound {bound}",
        {"connectivity": kappa, "bound": bound},
    )


def _check_t41(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "T4.1"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if not _closed_normal(c):
        return _skip(pid, "not a closed normal pseudomanifold")
    if not classify(c).banner:
        return _skip(pid, "not banner")
    kappa = vertex_connectivity(skeleton(c)).value
    if kappa >= 2 * c.dim:
        return _ok(pid, f"connectivity {kappa} >= {2 * c.dim}")
    return _fail(pid, f"connectivity {kappa} below {2 * c.dim}", {"connectivity": kappa})


def _check_a32(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "A3.2-special-case"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if is_pseudomanifold(c) != "closed":
        return _skip(pid, "not a closed pseudomanifold")
    if not classify(c).flag:
        return _skip(pid, "not flag")
    kappa = vertex_connectivity(skeleton(c)).value
    if kappa >= 2 * c.dim:
        return _ok(pid, f"connectivity {kappa} >= {2 * c.dim}")
    return _fail(pid, f"connectivity {kappa} below {2 * c.dim}", {"connectivity": kappa})


def _check_l21(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L2.1"
    if not c.is_pure or is_pseudomanifold(c) != "closed":
        return _skip(pid, "not a closed pseudomanifold")
    ok, witness = verify_barnette_antistar(c)
    if ok:
        return _ok(pid, f"all {c.n_vertices} antistars strongly connected")
    return _fail(pid, f"antistar of {witness} not strongly connected", {"vertex": witness})


def _banner_closed_gate(c: SimplicialComplex, pid: str) -> PropertyCheckResult | None:
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if is_pseudomanifold(c) != "closed":
        return _skip(pid, "not a closed pseudomanifold")
    if not classify(c).banner:
        return _skip(pid, "not banner")
    return None


def _check_l42(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L4.2"
    gate = _banner_closed_gate(c, pid)
    if gate is not None:
        return gate
    hoods = {v: neighborhood(c, v) for v in c.vertices}
    pairs = 0
    for x, y in c.faces(2):
        pairs += 1
        if hoods[y] <= hoods[x] or hoods[x] <= hoods[y]:
            return _fail(
                pid, f"neighborhood containment on edge {x}-{y}", {"edge": [x, y]}
            )
    return _ok(pid, f"no neighborhood containment over {pairs} edges")


def _check_l43(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L4.3"
    gate = _banner_closed_gate(c, pid)
    if gate is not None:
        return gate
    if skeleton(c).is_complete():
        return _fail(pid, "skeleton is a complete graph", {})
    return _ok(pid, "skeleton is not complete")


def _check_l44(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L4.4"
    gate = _banner_closed_gate(c, pid)
    if gate is not None:
        return gate
    for v in c.vertices:
        try:
            if not is_outside_connected(c, v):
                return _fail(
                    pid,
                    f"non-neighborhood of {v} is disconnected",
                    {"vertex": v},
                )
        except EmptyOutside:
            return _fail(pid, f"every vertex is adjacent to {v}", {"vertex": v})
    return _ok(pid, f"non-neighborhoods connected for all {c.n_vertices} vertices")


def _check_l44_homological(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L4.4-homological"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if c.dim < 1:
        return _skip(pid, "non-neighborhoods are empty in dimension 0")
    if not classify(c).banner:
        return _skip(pid, "not banner")
    mc = manifold_class(c)
    if not mc.homology_manifold:
        return _skip(pid, "not a homology manifold")
    d = c.dim
    for v in c.vertices:
        hood = c.induced(neighborhood(c, v))
        betti = z2_betti(hood)
        betti += (0,) * (d + 1 - len(betti))
        if betti[d] != 0 or (d >= 1 and betti[d - 1] != 0):
            return _fail(
                pid,
                f"neighborhood complex of {v} has top homology",
                {"vertex": v, "betti": list(betti)},
            )
        rel = z2_relative_betti(c, hood)
        rel_top = rel[d] if d < len(rel) else 0
        try:
            connected = is_outside_connected(c, v)
        except EmptyOutside:
            return _fail(pid, f"every vertex is adjacent to {v}", {"vertex": v})
        if rel_top != 1 or not connected:
            return _fail(
                pid,
                f"relative top Betti {rel_top} vs outside connected {connected} at {v}",
                {"vertex": v, "relative_betti": list(rel)},
            )
    return _ok(pid, "relative top homology matches outside connectivity at all vertices")


def _check_l52(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "L5.2"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    bn = banner_number(c)
    if bn.value is None:
        return _skip(pid, "banner number undefined")
    for size in range(1, bn.value + 1):
        for face in sorted(c.faces(size)):
            sub = _link_banner_value(c, face)
            if sub is None or sub > bn.value - size:
                return _fail(
                    pid,
                    f"link of {face} breaks the banner-number inequality",
                    {"face": list(face), "link_value": sub, "value": bn.value},
                )
    return _ok(pid, f"inequality holds below level {bn.value}")


def _check_p37(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "P3.7"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if c.dim < 2:
        return _skip(pid, "links of a 1-dimensional complex are bare vertex pairs")
    cls = classify(c)
    if not cls.banner:
        return _skip(pid, "not banner")
    for v in c.vertices:
        sub = classify(c.link((v,)))
        if not sub.banner or (cls.strongly_banner and not sub.strongly_banner):
            return _fail(pid, f"link of {v} loses the property", {"vertex": v})
    return _ok(pid, "links inherit banner (and strongly banner) status")


def _triple(cls: BannerClass) -> list[bool]:
    return [cls.flag, cls.strongly_banner, cls.banner]


def _properties_equal(a: BannerClass, b: BannerClass) -> bool:
    return _triple(a) == _triple(b)


def _check_p38i(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "P3.8i"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if c.dim < 1:
        return _skip(pid, "cone equivalence starts at dimension 1")
    base, coned = classify(c), classify(c.cone())
    if _properties_equal(base, coned):
        return _ok(pid, "cone preserves flag / strongly banner / banner")
    return _fail(
        pid,
        "cone changes a banner-hierarchy property",
        {"base": _triple(base), "cone": _triple(coned)},
    )


def _check_p38ii(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "P3.8ii"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if c.dim < 1:
        return _skip(pid, "suspension equivalence starts at dimension 1")
    base, susp = classify(c), classify(c.suspension())
    if _properties_equal(base, susp):
        return _ok(pid, "suspension preserves flag / strongly banner / banner")
    return _fail(
        pid,
        "suspension changes a banner-hierarchy property",
        {"base": _triple(base), "suspension": _triple(susp)},
    )


def _check_p38iii(c: SimplicialComplex) -> PropertyCheckResult:
    pid = "P3.8iii"
    if not c.is_pure:
        return _skip(pid, "complex is not pure")
    if c.dim < 1:
        return _skip(pid, "a 0-dimensional complex has no boundary to cone over")
    if c.dim < 2:
        return _skip(pid, "a 1-dimensional boundary is bare points, which are never banner")
    if is_pseudomanifold(c) != "with_boundary":
        return _skip(pid, "not a pseudomanifold with boundary")
    for j in range(1, c.dim + 3):
        if classify_tilde_cliques(c, j).stranded:
            return _skip(pid, f"stranded {j}-cliques block the product rule")
    bd = c.boundary()
    assert bd is not None
    base, rim, closed = classify(c), classify(bd), classify(c.tilde())
    for prop in ("flag", "strongly_banner", "banner"):
        lhs = getattr(closed, prop)
        rhs = getattr(base, prop) and getattr(rim, prop)
        if lhs != rhs:
            return _fail(
                pid,
                f"{prop} does not transfer through the boundary cone",
                {"property": prop, "closed": lhs, "ball_and_boundary": rhs},
            )
    return _ok(pid, "boundary cone preserves the property conjunction")


_CHECKS: dict[str, Callable[[SimplicialComplex], PropertyCheckResult]] = {
    "T1.1": _check_t11,
    "T4.1": _check_t41,
    "L2.1": _check_l21,
    "L4.2": _check_l42,
    "L4.3": _check_l43,
    "L4.4": _check_l44,
    "L4.4-homological": _check_l44_homological,
    "L5.2": _check_l52,
    "P3.7": _check_p37,
    "P3.8i": _check_p38i,
    "P3.8ii": _check_p38ii,
    "P3.8iii": _check_p38iii,
    "A3.2-special-case": _check_a32,
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
            return CorpusRow(name, pid, res.verdict, res.detail)
        except NotPure:
            return CorpusRow(name, pid, "skip", "complex is not pure")
        except ScxError as exc:
            return CorpusRow(name, pid, "error", f"{type(exc).__name__}: {exc}")

    rows = [run(name, pid, c) for name, c in named for pid in props]
    rows.sort(key=lambda r: (r.name, r.property_id))
    errors = tuple(
        f"{r.name} {r.property_id}: {r.detail}" for r in rows if r.verdict == "error"
    )
    return CorpusSummary(tuple(rows), errors)
