"""An exhaustive tier: every pure complex on at most five vertices, and
every antichain on at most four.

The fast paths rest on short combinatorial arguments whose edge cases are
the small complexes (d = 0 and d = 1, triangles, single facets, simplex
boundaries).  Rather than sample them, these tests take every family of
k-subsets of {0, ..., n-1} that uses all n vertices, for n <= 5: 1,817
complexes, one per family (relabelings included).  The antichains, the
families of subsets none inside another, add the non-pure complexes on
n <= 4 vertices, which pin the skip reasons.
"""

import functools
import itertools
import random
import runpy
from collections import Counter
from pathlib import Path

import pytest

from scx.analysis import (
    _outside_facet_components,
    _relative_homology_matches,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from scx.banner import banner_number, classify, classify_tilde_cliques, cliques_ids
from scx.complexes import (
    SimplicialComplex,
    _holding,
    _iter_bits,
    _mask,
    _maximal,
    loads,
)
from scx.errors import EmptyComplex, ScxError
from scx.generators import catalog
from scx.graphs import (
    _reach,
    is_outside_connected,
    skeleton,
    vertex_connectivity,
)
from scx.homology import _top_betti_inside, sphere_pattern, z2_betti
from scx.kernels import unit_maxflow
from scx.manifold import (
    _first_deviating_face,
    _may_follow,
    _residue_scan,
    _restriction,
    _ridge_graph,
    _shelled,
    _vertex_facets,
    facet_graph,
    is_homology_manifold,
    is_homology_sphere,
    is_normal,
    is_pseudomanifold,
    is_strongly_connected,
    manifold_class,
    verify_barnette_antistar,
    verify_shelling,
)

from oracles import (
    all_pairs_connectivity,
    banner_number_by_links,
    barnette_antistar_by_complexes,
    betti_by_dense_rank,
    brute_is_flag,
    built_fields,
    classify_by_labels,
    cliques_by_combinations,
    cliques_by_recursion,
    face_members,
    greedy_shelling_by_rescan,
    homology_manifold_ascending,
    link_values_bounded_by_links,
    links_inherit_by_links,
    maximal_by_pairs,
    normal_by_links,
    outside_connected_by_complexes,
    pair_cuts_by_split_network,
    pseudomanifold_by_ridge_counts,
    reach_by_bfs,
    relative_betti_by_complexes,
    relative_homology_matches_by_complexes,
    shelling_step_by_meets,
    strongly_connected_by_pairs,
    vertex_connectivity_by_split_network,
)
from test_banner import _compare_link_banner, _pinched_octahedron


def _every_pure_complex(max_n: int) -> list[SimplicialComplex]:
    out = []
    for n in range(1, max_n + 1):
        for k in range(1, n + 1):
            subsets = list(itertools.combinations(range(n), k))
            for r in range(1, len(subsets) + 1):
                for family in itertools.combinations(subsets, r):
                    if len({v for s in family for v in s}) == n:
                        out.append(SimplicialComplex([[f"x{v}" for v in s] for s in family]))
    return out


def _every_antichain(max_n: int) -> list[list[tuple[int, ...]]]:
    out = []
    for n in range(1, max_n + 1):
        subsets = [s for k in range(1, n + 1) for s in itertools.combinations(range(n), k)]
        for r in range(1, len(subsets) + 1):
            for family in itertools.combinations(subsets, r):
                if len({v for s in family for v in s}) == n and not any(
                    set(a) < set(b) for a, b in itertools.permutations(family, 2)
                ):
                    out.append(list(family))
    return out


def _outcome(fn, *args):
    """What a call did: ("value", result) or ("raise", exception type)."""
    try:
        return "value", fn(*args)
    except ScxError as exc:
        return "raise", type(exc)


def _built(fn, *args):
    """``_outcome`` of a construction, with a built complex read as its stored fields."""
    kind, value = _outcome(fn, *args)
    return (kind, built_fields(value)) if kind == "value" else (kind, value)


def _faces(c: SimplicialComplex):
    """Every face of ``c`` as a label tuple, the empty face first."""
    yield ()
    for k in range(1, c.dim + 2):
        yield from sorted(c.faces(k))


SMALL = _every_pure_complex(5)


def test_classify_matches_label_oracle_on_every_small_complex():
    assert len(SMALL) == 1817
    for c in SMALL:
        assert classify(c) == classify_by_labels(c), c.facets


def _fresh(c: SimplicialComplex) -> SimplicialComplex:
    """A copy of ``c`` with an empty memo."""
    return SimplicialComplex._from_ids(c.vertices, c._masks)


def _verdicts_match(c: SimplicialComplex, hm: tuple, normal: tuple | None, betti: tuple):
    """The separately cached manifold verdicts of fresh copies of ``c``
    against the oracle values ``hm``, ``normal`` (None off pseudomanifolds)
    and the reduced Betti numbers ``betti``, read in both orders; returns
    the banner number.  The Betti numbers are read after the bundle, which
    keeps a sphere's when the greedy shelling certifies one.

    In the order of ``verify`` normality comes first, and in the order of
    ``analyze`` the bundle does.  Either way normality comes from the
    greedy shelling when it certifies ``c``, else from the residue scan,
    and neither it nor the banner number's level d - 1 rule runs the rank
    scan of the homology-manifold check.
    """
    first = _fresh(c)
    if normal is not None:
        res = is_normal(first)
        assert (res.normal, res.witness) == normal, c.facets
        assert first._memo["shelled"] is None or normal == (True, None), c.facets
    value = banner_number(first)
    assert "homology_manifold" not in first._memo, c.facets
    second = _fresh(c)
    mc = manifold_class(second)
    assert is_homology_manifold(second) == hm, c.facets
    assert z2_betti(second) == betti, c.facets
    assert (mc.homology_manifold, mc.witnesses.get("homology_manifold")) == hm, c.facets
    if normal is not None:
        res = is_normal(second)
        bundled = (mc.normal, mc.witnesses.get("normal"))
        assert (res.normal, res.witness) == bundled == normal, c.facets
    sphere = hm[0] and betti == sphere_pattern(c.dim, c.dim + 1)
    assert is_homology_sphere(second) == mc.homology_sphere == sphere, c.facets
    return value


def test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex():
    """Normality against built links, the homology-manifold verdict
    against full Betti vectors, and flagness; the verdicts also as cached
    apart and bundled (``_verdicts_match``), and the banner number, with
    its level d - 1 rule for closed normal pseudomanifolds, against a full
    scan of every level on built links.  The residue scan and the rank
    scan, which the verdicts skip where the greedy shelling completes, are
    also run on every complex they may be asked about."""
    pseudomanifolds = ruled = 0
    for c in SMALL:
        hm = homology_manifold_ascending(c)
        assert is_homology_manifold(c) == hm, c.facets
        if skeleton(c).is_connected():
            face = _first_deviating_face(c)
            assert (face is None, face) == hm, c.facets
        assert classify(c).flag == brute_is_flag(c), c.facets
        normal = None
        if is_pseudomanifold(c) != "no":
            pseudomanifolds += 1
            normal = normal_by_links(c)
            res = is_normal(c)
            assert (res.normal, res.witness) == normal, c.facets
            scan = _residue_scan(c)
            assert (scan.normal, scan.witness) == normal, c.facets
        betti = betti_by_dense_rank(c)
        assert _verdicts_match(c, hm, normal, betti) == banner_number_by_links(c), c.facets
        ruled += c.dim >= 1 and is_pseudomanifold(c) == "closed" and normal == (True, None)
    assert pseudomanifolds == 411 and ruled > 0


def test_shelling_step_matches_facet_meets_on_random_orders_of_every_small_complex():
    """The bitmask step test of ``find_shelling``, ``verify_shelling`` and
    the greedy certificate against the meets of the candidate with every
    chosen facet, at each step of four random orders of each small complex
    of dimension at least 1."""
    rng = random.Random(23)
    steps = {True: 0, False: 0}
    for c in SMALL:
        if c.dim < 1:
            continue
        sets = [frozenset(f) for f in c.facets]
        for _ in range(4):
            order = rng.sample(range(len(sets)), len(sets))
            chosen = 0
            for k, i in enumerate(order):
                if k:
                    ok = _may_follow(_restriction(c, i, chosen), chosen, _vertex_facets(c))
                    before = [sets[j] for j in order[:k]]
                    assert ok == shelling_step_by_meets(before, sets[i], c.dim), c.facets
                    steps[ok] += 1
                chosen |= 1 << i
    assert min(steps.values()) > 1000


@functools.cache
def _seeded_texts() -> tuple[tuple[str, str], ...]:
    """The names and ``.scx`` texts of the distinct ``spheres`` and
    ``highdim`` inputs of seeds 1-4 in ``perfbench/inputs.py``.  Four
    ``highdim`` inputs, such as ``cross-4``, take no seed, so they come once."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"
    build = runpy.run_path(str(path))["build"]
    out, seen = [], set()
    for workload in ("spheres", "highdim"):
        for seed in (1, 2, 3, 4):
            for inp in build(workload, seed):
                if inp.text not in seen:
                    seen.add(inp.text)
                    out.append((f"{workload}-{seed}-{inp.name}", inp.text))
    return tuple(out)


def _seeded_spheres() -> list[tuple[str, SimplicialComplex]]:
    """Each seeded input, freshly parsed, with its cone and suspension."""
    out = []
    for name, text in _seeded_texts():
        c = loads(text)
        out += [(name, c), (f"{name}-cone", c.cone()), (f"{name}-suspension", c.suspension())]
    return out


def test_manifold_verdicts_and_banner_numbers_match_oracles_on_seeded_spheres():
    """Every input is a PL sphere, and so is its suspension: both are normal
    homology spheres.  The cone is a normal ball with the reduced Betti
    numbers of a point, and its first vertex in label order with a
    deviating link is the first base vertex, whose link is a cone too,
    since the apex ``_apex0`` sorts before the ``v`` labels.  Normality is
    also checked against built links."""
    subjects = _seeded_spheres()
    assert len(subjects) == 3 * (4 * 7 + 4 + 4 * 3)
    for name, c in subjects:
        cone = name.endswith("-cone")
        hm = (False, (c.vertices[1],)) if cone else (True, None)
        assert c.vertices[0] == "_apex0" or not cone, name
        betti = (0,) * (c.dim + 1) if cone else sphere_pattern(c.dim, c.dim + 1)
        assert _verdicts_match(c, hm, normal_by_links(c), betti) == banner_number_by_links(c), name


def test_cliques_match_the_recursive_walk_on_seeded_spheres():
    """The explicit-stack clique walk against the recursive generator walk
    it replaced, in order, for j = 1 ... d + 3 on the seeded inputs with
    their cones and suspensions, which are too large to enumerate by
    combinations of labels."""
    found = 0
    for name, c in _seeded_spheres():
        for j in range(1, c.dim + 4):
            expected = cliques_by_recursion(c, j)
            assert list(cliques_ids(c, j)) == expected, (name, j)
            found += len(expected)
    assert found == 131_912


def test_reach_matches_a_plain_bfs_on_every_small_skeleton_and_ridge_graph():
    """``_reach`` from each node, through every node or all but one, against
    a breadth-first search, on the distinct skeletons and ridge graphs of
    the small complexes."""
    graphs = {skeleton(c).masks for c in SMALL} | {_ridge_graph(c) for c in SMALL}
    for masks in graphs:
        full = (1 << len(masks)) - 1
        for start in range(len(masks)):
            for allowed in (full, *(full ^ 1 << x for x in range(len(masks)))):
                expected = reach_by_bfs(masks, 1 << start, allowed)
                assert _reach(masks, 1 << start, allowed) == expected, (masks, start, allowed)
    assert len(graphs) == 1415


def _closed_ridges(c: SimplicialComplex) -> bool:
    """Is ``c`` of dimension at least 1 with each ridge in two facets?"""
    return c.dim >= 1 and all(len(members) == 2 for members in c._ridges().values())


def _face_index_matches_members(c: SimplicialComplex, probes) -> int:
    """Membership by ``has_face``, the residues and ``faces_ids(k)`` against
    the holder lists of ``face_members``, at every level k = 0 ... d + 2, on
    each k-vertex id tuple of ``probes(c, k)`` and each face; the ridge
    level's holder lists equal the oracle's.  Returns the faces seen."""
    seen, every = 0, (1 << len(c._facets)) - 1
    for k in range(c.dim + 3):
        members = face_members(c._facets, k)
        assert set(c.faces_ids(k)) == (set(members) if k else set()), (c.facets, k)
        for t in sorted({*probes(c, k), *members}):
            holders = members.get(t, [])
            assert c.has_face(c._face_labels(t)) == bool(holders), (c.facets, t)
            assert c._residues(t) == [c._masks[i] ^ _mask(t) for i in holders], (c.facets, t)
            mask = _holding(_vertex_facets(c), t) & every
            assert mask == sum(1 << i for i in holders), (c.facets, t)
        seen += len(members)
    assert c._ridges() == face_members(c._facets, c.dim), c.facets
    return seen


def test_face_index_matches_holder_lists_on_every_small_complex_and_antichain():
    """Every vertex subset of the small complexes and of the antichains,
    63 of which are not pure, probed at every level."""
    antichains = [SimplicialComplex([[f"x{v}" for v in s] for s in a]) for a in ANTICHAINS]

    def subsets(c, k):
        return itertools.combinations(range(c.n_vertices), k)

    seen = sum(_face_index_matches_members(c, subsets) for c in SMALL + antichains)
    assert seen == 30_676


def test_face_index_matches_holder_lists_on_seeded_spheres():
    """Every clique of the seeded inputs and their cones and suspensions,
    which are too large to probe every vertex subset of."""
    seen = sum(_face_index_matches_members(c, cliques_ids) for _, c in _seeded_spheres())
    assert seen == 80_940


def test_greedy_shelling_orders_match_a_full_rescan():
    """The greedy pass re-tests only the facets whose restriction face grew,
    and the lowest of those that passed when it is picked.  Its order equals
    that of a rescan of the whole frontier at every step, and passes
    ``verify_shelling``, on every small complex of dimension at least 1
    whose ridges each lie in two facets, and on the seeded spheres and
    their suspensions.  Every other small complex, and every cone, is not
    tried."""
    subjects = [c for c in SMALL if _closed_ridges(c)]
    assert all(_shelled.__wrapped__(c) is None for c in SMALL if not _closed_ridges(c))
    for name, c in _seeded_spheres():
        if name.endswith("-cone"):
            assert _shelled.__wrapped__(c) is None, name
        else:
            subjects.append(c)
    shelled = 0
    for c in subjects:
        order = _shelled(_fresh(c))
        assert order == greedy_shelling_by_rescan(c), c.facets
        if order is not None:
            shelled += 1
            facets = c.facets
            assert verify_shelling(c, [facets[i] for i in order]), facets
    assert shelled == len(subjects) > 88


def test_banner_numbers_match_full_scans_on_a_pinched_sphere():
    """No small complex is a closed pseudomanifold that is not normal, so the
    pinched octahedron stands in for them, with its cone and suspension.
    None is normal, and the banner number of each is undefined: level d - 1
    fails at x, or at the apex edge _apex0 x, whose link is two triangles.
    The octahedron and its suspension are closed, so the greedy shelling
    runs for normality, stalls, and the residue scan gives the witness."""
    pinched = _pinched_octahedron()
    for c in (pinched, pinched.cone(), pinched.suspension()):
        expected = banner_number_by_links(c)
        assert banner_number(_fresh(c)) == expected, c.facets
        assert not is_normal(c).normal and expected.value is None, c.facets
        assert expected.failing_face == (("x",) if c is pinched else ("_apex0", "x"))
        first = _fresh(c)
        res = is_normal(first)
        assert (res.normal, res.witness) == normal_by_links(c), c.facets
        assert first._memo["shelled"] is None, c.facets
    assert normal_by_links(pinched) == (False, ("x",))


def _catalog_subjects() -> list[SimplicialComplex]:
    """The pure catalog entries, then their cones, then their suspensions."""
    pure = [c for _, c in catalog() if c.is_pure]
    return pure + [c.cone() for c in pure] + [c.suspension() for c in pure]


def test_l52_rows_match_exact_link_values_on_every_small_complex():
    """The row read off the banner number against the banner number of every
    built link of a face of at most b vertices, on the small complexes and
    on the pure catalog entries with their cones and suspensions; a complex
    without a banner number skips."""
    subjects = SMALL + _catalog_subjects()
    assert len(subjects) == len(SMALL) + 102
    checked = small = 0
    for i, c in enumerate(subjects):
        res = verify_property("L5.2", c)
        if banner_number(c).value is None:
            assert res.verdict == "skip", c.facets
            continue
        checked += 1
        small += i < len(SMALL)
        row = (res.verdict, res.detail) + ((res.payload,) if res.payload else ())
        assert row == link_values_bounded_by_links(c), c.facets
    assert 0 < small < checked


def test_p37_rows_match_built_vertex_links():
    """P3.7's one scan of the vertex links against classifying every
    built vertex link, on the small complexes and on the pure catalog
    entries with their cones and suspensions."""
    subjects = SMALL + _catalog_subjects()
    checked = small = 0
    for i, c in enumerate(subjects):
        res = verify_property("P3.7", c)
        if res.verdict == "skip":
            assert c.dim < 2 or not classify_by_labels(c).banner, c.facets
            continue
        checked += 1
        small += i < len(SMALL)
        row = (res.verdict, res.detail) + ((res.payload,) if res.payload else ())
        assert row == links_inherit_by_links(c), c.facets
    assert small == 119 and checked > small


def test_subcomplexes_match_label_sets_on_every_small_complex():
    """The link of every face, and the star, antistar and closed neighborhood
    (``_induced``) of every vertex, against the public constructor on the
    label sets they stand for, absorption counts and errors included."""
    for c in SMALL:
        facets = [frozenset(f) for f in c.facets]
        for face in _faces(c):
            f = frozenset(face)
            residues = [g - f for g in facets if f <= g and g != f]
            assert _built(c.link, face) == _built(SimplicialComplex, residues), (c.facets, face)
        for v in c.vertices:
            star = [g for g in facets if v in g]
            assert _built(c.star, v) == _built(SimplicialComplex, star), (c.facets, v)
            pieces = {g - {v} for g in facets} - {frozenset()}
            assert _built(c.antistar, v) == _built(SimplicialComplex, pieces), (c.facets, v)
            hood = frozenset().union(*star)
            near = sum(1 << c.vertices.index(u) for u in hood)
            pieces = {g & hood for g in facets} - {frozenset()}
            assert _built(c._induced, near) == _built(SimplicialComplex, pieces), (c.facets, v)


def test_skeleton_edges_are_the_edge_faces_on_every_small_complex():
    for c in SMALL:
        g = skeleton(c)
        edges = {frozenset((a, b)) for a, near in enumerate(g.adj) for b in near}
        assert edges == {frozenset(e) for e in c.faces_ids(2)}, c.facets
        assert g.n_edges == len(c.faces_ids(2)), c.facets


def test_p38iii_stranded_skip_is_the_least_stranded_clique_size():
    """P3.8iii's edge scan skips exactly when some j <= d+2 has stranded j-cliques.

    The cone apex is adjacent to the boundary vertices only, so the least
    stranded clique is the apex with one edge of c between two boundary
    vertices that is no boundary edge: j = 3.
    """
    balls = [c for c in SMALL if c.dim >= 2 and is_pseudomanifold(c) == "with_boundary"]
    assert len(balls) == 305
    skipped = 0
    for c in balls:
        sizes = [
            j for j in range(1, c.dim + 3) if classify_tilde_cliques(c, j).stranded
        ]
        res = verify_property("P3.8iii", c)
        stranded = res.detail == "stranded 3-cliques block the product rule"
        assert stranded == bool(sizes), c.facets
        assert not sizes or sizes[0] == 3, c.facets
        skipped += stranded
    assert 0 < skipped < len(balls)


def test_ridge_graph_searches_match_pairwise_oracles_on_every_small_complex():
    """Strong connectivity, pseudomanifolds, antistars and the facet graph."""
    for c in SMALL:
        assert is_strongly_connected(c) == strongly_connected_by_pairs(c), c.facets
        assert is_pseudomanifold(c) == pseudomanifold_by_ridge_counts(c), c.facets
        assert _outcome(verify_barnette_antistar, c) == _outcome(
            barnette_antistar_by_complexes, c
        ), c.facets
        facets = [set(f) for f in c.facets]
        ridges = tuple(
            (a, b)
            for a, b in itertools.combinations(range(len(facets)), 2)
            if len(facets[a] & facets[b]) == c.dim
        )
        assert facet_graph(c).edges == ridges, c.facets


def test_skeleton_searches_match_built_complexes_on_every_small_complex():
    """Outsides of closed neighborhoods, and vertex connectivity with its
    certificate, the empty cut of a disconnected skeleton included."""
    disconnected, references = 0, {}
    for c in SMALL:
        for v in c.vertices:
            assert _outcome(is_outside_connected, c, v) == _outcome(
                outside_connected_by_complexes, c, v
            ), (c.facets, v)
        g = skeleton(c)
        res = vertex_connectivity(g)
        cut = res.cut
        got = (res.value, None, None) if cut is None else (res.value, cut.vertices, cut.pair)
        key = (g.labels, g.masks)
        if key not in references:  # the reference of a skeleton met before
            references[key] = all_pairs_connectivity(g)
        expected = references[key]
        assert got == expected, c.facets
        disconnected += expected[1] == ()
    assert disconnected > 0


def test_connectivity_matches_the_split_network_oracle():
    """The bitmask flows against flows on an explicit split network of
    residual arcs: the whole ``ConnectivityResult`` of every small
    skeleton and of the seeded inputs with their cones and suspensions,
    and the value and cut of the flow from the lower to the higher id of
    every vertex pair of the small skeletons, adjacent pairs included.
    ``test_graphs`` compares both directions on larger random graphs."""
    small = {}
    for c in SMALL:
        g = skeleton(c)
        small.setdefault((g.labels, g.masks), g)
    graphs = [*small.values(), *(skeleton(c) for _, c in _seeded_spheres())]
    for g in graphs:
        assert vertex_connectivity.__wrapped__(g) == vertex_connectivity_by_split_network(g), g.labels
    pairs = 0
    for g in small.values():
        pairs_of_g = itertools.combinations(range(g.n), 2)
        for (u, v), expected in pair_cuts_by_split_network(g, pairs_of_g).items():
            value, _, reach_in, reach_out = unit_maxflow(g.masks, u, v)
            cut = tuple(_iter_bits(reach_in & ~reach_out & ~(1 << u | 1 << v)))
            assert (value, cut) == expected, (g.masks, u, v)
            pairs += 1
    assert (len(small), len(graphs), pairs) == (819, 951, 15918 // 2)


def test_outside_facet_components_match_relative_betti_on_every_small_manifold():
    """L4.4-homological's component count against the full ranks of the pair."""
    manifolds = [c for c in SMALL if c.dim >= 1 and is_homology_manifold(c)[0]]
    counts = set()
    for c in manifolds:
        adjacency = skeleton(c).masks
        for i, v in enumerate(c.vertices):
            count = _outside_facet_components(c, adjacency[i] | 1 << i)
            assert count == relative_betti_by_complexes(c, v)[c.dim], (c.facets, v)
            counts.add(count)
        assert _relative_homology_matches(c) == relative_homology_matches_by_complexes(c), c.facets
    assert counts == {0, 1}


def test_top_betti_inside_matches_the_built_neighborhood_at_every_vertex():
    """L4.4-homological's (β_d, β_{d-1}) of c[N[v]], ranked on the faces of
    c, against ``z2_betti`` of the built neighborhood complex at every
    vertex of every small complex with d >= 1 and of the seeded inputs with
    their cones and suspensions.  The whole-check oracle stops at the first
    failing vertex, so it alone would miss a wrong pair after it.  The
    simplex boundaries, the triangle among them, give β_d = 1."""
    pairs = Counter()
    for c in [c for c in SMALL if c.dim >= 1] + [c for _, c in _seeded_spheres()]:
        d = c.dim
        nears = [near | 1 << i for i, near in enumerate(skeleton(c).masks)]
        got = list(_top_betti_inside(c, nears))
        assert len(got) == c.n_vertices, c.facets
        for near, pair in zip(nears, got):
            betti = z2_betti(c._induced(near))
            betti += (0,) * (d + 1 - len(betti))
            assert pair == (betti[d], betti[d - 1]), (c.facets, near)
            pairs[pair] += 1
    assert (sum(pairs.values()), pairs[0, 0]) == (12_504, 7_540)
    assert {(1, 0), (0, 1), (1, 1)} <= set(pairs)


def test_every_small_complex_verifies_analyzes_and_round_trips():
    named = [(f"c{i}", c) for i, c in enumerate(SMALL)]
    summary = verify_corpus(named)
    assert len(summary.rows) == 13 * len(SMALL)
    assert {r.verdict for r in summary.rows} <= {"pass", "skip"}
    t11 = {r.name: r.verdict for r in summary.rows if r.property_id == "T1.1"}
    for name, c in named:
        report = analyze(c, name=name)
        assert report_from_json(report_json(report)) == report, c.facets
        assert report.bound_checked is (t11[name] != "skip"), c.facets


ANTICHAINS = _every_antichain(4)


def test_every_small_antichain_passes_or_skips():
    assert len(ANTICHAINS) == 126
    complexes = [SimplicialComplex([[f"x{v}" for v in s] for s in a]) for a in ANTICHAINS]
    assert sum(not c.is_pure for c in complexes) == 63
    summary = verify_corpus((f"a{i}", c) for i, c in enumerate(complexes))
    assert summary.errors == ()
    assert {r.verdict for r in summary.rows} <= {"pass", "skip"}
    for i, c in enumerate(complexes):
        if c.is_pure:
            report = analyze(c, name=f"a{i}")
            assert report_from_json(report_json(report)) == report, c.facets


def test_cliques_match_label_combinations_on_every_small_complex_and_antichain():
    """The clique walk against every j-subset of the sorted labels whose
    pairs are all edges, in order, for j = 1 ... d + 2."""
    antichains = [SimplicialComplex([[f"x{v}" for v in s] for s in a]) for a in ANTICHAINS]
    for c in SMALL + antichains:
        for j in range(1, c.dim + 3):
            walked = [tuple(c.vertices[i] for i in t) for t in cliques_ids(c, j)]
            assert walked == list(cliques_by_combinations(c, j)), (c.facets, j)


def test_link_banner_matches_built_links_on_every_small_antichain():
    """``_link_banner`` against the built link of every face with a non-empty
    link, on every antichain: the links of the non-pure ones may mix facet
    sizes, which the residue test must reject."""
    kinds: set[str] = set()
    for a in ANTICHAINS:
        _compare_link_banner(SimplicialComplex([[f"x{v}" for v in s] for s in a]), kinds)
    assert kinds == {"triangle", "not_pure", "simplex_boundary", "critical_non_spanning_clique"}


def test_every_small_antichain_absorbs_its_closure_through_both_constructors():
    """Each antichain with all its non-empty subsets added comes back as
    itself, from label lists and from bitmasks, with unused labels dropped."""
    labels = tuple(f"x{v}" for v in range(4))
    for a in ANTICHAINS:
        closure = {
            frozenset(s)
            for f in a
            for k in range(1, len(f) + 1)
            for s in itertools.combinations(f, k)
        }
        kept = maximal_by_pairs(closure)
        assert kept == {frozenset(f) for f in a}, a
        masks = [sum(1 << v for v in s) for s in closure]
        assert set(map(frozenset, _maximal({tuple(sorted(s)) for s in closure}))) == kept, a
        public = SimplicialComplex([[labels[v] for v in s] for s in closure])
        assert {frozenset(int(v[1:]) for v in f) for f in public.facets} == kept, a
        assert public.absorbed == len(closure) - len(a), a
        assert built_fields(SimplicialComplex._from_ids(labels, masks)) == built_fields(public), a
        shifted = SimplicialComplex._from_ids(("w",) + labels, [m << 1 for m in masks])
        assert built_fields(shifted) == built_fields(public), a


def test_the_empty_family_is_no_complex():
    with pytest.raises(EmptyComplex):
        SimplicialComplex([])
