"""Independent oracles for the test suite.

Everything here recomputes quantities by brute force or by a different
algorithm/representation than the library uses, so tests compare two
genuinely separate routes:

- connectivity and separators by subset enumeration + BFS,
- connectivity certificates by one flow per non-adjacent pair,
- maximum independent path families by DFS packing over all simple paths,
- GF(2) ranks by dense numpy elimination,
- face counts by raw subset enumeration,
- flagness by scanning all vertex subsets,
- banner classes by label tuples probed with ``has_face``,
- banner status of face links on built link complexes, classified on
  label tuples, with the triangle told by brute-force face counts,
- the L5.2 inequality by the exact banner number of every built face link,
- P3.7 by classifying every built vertex link on label tuples,
- maximal sets by pairwise strict-subset tests,
- strong connectivity by pairwise facet intersections,
- normality by the skeleton connectivity of every built face link,
- homology manifolds by the full Betti vector of every face link, faces
  visited from vertices up, ranks by dense elimination,
- antistar strong connectivity on built antistar complexes,
- vertex non-neighborhoods as built induced complexes, their connectivity
  by a BFS on their own skeleton, and the relative top Betti number of
  (complex, closed neighborhood) by the full ranks of the pair,
- cyclic polytope facets by exact moment-curve determinants,
- cones, suspensions and boundary cones as label tuples through the
  public constructor, which normalizes, absorbs and interns them again,
- pseudomanifold status by ridge counts and pairwise facet intersections.
"""

from __future__ import annotations

import itertools
from collections import deque
from fractions import Fraction

import numpy as np

from scx.kernels import flow_network, unit_maxflow
from scx.banner import BannerClass, BannerWitness, banner_number, cliques
from scx.complexes import SimplicialComplex
from scx.errors import EmptyOutside, NoBoundary, NotPseudomanifold, NotPure, ScxError
from scx.graphs import neighborhood, skeleton
from scx.homology import z2_betti, z2_relative_betti
from scx.manifold import is_pseudomanifold


def components(n, adj, removed=frozenset()):
    seen = set()
    comps = []
    for start in range(n):
        if start in removed or start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in removed and v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


def brute_min_vertex_cut(g) -> int:
    """Vertex connectivity by exhaustive subset removal (small graphs)."""
    if g.n <= 1:
        return 0
    adj = g.adj
    for k in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), k):
            removed = frozenset(cut)
            if g.n - k >= 2 and len(components(g.n, adj, removed)) > 1:
                return k
    return g.n - 1


def brute_min_separator(g, u, v) -> int:
    """Smallest u-v separator among vertices other than u, v (non-adjacent pair)."""
    others = [w for w in range(g.n) if w not in (u, v)]
    adj = g.adj
    for k in range(len(others) + 1):
        for cut in itertools.combinations(others, k):
            removed = frozenset(cut)
            for comp in components(g.n, adj, removed):
                if u in comp:
                    if v not in comp:
                        return k
                    break
    return len(others)


def _pair_min_cut(g, u, v) -> tuple[int, tuple[int, ...]]:
    """Least u-v separator of a non-adjacent pair, from a network of its own.

    The network leaves out the split arcs of u and v; the separator is read
    off the residual reachable set of the max-flow kernel's flow.
    """
    tails, heads, caps = [], [], []
    for w in range(g.n):
        if w != u and w != v:
            tails.append(2 * w)
            heads.append(2 * w + 1)
            caps.append(1)
    for a, near in enumerate(g.adj):
        for b in near:
            tails.append(2 * a + 1)
            heads.append(2 * b)
            caps.append(g.n)
    s, t = 2 * u + 1, 2 * v
    value, flows, _ = unit_maxflow(flow_network(2 * g.n, tails, heads), caps, s, t)
    out: list[list[tuple[int, int]]] = [[] for _ in range(2 * g.n)]
    for i, (a, b) in enumerate(zip(tails, heads)):
        out[a].append((b, caps[i] - flows[i]))
        out[b].append((a, flows[i]))
    reach = {s}
    queue = deque([s])
    while queue:
        x = queue.popleft()
        for y, residual in out[x]:
            if residual > 0 and y not in reach:
                reach.add(y)
                queue.append(y)
    cut = tuple(
        w for w in range(g.n)
        if w not in (u, v) and 2 * w in reach and 2 * w + 1 not in reach
    )
    return value, cut


def all_pairs_connectivity(g):
    """Vertex connectivity with its certificate, one flow per non-adjacent pair.

    Returns (value, cut, pair) with cut and pair as label tuples: both None
    for n <= 1 and complete graphs, the empty cut and the first vertex
    outside vertex 0's component for disconnected graphs, and otherwise
    the least cut of the lexicographically first pair of least flow.
    """
    if g.n <= 1:
        return 0, None, None
    adj = g.adj
    if all(len(a) == g.n - 1 for a in adj):
        return g.n - 1, None, None
    comps = components(g.n, adj)
    if len(comps) > 1:
        outside = min(set(range(g.n)) - comps[0])
        return 0, (), (g.labels[0], g.labels[outside])
    best = None
    for u, v in itertools.combinations(range(g.n), 2):
        if v in adj[u]:
            continue
        value, cut = _pair_min_cut(g, u, v)
        if best is None or value < best[0]:
            best = (value, cut, (u, v))
    value, cut, pair = best
    return value, tuple(g.labels[w] for w in cut), tuple(g.labels[w] for w in pair)


def all_simple_paths(g, u, v, cap=200000):
    """Every simple u-v path, as vertex tuples."""
    paths = []
    adj = g.adj
    stack = [(u, (u,), {u})]
    while stack:
        node, path, seen = stack.pop()
        for w in adj[node]:
            if w == v:
                paths.append(path + (v,))
                if len(paths) > cap:
                    raise RuntimeError("path explosion; shrink the instance")
            elif w not in seen:
                stack.append((w, path + (w,), seen | {w}))
    return paths


def brute_max_independent_family(g, u, v) -> int:
    """Maximum number of u-v paths with pairwise disjoint interiors.

    Exhaustive packing over the interior sets of all simple paths; the
    only shortcut is stopping at min(deg u, deg v), which no independent
    family can exceed since first hops are pairwise distinct.
    """
    interiors = sorted(
        {frozenset(p[1:-1]) for p in all_simple_paths(g, u, v)}, key=len
    )
    upper = min(len(g.adj[u]), len(g.adj[v]))
    best = 0

    def grow(start, used, count):
        nonlocal best
        if count > best:
            best = count
        for j in range(start, len(interiors)):
            if best >= upper:
                return
            if not (interiors[j] & used):
                grow(j + 1, used | interiors[j], count + 1)

    grow(0, frozenset(), 0)
    return best


def gf2_rank_dense(rows: list[int], ncols: int) -> int:
    """GF(2) rank by dense elimination in numpy (independent of the kernels)."""
    if not rows or ncols == 0:
        return 0
    mat = np.zeros((len(rows), ncols), dtype=np.uint8)
    for i, r in enumerate(rows):
        for j in range(ncols):
            if (r >> j) & 1:
                mat[i, j] = 1
    rank = 0
    row = 0
    for col in range(ncols - 1, -1, -1):
        pivot = None
        for i in range(row, len(rows)):
            if mat[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        mat[[row, pivot]] = mat[[pivot, row]]
        for i in range(len(rows)):
            if i != row and mat[i, col]:
                mat[i] ^= mat[row]
        rank += 1
        row += 1
    return rank


def betti_by_dense_rank(c) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers recomputed with the dense rank oracle."""
    top = c.dim + 1
    layers = [sorted(c.faces_ids(k)) for k in range(1, top + 1)]
    ranks = [0] * (top + 1)
    ranks[0] = 1
    for k in range(1, top):
        index = {f: i for i, f in enumerate(layers[k - 1])}
        rows = []
        for face in layers[k]:
            mask = 0
            for sub in itertools.combinations(face, len(face) - 1):
                mask |= 1 << index[sub]
            rows.append(mask)
        ranks[k] = gf2_rank_dense(rows, max(len(layers[k - 1]), 1))
    out = []
    for m in range(top):
        upper = ranks[m + 1] if m + 1 < top else 0
        out.append(len(layers[m]) - ranks[m] - upper)
    return tuple(out)


def normal_by_links(c) -> tuple[bool, tuple[str, ...] | None]:
    """``is_normal`` as ``(normal, witness)`` on built links.

    Every face link of dimension at least one must have a connected
    skeleton; faces are visited by size and then label order, and the
    first with a disconnected link is the witness.
    """
    if is_pseudomanifold(c) == "no":
        raise NotPseudomanifold("normality is defined on pseudomanifolds")
    for k in range(c.dim):  # faces with link dimension d-k >= 1
        for face in sorted(c.faces(k)) if k else [()]:
            if not skeleton(c.link(face)).is_connected():
                return False, face
    return True, None


def homology_manifold_ascending(c) -> tuple[bool, tuple[str, ...] | None]:
    """``is_homology_manifold`` by full Betti vectors of every face link.

    Faces are visited by size and then label order, and the first whose
    link lacks the reduced Betti numbers of a sphere is the witness.
    """
    if not c.is_pure:
        raise NotPure("homology manifold check needs a pure complex")
    if not skeleton(c).is_connected():
        return False, None
    d = c.dim
    for k in range(1, d + 1):
        for face in sorted(c.faces(k)):
            m = d - k
            if betti_by_dense_rank(c.link(face)) != tuple(int(i == m) for i in range(m + 1)):
                return False, face
    return True, None


def barnette_antistar_by_complexes(c) -> tuple[bool, str | None]:
    """``verify_barnette_antistar`` on built antistars, by pairwise facet tests."""
    if is_pseudomanifold(c) == "no":
        raise NotPseudomanifold("antistar connectivity assumes a pseudomanifold")
    for v in c.vertices:
        if not strongly_connected_by_pairs(c.antistar(v)):
            return False, v
    return True, None


def brute_f_vector(c) -> tuple[int, ...]:
    """Face counts by checking every vertex subset against the facet list."""
    facet_sets = [set(f) for f in c.facets]
    counts = [0] * (c.dim + 2)
    counts[0] = 1
    for k in range(1, c.dim + 2):
        for sub in itertools.combinations(c.vertices, k):
            if any(set(sub) <= f for f in facet_sets):
                counts[k] += 1
    return tuple(counts)


def brute_is_flag(c) -> bool:
    """Flagness by scanning all vertex subsets of size >= 3."""
    edges = {frozenset(e) for e in c.faces(2)}
    facet_sets = [set(f) for f in c.facets]
    for k in range(3, c.n_vertices + 1):
        for sub in itertools.combinations(c.vertices, k):
            if all(frozenset(p) in edges for p in itertools.combinations(sub, 2)):
                if not any(set(sub) <= f for f in facet_sets):
                    return False
    return True


def ridge_facet_counts(c) -> dict[frozenset, int]:
    counts: dict[frozenset, int] = {}
    for f in c.facets:
        for ridge in itertools.combinations(f, len(f) - 1):
            counts[frozenset(ridge)] = counts.get(frozenset(ridge), 0) + 1
    return counts


def closed_by_ridge_count(c) -> bool:
    return all(k == 2 for k in ridge_facet_counts(c).values())


def pseudomanifold_by_ridge_counts(c) -> str:
    """``is_pseudomanifold`` from label ridge counts and pairwise strong connectivity."""
    counts = ridge_facet_counts(c).values()
    if any(k > 2 for k in counts) or not strongly_connected_by_pairs(c):
        return "no"
    return "closed" if all(k == 2 for k in counts) else "with_boundary"


def cone_by_labels(c, apex=None):
    """``c.cone(apex)`` built from label tuples by the public constructor."""
    apex = c._fresh_label() if apex is None else c._check_fresh(apex)
    return SimplicialComplex(f + (apex,) for f in c.facets)


def suspension_by_labels(c, north=None, south=None):
    """``c.suspension(north, south)`` built from label tuples by the public constructor."""
    if north is None and south is None:
        north, south = c._fresh_labels(2)
    else:
        north, south = c._check_fresh(north), c._check_fresh(south)
    facets = [f + (north,) for f in c.facets]
    facets += [f + (south,) for f in c.facets]
    return SimplicialComplex(facets)


def tilde_by_labels(c, apex=None):
    """``c.tilde(apex)`` built from label tuples by the public constructor."""
    bd = c.boundary()
    if bd is None:
        raise NoBoundary("complex is closed, nothing to cone over")
    apex = c._fresh_label() if apex is None else c._check_fresh(apex)
    facets = list(c.facets)
    facets += [f + (apex,) for f in bd.facets]
    return SimplicialComplex(facets)


def built_fields(c) -> tuple:
    """What two constructions of the same complex must store alike."""
    return c._labels, c._index, c._facets, c._masks, c.absorbed, c.dim, c.is_pure


def _built_or_raised(fn, *args):
    try:
        return "value", built_fields(fn(*args))
    except ScxError as exc:
        return "raise", type(exc)


def join_route_outcomes(c) -> list[tuple]:
    """``(construction, apexes, trusted outcome, label-route outcome)`` for
    ``cone``, ``suspension`` and ``tilde`` of ``c`` under default apexes and
    under apexes that sort before, between and after the labels of ``c``."""
    first, last = "!a", "~z"
    assert first < c.vertices[0] and c.vertices[-1] < last
    middle = c.vertices[len(c.vertices) // 2] + "~"
    cases = [
        ("cone", cone_by_labels, [(None,), (first,), (middle,), (last,)]),
        ("suspension", suspension_by_labels,
         [(None, None), (first, last), (last, first), (middle, first)]),
        ("tilde", tilde_by_labels, [(None,), (first,), (middle,), (last,)]),
    ]
    return [
        (name, apexes, _built_or_raised(getattr(c, name), *apexes),
         _built_or_raised(oracle, c, *apexes))
        for name, oracle, choices in cases
        for apexes in choices
    ]


def _det_fraction(matrix: list[list[int]]) -> Fraction:
    """Exact determinant by fraction-free-ish Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def moment_curve_facets(n: int, dim: int) -> set[frozenset[int]]:
    """Facets of the cyclic polytope with n vertices in R^dim, exactly.

    A (dim)-subset spans a facet when all remaining points lie strictly on
    one side of its affine hull, decided by determinant signs over exact
    rationals.
    """
    points = [[t ** e for e in range(1, dim + 1)] for t in range(1, n + 1)]
    facets = set()
    for sub in itertools.combinations(range(n), dim):
        signs = set()
        for other in range(n):
            if other in sub:
                continue
            rows = [[1] + points[i] for i in sub] + [[1] + points[other]]
            det = _det_fraction(rows)
            if det == 0:
                signs = {0}
                break
            signs.add(1 if det > 0 else -1)
        if len(signs) == 1 and 0 not in signs:
            facets.add(frozenset(sub))
    return facets


def mask_sets(masks) -> set[frozenset]:
    """Vertex bitmasks as the frozensets of their set bits."""
    return {frozenset(i for i in range(m.bit_length()) if m >> i & 1) for m in masks}


def maximal_by_pairs(sets) -> set[frozenset]:
    """The members of ``sets`` in no other member, by pairwise tests."""
    maximal: list[frozenset] = []
    for cand in sorted(set(sets), key=len, reverse=True):
        if not any(cand < kept for kept in maximal):
            maximal.append(cand)
    return set(maximal)


def strongly_connected_by_pairs(c) -> bool:
    """Facet-graph connectivity, two facets adjacent when they meet in a ridge."""
    if not c.is_pure:
        raise NotPure("facet graph is defined for pure complexes")
    facets = [frozenset(f) for f in c.facets]
    seen = {0}
    stack = [0]
    while stack:
        a = stack.pop()
        for b, f in enumerate(facets):
            if b not in seen and len(facets[a] & f) == c.dim:
                seen.add(b)
                stack.append(b)
    return len(seen) == len(facets)


def classify_by_labels(c) -> BannerClass:
    """Flag / strongly banner / banner of a pure complex, on label tuples.

    Every clique is a label tuple and every face test a ``has_face`` call,
    the representation the library's id-based classification replaced.
    """
    d = c.dim

    def simplex_boundary(k):
        for t in cliques(c, k + 1):
            if all(c.has_face(t[:i] + t[i + 1 :]) for i in range(len(t))):
                return t
        return None

    forbidden = simplex_boundary(d + 1) if d >= 1 else (
        c.vertices[:2] if c.n_vertices >= 2 else None
    )
    critical_viol = spanning_viol = None
    for t in cliques(c, d + 1):
        if c.has_face(t):
            continue
        if spanning_viol is None:
            spanning_viol = t
        if any(c.has_face(t[:i] + t[i + 1 :]) for i in range(len(t))):
            critical_viol = t
            break

    flag_viol = None
    for size in range(3, d + 3):
        found_any = False
        for t in cliques(c, size):
            found_any = True
            if not c.has_face(t):
                flag_viol = t
                break
        if flag_viol is not None or not found_any:
            break

    banner = forbidden is None and critical_viol is None
    strongly = forbidden is None and spanning_viol is None
    witness = None
    if not banner:
        if critical_viol is not None:
            witness = BannerWitness("banner", "critical_non_spanning_clique", critical_viol)
        else:
            witness = BannerWitness("banner", "simplex_boundary", forbidden)
    elif not strongly:
        witness = BannerWitness("strongly_banner", "non_spanning_clique", spanning_viol)
    elif flag_viol is not None:
        witness = BannerWitness("flag", "non_spanning_clique", flag_viol)
    return BannerClass(flag_viol is None, strongly, banner, witness)


def link_banner_by_complexes(c, ids: tuple[int, ...]) -> bool:
    """Banner-or-triangle status of the link of the face with sorted ``ids``.

    The link is built as a complex, the route the library's facet-bitmask
    test replaced: it is a triangle by its brute-force f-vector, and
    banner by ``classify_by_labels`` when it is pure.
    """
    lk = c.link(c._face_labels(ids))
    if lk.dim == 1 and brute_f_vector(lk) == (1, 3, 3):
        return True
    return lk.is_pure and classify_by_labels(lk).banner


def link_values_bounded_by_links(c) -> tuple:
    """The L5.2 conclusion by the exact banner number of every built face link.

    Each face of at most b vertices has its link built and that link's
    banner number computed from level 0 up, the per-face route that the
    library's one scan of the level-b link table replaced.
    """
    value = banner_number(c).value
    for size in range(1, value + 1):
        for face in sorted(c.faces(size)):
            sub = banner_number(c.link(face)).value
            if sub is None or sub > value - size:
                payload = {"face": list(face), "link_value": sub, "value": value}
                return "fail", f"link of {face} breaks the banner-number inequality", payload
    return "pass", f"inequality holds below level {value}"


def links_inherit_by_links(c) -> tuple:
    """The P3.7 conclusion on every built vertex link, classified on label tuples.

    A banner input needs banner links and a strongly banner input strongly
    banner ones, the two-sided route that the library's one scan of the
    vertex link table replaced.
    """
    strongly = classify_by_labels(c).strongly_banner
    for v in c.vertices:
        cls = classify_by_labels(c.link((v,)))
        if not (cls.strongly_banner if strongly else cls.banner):
            return "fail", f"link of {v} loses the property", {"vertex": v}
    return "pass", "links inherit banner (and strongly banner) status"


def outside_subcomplex(c, vertex):
    """The subcomplex induced on vertices not in the closed neighborhood."""
    rest = set(c.vertices) - neighborhood(c, vertex)
    if not rest:
        raise EmptyOutside(f"every vertex is adjacent to {vertex!r}")
    return c.induced(rest)


def outside_connected_by_complexes(c, vertex) -> bool:
    """``is_outside_connected`` on the built outside complex's own skeleton."""
    g = skeleton(outside_subcomplex(c, vertex))
    return len(components(g.n, g.adj)) == 1


def relative_betti_by_complexes(c, vertex) -> tuple[int, ...]:
    """GF(2) Betti numbers of (c, induced closed neighborhood of ``vertex``), all degrees."""
    return z2_relative_betti(c, c.induced(neighborhood(c, vertex)))


def relative_homology_matches_by_complexes(c) -> tuple:
    """The L4.4-homological conclusion by built complexes and full ranks.

    Every vertex gets its neighborhood complex, the full Betti numbers of
    the pair and a built outside complex, the route the library's facet
    component count replaced.
    """
    d = c.dim
    for v in c.vertices:
        hood = c.induced(neighborhood(c, v))
        betti = z2_betti(hood)
        betti += (0,) * (d + 1 - len(betti))
        if betti[d] != 0 or betti[d - 1] != 0:
            payload = {"vertex": v, "betti": list(betti)}
            return "fail", f"neighborhood complex of {v} has top homology", payload
        rel = z2_relative_betti(c, hood)
        rel_top = rel[d] if d < len(rel) else 0
        try:
            connected = outside_connected_by_complexes(c, v)
        except EmptyOutside:
            return "fail", f"every vertex is adjacent to {v}", {"vertex": v}
        if rel_top != 1 or not connected:
            detail = f"relative top Betti {rel_top} vs outside connected {connected} at {v}"
            return "fail", detail, {"vertex": v, "relative_betti": list(rel)}
    return "pass", "relative top homology matches outside connectivity at all vertices"
