"""Output checks that recompute what they compare against.

Nothing here calls the program under test.  Each check takes the facets
the benchmark gave the program (as label tuples) and the program's
answer, and recomputes the expectation from scratch: skeletons, face
counts and ridge counts by enumeration, separation by breadth-first
search, and closed forms that the mathematics fixes.  A check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
from collections import deque


def skeleton(facets) -> dict[str, set[str]]:
    adj: dict[str, set[str]] = {v: set() for f in facets for v in f}
    for f in facets:
        for a, b in itertools.combinations(f, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def face_counts(facets) -> list[int]:
    """Number of faces with k+1 vertices, for k = 0 .. dim."""
    faces = {s for f in facets for k in range(1, len(f) + 1)
             for s in itertools.combinations(sorted(f), k)}
    top = max(len(f) for f in facets)
    return [sum(1 for s in faces if len(s) == k) for k in range(1, top + 1)]


def is_closed(facets) -> bool:
    """Every ridge of a pure complex lies in exactly two facets."""
    if len({len(f) for f in facets}) != 1:
        return False
    count: dict[tuple, int] = {}
    for f in facets:
        for r in itertools.combinations(sorted(f), len(f) - 1):
            count[r] = count.get(r, 0) + 1
    return all(c == 2 for c in count.values())


def separates(adj, cut, u, v) -> bool:
    """Does removing ``cut`` leave no u-v path?"""
    removed = set(cut)
    seen, queue = {u}, deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in removed and y not in seen:
                seen.add(y)
                queue.append(y)
    return v not in seen


def check_report(r, facets, *, kappa=None, sphere=False, from_json=None) -> list[str]:
    """Check one ``analyze`` report against recomputed facts.

    ``kappa`` is the closed-form connectivity when known; ``sphere`` says
    the complex is a sphere by construction; ``from_json`` is the report
    read back from its own JSON text.
    """
    out = []
    if from_json is not None and from_json != r:
        out.append("report changes through report_json / report_from_json")
    adj = skeleton(facets)
    d = max(len(f) for f in facets) - 1
    counts = face_counts(facets)
    if tuple(r.f_vector) != (1, *counts):
        out.append(f"f-vector {r.f_vector} != counted {(1, *counts)}")
    euler = sum((-1) ** k * c for k, c in enumerate(counts)) - 1
    if euler != sum((-1) ** k * b for k, b in enumerate(r.betti)):
        out.append(f"Betti {r.betti} disagree with reduced Euler characteristic {euler}")
    if sphere:
        if tuple(r.betti) != tuple(int(k == d) for k in range(d + 1)):
            out.append(f"sphere has Betti {r.betti}")
        if euler != (-1) ** d:
            out.append(f"sphere has reduced Euler characteristic {euler}")

    k = r.connectivity
    cert = r.connectivity_certificate or {}
    min_degree = min(len(s) for s in adj.values())
    if cert.get("complete"):
        if any(len(s) != len(adj) - 1 for s in adj.values()) or k != len(adj) - 1:
            out.append("complete certificate on a non-complete skeleton or wrong value")
    elif "cut" in cert:
        u, v = cert["pair"]
        if v in adj[u]:
            out.append(f"certificate pair {u} {v} is an edge")
        elif not separates(adj, cert["cut"], u, v):
            out.append(f"cut {cert['cut']} does not separate {u} {v}")
        if len(set(cert["cut"])) != k:
            out.append(f"cut of size {len(set(cert['cut']))} for connectivity {k}")
    elif len(adj) > 1:
        out.append("no connectivity certificate")
    if k > min_degree:
        out.append(f"connectivity {k} above minimum degree {min_degree}")
    if is_closed(facets) and r.normal and k < d + 1:
        out.append(f"closed normal {d}-complex with connectivity {k} < {d + 1}")
    if kappa is not None and k != kappa:
        out.append(f"connectivity {k}, closed form gives {kappa}")
    if r.bound_checked and not r.bound_satisfied:
        out.append(f"connectivity {k} below the checked bound {r.bound}")
    return out


def check_rows(rows, expect) -> list[str]:
    """Check ``verify`` rows: no failure, and required passes.

    ``expect`` maps a complex name to the property ids that must pass on
    it; every name in ``expect`` must have rows.
    """
    out = []
    seen = set()
    for row in rows:
        seen.add(row.name)
        if row.verdict == "fail":
            out.append(f"{row.name} {row.property_id} fails: {row.detail}")
        elif row.property_id in expect.get(row.name, ()) and row.verdict != "pass":
            out.append(f"{row.name} {row.property_id} {row.verdict}: {row.detail}")
    for name in expect:
        if name not in seen:
            out.append(f"no rows for {name}")
    return out
