"""A mutation run for the fast paths: break each one in a copy of the tree
and see whether the tests that guard it notice.

Run it by hand, from any directory; it needs only the standard
library and the test requirements:

    python tests/mutants.py                  # every mutant
    python tests/mutants.py flow-no-wait     # only the named mutants

Each mutant names a file, an exact old text, its replacement, the fast
path it breaks and the tests that guard that path.  For each one,
``src/``, ``tests/`` and ``pyproject.toml`` are copied to a temporary
directory, the replacement is made there, and pytest runs the guarding
tests, stopping at the first failure.  A failing run kills the mutant and
a passing one lets it survive.  An old text that does not occur exactly
once, or a run that pytest cannot start, is an error, so the list cannot
go stale quietly; ``tests/test_mutants.py`` checks the old texts and the
guards' names on every test run.  A run that outlasts the time limit
counts as killed: the mutant made a guard loop.  The exit status is 0
only when every mutant is killed.  The file is not collected by pytest,
whose test files are named ``test_*.py``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    breaks: str  # the fast path, or the check, that the replacement breaks
    guards: tuple[str, ...]  # pytest node ids


EX = "tests/test_exhaustive.py::"
MANIFOLD = "tests/test_manifold.py::"
BANNER = "tests/test_banner.py::"
GRAPHS = "tests/test_graphs.py::"
ANALYSIS = "tests/test_analysis.py::"
COMPLEXES = "tests/test_complexes.py::"
FUZZ = "tests/test_fuzz.py::"
RECORDS = "tests/test_records.py::"

# The clique walk's prune has an off-by-one mutant but no mutant that drops
# it: without the prune the walk yields the same cliques in the same order
# and only explores more, so no test of its output could kill that one.
MUTANTS = (
    Mutant(
        "level-rule-without-normality",
        "src/scx/banner.py",
        "        if j == c.dim - 1 and _closed_normal(c):",
        "        from .manifold import is_pseudomanifold\n\n"
        '        if j == c.dim - 1 and is_pseudomanifold(c) == "closed":',
        "banner_number accepts level d - 1 of every closed pseudomanifold",
        (
            EX + "test_banner_numbers_match_full_scans_on_a_pinched_sphere",
            BANNER + "test_banner_number_scans_level_d_minus_1_of_a_closed_pseudomanifold_that_is_not_normal",
        ),
    ),
    Mutant(
        "level-rule-eager",
        "src/scx/banner.py",
        "j == c.dim - 1 and _closed_normal(c)",
        "_closed_normal(c) and j == c.dim - 1",
        "banner_number decides closed-and-normal on a complex whose scan stops below level d - 1",
        (BANNER + "test_level_rule_is_not_tested_below_level_d_minus_1",),
    ),
    Mutant(
        "shelling-without-closed-gate",
        "src/scx/manifold.py",
        '    if not d or is_pseudomanifold(c) != "closed":\n        return None\n',
        "    if not d:\n        return None\n",
        "the greedy shelling tries complexes that are not closed pseudomanifolds",
        (EX + "test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex",),
    ),
    Mutant(
        "shelling-accepts-a-stall",
        "src/scx/manifold.py",
        "        else:\n            return None\n        chosen |= low",
        "        else:\n            break\n        chosen |= low",
        "the greedy shelling certifies a complex when it stalls",
        (
            EX + "test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex",
            EX + "test_greedy_shelling_orders_match_a_full_rescan",
            MANIFOLD + "test_homology_manifold_matches_ascending_oracle",
        ),
    ),
    Mutant(
        "shelling-skips-the-lazy-retest",
        "src/scx/manifold.py",
        "            if _may_follow(restriction[i], chosen, vertex_facets):\n                break",
        "            if True:\n                break",
        "the greedy shelling takes the lowest ready facet without re-testing it",
        (
            EX + "test_greedy_shelling_orders_match_a_full_rescan",
            EX + "test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex",
        ),
    ),
    Mutant(
        "flow-no-edge-move",
        "src/scx/kernels.py",
        "                nxt |= masks[low.bit_length() - 1]\n",
        "                nxt |= 0\n",
        "unit_maxflow without its out(x) -> in(y) move along edges",
        (GRAPHS + "test_flow_kappa_matches_brute_on_random_graphs", "tests/test_kernels.py"),
    ),
    Mutant(
        "flow-no-split-move",
        "src/scx/kernels.py",
        "            nxt = layer & ~on_path\n",
        "            nxt = 0\n",
        "unit_maxflow without its in(w) -> out(w) move off the paths",
        (GRAPHS + "test_flow_kappa_matches_brute_on_random_graphs", "tests/test_kernels.py"),
    ),
    Mutant(
        "flow-no-wait",
        "src/scx/kernels.py",
        "            nxt = layer & on_path\n",
        "            nxt = 0\n",
        "unit_maxflow without its out(w) -> in(w) move on the paths",
        (
            GRAPHS + "test_connectivity_certificate_matches_all_pairs_reference",
            GRAPHS + "test_pair_cuts_match_the_split_network_oracle_on_random_graphs",
            EX + "test_connectivity_matches_the_split_network_oracle",
            "tests/test_kernels.py",
        ),
    ),
    Mutant(
        "flow-no-back-move",
        "src/scx/kernels.py",
        "                nxt |= pred[low.bit_length() - 1]\n",
        "                nxt |= 0\n",
        "unit_maxflow without its in(y) -> out(pred y) move back along a path",
        (GRAPHS + "test_flow_kappa_matches_brute_on_random_graphs", "tests/test_kernels.py"),
    ),
    Mutant(
        "absorbed-bound-without-min",
        "src/scx/graphs.py",
        "            k = min(k, unit_maxflow(g.masks, m, w)[0])",
        "            k = unit_maxflow(g.masks, m, w)[0]",
        "the grown-side pass keeps the last flow, not the least",
        (
            GRAPHS + "test_absorbing_matches_all_pairs_reference_on_two_blobs",
            GRAPHS + "test_connectivity_certificate_matches_all_pairs_reference",
            EX + "test_connectivity_matches_the_split_network_oracle",
        ),
    ),
    Mutant(
        "cut-check-without-size",
        "src/scx/graphs.py",
        "    if len(cut) != kappa or _reach(",
        "    if _reach(",
        "the cut certificate is accepted whatever its size",
        (GRAPHS + "test_connectivity_rejects_a_cut_larger_than_kappa",),
    ),
    Mutant(
        "clique-prune-off-by-one",
        "src/scx/banner.py",
        ".bit_count() >= need:",
        ".bit_count() > need:",
        "the clique walk prunes a branch that has exactly enough candidates left",
        (
            BANNER + "test_cliques_ids_at_the_edge_sizes",
            EX + "test_cliques_match_label_combinations_on_every_small_complex_and_antichain",
            EX + "test_cliques_match_the_recursive_walk_on_seeded_spheres",
        ),
    ),
    Mutant(
        "reach-skips-last-frontier-bit",
        "src/scx/graphs.py",
        "        while frontier:\n            low = frontier & -frontier\n",
        "        while frontier & (frontier - 1):\n            low = frontier & -frontier\n",
        "the frontier search stops its walk of each frontier one bit early",
        (EX + "test_reach_matches_a_plain_bfs_on_every_small_skeleton_and_ridge_graph",),
    ),
    Mutant(
        "classify-scans-swapped",
        "src/scx/banner.py",
        """    forbidden = contains_simplex_boundary(c, d + 1)
    if forbidden is not None:
        witness = BannerWitness("banner", "simplex_boundary", forbidden)
        return BannerClass(False, False, False, witness)
    if spanning_viol is not None:
        labels = c._face_labels(spanning_viol)
        witness = BannerWitness("strongly_banner", "non_spanning_clique", labels)
        return BannerClass(False, False, True, witness)
""",
        """    if spanning_viol is not None:
        labels = c._face_labels(spanning_viol)
        witness = BannerWitness("strongly_banner", "non_spanning_clique", labels)
        return BannerClass(False, False, True, witness)
    forbidden = contains_simplex_boundary(c, d + 1)
    if forbidden is not None:
        witness = BannerWitness("banner", "simplex_boundary", forbidden)
        return BannerClass(False, False, False, witness)
""",
        "classify returns at the non-spanning clique before the simplex-boundary scan",
        (
            EX + "test_classify_matches_label_oracle_on_every_small_complex",
            BANNER + "test_classify_matches_label_oracle_on_corpus_links",
            BANNER + "test_simplex_boundary_witness_comes_before_a_non_spanning_clique",
        ),
    ),
    Mutant(
        "p37-trusts-strongly-banner",
        "src/scx/analysis.py",
        "    for i, v in enumerate(c.vertices):\n        if not _link_banner(c, (i,)):",
        "    for i, v in enumerate(() if classify(c).strongly_banner else c.vertices):\n"
        "        if not _link_banner(c, (i,)):",
        "P3.7 takes the strongly-banner-equals-banner rule as a pass and asks no vertex link",
        (
            ANALYSIS + "test_p37_failure_row_on_a_strongly_banner_input",
            EX + "test_p37_rows_match_built_vertex_links",
        ),
    ),
    Mutant(
        "antistar-without-rim-check",
        "src/scx/manifold.py",
        "        if rim >> i & 1:\n",
        "        if False:\n",
        "the antistar check skips the boundary ridges that make an antistar impure",
        (
            MANIFOLD + "test_barnette_antistar_matches_built_antistars",
            MANIFOLD + "test_barnette_antistar_outcomes",
            EX + "test_ridge_graph_searches_match_pairwise_oracles_on_every_small_complex",
        ),
    ),
    Mutant(
        "residues-without-purity",
        "src/scx/banner.py",
        "    if any(r.bit_count() != size for r in residues):\n",
        "    if False:\n",
        "_link_banner reads an impure face link as if it were pure",
        (
            BANNER + "test_link_banner_matches_built_links_that_are_not_pure",
            EX + "test_link_banner_matches_built_links_on_every_small_antichain",
        ),
    ),
    Mutant(
        "shelling-without-dead-sets",
        "src/scx/manifold.py",
        "        if chosen in dead:\n            return False\n",
        "",
        "find_shelling re-searches chosen facet sets it could not complete before",
        (MANIFOLD + "test_shelling_search_prunes_the_chosen_sets_it_could_not_complete",),
    ),
    Mutant(
        "normality-trusts-every-complex",
        "src/scx/manifold.py",
        "    return NormalityResult(True, None) if _shelled(c) is not None else _residue_scan(c)",
        "    return NormalityResult(True, None)",
        "normality is accepted without the shelling or the residue scan",
        (
            MANIFOLD + "test_normality_matches_link_oracle",
            EX + "test_banner_numbers_match_full_scans_on_a_pinched_sphere",
        ),
    ),
    Mutant(
        "homology-manifold-trusts-a-stalled-shelling",
        "src/scx/manifold.py",
        "    face = _first_deviating_face(c)\n    return face is None, face\n",
        "    return True, None\n",
        "the homology-manifold verdict is accepted without the rank scan where the shelling stalls",
        (
            MANIFOLD + "test_suspension_of_torus_normal_but_not_homology_manifold",
            EX + "test_manifold_recognition_and_flagness_match_oracles_on_every_small_complex",
        ),
    ),
    Mutant(
        "residues-keep-the-face",
        "src/scx/complexes.py",
        "            out.append(masks[low.bit_length() - 1] ^ face)",
        "            out.append(masks[low.bit_length() - 1])",
        "the residues of a face, and so its link, keep the face's own vertices",
        (
            COMPLEXES + "test_link_of_boundary_simplex_vertex",
            COMPLEXES + "test_star_intersect_antistar_is_link_everywhere",
            COMPLEXES + "test_link_facet_sizes_in_pure_complexes",
        ),
    ),
    Mutant(
        "holding-skips-the-last-vertex",
        "src/scx/complexes.py",
        "    for i in ids:\n        common &= vertex_facets[i]\n",
        "    for i in list(ids)[:-1]:\n        common &= vertex_facets[i]\n",
        "the AND of the vertex-facet masks leaves out the face's last vertex, so membership"
        " and holders are those of a smaller face",
        (
            EX + "test_face_index_matches_holder_lists_on_every_small_complex_and_antichain",
            EX + "test_face_index_matches_holder_lists_on_seeded_spheres",
        ),
    ),
    Mutant(
        "join-apex-unsorted",
        "src/scx/complexes.py",
        "                facets.append(moved[:k] + tip + moved[k:])",
        "                facets.append(moved + tip)",
        "cones and suspensions append the apex id to each base tuple instead of splicing it in",
        (COMPLEXES + "test_joins_match_label_routes", FUZZ + "test_joins_match_label_routes"),
    ),
    Mutant(
        "maximal-keeps-nested",
        "src/scx/complexes.py",
        "    if len({len(f) for f in facets}) == 1:",
        "    if True:",
        "absorption takes its same-size shortcut on facets of mixed sizes and keeps nested ones",
        (COMPLEXES + "test_nonmaximal_absorbed_with_count",),
    ),
    Mutant(
        "absorb-skips-renumbering",
        "src/scx/complexes.py",
        "        if len(used) < len(labels):",
        "        if False:",
        "subcomplexes keep the labels that none of their facets uses",
        (EX + "test_subcomplexes_match_label_sets_on_every_small_complex",),
    ),
    Mutant(
        "memo-stores-nothing",
        "src/scx/complexes.py",
        "                value = x._memo[key] = build(x)\n",
        "                value = build(x)\n",
        "every memoized invariant is rebuilt on each call, since nothing is kept",
        (ANALYSIS + "test_verify_corpus_computes_each_invariant_once",),
    ),
    Mutant(
        "record-eq-ignores-class",
        "src/scx/complexes.py",
        "        if other.__class__ is self.__class__:\n            return tuple.__eq__(self, other)\n",
        "        if isinstance(other, tuple):\n            return tuple.__eq__(self, other)\n",
        "a record equals a plain tuple, or a record of another class, with the same fields",
        (
            RECORDS + "test_equal_only_to_a_record_of_its_class",
            RECORDS + "test_records_of_two_classes_with_equal_fields_differ",
        ),
    ),
    Mutant(
        "top-betti-keeps-an-outside-face",
        "src/scx/homology.py",
        "        out = ~near\n",
        "        out = ~near & ~near - 1  # the lowest vertex outside counts as inside\n",
        "the rows ranked for c[N[v]] include faces through one vertex outside N[v]",
        (
            EX + "test_top_betti_inside_matches_the_built_neighborhood_at_every_vertex",
            EX + "test_outside_facet_components_match_relative_betti_on_every_small_manifold",
        ),
    ),
    Mutant(
        "top-betti-without-augmentation",
        "src/scx/homology.py",
        "c.faces_ids(c.dim - 1) or [()]",
        "c.faces_ids(c.dim - 1) or []",
        "β_0 of c[N[v]] is unreduced for d = 1",
        (
            EX + "test_top_betti_inside_matches_the_built_neighborhood_at_every_vertex",
            EX + "test_outside_facet_components_match_relative_betti_on_every_small_manifold",
        ),
    ),
)


def run(mutant: Mutant) -> str:
    """Apply ``mutant`` in a fresh copy of the tree and run its guards."""
    with tempfile.TemporaryDirectory(prefix="scx-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        target = work / mutant.path
        text = target.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"error (old text found {found} times)"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.guards]
        try:
            done = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "killed (timed out)"
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1:
        return "killed"
    return f"error (pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]})"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    outcomes = []
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{mutant.name:44} {outcome:10} {time.perf_counter() - start:6.1f} s  {mutant.breaks}", flush=True)
    killed = sum(o.startswith("killed") for o in outcomes)
    print(f"{killed} of {len(outcomes)} killed")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
