"""Banner hierarchy, GF(2) homology and skeleton connectivity for
pure simplicial complexes, with a generated verification corpus."""

from .analysis import (
    AnalysisReport,
    PROPERTY_IDS,
    PropertyCheckResult,
    analyze,
    report_from_json,
    report_json,
    verify_corpus,
    verify_property,
)
from .banner import (
    BannerClass,
    BannerNumber,
    banner_number,
    classify,
    classify_tilde_cliques,
    cliques,
    contains_simplex_boundary,
    is_critical,
    is_spanning,
)
from .complexes import SimplicialComplex, dump, dumps, from_facets, load, loads
from .graphs import (
    CutSet,
    PathFamily,
    SkeletonGraph,
    independent_paths,
    is_outside_connected,
    neighborhood,
    skeleton,
    vertex_connectivity,
)
from .homology import z2_betti, z2_relative_betti
from .kernels import BACKEND
from .manifold import (
    FacetGraph,
    ManifoldClass,
    ShellingOrder,
    facet_graph,
    find_shelling,
    is_homology_manifold,
    is_homology_sphere,
    is_normal,
    is_pseudomanifold,
    is_strongly_connected,
    manifold_class,
    verify_barnette_antistar,
    verify_shelling,
)

__version__ = "0.1.0"
