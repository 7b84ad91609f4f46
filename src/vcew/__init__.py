"""Vertex-coloring edge-weightings: exact mu, constructions, classifiers."""

from .classifiers import (
    BoundCertificate,
    mu_gpt,
    mu_path_cycle_clique,
    mu_theta,
    mu_upper_bound,
)
from .constructors import (
    ClaimFailure,
    DegreeComponentPartition,
    PreconditionError,
    bipartite_product_k2,
    cycle_block_weighting,
    degree_component_partition,
    dominant_vertex_weighting,
    msp_pattern_weighting,
    multipartite_weighting,
    product_weighting,
)
from .families import (
    FamilyError,
    GptParams,
    clique_graph,
    complete_multipartite,
    cycle_graph,
    enumerate_connected,
    gpt_graph,
    graphs_isomorphic,
    hypercube_graph,
    make,
    path_graph,
    random_connected_bipartite,
    theta_graph,
)
from .formats import (
    FormatError,
    format_edge_list,
    format_weighting,
    parse_edge_list,
    parse_weighting,
)
from .graph import (
    Bipartition,
    BlockDecomposition,
    Graph,
    GraphError,
    MspDecomposition,
    MspPath,
    bipartition,
    blocks_and_cut_vertices,
    cartesian_product,
    connected_components,
    connected_without,
    degree_sequence,
    distance,
    distances,
    induced_subgraph,
    is_connected,
    is_cycle_graph,
    maximal_simple_paths,
    vertex_connectivity,
)
from .oracle import (
    EndEdgeBehavior,
    InconsistentEndEdges,
    NotFoundWithinCap,
    SearchConstraints,
    SearchGuardError,
    end_edge_behavior,
    find_weighting,
    has_weighting,
    mu_exact,
)
from .verify import VerificationReport, run_sweep, theorem_ids
from .weighting import (
    EdgeWeighting,
    InducedColoring,
    ProperVerdict,
    admits_vc1,
    induced_coloring,
    is_proper,
)

__version__ = "0.1.0"
