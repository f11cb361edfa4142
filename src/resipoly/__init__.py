"""Residue spaces and residue polytopes of level graphs.

A level graph is a finite multigraph with an ordered partition of its
vertices.  Four families of linear conditions on the arrow space cut out
its residue space; the dimensions of the resulting flag obey exact
combinatorial identities, the per-subset projected dimensions form a
submodular function whose base polytope's faces match the ordered
partitions, and coarser structures degenerate onto finer ones under
one-parameter coordinate scalings.  Everything here computes those objects
over exact rationals and verifies the identities on concrete graphs.
"""

from .degeneration import (
    LaurentSubspace,
    check_degeneration,
    flag_and_realization,
    initial_space_limit,
    plucker_limit_oracle,
)
from .graphs import (
    Arrow,
    ArrowClassification,
    GraphDocumentError,
    LevelStructure,
    Multigraph,
    classify_arrows,
    components_below,
    is_coarsening,
    load_level_graph,
    ordered_partitions,
)
from .linalg import (
    Subspace,
    VectorCollection,
    kernel,
    kernel_of_projection,
    project_image,
    rank,
    set_theoretic_checks,
)
from .polytopes import (
    BasePolytope,
    InvariantViolation,
    SetFunction,
    base_polytope,
    chain_face,
    check_polytope_faces,
    contraction_table,
    projection_rank_table,
    residue_projection_table,
    splitting,
)
from .residues import (
    LevelGraph,
    build_constraints,
    build_flag,
    check_component_relations,
    flag_dims,
    per_component_report,
    residue_space,
)
from .verify import VerifyConfig, full_verification

__version__ = "0.1.0"
