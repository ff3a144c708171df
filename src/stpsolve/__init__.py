"""Exact minimum Steiner tree solving.

The library is organized around immutable :class:`Instance` objects:
``instance_io`` parses .stp/.gr files, ``reductions`` shrinks instances
reversibly, ``bounds`` provides lower/upper bound machinery and guiding
heuristics, and ``solver`` holds the exact algorithms plus the ``solve``
pipeline.  Instances never mutate, so concurrent solves may share them.
"""

from .graph import (
    InputError,
    Instance,
    InternalError,
    Network,
    NotATree,
    SteinerTree,
    StpError,
    TerminalMissing,
    UnknownEdge,
    shortest_path_distances,
    validate_tree,
)
from .instance_io import (
    CountMismatch,
    FormatError,
    MissingHeader,
    NonPositiveWeight,
    ParsedInstance,
    VertexOutOfRange,
    parse_gr,
    parse_instance,
    parse_stp,
    write_instance,
    write_solution,
)
from .bounds import (
    DualAscentResult,
    SteinerHeuristic,
    TerminalIndex,
    da_heuristic,
    dual_ascent,
    local_search,
    one_tree_heuristic,
    rsph,
    select_root,
    spread_rsph,
    upper_bound_pipeline,
    zero_heuristic,
)
from .reductions import (
    PreprocessResult,
    ReductionLog,
    SolveContext,
    run_pipeline,
    unreduce,
)
from .solver import (
    HeuristicNegative,
    SearchStats,
    SolveConfig,
    SolveResult,
    TooManyTerminals,
    combine_split_cost,
    compute_smt,
    dreyfus_wagner,
    ds_star,
    make_prune_state,
    prune,
    prune_combine,
    solve,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
