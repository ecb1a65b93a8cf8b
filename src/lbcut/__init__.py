"""Exact solvers, oracles, and instance engineering for length-bounded cut.

A length-bounded cut instance asks for at most beta edges whose removal
leaves no s-t path of length at most lambda.  The package provides:

- an exact polynomial solver for proper interval graphs (`dp.solve`)
  with verified cut reconstruction,
- exhaustive and bounded-search oracles for cross-validation (`oracles`),
- generators for two hard-instance families with planted solutions,
  forward cuts, and decoders (`reductions_pw`, `reductions_fvs`),
- certificates: feedback vertex sets and path decompositions with
  validators (`witnesses`),
- text file formats and a command line (`formats`, `cli`).
"""

from .errors import (
    BudgetExceeded,
    InputError,
    InternalCheckError,
    LbcutError,
    ModelError,
)
from .graph import (
    Graph,
    Instance,
    bfs_distances,
    edge,
    edge_set,
    min_st_cut,
    shortest_bounded_path,
    verify_cut,
)
from .intervals import (
    IntervalModel,
    NormalizedInstance,
    normalize,
    validate_model,
)
from .dp import (
    CrossingCounts,
    DpTables,
    compute_crossing_counts,
    dp_solve,
    extract_cut,
    solve,
)
from .oracles import (
    OracleBudget,
    oracle_branch,
    oracle_subset,
    random_proper_interval_instance,
)
from .reductions_pw import CliqueInstance, decode_pw, forward_cut_pw, gen_pw
from .reductions_fvs import (
    MulticoloredCliqueInstance,
    decode_fvs,
    forward_cut_fvs,
    gen_fvs,
)
from .witnesses import (
    PathDecomposition,
    build_fvs_witness,
    build_pw_witness,
    verify_fvs,
    verify_path_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
