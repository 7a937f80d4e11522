"""Fair splitting of colored paths, cycles, and necklaces.

Two families of results, both constructive and machine-verified:

* splitting the vertices of a colored path into two independent sets
  that share every color class almost equally after one vertex per
  color is removed, certified through an octahedral Tucker labeling;
* fair division of a colored necklace among q thieves with the
  advantaged thief of every color chosen in advance, obtained by
  rounding a continuous fair splitting: cycles are cancelled in each
  color's thief/bead sharing graph, and the forests left are rounded by
  peeling their leaves.

Everything is exact: the necklace pipeline runs on integers in units
of 1/d, with exhaustive verifiers for every certificate and brute-force
oracles at desk scale.
"""

from .errors import (
    NODE_BUDGET,
    BudgetExceededError,
    InstanceTooLargeError,
    InternalInvariantError,
    PreconditionError,
    SchemaError,
)
from .jsonio import (
    Instance,
    continuous_splitting_from_json,
    continuous_splitting_to_json,
    cycle_split_from_json,
    cycle_split_to_json,
    discrete_splitting_from_json,
    discrete_splitting_to_json,
    fraction_from_json,
    fraction_to_json,
    instance_to_json,
    load_instance,
    loads_instance,
    pair_split_from_json,
    pair_split_to_json,
    stable_split_from_json,
    stable_split_to_json,
)
from .necklace import (
    ContinuousSplitting,
    DiscreteSplitting,
    Necklace,
    normalize_advantages,
    remainders,
    search_continuous,
    search_discrete,
    verify_continuous,
    verify_discrete,
)
from .paths import (
    PAIR_BUDGET,
    ColoredPath,
    CycleSplit,
    PairSplit,
    StableSplit,
    compose_splits,
    enumerate_qstable_splits,
    floor_ceil_identities,
    iter_canonical_colorings,
    pair_split_as_stable,
    solve_cycle_split,
    solve_pair_split,
    solve_qstable_bruteforce,
    solve_qstable_power2,
    verify_cycle_split,
    verify_pair_split,
    verify_qstable_split,
)
from .rounding import (
    ColorFlowGraph,
    ImpossibilityReport,
    build_flow_graph,
    cancel_cycles,
    demonstrate_r2_failure,
    flow_equalities_ok,
    is_forest,
    round_color_r0,
    round_color_r1,
    round_color_rq1,
    split_with_advantages,
)
from .signvectors import (
    SignVector,
    TuckerReport,
    alt,
    compute_J,
    compute_t,
    enumerate_sign_vectors,
    lambda_map,
    lambda_table,
    precedes,
    tucker_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "ColorFlowGraph",
    "ColoredPath",
    "ContinuousSplitting",
    "CycleSplit",
    "DiscreteSplitting",
    "ImpossibilityReport",
    "Instance",
    "InstanceTooLargeError",
    "InternalInvariantError",
    "NODE_BUDGET",
    "Necklace",
    "PAIR_BUDGET",
    "PairSplit",
    "PreconditionError",
    "SchemaError",
    "SignVector",
    "StableSplit",
    "TuckerReport",
    "alt",
    "build_flow_graph",
    "cancel_cycles",
    "compose_splits",
    "compute_J",
    "compute_t",
    "continuous_splitting_from_json",
    "continuous_splitting_to_json",
    "cycle_split_from_json",
    "cycle_split_to_json",
    "demonstrate_r2_failure",
    "discrete_splitting_from_json",
    "discrete_splitting_to_json",
    "enumerate_qstable_splits",
    "enumerate_sign_vectors",
    "floor_ceil_identities",
    "flow_equalities_ok",
    "fraction_from_json",
    "fraction_to_json",
    "instance_to_json",
    "is_forest",
    "iter_canonical_colorings",
    "lambda_map",
    "lambda_table",
    "load_instance",
    "loads_instance",
    "normalize_advantages",
    "pair_split_as_stable",
    "pair_split_from_json",
    "pair_split_to_json",
    "precedes",
    "remainders",
    "round_color_r0",
    "round_color_r1",
    "round_color_rq1",
    "search_continuous",
    "search_discrete",
    "solve_cycle_split",
    "solve_pair_split",
    "solve_qstable_bruteforce",
    "solve_qstable_power2",
    "split_with_advantages",
    "stable_split_from_json",
    "stable_split_to_json",
    "tucker_verify",
    "verify_continuous",
    "verify_cycle_split",
    "verify_discrete",
    "verify_pair_split",
    "verify_qstable_split",
]
