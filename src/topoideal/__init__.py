"""Computation kit for finite ideal topological spaces.

Carriers are index sets {0..n-1} with subsets as bitmasks.  The package
exposes the operator algebra (interior, closure, local function,
star-closure, the idealized topology), classifiers for every set and map
class of the studied decomposition theory, deterministic enumeration of
all small labeled topologies and principal ideals, an exhaustive theorem
verifier, and a claim-expression counterexample search.
"""

from .core import (
    EmptyCarrier,
    FiniteTopology,
    Ideal,
    IdealSpace,
    NotAnIdeal,
    NotATopology,
    NotNowhereDense,
    RoutesDisagree,
    SpaceProps,
    Subspace,
    TopoidealError,
    alpha_topology,
    closure,
    consolidation,
    interior,
    local_function,
    make_ideal,
    make_topology,
    nowhere_dense_ideal,
    principal_ideal,
    space_props,
    star_closure,
    subspace,
    tau_star,
)
from .classes import (
    CLASS_FLAGS,
    ClassVector,
    is_i_locally_closed,
    is_i_open,
    is_pre_i_open,
    pio_family,
    set_classes,
    star_perfect_family,
)
from .maps import (
    MAP_FLAGS,
    CarrierMismatch,
    EquivalenceReport,
    MapClassVector,
    MissingCodomainIdeal,
    SpaceMap,
    check_pre_i_continuity_equivalences,
    compose,
    identity_map,
    image,
    is_i_closed_map,
    is_i_open_map,
    make_map,
    map_classes,
    preimage,
)
from .enumeration import (
    BudgetExceeded,
    CarrierTooLarge,
    ideals,
    maps,
    topologies,
)
from .claims import (
    ClaimError,
    ParseError,
    UnknownAtom,
    atoms_of,
    evaluate,
    parse_claim,
    print_claim,
)
from .verify import (
    REGISTRY,
    CheckResult,
    NotDirectional,
    Report,
    TheoremCheck,
    UnknownTheoremId,
    Witness,
    check_direction,
    find_composition_counterexample,
    find_counterexample,
    replay_witness,
    run_theorem_suite,
)
from .files import (
    NamedMap,
    NamedSpace,
    SpaceFileError,
    TooManyPoints,
    UnknownPoint,
    parse_map_file,
    parse_space_file,
    serialize_map_file,
    serialize_space,
)

__version__ = "0.1.0"
