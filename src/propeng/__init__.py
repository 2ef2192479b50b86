"""Constraint propagation as generic fixpoint iteration.

Reduction functions over ordered component families are driven to a common
fixpoint by four interchangeable worklist disciplines; arc, path, directional
and relational consistency drop out as particular function sets.
"""

from .csp import (
    CSP, Constraint, ExtensionalBody, IntDomain, LinearEqBody, LinearIneqBody,
    Relation, Scheme, SetDomain, equivalent, join_constraints, scheme_union,
    solutions, validate,
)
from .engine import (
    FixpointResult, Outcome, ReductionFunction, RunTrace, closure_star,
    compare_limits, extend, make_strategy, run,
)
from .consistency import (
    ConsistencyGoal, achieve, is_arc_consistent, is_relationally_m_consistent,
    parse_goal,
)
from .errors import (
    ConfigError, DataError, ProbeRejectionError, PropagationError,
    ResourceLimitError,
)
from .lattice import (
    GridInterval, GrowSetValue, IntGrid, PointGrid, PowersetValue,
    ProductValue, interval_hull, leq,
)
from .reducers import (
    ConstraintSpace, cutting_plane, domain_bottom, join_projection,
    linear_eq_narrow, make_binary_projections, make_cut_reducer,
    make_full_projection, make_interval_hull_projection,
    make_linear_eq_narrowing, make_path_reducer,
    make_relational_reducer, make_solution_projection,
)
from .textio import parse_csp, serialize_csp

__version__ = "0.1.0"
