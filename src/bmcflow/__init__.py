"""Volume-normalized conformal mean-curvature flow on the boundary sphere.

Numerical realization of a gradient-type flow that deforms the boundary
metric of the unit ball within a conformal class so that the boundary
mean curvature approaches a prescribed (possibly sign-changing)
multiple of a given function, together with the critical-point and
conformal-group machinery used to analyse its outcomes.
"""

from .spectral import (
    Grid,
    BoundaryField,
    make_grid,
    analyze,
    synthesize,
    synth_at,
    dtn_apply,
    laplace_beltrami,
    gradient_norm_sq,
)
from .curvature import (
    EnergyReport,
    FlowBounds,
    volume,
    mean_curvature,
    total_energy,
    energy_functional,
    f2_norm,
    lambda_prime,
    flow_bounds,
    membership,
)
from .prescribed import PrescribedFunction, parse_f_spec
from .conformal import (
    ConformalMap,
    NormalizedState,
    boundary_map,
    conformal_factor,
    bubble,
    bubble_field,
    pullback_normalized,
    center_of_mass,
    normalize,
    concentration_check,
)
from .morse import (
    CriticalPoint,
    find_critical_points,
    counts_mi,
    solve_k_system,
    index_count,
    check_conditions,
    check_symmetry,
)
from .flow import (
    FlowConfig,
    FlowState,
    Trajectory,
    init_state,
    step,
    run,
    check_identities,
    interpolation_path,
)
from .errors import (
    ConfigError,
    SpecParseError,
    PositivityError,
    AdmissibilityError,
    FlowFailure,
    NotMorseError,
    NormalizeError,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
