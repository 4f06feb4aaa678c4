"""Solver and verifier for monotone Allen-Cahn dynamics.

The flow only ever moves fields upward: u_t = (lap u - u^3 + kappa u)_+.
Equivalently each step solves a lower-obstacle problem whose obstacle is the
previous state.  The package integrates the flow by three routes, solves the
associated stationary obstacle problem, computes the Schrodinger eigenvalue
that governs exponential decay, and checks trajectories against the laws the
dynamics must obey (monotonicity, energy decrease, multiplier contraction,
range preservation, comparison, dissipation envelopes, absorbing entry).
"""

from .grid import (
    Field,
    Grid,
    first_mode,
    h1_seminorm,
    laplacian,
    make_grid,
    negative_part,
    norm_lp,
    positive_part,
    read_field_csv,
    stencil_min_eigenvalue,
    write_field_csv,
)
from .model import (
    EnergySnapshot,
    ModelParams,
    b0_check,
    dr_value,
    energy,
    energy_floor,
    eta_of,
    phi_of,
    residual,
    take_snapshot,
    w_prime,
)
from .obstacle import (
    ComplementarityReport,
    KernelError,
    ObstacleProblem,
    brute_force_obstacle,
    complementarity_report,
    solve_active_set,
    solve_equilibrium,
    solve_pgs,
)
from .presets import PRESET_NAMES, make_initial
from .spectral import EigenError, EigenResult, min_eig, sigma_rate
from .steppers import (
    SolverConfig,
    SolverError,
    Trajectory,
    cfl_limit,
    resolvent_jlambda,
    run,
    step_explicit,
    step_implicit_obstacle,
    step_yosida,
)

__version__ = "0.1.0"
