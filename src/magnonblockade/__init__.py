"""Magnon-blockade simulator for a directly coupled magnon-transmon system.

Builds the driven rotating-frame Hamiltonians, solves the Lindblad master
equation (dynamics, direct steady state, thermal and longitudinal variants),
computes equal-time second-order correlations, and evaluates the closed-form
weak-driving model including the quartic analysis of the optimal drive ratio.
"""

from .analytic import (
    AmplitudeSet,
    RootPair,
    derivative_roots,
    derivative_roots_numeric,
    g2_analytic,
    g2_dimensionless,
    optimal_drive_ratios,
    second_derivative,
    steady_amplitudes_closed,
    steady_amplitudes_general,
)
from .dynamics import (
    Liouvillian,
    Trajectory,
    build_liouvillian,
    evolve,
    steady_state,
    steady_state_periodic,
)
from .hilbert import (
    DensityMatrix,
    HilbertSpace,
    dagger,
    fock_annihilation,
    qubit_lowering,
)
from .model import (
    MHZ,
    SystemParams,
    build_h_eff,
    build_h_longitudinal,
    build_h_nonhermitian,
    collapse_channels,
    rabi_from_power,
    thermal_occupation,
)
from .observables import (
    g2_from_populations,
    g2_time_series,
    g2_zero,
    populations,
)
from .scenarios import (
    ScenarioConfig,
    SweepResult,
    built_in_scenarios,
    convergence_check,
    get_scenario,
    run_scenario,
)

__version__ = "1.0.0"
