"""spheroid: radially symmetric two-species tumor free-boundary toolkit.

The tumor occupies a ball of radius R(t) = e^{z(t)}; after rescaling to
the unit interval the model couples a (possibly quasi-static) nutrient
diffusion equation, a hyperbolic equation for the proliferating cell
fraction, a velocity quadrature, and the free-boundary ODE dz/dt = v(1).
The package computes the stationary solution, integrates the coupled
system, and measures the exponential return to the stationary state.
"""

__version__ = "0.1.0"   # the metadata's too; set before snapshot imports it

from .analysis import (DecayFit, admissible_init, fit_decay,
                       stability_experiment, standard_convergence_suite)
from .config import (RunConfig, config_hash, default_config, dumps_config,
                     load_config, loads_config, save_config)
from .errors import (ConfigError, ConvergenceError, DomainError,
                     InsufficientDataError, NumericsError, SnapshotError,
                     SpheroidError, UnknownRateError)
from .evolution import (SolverConfig, State, VelocityField,
                        boundary_radius_step, nutrient_step, simulate, step,
                        transport_step, velocity_from_state)
from .grid import Grid
from .nutrient import (NutrientProfile, bounds_report, flux_residual,
                       nutrient_sensitivity, solve_nutrient)
from .rates import (Rate, RateModel, check_assumptions, default_model,
                    equilibrium_fraction, f_reaction, g_source)
from .records import DeviationRecord, admissibility_report, deviation_norms
from .snapshot import load_snapshot, save_snapshot
from .stationary import StationarySolution, solve_stationary
