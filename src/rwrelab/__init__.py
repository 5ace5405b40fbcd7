"""Biased 1d nearest-neighbor random walks in random environment.

A laboratory pairing the closed-form asymptotics of these walks (velocities,
thresholds, diffusivities, Einstein relation, CLT conditions) with a
replica-ensemble walk engine, annealed Monte Carlo estimators, and exact
small-instance oracles that cross-validate one another.
"""

from .closed_forms import (CltCheck, DiffusivityBreakdown, VelocityResult,
                           a1_coefficient, a1_uniform, check_clt_condition,
                           coinflip_second_right_derivative, coinflip_taylor,
                           esbar_rcm, rcm_discrete_taylor, rcm_u_moments,
                           sigma2_iid_omega, sigma2_rcm, sigma2_rcm_at_zero,
                           sigma2_rcm_direct, uniform_conductance_moments,
                           velocity_coinflip, velocity_iid_omega,
                           velocity_iid_omega_right_derivative,
                           velocity_rcm_continuous, velocity_rcm_discrete)
from .distributions import ScalarDist
from .environments import (CoinFlip, DiscreteEnv, IIDConductance, IIDOmega,
                           PeriodicEnv, RateEnv, Renewal, RenewalPoints,
                           bias_omega, bias_rates, materialize,
                           omega_from_rates)
from .estimators import (DiffusionResult, EinsteinTable, Estimate, ProbeRow,
                         RenewalScaling, ScalingFit, annealed_diffusion,
                         annealed_tau1, annealed_velocity, einstein_slope,
                         renewal_product_moment, sigma2_of_model, tau1_tail,
                         velocity_jump_probe, velocity_of_model)
from .exact import (WalkDistribution, exact_product_moment,
                    exact_sbar_periodic, exact_tau1_periodic_continuous,
                    exact_walk_distribution, velocity_periodic)
from .series import (SeriesValue, lambda_factor, sbar_quenched, shat_quenched,
                     u_quenched, v_quenched)
from .walks import EnsembleResult, ensemble_continuous, ensemble_discrete

__version__ = "0.1.0"
