"""fraclab: desk-scale numerics for multi-term time-fractional diffusion.

The package evaluates Caputo operators on time grids, the symbol calculus
of the conjugated and convexified operator (weighted symbols, Poisson
brackets, subellipticity lower bounds), the changes of variables behind the
continuation argument, a finite-difference solver for the equation itself,
and a discrete sweep of the weighted a-priori inequality.
"""

from .fields import (EllipticCoeffField, constant_field,
                     diagonal_variable_field, field_from_config,
                     identity_field, polynomial_field,
                     rotating_anisotropic_field)
from .fractional import (ConvergenceError, MultiTermSpec, TimeGrid,
                         caputo_l1, caputo_oracle, caputo_power_rule,
                         l1_weights, multiterm_l1, rl_integral_l1)
from .geometry import (ContinuationRegion, CutoffSpec, HolmgrenFrame,
                       HolmgrenMap, continuation_schedule,
                       global_coefficients, global_diffeo_forward,
                       global_diffeo_inverse, make_cutoffs,
                       pushforward_operator, smooth_step, stretch_weights,
                       weighted_ellipticity_margin)
from .symbols import (CarlemanWeightParams, CharacteristicSample,
                      CertificateReport, SampleRegion, anisotropic_scale,
                      c_alpha, c_alpha_sharp, char_set_sample,
                      find_min_varpi, fractional_symbol, full_region_sample,
                      garding_precondition_check, imag_part_margin,
                      lemma21_check, lemma61_check, real_part_constant,
                      real_part_margin, region_for, weighted_symbol)
from .solver import (SolutionField, SolveResult, SpaceTimeGrid,
                     apply_discrete_operator, load_solution, save_solution,
                     solve, ucp_experiment)
from .carleman import (SweepResult, SweepRow, CompactBump, beta_sweep,
                       carleman_lhs, conjugated_operator, default_bump_family,
                       sweep_rows_csv)

__version__ = "0.1.0"
