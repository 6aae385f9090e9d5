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
from .fractional import (ConvergenceError, MultiTermSpec, Series, TimeGrid,
                         caputo_apply, caputo_l1, caputo_oracle,
                         caputo_power_rule, l1_weights, multiterm_apply,
                         multiterm_l1, rl_integral_l1)
from .geometry import (ContinuationRegion, CutoffSpec, HolmgrenFrame,
                       HolmgrenMap, continuation_schedule,
                       global_coefficients, global_diffeo_forward,
                       global_diffeo_inverse, global_diffeo_jacobian_diag,
                       make_cutoffs, pushforward_operator, smooth_step,
                       stretch_weights, weighted_ellipticity_margin)
from .symbols import (BracketReport, CarlemanWeightParams,
                      CharacteristicSample, CertificateReport, PhasePoint,
                      SampleRegion, SymbolValue, anisotropic_scale, c_alpha,
                      c_alpha_sharp, char_set_sample, find_min_varpi,
                      fractional_symbol, full_region_sample,
                      garding_precondition_check, imag_part_margin,
                      lambda_symbol, lemma21_check, lemma61_check,
                      poisson_bracket, poisson_bracket_generic,
                      real_part_constant, real_part_margin, region_for,
                      symbol_gradients, total_symbol,
                      weighted_principal_symbol)
from .solver import (LowerOrderTerm, SolutionField, SolveResult,
                     SpaceTimeGrid, UcpConfig, UcpReport,
                     apply_discrete_operator, load_solution, save_solution,
                     solve, ucp_experiment)
from .carleman import (BetaSweepConfig, SweepResult, SweepRow, CompactBump,
                       beta_sweep, carleman_lhs, carleman_rhs,
                       conjugated_operator, default_bump_family,
                       sweep_rows_csv)

__version__ = "0.1.0"
