"""Finite-gain analysis toolkit for dither-based extremum-seeking schemes:
exact symbolic/trigonometric algebra, an order-n averaging engine,
contraction-based error bounds, gain meta-optimization, and simulation
validation."""

__version__ = "0.1.0"

from .averaging import (AveragingResult, ResidualReport, average,
                        autonomy_residual, transform_points)
from .contraction import (BoundsLedger, ContractionEstimate, ErrorBudget,
                          NonContractingError, SingularPerturbationInputs,
                          build_ledger, contraction_rate, lie_along,
                          plant_coupling_bound, robustness_tube,
                          singular_perturbation_bound)
from .fourieralg import (GradedField, HarmonicOverflowError, SeparableTerm,
                         TrigPoly, exp_operator_apply, lie_bracket,
                         shifted_bracket, unit_term)
from .metaopt import (ConsistencyReport, FrequencyTuning, InfeasibleError,
                      MetaOptProblem, MetaOptSolution, consistency_report,
                      solve_monomial, solve_numeric,
                      solve_strategy3_closed_form, tune_filtered,
                      tune_frequency)
from .schemes import (DitherSpec, SchemeInstance, ideal_flow,
                      reference_averaged, scheme_field, scheme_graded_field,
                      scheme_rhs)
from .sim import (ErrorMetrics, PerfMap, SimulationOverflowError, Trajectory,
                  compare, convergence_time, integrate, performance_map)
from .symexpr import (Domain, Domain1D, Domain2D, EvalOverflowError, Field,
                      ParseError, SupNormEstimate, compile_expr,
                      differentiate, eval_expr, parse_expr, scan_supnorm,
                      to_string)
