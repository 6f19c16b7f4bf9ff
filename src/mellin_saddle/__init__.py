"""Numerics for inverse Mellin transforms, moment power series, and their
saddle-point asymptotics.

The library evaluates, for an admissible moment weight gamma:

  * K(z), the contour integral (2 pi i)^{-1} int z^{-s} gamma(s) ds, which
    solves the Stieltjes moment problem int t^n K(t) dt = gamma(n+1);
  * E(z) = sum z^n / gamma(n+1), the entire series with those moments;
  * the saddle equation Phi(s) = log z and the growth/decay region split;
  * closed-form leading asymptotics of both functions at the saddle;
  * constructors for admissible weights (factorial shifts, iterated-log
    scales, slowly-varying integral representations, Stieltjes-positive
    representations) and verification suites binding numerics to the
    asymptotic claims.
"""

from .surface import LogSurfacePoint, QuadratureResult, Tolerances, log_surface_pow
from .catalog import (AdmissibleFunction, AuditReport, FunctionSpec,
                      PositiveTypeSpec, SlowlyVaryingEll, audit_admissibility,
                      build, build_positive_type, build_theorem3, ell_power,
                      ell_exp_sqrt_log, exp_scale,
                      gamma_shift, iterated_log, log_of_scale,
                      monomial_exponent, positive_type_degenerate,
                      positive_type_factorial, positive_type_iterated_log,
                      power, product, quotient, shift_normalize)
from .saddle import (RegionTag, SaddleSolution, boundary_psi, classify,
                     point_with_saddle_radius, solve, solve_real)
from .transforms import (AbelPlanaParts, ContourSpec, eval_abel_plana_parts,
                         eval_abel_plana_rhs, eval_E_series, eval_growth_sum,
                         eval_K, moment)
from .asymptotics import (AsymptoticValue, E_asymptotic, K_asymptotic,
                          duality_product, local_gaussian_reference,
                          local_gaussian_saddle)
from .verification import (VerificationReport, scan_ratio, verify_carleman,
                           verify_moments, verify_positivity,
                           verify_theorem3_limits)
from .errors import (BuildError, MellinSaddleError, NoSaddleError,
                     NumericalError, PowerOverflowError, QuadratureError,
                     RegionError, SpecError)

__version__ = "0.1.0"
