"""Self-similar profiles of the fast diffusion equation u_t = div(u^{m-1} grad u).

Radially symmetric backward self-similar solutions V(x, t) =
(T-t)^alpha f((T-t)^beta |x|) reduce to a one-dimensional profile equation.
This package constructs the origin and far-field profiles (the power series
of the invariant manifold that carries the datum near the boundary point,
then Taylor continuation outward by the same Cauchy-product recursion),
relates them through a Kelvin-type inversion, verifies the proven
invariants and asymptotics, and searches for the anomalous decay exponent.
"""
from .analysis import (BadBracket, BetaSearchResult, DecayClass, DecayLabel,
                       Estimate, LimitEstimates, RangeError, Shape, SolveReport,
                       Verdict, asymptotic_limits, build_report, classify_decay,
                       classify_shape, find_anomalous_beta, ode_residual,
                       pde_residual_V, selfsimilar_eval, verify_inequalities)
from .integrate import (ContinuationFailed, OdeState, Trajectory, advance_f,
                        continue_profile, solve_farfield_profile,
                        solve_origin_profile)
from .kernels import NUMBA_ENABLED
from .localsolve import (LocalSolution, LocalStageFailed, picard_f_origin,
                         picard_g_origin, singular_slope_limit)
from .params import (DomainError, ProfileParams, RegimeFlags, classify_regime,
                     derive_params, require_farfield_admissible,
                     require_origin_admissible)
from .profile import (Profile, ProfileKind, TerminalEvent, fside_nodes,
                      fside_samples, invert_pointwise, roundtrip)

__version__ = "0.1.0"

__all__ = [
    "BadBracket", "BetaSearchResult", "ContinuationFailed", "DecayClass",
    "DecayLabel", "DomainError", "Estimate",
    "LimitEstimates", "LocalSolution", "LocalStageFailed",
    "NUMBA_ENABLED", "OdeState", "Profile", "ProfileKind",
    "ProfileParams", "RangeError", "RegimeFlags", "Shape", "SolveReport",
    "TerminalEvent", "Trajectory", "Verdict", "advance_f",
    "asymptotic_limits", "build_report",
    "classify_decay", "classify_regime", "classify_shape",
    "continue_profile", "derive_params", "find_anomalous_beta", "fside_nodes",
    "fside_samples", "invert_pointwise", "ode_residual", "pde_residual_V",
    "picard_f_origin", "picard_g_origin", "require_farfield_admissible",
    "require_origin_admissible", "roundtrip", "selfsimilar_eval",
    "singular_slope_limit", "solve_farfield_profile", "solve_origin_profile",
    "verify_inequalities", "__version__",
]
