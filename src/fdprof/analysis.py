"""Verification and classification of solved profiles.

Residual checks differentiate the stored flux once (first derivative on
scattered nodes, closed-form 7-point Lagrange weights); values are never
second-differenced.  Asymptotic limits come from Richardson extrapolation
over geometric ladders with an empirical error bar.  Decay classification
and the anomalous-exponent search both work off the log-slope
s(r) = r f_r / f, whose two candidate limits are separated by a computable
gap for every admissible (n, m).
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .integrate import ContinuationFailed, solve_origin_profile
from .inversion import fside_samples
from .params import (DomainError, ProfileParams, classify_regime, derive_params,
                     require_origin_admissible)
from .profile import Profile, ProfileKind, TerminalEvent


class InsufficientRange(RuntimeError):
    """The profile does not span enough radius to build an extrapolation ladder."""


class BadBracket(RuntimeError):
    """The bracket ends classify to the same side, or probes lost monotone order."""


class RangeError(ValueError):
    """A rescaled evaluation radius left the stored profile range."""


# ---------------------------------------------------------------------------
# residual


def flux_slope(r: np.ndarray, P: np.ndarray):
    """P' at the interior nodes of strictly increasing radii r.

    Each interior node i gets the derivative of the Lagrange interpolant
    through its 2h neighbours and itself, h = 3 (or 2 when there are fewer
    than 7 nodes).  In offsets x_j = (r_{i+j} - r_i)/r_i, scaled by the centre
    so that radii near 1e-60 do not underflow, the weight of neighbour j is
    prod_{l != j} x_l/(x_l - x_j) / x_j and the centre weight is
    -sum_j 1/x_j.  The sum is taken as sum_j w_j (P_{i+j} - P_i): the same
    value, but its rounding scales with the differences, not with P, which
    matters on far tails where P is nearly constant.  Returns the slice of
    interior nodes and P' there.
    """
    N = len(r)
    h = 3 if N >= 7 else 2
    inner = slice(h, N - h)
    rc, Pc = r[inner], P[inner]
    offsets = [j for j in range(-h, h + 1) if j]
    x = {j: (r[h + j:N - h + j] - rc) / rc for j in offsets}
    total = np.zeros_like(rc)
    for j in offsets:
        wj = 1.0 / x[j]
        for l in offsets:
            if l != j:
                wj = wj * (x[l] / (x[l] - x[j]))
        total += wj * (P[h + j:N - h + j] - Pc)
    return inner, total / rc


def ode_residual(profile: Profile) -> float:
    """Worst relative defect of the profile equation over interior nodes.

    The flux form P' = -r^w (A v + B r v_r) is checked with P' recovered by
    differentiating once the flux P = r^{n-1} v^{m-1} v_r of the stored
    (r, v, v_r) triples, which are exactly what a profile CSV holds; no value
    is ever second-differenced.  Nodes where every term vanishes are
    skipped; a NaN defect at any other node makes the result NaN.
    """
    r, v, vr = profile.r, profile.v, profile.vr
    N = len(r)
    if N < 5:
        raise DomainError(f"profile has {N} nodes; residual needs at least 5")
    chart = profile.chart
    w, A, B = chart.w, chart.A, chart.B
    inner, dP_fd = flux_slope(r, chart.flux(r, v, vr))
    r, v, vr = r[inner], v[inner], vr[inner]
    rhs = chart.dflux(r, v, vr)
    den = np.abs(dP_fd) + r ** w * (abs(A) * np.abs(v) + abs(B) * r * np.abs(vr))
    keep = den != 0.0
    defect = np.abs(dP_fd[keep] - rhs[keep]) / den[keep]
    return float(np.max(defect, initial=0.0))


# ---------------------------------------------------------------------------
# limits


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float


def _aitken(a0: float, a1: float, a2: float) -> float:
    den = (a2 - a1) - (a1 - a0)
    if abs(den) < 1e-300 or not math.isfinite(den):
        return a2
    e = a2 - (a2 - a1) ** 2 / den
    return e if math.isfinite(e) else a2


def _richardson(seq) -> Estimate:
    """Extrapolate a ladder ordered toward its limit; error = last jump."""
    seq = [float(s) for s in seq]
    if len(seq) >= 4:
        e1 = _aitken(seq[-4], seq[-3], seq[-2])
        e2 = _aitken(seq[-3], seq[-2], seq[-1])
        return Estimate(e2, abs(e2 - e1))
    e = _aitken(seq[-3], seq[-2], seq[-1])
    return Estimate(e, abs(e - seq[-1]))


def _ladder(profile: Profile, far: bool):
    """Geometric f-side radii, ordered toward the limit r -> inf (far) or r -> 0."""
    bottom, top = profile.fside_span
    if top < 4.0 * bottom:
        raise InsufficientRange(
            f"radial span [{bottom:g}, {top:g}] cannot hold a geometric ladder")
    count = 4 if top >= 8.0 * bottom else 3
    if far:
        return [top / 2 ** (count - 1 - j) for j in range(count)]
    return [bottom * 2 ** (count - 1 - j) for j in range(count)]


def _sample(profile: Profile, radii):
    """f, f_r and the log-slope r f_r / f at each f-side radius, as floats."""
    fs, frs = [], []
    for rr in radii:
        f, fr = fside_samples(profile, rr)
        fs.append(float(f))
        frs.append(float(fr))
    return fs, frs, [rr * fr / f for rr, f, fr in zip(radii, fs, frs)]


@dataclass(frozen=True)
class LimitEstimates:
    """Richardson estimates of the proven limits, with empirical error bars.

    l1: lim r^{(n-2)/m} f,  l2: lim r^{(n-2)/m+1} f_r,
    l3: lim r^2 f^{1-m} (exploratory outside the fast-decay regime),
    slope_origin: lim_{r->0} r f_r / f,  slope_far: lim_{r->inf} r f_r / f.
    """
    l1: Estimate
    l2: Estimate
    l3: Estimate
    slope_far: Estimate
    slope_origin: Estimate | None


def asymptotic_limits(profile: Profile) -> LimitEstimates:
    k = profile.params.k
    one_m = 1.0 - profile.params.m

    far = _ladder(profile, far=True)
    top = far[-1]
    if top < 50.0:
        raise InsufficientRange(
            f"largest radius {top:g} below the 50 needed for far-field limits")
    fs, frs, slopes = _sample(profile, far)
    l1 = _richardson([rr ** k * f for rr, f in zip(far, fs)])
    l2 = _richardson([rr ** (k + 1.0) * fr for rr, fr in zip(far, frs)])
    l3 = _richardson([rr ** 2 * f ** one_m for rr, f in zip(far, fs)])
    slope_far = _richardson(slopes)

    slope_origin = None
    try:
        near = _ladder(profile, far=False)
        if near[-1] <= 1e-3:
            slope_origin = _richardson(_sample(profile, near)[2])
    except InsufficientRange:
        pass
    return LimitEstimates(l1=l1, l2=l2, l3=l3, slope_far=slope_far,
                          slope_origin=slope_origin)


def l3_reference(p: ProfileParams) -> float:
    """Reference constant for the quadratic-decay limit; diagnostic only.

    In X = r f_r / f, Y = r^2 f^{1-m} and t = ln r the profile equation is
    X' = -X (n-2 + m X) - Y (alpha + beta X), Y' = Y (2 + (1-m) X).  Slow
    decay is its fixed point with Y != 0: Y' = 0 gives X* = -2/(1-m), where
    n-2 + m X* = (n-2-nm)/(1-m) and alpha + beta X* = rho1/(1-m) (using
    alpha (1-m) - 2 beta = rho1), so X' = 0 gives
    Y* = 2 (n-2-nm) / ((1-m) rho1).
    """
    return 2.0 * (p.n - 2.0 - p.n * p.m) / ((1.0 - p.m) * p.rho1)


# ---------------------------------------------------------------------------
# inequalities


@dataclass(frozen=True)
class Verdict:
    status: str                  # "holds" | "fails-at" | "not-applicable"
    margin: float | None = None  # minimum of the left-hand side over nodes
    at_r: float | None = None    # first violating radius when status == "fails-at"

    @staticmethod
    def check(lhs: np.ndarray, r: np.ndarray, tie_sign=None) -> "Verdict":
        """Strict positivity of lhs over nodes.

        A node where lhs rounds to exactly zero counts as holding when
        tie_sign is positive there: tie_sign is an algebraically equivalent
        quantity evaluated in a cancellation-free form, so its sign settles
        strictness below the resolution of the direct difference.
        """
        lhs = np.asarray(lhs, dtype=float)
        bad = lhs < 0.0
        if tie_sign is None:
            bad |= lhs == 0.0
        else:
            bad |= (lhs == 0.0) & ~(np.asarray(tie_sign) > 0.0)
        margin = float(np.min(lhs))
        if not bad.any():
            return Verdict("holds", margin=margin)
        i = int(np.nonzero(bad)[0][0])
        return Verdict("fails-at", margin=margin, at_r=float(r[i]))


NOT_APPLICABLE = Verdict("not-applicable")


def verify_inequalities(profile: Profile) -> dict[str, Verdict]:
    """Tri-state verdicts for the proven pointwise inequalities.

    mass_monotonicity:   f + (m/(n-2)) r f_r > 0   (r^{(n-2)/m} f increasing)
    eta_upper_bound:     eta - r^{(n-2)/m} f > 0   (far-field profiles only)
    drift_positivity_f:  alpha f + beta r f_r > 0  (only when beta > 0)
    drift_positivity_g:  alpha~ g + beta~ r g_r > 0 (when the comparison
                         argument applies, see RegimeFlags.lemma_applicable)
    monotone_decreasing: -v_r > 0 on the native samples

    On far-field profiles the f-side combinations are evaluated through the
    transform identities (for example f + (m/(n-2)) r f_r maps to a positive
    multiple of -g_r), which avoids catastrophic cancellation at nodes whose
    image radius is enormous.
    """
    p = profile.params
    flags = classify_regime(p)
    r, v, vr = profile.r, profile.v, profile.vr
    out: dict[str, Verdict] = {}
    cm = p.m / (p.n - 2.0)

    if profile.kind is ProfileKind.ORIGIN:
        out["mass_monotonicity"] = Verdict.check(v + cm * r * vr, r)
        out["eta_upper_bound"] = NOT_APPLICABLE
        if p.beta > 0.0:
            out["drift_positivity_f"] = Verdict.check(p.alpha * v + p.beta * r * vr, r)
        else:
            out["drift_positivity_f"] = NOT_APPLICABLE
        out["drift_positivity_g"] = NOT_APPLICABLE
        if flags.origin_admissible:
            out["monotone_decreasing"] = Verdict.check(-vr, r)
        else:
            out["monotone_decreasing"] = NOT_APPLICABLE
        return out

    # far-field profile: native samples are g(r); the image radius is 1/r
    sk = r ** p.k
    out["mass_monotonicity"] = Verdict.check(cm * sk * r * (-vr), 1.0 / r,
                                             tie_sign=-vr)
    out["eta_upper_bound"] = Verdict.check(profile.boundary - v, 1.0 / r,
                                           tie_sign=-vr)
    if p.beta > 0.0:
        tie = p.alpha_tilde * v - p.beta * r * vr
        out["drift_positivity_f"] = Verdict.check(sk * tie, 1.0 / r, tie_sign=tie)
    else:
        out["drift_positivity_f"] = NOT_APPLICABLE
    if flags.lemma_applicable:
        out["drift_positivity_g"] = Verdict.check(
            p.alpha_tilde * v + p.beta_tilde * r * vr, r)
    else:
        out["drift_positivity_g"] = NOT_APPLICABLE
    if p.alpha_tilde > 0.0:
        out["monotone_decreasing"] = Verdict.check(-vr, r)
    else:
        out["monotone_decreasing"] = NOT_APPLICABLE
    return out


# ---------------------------------------------------------------------------
# decay classification


class DecayLabel(enum.Enum):
    FAST = "Fast"
    SLOW = "Slow"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class DecayClass:
    label: DecayLabel
    measured_slope: float
    target_fast: float
    target_slow: float

    @property
    def gap(self) -> float:
        return abs(self.target_fast - self.target_slow)


def classify_decay(profile: Profile) -> DecayClass:
    """Assign Fast/Slow from the far log-slope, Undetermined between bands.

    Fast only within gap/4 of -(n-2)/m, Slow only within gap/4 of -2/(1-m);
    the gap is positive for every admissible (n, m).
    """
    p = profile.params
    target_fast = -p.k
    target_slow = -2.0 / (1.0 - p.m)
    try:
        slope = _richardson(_sample(profile, _ladder(profile, far=True))[2]).value
    except InsufficientRange:
        if profile.kind is ProfileKind.ORIGIN:
            slope = float(profile.r[-1] * profile.vr[-1] / profile.v[-1])
        else:
            f, fr = fside_samples(profile, 1.0 / profile.r[0])
            slope = float(fr / f / profile.r[0])
    gap = abs(target_fast - target_slow)
    if abs(slope - target_fast) < gap / 4.0:
        label = DecayLabel.FAST
    elif abs(slope - target_slow) < gap / 4.0:
        label = DecayLabel.SLOW
    else:
        label = DecayLabel.UNDETERMINED
    return DecayClass(label, slope, target_fast, target_slow)


# ---------------------------------------------------------------------------
# shape


@dataclass(frozen=True)
class Shape:
    label: str                # "monotone-decreasing" | "interior-maximum" | "irregular"
    r_max: float | None = None


def classify_shape(profile: Profile) -> Shape:
    """Monotone decrease versus a single interior maximum, on the f-side."""
    if profile.kind is ProfileKind.ORIGIN:
        r, fr = profile.r, profile.vr
        sign = np.sign(fr)
        sign[sign == 0.0] = -1.0
        flips = np.nonzero(np.diff(sign) != 0.0)[0]
        if len(flips) == 0:
            return Shape("monotone-decreasing") if sign[0] < 0 else Shape("irregular")
        if len(flips) == 1 and sign[0] > 0 and sign[-1] < 0:
            i = flips[0]
            # linear zero crossing of f_r between the bracketing nodes
            r0 = r[i] + (r[i + 1] - r[i]) * fr[i] / (fr[i] - fr[i + 1])
            return Shape("interior-maximum", r_max=float(r0))
        return Shape("irregular")

    # far-field chart: the mapped derivative sign at radius 1/s is
    # -sign(k*g + s*g_r).  Where that combination is a small difference of
    # like-size terms it sits below the trajectory's noise floor, so such
    # nodes are excluded from flip counting instead of flipping spuriously.
    p = profile.params
    h = p.k * profile.v + profile.r * profile.vr
    mag = p.k * profile.v + profile.r * np.abs(profile.vr)
    band = max(1e-4, 1e5 * profile.tol)
    keep = np.abs(h) > band * mag
    if not keep.any():
        return Shape("irregular")
    s = profile.r[keep]
    hk = h[keep]
    sign = -np.sign(hk[::-1])            # ascending f-radius order
    flips = np.nonzero(np.diff(sign) != 0.0)[0]
    if len(flips) == 0:
        return Shape("monotone-decreasing") if sign[0] < 0 else Shape("irregular")
    if len(flips) == 1 and sign[0] > 0 and sign[-1] < 0:
        j = len(sign) - 1 - flips[0]     # back to descending-index native order
        s0 = s[j - 1] + (s[j] - s[j - 1]) * hk[j - 1] / (hk[j - 1] - hk[j])
        return Shape("interior-maximum", r_max=float(1.0 / s0))
    return Shape("irregular")


# ---------------------------------------------------------------------------
# anomalous exponent


@dataclass(frozen=True)
class BetaSearchResult:
    beta_star: float
    bracket: tuple[float, float]
    probes: int
    history: tuple = field(default=())   # (beta, measured_slope, side) per probe

    def __float__(self) -> float:
        return self.beta_star


def _probe_side(n, m, rho1, eta0, beta, tol, r_max):
    """Side of the positivity boundary at beta: -1 vanishing, +1 global."""
    p = derive_params(n, m, rho1, beta)
    try:
        prof = solve_origin_profile(p, eta0, r_max, tol=tol)
    except ContinuationFailed:
        # value floor (or step collapse chasing it): the profile vanishes at
        # finite radius, so beta sits below the anomalous exponent
        return -1, -math.inf
    return 1, classify_decay(prof).measured_slope


def find_anomalous_beta(n: int, m: float, rho1: float, eta0: float,
                        bracket: tuple[float, float], tol_beta: float = 1e-3,
                        tol: float = 1e-9, r_max: float = 800.0) -> BetaSearchResult:
    """Bisect for the exponent at the edge of global positivity.

    Below the anomalous exponent the origin profile vanishes at a finite
    radius (the continuation ends in a value-floor event); at and above it
    the profile stays positive out to r_max, with the fast decay rate
    attained exactly at the exponent.  Each probe is a full origin solve;
    survival to r_max decides the side, and the measured far slope of each
    surviving probe is kept in the history as a diagnostic.  Probes must
    stay ordered (every vanishing beta below every surviving beta) or the
    search aborts with BadBracket.
    """
    lo, hi = (float(min(bracket)), float(max(bracket)))
    if not tol_beta > 0.0:
        raise DomainError(f"tol_beta={tol_beta} violates tol_beta > 0")
    if lo == hi:
        raise DomainError("bracket has zero width")
    for b in (lo, hi):
        require_origin_admissible(derive_params(n, m, rho1, b))

    history = []
    sides = {}

    def probe(b):
        side, slope = _probe_side(n, m, rho1, eta0, b, tol, r_max)
        history.append((b, slope, side))
        sides[b] = side
        below = [x for x, s in sides.items() if s == -1]
        above = [x for x, s in sides.items() if s == +1]
        if below and above and max(below) > min(above):
            raise BadBracket(
                f"probe ordering violated: fast side at beta={max(below):g} "
                f"above slow side at beta={min(above):g}")
        return side

    s_lo, s_hi = probe(lo), probe(hi)
    if s_lo == s_hi:
        raise BadBracket(
            f"both bracket ends classify to the same side at beta={lo:g} and beta={hi:g}")

    while hi - lo > tol_beta:
        mid = 0.5 * (lo + hi)
        if probe(mid) < 0:
            lo = mid
        else:
            hi = mid
    return BetaSearchResult(beta_star=0.5 * (lo + hi), bracket=(lo, hi),
                            probes=len(history), history=tuple(history))


def certify_bracket(n, m, rho1, eta0, result: BetaSearchResult,
                    tol: float = 1e-9, r_max: float = 800.0) -> bool:
    """Re-solve the final bracket ends 10x tighter; sides must still differ."""
    lo, hi = result.bracket
    s_lo, _ = _probe_side(n, m, rho1, eta0, lo, tol / 10.0, r_max)
    s_hi, _ = _probe_side(n, m, rho1, eta0, hi, tol / 10.0, r_max)
    return s_lo == -1 and s_hi == +1


# ---------------------------------------------------------------------------
# space-time solution


def selfsimilar_eval(profile: Profile, T: float, x_norm: float, t: float) -> float:
    """V(x, t) = (T-t)^alpha f((T-t)^beta |x|), f by dense interpolation."""
    if not t < T:
        raise DomainError(f"t={t} violates t < T={T}")
    p = profile.params
    tau = T - t
    rr = tau ** p.beta * x_norm
    lo, hi = profile.fside_span
    if not (lo <= rr <= hi):
        raise RangeError(
            f"rescaled radius {rr:g} outside the stored range [{lo:g}, {hi:g}]")
    f, _ = fside_samples(profile, rr)
    return float(tau ** p.alpha * f)


def pde_residual_V(profile: Profile, T: float, space_grid, time_grid,
                   h: float) -> float:
    """Max relative defect of u_t = Laplacian(u^m/m) on the sampled grid.

    Second-order central differences in t and in the radial direction; the
    defect is scaled by the magnitudes of the terms entering the equation.
    """
    p = profile.params
    m = p.m
    n1 = p.n - 1.0
    worst = 0.0
    for x in np.asarray(space_grid, dtype=float):
        if x - h <= 0.0:
            raise RangeError(f"radial stencil at x={x:g} reaches r <= 0 with h={h:g}")
        for t in np.asarray(time_grid, dtype=float):
            Vt = (selfsimilar_eval(profile, T, x, t + h)
                  - selfsimilar_eval(profile, T, x, t - h)) / (2.0 * h)
            w0 = selfsimilar_eval(profile, T, x, t) ** m / m
            wp = selfsimilar_eval(profile, T, x + h, t) ** m / m
            wm = selfsimilar_eval(profile, T, x - h, t) ** m / m
            wxx = (wp - 2.0 * w0 + wm) / h ** 2
            wx1 = n1 / x * (wp - wm) / (2.0 * h)
            den = abs(Vt) + abs(wxx) + abs(wx1)
            if den == 0.0:
                continue
            defect = abs(Vt - wxx - wx1) / den
            if defect > worst:
                worst = defect
    return worst


# ---------------------------------------------------------------------------
# report assembly


def _estimate_dict(e: Estimate | None):
    if e is None:
        return None
    return {"value": e.value, "error": e.error}


def _verdict_dict(v: Verdict):
    d = {"status": v.status}
    if v.margin is not None:
        d["margin"] = v.margin
    if v.at_r is not None:
        d["at_r"] = v.at_r
    return d


@dataclass(frozen=True)
class SolveReport:
    params: ProfileParams
    boundary: float
    kind: ProfileKind
    terminal_event: TerminalEvent
    residual: float
    limits: LimitEstimates | None
    inequalities: dict
    decay: DecayClass
    shape: Shape

    def to_dict(self) -> dict:
        p = self.params
        flags = classify_regime(p)
        limits = {}
        if self.limits is not None:
            limits = {
                "L1": _estimate_dict(self.limits.l1),
                "L2": _estimate_dict(self.limits.l2),
                "L3": _estimate_dict(self.limits.l3),
                "slope_far": _estimate_dict(self.limits.slope_far),
                "slope_origin": _estimate_dict(self.limits.slope_origin),
            }
            if limits["L3"] is not None:
                limits["L3"]["exploratory"] = True
        return {
            "params": {
                "n": p.n, "m": p.m, "rho1": p.rho1, "beta": p.beta,
                "alpha": p.alpha, "alpha_tilde": p.alpha_tilde,
                "beta_tilde": p.beta_tilde, "delta0": p.delta0,
                "delta1": p.delta1, "beta_threshold": p.beta_threshold,
                "k": p.k, "sigma": p.sigma, "boundary": self.boundary,
            },
            "regime": {
                "profile_kind": self.kind.value,
                "origin_admissible": flags.origin_admissible,
                "farfield_admissible": flags.farfield_admissible,
                "singular_g_origin": flags.singular_g_origin,
                "lemma_applicable": flags.lemma_applicable,
            },
            "terminal_event": self.terminal_event.value,
            "residual": self.residual,
            "limits": limits,
            "inequalities": {k: _verdict_dict(v) for k, v in self.inequalities.items()},
            "decay_class": {
                "class": self.decay.label.value,
                "measured_slope": self.decay.measured_slope,
                "target_fast": self.decay.target_fast,
                "target_slow": self.decay.target_slow,
            },
            "shape": {"label": self.shape.label, "r_max": self.shape.r_max},
        }


def build_report(profile: Profile) -> SolveReport:
    """Run every check on a solved profile and collect the results."""
    residual = ode_residual(profile)
    try:
        limits = asymptotic_limits(profile)
    except InsufficientRange:
        limits = None
    return SolveReport(params=profile.params, boundary=profile.boundary,
                       kind=profile.kind, terminal_event=profile.terminal,
                       residual=residual, limits=limits,
                       inequalities=verify_inequalities(profile),
                       decay=classify_decay(profile), shape=classify_shape(profile))
