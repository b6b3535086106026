"""Verification and classification of solved profiles.

Residual checks differentiate the nodal flux once (first derivative on
scattered nodes, closed-form 7-point Lagrange weights); values are never
second-differenced.  Asymptotic limits come from Richardson extrapolation
over geometric ladders with an empirical error bar.  Decay classification
works off the log-slope X = r f_r / f, whose two candidate limits are
separated by a computable gap for every admissible (n, m).  The anomalous
exponent is the beta at which the origin profile joins the fast-decay
saddle: the root of the difference of Y = r^2 f^{1-m} between the origin
and the far-field manifold where each first crosses X = -2/(1-m), each
integrated from its series seam to that crossing and no farther.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

# perfbench traces solve_origin_profile here (integrate.probe), though no
# check calls it
from .integrate import section_Y, solve_origin_profile
from .inversion import fside_samples
from .params import (DomainError, ProfileParams, classify_regime, derive_params,
                     require_origin_admissible)
from .profile import Profile, ProfileKind, TerminalEvent


class InsufficientRange(RuntimeError):
    """The profile does not span enough radius to build an extrapolation ladder."""


class BadBracket(RuntimeError):
    """The bracket ends do not straddle beta*, or a solve misses the section."""


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
    # a2 - d2 d2/(d2 - d1), with no difference squared: on far ladders of
    # r^k f with k near 120 the square of a jump overflows
    d1, d2 = a1 - a0, a2 - a1
    den = d2 - d1
    if abs(den) < 1e-300 or not math.isfinite(den):
        return a2
    e = a2 - d2 * (d2 / den)
    return e if math.isfinite(e) else a2


def _richardson(seq) -> Estimate:
    """Extrapolate a ladder ordered toward its limit; error = last move of
    the estimate, and at least the last jump when the jumps grow: Aitken
    then gives an antilimit (0 for a geometric divergence), not a limit."""
    seq = [float(s) for s in seq]
    if len(seq) >= 4:
        e1 = _aitken(seq[-4], seq[-3], seq[-2])
        e = _aitken(seq[-3], seq[-2], seq[-1])
        error = abs(e - e1)
    else:
        e = _aitken(seq[-3], seq[-2], seq[-1])
        error = abs(e - seq[-1])
    jump = abs(seq[-1] - seq[-2])
    if jump > abs(seq[-2] - seq[-3]):
        error = max(error, jump)
    return Estimate(e, error)


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
    fs, frs = (a.tolist() for a in fside_samples(profile, radii))
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
    near = _ladder(profile, far=False)   # the far ladder's span holds it too
    if near[-1] <= 1e-3:
        slope_origin = _richardson(_sample(profile, near)[2])
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
    def check(lhs: np.ndarray, r: np.ndarray, tie_sign=0.0) -> "Verdict":
        """Strict positivity of lhs over nodes.

        A node where lhs rounds to exactly zero counts as holding when
        tie_sign is positive there: tie_sign is an algebraically equivalent
        quantity evaluated in a cancellation-free form, so its sign settles
        strictness below the resolution of the direct difference.  A NaN node
        fails: nothing about it is known to hold.
        """
        lhs = np.asarray(lhs, dtype=float)
        holds = (lhs > 0.0) | ((lhs == 0.0) & (np.asarray(tie_sign) > 0.0))
        margin = float(np.min(lhs))
        if holds.all():
            return Verdict("holds", margin=margin)
        i = int(np.argmin(holds))   # the first failing node
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


def _shape_of_signs(sign, place) -> Shape:
    """Shape from the sign of f_r in ascending f-radius order; place(i) is
    the radius of a single maximum between entries i and i + 1."""
    flips = np.nonzero(np.diff(sign) != 0.0)[0]
    if len(flips) == 0:
        return Shape("monotone-decreasing") if sign[0] < 0 else Shape("irregular")
    if len(flips) == 1 and sign[0] > 0 and sign[-1] < 0:
        return Shape("interior-maximum", r_max=float(place(flips[0])))
    return Shape("irregular")


def classify_shape(profile: Profile) -> Shape:
    """Monotone decrease versus a single interior maximum, on the f-side."""
    if profile.kind is ProfileKind.ORIGIN:
        r, fr = profile.r, profile.vr
        sign = np.sign(fr)
        sign[sign == 0.0] = -1.0
        # linear zero crossing of f_r between the bracketing nodes
        return _shape_of_signs(
            sign, lambda i: r[i] + (r[i + 1] - r[i]) * fr[i] / (fr[i] - fr[i + 1]))

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
    s = profile.r[keep][::-1]            # ascending f-radius order
    hk = h[keep][::-1]
    # linear zero crossing of k g + s g_r, in s, between the bracketing nodes
    return _shape_of_signs(
        -np.sign(hk),
        lambda i: 1.0 / (s[i + 1] + (s[i] - s[i + 1]) * hk[i + 1] / (hk[i + 1] - hk[i])))


# ---------------------------------------------------------------------------
# anomalous exponent


@dataclass(frozen=True)
class BetaSearchResult:
    beta_star: float
    bracket: tuple[float, float]
    probes: int
    history: tuple = field(default=())   # (beta, gap, side) per gap evaluation

    def __float__(self) -> float:
        return self.beta_star


def saddle_gap(p: ProfileParams, eta0: float, tol: float = 1e-9) -> float:
    """D = Y_origin - Y_fast on the section X = -2/(1-m).

    Y_origin is read on the origin manifold (from eta0), Y_fast on the
    stable manifold of the fast-decay point (-k, 0) (the far-field chart
    from eta = 1), each by integrate.section_Y: one integration from the
    series seam, stopped on its first step across the section, the
    nullcline of Y.  The scaling symmetry moves a datum along its manifold,
    so D depends on beta alone; it vanishes where the manifolds join, at
    the anomalous exponent, and is positive below it, where the origin
    profile vanishes at finite radius, after it crosses the section.  tol
    bounds each Y relative to its own size, so D carries an absolute error
    of about tol Y; below that, the sign of D is noise of the step sequence.
    """
    ys = []
    for kind, boundary in ((ProfileKind.ORIGIN, eta0), (ProfileKind.FARFIELD, 1.0)):
        y, why = section_Y(p, kind, boundary, tol)
        if y is None:
            raise BadBracket(f"the {kind.value} solve at beta={p.beta:g} never "
                             f"reaches the section X = -2/(1-m) ({why})")
        ys.append(y)
    return ys[0] - ys[1]


def find_anomalous_beta(n: int, m: float, rho1: float, eta0: float,
                        bracket: tuple[float, float], tol_beta: float = 1e-3,
                        tol: float = 1e-9) -> BetaSearchResult:
    """Root of saddle_gap in beta, bracketed to tol_beta.

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): an end that
    stays put for a second step running has its gap halved.  A step that
    did not halve the bracket, to within tol_beta/2, is followed by a
    bisection, and every trial point stays tol_beta/2 inside the bracket, so
    a trial next to the root lands across it.  The slack keeps a trial that
    lands next to both the root and the midpoint, as the first one does
    where the gap is odd in beta, from costing a bisection on the side the
    gap's noise reads it.  The sign of the gap at each point is its side: -1
    (D > 0, the origin profile vanishes) below the root, +1 above.
    """
    lo, hi = (float(min(bracket)), float(max(bracket)))
    if lo == hi:
        raise DomainError("bracket has zero width")
    for b in (lo, hi):
        require_origin_admissible(derive_params(n, m, rho1, b))
    # below a few ulps no trial point fits strictly inside the bracket
    floor = 4.0 * math.ulp(max(abs(lo), abs(hi)))
    if not tol_beta > floor:
        raise DomainError(f"tol_beta={tol_beta} violates tol_beta > {floor:g}")

    history = []

    def gap(b):
        d = saddle_gap(derive_params(n, m, rho1, b), eta0, tol)
        history.append((b, d, -1 if d > 0.0 else 1))
        return d

    d_lo, d_hi = gap(lo), gap(hi)
    if not d_lo > 0.0 >= d_hi:
        how = "the same side" if (d_lo > 0.0) == (d_hi > 0.0) else "swapped sides"
        raise BadBracket(f"both bracket ends classify to {how} "
                         f"at beta={lo:g} and beta={hi:g}")
    moved, bisect = None, False
    while hi - lo > tol_beta:
        width = hi - lo
        b = 0.5 * (lo + hi) if bisect else lo - d_lo * width / (d_hi - d_lo)
        b = min(max(b, lo + 0.5 * tol_beta), hi - 0.5 * tol_beta)
        d = gap(b)
        if d > 0.0:
            d_hi *= 0.5 if moved == "lo" else 1.0
            lo, d_lo, moved = b, d, "lo"
        else:
            d_lo *= 0.5 if moved == "hi" else 1.0
            hi, d_hi, moved = b, d, "hi"
        bisect = not bisect and hi - lo > 0.5 * (width + tol_beta)
    # the secant root of the true end gaps lies in the bracket, and on a
    # nearly linear gap far closer to beta* than the midpoint
    d_of = {b: d for b, d, _ in history}
    beta_star = lo - d_of[lo] * (hi - lo) / (d_of[hi] - d_of[lo])
    return BetaSearchResult(beta_star=beta_star, bracket=(lo, hi),
                            probes=len(history), history=tuple(history))


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
