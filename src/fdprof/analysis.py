"""Verification and classification of solved profiles.

The residual check differentiates the nodal flux once, in the log nodes
(first derivative on scattered nodes, closed-form 7-point Lagrange weights
in ln x); values are never second-differenced.  The far-field limits and the
decay class are read off the state (X, Y) = (r f_r / f, r^2 f^{1-m}) at the
profile's f-side far end, formed by profile.Chart, which maps both ways
between a node and its reduced state: its distance from the fast point's
stable manifold, whose series localsolve sums, and from the slow fixed
point.  The inequality verdicts and the shape are sign conditions on X,
read at every node.  The anomalous exponent is the beta at which the
origin profile joins the fast-decay saddle: the root of the gap in 1/Y,
Y = r^2 f^{1-m}, between the far-field and the origin manifold where each
first crosses X = -2/(1-m), each integrated from its series seam to that
crossing and no farther.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

# perfbench traces solve_origin_profile here (integrate.probe), though no
# check calls it
from .integrate import section_Y, solve_origin_profile
from .localsolve import _settled, manifold_orders, series_terms
from .params import (DomainError, ProfileParams, classify_regime, derive_params,
                     require_origin_admissible)
from .profile import Chart, Profile, ProfileKind, TerminalEvent, fside_samples


class BadBracket(RuntimeError):
    """The bracket ends do not straddle beta*, or a solve misses the section."""


class RangeError(ValueError):
    """A rescaled evaluation radius left the stored profile range."""


# ---------------------------------------------------------------------------
# residual


def stencil(ln_x: np.ndarray):
    """First-derivative stencil on nodes strictly increasing in ln x: the
    slice of interior nodes i, the indices i + j of their neighbours and the
    weights w_j, one row per offset j, with
    x_i P'(x_i) = sum_j w_j (P_{i+j} - P_i).

    Node i takes the slope of the Lagrange interpolant through itself and its
    2h neighbours, h = 3 (2 below 7 nodes).  In the offsets
    x_j = expm1(ln x_{i+j} - ln x_i), which form no radius,
    w_j = prod_{l != j} x_l/(x_l - x_j) / x_j.  Summed over differences, the
    rounding scales with them, not with P, which matters on far tails where
    P is nearly constant.
    """
    N = len(ln_x)
    h = 3 if N >= 7 else 2
    inner = slice(h, N - h)
    nbr = np.arange(h, N - h) + np.array([*range(-h, 0), *range(1, h + 1)])[:, None]
    x = np.expm1(ln_x[nbr] - ln_x[inner])
    w = 1.0 / x
    for l in range(2 * h):
        d = x[l] - x
        d[l] = x[l]   # the factor l = j reads x_j / x_j = 1
        w *= x[l] / d
    return inner, nbr, w


@np.errstate(all="ignore")   # a NaN defect gives a NaN residual
def ode_residual(profile: Profile) -> float:
    """Worst relative defect of the profile equation over interior nodes.

    The chart's flux form P' = -x^w (A v + B x v_x), P = x^{n-1} v^{m-1} v_x,
    w = n-3+|lam|, divided at each stencil centre i by Q_i/x_i, Q = x^{n-2} v^m,
    reads only the log nodes (ln x, ln v, s = x v_x / v) and forms no power of
    x: sum_j w_j (s_{i+j} e^{q_{i+j} - q_i} - s_i) = -Y_i (A + B s_i), with
    q = ln Q and Y = x^|lam| v^{1-m}, the chart's own; the defect is taken over
    |lhs| + Y_i (|A| + |B| |s_i|).  P is differentiated once (see stencil) on
    the stored nodes, which a profile CSV holds; no value is second-differenced.
    Nodes where every term vanishes are skipped; a NaN defect at any other
    node, or no node left, reads NaN.
    """
    N = len(profile.r)
    if N < 5:
        raise DomainError(f"profile has {N} nodes; residual needs at least 5")
    chart, p = profile.chart, profile.params
    ln_x, ln_v, s = profile._log_nodes
    q = (p.n - 2.0) * ln_x + p.m * ln_v
    inner, nbr, w = stencil(ln_x)
    qc, sc = q[inner], s[inner]
    lhs = (w * (s[nbr] * np.exp(q[nbr] - qc) - sc)).sum(axis=0)
    Y = np.exp(chart.reduced(ln_x, ln_v, s)[1][inner])
    den = np.abs(lhs) + Y * (abs(chart.A) + abs(chart.B) * np.abs(sc))
    keep = den != 0.0
    defect = np.abs(lhs + Y * (chart.A + chart.B * sc))[keep] / den[keep]
    return float(np.max(defect)) if defect.size else math.nan


# ---------------------------------------------------------------------------
# far end: limits and decay class


@dataclass(frozen=True)
class Estimate:
    value: float
    error: float


@dataclass(frozen=True)
class LimitEstimates:
    """The far-field limits read in the phase plane, with error bars.

    l1: lim r^{(n-2)/m} f,  l2: lim r^{(n-2)/m+1} f_r (None where they
    diverge, as on Slow profiles, or where the read fails),
    l3: lim r^2 f^{1-m},  slope_far: lim_{r->inf} r f_r / f,
    slope_origin: lim_{r->0} r f_r / f (None on far-field profiles).
    """
    l1: Estimate | None
    l2: Estimate | None
    l3: Estimate
    slope_far: Estimate
    slope_origin: Estimate | None


class DecayLabel(enum.Enum):
    FAST = "Fast"
    SLOW = "Slow"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class DecayClass:
    label: DecayLabel
    measured_slope: float     # X = r f_r / f at the f-side far end
    target_fast: float
    target_slow: float


def l3_reference(p: ProfileParams) -> float:
    """Y* of the slow-decay fixed point: L3 of a Slow profile.

    In X = r f_r / f, Y = r^2 f^{1-m} and t = ln r the profile equation is
    X' = -X (n-2 + m X) - Y (alpha + beta X), Y' = Y (2 + (1-m) X).  Slow
    decay is its fixed point with Y != 0: Y' = 0 gives X* = -2/(1-m), where
    n-2 + m X* = (n-2-nm)/(1-m) and alpha + beta X* = rho1/(1-m) (using
    alpha (1-m) - 2 beta = rho1), so X' = 0 gives
    Y* = 2 (n-2-nm) / ((1-m) rho1).
    """
    return 2.0 * (p.n - 2.0 - p.n * p.m) / ((1.0 - p.m) * p.rho1)


def _far_end(profile: Profile):
    """(ln r, X, Y) at the f-side far end of the profile: its last origin
    node, or the Kelvin image r = 1/s of its first far-field node."""
    chart, i = profile.chart, -1 if profile.kind is ProfileKind.ORIGIN else 0
    ln_x, ln_v, s = (a[i] for a in profile._log_nodes)
    u, Z = chart.reduced(ln_x, ln_v, s)
    return (float(math.copysign(1.0, chart.lam) * ln_x), float(profile.fside_slope[2] + u),
            math.exp(Z))


def _manifold_theta(y: list, Y: float, theta: float) -> float | None:
    """theta > 0 with theta sum_j y_{j+1} theta^j = Y, by Newton from the given
    theta; None where Newton leaves theta > 0 or does not settle."""
    for _ in range(50):
        zy = series_terms(y, y, theta)[1]
        dP = sum(j * t for j, t in enumerate(zy, 1)) or math.nan   # flat: no theta
        step = (theta * sum(zy) - Y) / dP
        theta -= step
        if not 0.0 < theta < math.inf:
            return None
        if abs(step) <= 1e-13 * theta:
            return theta
    return None


@functools.lru_cache(maxsize=16)
def _read(p: ProfileParams, tol: float, X: float, Y: float):
    """(label, theta, du) of the far-end state (X, Y); cached, so that
    asymptotic_limits and classify_decay on one profile sum the series once.

    theta is the coordinate of the fast point's stable manifold (the
    far-field chart's series, at the least order manifold_orders yields that
    settles there) at the state's Y, each order's Newton starting from the
    last order's root, and du = X + k - U(theta) the state's distance from it
    along X (inf where theta is None).  Fast when |du| <= (n-2) sqrt(tol), where
    L1 is known to about half the digits the solve was asked for.  Slow
    when the slow point (-2/(1-m), Y*) attracts, which its Jacobian's
    trace -(n-2) + 4m/(1-m) - beta Y* < 0 decides (its determinant rho1 Y*
    is positive), and the state lies nearer to it than to (-k, 0).
    Undetermined otherwise.
    """
    theta = None   # no root yet: Newton starts from Y (y_1 = 1)
    for u, y in manifold_orders(Chart.of(p, ProfileKind.FARFIELD)):
        theta = _manifold_theta(y, Y, theta or Y)
        if theta and _settled(*(terms := series_terms(u, y, theta)), tol):
            break
    du = math.inf if theta is None else X + p.k - sum(terms[0])
    y_slow = l3_reference(p)
    trace = -(p.n - 2.0) + 4.0 * p.m / (1.0 - p.m) - p.beta * y_slow
    if abs(du) <= (p.n - 2.0) * math.sqrt(tol):
        label = DecayLabel.FAST
    elif trace < 0.0 and (math.hypot(X + 2.0 / (1.0 - p.m), Y - y_slow)
                          < math.hypot(X + p.k, Y)):
        label = DecayLabel.SLOW
    else:
        label = DecayLabel.UNDETERMINED
    return label, theta, du


def asymptotic_limits(profile: Profile) -> LimitEstimates:
    """The limits of the fixed point the far-end state reads toward.

    A Slow read's point is (-2/(1-m), Y*), where r^k f diverges: l1 and
    l2 are None.  Any other read takes the fast point (-k, 0), and
    L1 = eta = (theta r^sigma)^{1/(1-m)}, the far-field datum of the
    manifold through the state.  To first order its relative error is
    |du|/(n-2): the growing mode e^{(n-2) t} that carries du moves ln Y by
    (1-m) du/(n-2).  On the critical bubbles that falls short by up to 40%
    where Y is not yet small, and it misses the error along the manifold,
    so the relative bar is 2 |du|/(n-2) + tol.  L2 = -k L1.  slope_far and
    L3 are the point's X and Y, each with the state's distance from the
    point as its bar.  slope_origin is 0 on origin profiles, as the datum
    forces, with the first node's |X| as its bar.
    """
    p = profile.params
    t, X, Y = _far_end(profile)
    label, theta, du = _read(p, profile.tol, X, Y)
    l1 = l2 = None
    if label is DecayLabel.SLOW:
        x_lim, y_lim = -2.0 / (1.0 - p.m), l3_reference(p)
    else:
        x_lim, y_lim = -p.k, 0.0
        ln_eta = math.inf if theta is None else (
            (math.log(theta) + p.sigma * t) / (1.0 - p.m))
        if ln_eta < 700.0:   # a double holds k eta
            eta = math.exp(ln_eta)
            error = eta * (2.0 * abs(du) / (p.n - 2.0) + profile.tol)
            l1, l2 = Estimate(eta, error), Estimate(-p.k * eta, p.k * error)
    bar = math.hypot(X - x_lim, Y - y_lim)
    slope_origin = None
    if profile.kind is ProfileKind.ORIGIN:
        slope_origin = Estimate(0.0, abs(float(profile._log_nodes[2][0])))
    return LimitEstimates(l1=l1, l2=l2, l3=Estimate(y_lim, bar),
                          slope_far=Estimate(x_lim, bar), slope_origin=slope_origin)


def classify_decay(profile: Profile) -> DecayClass:
    """Fast, Slow or Undetermined from the state at the f-side far end (see
    _read); the measured slope is that state's X."""
    p = profile.params
    _, X, Y = _far_end(profile)
    return DecayClass(_read(p, profile.tol, X, Y)[0], X, -p.k, -2.0 / (1.0 - p.m))


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


@np.errstate(all="ignore")   # a NaN node fails
def verify_inequalities(profile: Profile) -> dict[str, Verdict]:
    """Tri-state verdicts for the proven pointwise inequalities.

    mass_monotonicity:   k + X > 0           (r^{(n-2)/m} f increasing)
    eta_upper_bound:     eta - g > 0         (far-field profiles only)
    drift_positivity_f:  alpha + beta X > 0  (only when beta > 0)
    drift_positivity_g:  alpha~ + beta u > 0 (far-field profiles, when
                         RegimeFlags.lemma_applicable)
    monotone_decreasing: -v_r > 0 on the native samples

    With X = X* + u from Profile.fside_slope, the first, third and fourth are
    f + (m/(n-2)) r f_r, alpha f + beta r f_r and alpha~ g + beta~ s g_s
    over positive multiples of f or g; the f-side two are summed as
    (a + b X*) + b u, so that X* = -k never cancels against k.  In the far
    field alpha - k beta is alpha~, so the two drift verdicts check one
    form, at f-side and at native radii.  Margins are the least values of
    these forms; at_r is an f-side radius, except for drift_positivity_g
    and monotone_decreasing, which report native ones.
    """
    p = profile.params
    flags = classify_regime(p)
    r, u, x_star = profile.fside_slope
    origin = profile.kind is ProfileKind.ORIGIN
    out = dict.fromkeys(("mass_monotonicity", "eta_upper_bound", "drift_positivity_f",
                         "drift_positivity_g", "monotone_decreasing"), NOT_APPLICABLE)
    drift = (p.alpha + p.beta * x_star) + p.beta * u
    out["mass_monotonicity"] = Verdict.check((p.k + x_star) + u, r)
    if p.beta > 0.0:
        out["drift_positivity_f"] = Verdict.check(drift, r)
    if (flags.origin_admissible if origin else p.alpha_tilde > 0.0):
        out["monotone_decreasing"] = Verdict.check(-profile.vr, profile.r)
    if origin:
        return out
    out["eta_upper_bound"] = Verdict.check(profile.boundary - profile.v, r,
                                           tie_sign=-profile.vr)
    if flags.lemma_applicable:
        out["drift_positivity_g"] = Verdict.check(drift, profile.r)
    return out


# ---------------------------------------------------------------------------
# shape


@dataclass(frozen=True)
class Shape:
    label: str                # "monotone-decreasing" | "interior-maximum" | "irregular"
    r_max: float | None = None


def classify_shape(profile: Profile) -> Shape:
    """Monotone decrease versus a single interior maximum, on the f-side:
    the sign changes of X = r f_r / f in ascending f-radius (a zero is a
    decrease), with r_max at the linear zero of X in r."""
    r, u, x_star = profile.fside_slope
    X = x_star + u
    if profile.kind is ProfileKind.FARFIELD:
        r, X = r[::-1], X[::-1]
    rising = X > 0.0
    flips = np.flatnonzero(rising[1:] != rising[:-1])
    if len(flips) == 0 and not rising[0]:
        return Shape("monotone-decreasing")
    if len(flips) == 1 and rising[0]:
        i = flips[0]
        return Shape("interior-maximum",
                     r_max=float(r[i] + (r[i + 1] - r[i]) * X[i] / (X[i] - X[i + 1])))
    return Shape("irregular")


# ---------------------------------------------------------------------------
# anomalous exponent


@dataclass(frozen=True)
class BetaSearchResult:
    beta_star: float
    bracket: tuple[float, float]
    probes: int
    history: tuple = field(default=())   # (beta, gap, side) per gap evaluation


def saddle_gap(p: ProfileParams, eta0: float, tol: float = 1e-9) -> float:
    """G = 1/Y_fast - 1/Y_origin on the section X = -2/(1-m).

    Y_origin is read on the origin manifold (from eta0), Y_fast on the
    stable manifold of the fast-decay point (-k, 0) (the far-field chart
    from eta = 1), each by integrate.section_Y: one integration from the
    series seam, stopped on its first step across the section, the
    nullcline of Y.  The scaling symmetry moves a datum along its manifold,
    so G depends on beta alone; it vanishes where the manifolds join, at
    the anomalous exponent, and is positive below it, where the origin
    profile vanishes at finite radius, after it crosses the section.  G has
    the sign of Y_origin - Y_fast but is nearly linear in beta (at (5, 0.45)
    its chord slopes on [-0.45, 0.45] span 1.43x, those of Y_o - Y_f 7.8x).
    tol bounds each Y relative to its own size, so each term of G is off by
    about tol/Y; below that, the sign of G is noise of the step sequence.
    """
    ys = []
    for kind, boundary in ((ProfileKind.ORIGIN, eta0), (ProfileKind.FARFIELD, 1.0)):
        y, why = section_Y(p, kind, boundary, tol)
        if y is None:
            raise BadBracket(f"the {kind.value} solve at beta={p.beta:g} never "
                             f"reaches the section X = -2/(1-m) ({why})")
        ys.append(y)
    return 1.0 / ys[1] - 1.0 / ys[0]


def _zero_through(rows) -> float:
    """Zero of the Lagrange polynomial beta(gap) through (beta, gap) rows of
    distinct gaps: the secant for two rows, the inverse quadratic for three."""
    return sum(beta * math.prod(h / (h - g) for _, h in rows if h != g)
               for beta, g in rows)


def find_anomalous_beta(n: int, m: float, rho1: float, eta0: float,
                        bracket: tuple[float, float], tol_beta: float = 1e-3,
                        tol: float = 1e-9) -> BetaSearchResult:
    """Root of saddle_gap in beta, bracketed to tol_beta.

    Brent-Dekker steps (R. P. Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4, after T. J. Dekker, 1969).  From the bracket
    end of least |gap|, each step takes the inverse quadratic through the
    last three probes (the secant through two where their gaps are not
    three distinct values) where it heads into the bracket and stops short
    of 3/4 of it, else a bisection.  In place of Brent's test on the step
    before last, a step that halves neither the bracket (to within
    tol_beta/2) nor the least |gap| eightfold, as a bisection does at a
    triple root, is followed by a bisection.  Each trial lies at least
    tol_beta/2 inside the bracket, so one next to the root, or on an exact
    zero, is followed by one across it.  beta* is the inverse quadratic
    through the three probes of least |gap| where it lands in the bracket,
    else the secant of its ends.  The sign of the gap at each point is its
    side: -1 (G > 0, the origin profile vanishes) below the root, +1 above.
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

    fb, fc = gap(lo), gap(hi)
    if not fb > 0.0 >= fc:
        how = "the same side" if (fb > 0.0) == (fc > 0.0) else "swapped sides"
        raise BadBracket(f"both bracket ends classify to {how} "
                         f"at beta={lo:g} and beta={hi:g}")
    # b: the bracket end of least |gap|, c: the other end, a: the probe before b
    t = 0.5 * tol_beta
    a, fa, b, c = hi, fc, lo, hi
    bisect = False
    while abs(c - b) > tol_beta:
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        width, least, half = abs(c - b), abs(fb), 0.5 * (c - b)
        s = half
        if not bisect and abs(fa) > abs(fb):
            # taken where it heads for c and stops short of 3/4 of the way
            x = _zero_through([(a, fa), (b, fb)] + [(c, fc)] * (a != c and fa != fc))
            s = x - b if 0.0 <= (x - b) / half < 1.5 - 0.5 * t / abs(half) else s
        a, fa = b, fb
        b = b + (s if abs(s) > t else math.copysign(t, half))
        fb = gap(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
        bisect = (abs(c - b) > 0.5 * (width + tol_beta)
                  and min(abs(fb), abs(fc)) > 0.125 * least)
    lo, hi = min(b, c), max(b, c)
    beta_star = b - fb * (c - b) / (fc - fb)
    near = sorted(history, key=lambda row: abs(row[1]))[:3]
    if len({g for _, g, _ in near}) == 3:
        x = _zero_through([row[:2] for row in near])
        beta_star = x if lo <= x <= hi else beta_star
    return BetaSearchResult(beta_star=beta_star, bracket=(lo, hi),
                            probes=len(history), history=tuple(history))


# ---------------------------------------------------------------------------
# space-time solution


def selfsimilar_eval(profile: Profile, T: float, x_norm, t):
    """V(x, t) = (T-t)^alpha f((T-t)^beta |x|), f by dense interpolation.
    x_norm and t broadcast, a scalar pair gives a float, and a refusal names
    the first point that breaks t < T or leaves the stored range."""
    t = np.asarray(t, dtype=float)
    if (late := ~(t < T)).any():
        raise DomainError(f"t={t[late][0]} violates t < T={T}")
    p = profile.params
    tau = T - t
    rr = tau ** p.beta * np.asarray(x_norm, dtype=float)
    lo, hi = sorted(profile.fside_slope[0][[0, -1]])
    if (out := ~((lo <= rr) & (rr <= hi))).any():
        raise RangeError(
            f"rescaled radius {rr[out][0]:g} outside the stored range [{lo:g}, {hi:g}]")
    f, _ = fside_samples(profile, rr)
    V = tau ** p.alpha * f
    return float(V) if V.ndim == 0 else V


def pde_residual_V(profile: Profile, T: float, space_grid, time_grid,
                   h: float) -> float:
    """Max relative defect of u_t = Laplacian(u^m/m) on the sampled grid.

    Second-order central differences in t and in the radial direction, on
    the whole (x, t) grid at once; the defect is scaled by the magnitudes
    of the terms entering the equation.  Points where every term vanishes
    are skipped; a NaN defect at any other point, or no point left, reads
    NaN, as in ode_residual.
    """
    p = profile.params
    x = np.asarray(space_grid, dtype=float)[:, None]
    t = np.asarray(time_grid, dtype=float)
    if (near := x - h <= 0.0).any():
        raise RangeError(f"radial stencil at x={x[near][0]:g} reaches r <= 0 with h={h:g}")
    Vt = (selfsimilar_eval(profile, T, x, t + h)
          - selfsimilar_eval(profile, T, x, t - h)) / (2.0 * h)
    w0, wp, wm = (selfsimilar_eval(profile, T, y, t) ** p.m / p.m for y in (x, x + h, x - h))
    wxx = (wp - 2.0 * w0 + wm) / h ** 2
    wx1 = (p.n - 1.0) / x * (wp - wm) / (2.0 * h)
    den = np.abs(Vt) + np.abs(wxx) + np.abs(wx1)
    with np.errstate(invalid="ignore"):   # 0/0 where every term vanishes
        defect = (np.abs(Vt - wxx - wx1) / den)[den != 0.0]
    return float(np.max(defect)) if defect.size else math.nan


# ---------------------------------------------------------------------------
# report assembly


@dataclass(frozen=True)
class SolveReport:
    params: ProfileParams
    boundary: float
    kind: ProfileKind
    terminal_event: TerminalEvent
    residual: float
    limits: LimitEstimates
    inequalities: dict
    decay: DecayClass
    shape: Shape

    def to_dict(self) -> dict:
        """report.json.  A block whose keys are a result type's fields holds
        them in declared order; a verdict leaves out a None margin or at_r."""
        p, d = self.params, self.decay
        return {
            "params": {**asdict(p), "k": p.k, "sigma": p.sigma, "boundary": self.boundary},
            "regime": {"profile_kind": self.kind.value, **asdict(classify_regime(p))},
            "terminal_event": self.terminal_event.value,
            "residual": self.residual,
            "limits": {(key.upper() if key[1:].isdigit() else key): est   # l1 -> L1
                       for key, est in asdict(self.limits).items()},
            "inequalities": {name: {key: x for key, x in asdict(v).items() if x is not None}
                             for name, v in self.inequalities.items()},
            "decay_class": {"class": d.label.value, "measured_slope": d.measured_slope,
                            "target_fast": d.target_fast, "target_slow": d.target_slow},
            "shape": asdict(self.shape),
        }


def build_report(profile: Profile) -> SolveReport:
    """Run every check on a solved profile and collect the results."""
    return SolveReport(params=profile.params, boundary=profile.boundary,
                       kind=profile.kind, terminal_event=profile.terminal,
                       residual=ode_residual(profile),
                       limits=asymptotic_limits(profile),
                       inequalities=verify_inequalities(profile),
                       decay=classify_decay(profile), shape=classify_shape(profile))
