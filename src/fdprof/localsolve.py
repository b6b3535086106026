"""Local solutions near the boundary point: the invariant-manifold series.

In u = X - X*, Y with X = r f_r / f, Y = r^2 f^{1-m} and t = ln r the profile
equation reads u' = mu u - m u^2 - A Y - beta u Y, Y' = Y (lam + (1-m) u),
with lam, mu, A from profile.Chart.  The origin datum is the unstable
manifold of (0, 0) (X* = 0), the far-field datum the stable manifold of
(-k, 0) (X* = -k), for the regular and the singular g-origin alike.  With
theta' = lam theta and y_1 = 1 the manifold's power series obey
(parameterization method; Cabre, Fontich & de la Llave, Indiana Univ. Math.
J. 52, 2003)

    lam (j-1) y_j = (1-m) [uY]_j,  (lam j - mu) u_j = -m [u^2]_j - A y_j - beta [uY]_j.

In the chart radius x (r, or s = 1/r) and for the datum b: theta =
b^{1-m} x^|lam|, v = b (Y/theta)^{1/(1-m)} and x v_x / v = sign(lam) u.
series_seam places the seam at a fraction of the root-test radius, a quarter
for a solve (capped at r_max and at the datum's length Chart.datum_length(b),
where theta = 1) and GAP_SEAM for a beta* gap (capped only by its reach, so
its stepper starts farther out), and sums the series there at the least
order manifold_orders yields whose last terms there settle below tol.  _local
places the nodes below the seam for the dense output's cubic Hermite of ln v
in ln x; kernels continues the same (u, ln Y) state outward.  Coefficients
and seam sums are plain floats, as in the stepper: on at most ORDER + 1
terms a numpy call per product costs more than the product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .params import (ProfileParams, require_farfield_admissible,
                     require_origin_admissible, require_positive)
from .profile import Chart, ProfileKind

ORDER = 60      # the ceiling of every series order
GAP_SEAM = 0.4  # a gap's seam, as a fraction of the root-test radius


class LocalStageFailed(RuntimeError):
    """The manifold series gives no usable local solution."""


@dataclass(frozen=True)
class LocalSolution:
    eps: float                # seam radius, the last grid node
    grid: np.ndarray          # radii in (0, eps], graded in theta by tol
    value: np.ndarray
    deriv: np.ndarray
    boundary_value: float
    kind: ProfileKind
    iterations: int           # series order


def series_terms(u: list, y: list, theta: float) -> tuple[list, list]:
    """The terms u_j theta^j of u and y_{j+1} theta^j of Y/theta."""
    try:   # a float's ** raises OverflowError where numpy's gave inf
        powers = [theta ** j for j in range(len(u))]
    except OverflowError:
        powers = [math.inf] * len(u)
    return list(map(mul, u, powers)), list(map(mul, y[1:], powers))


def _settled(zu: list, zy: list, tol: float) -> bool:
    """Whether the last two terms of u and of Y/theta are each below tol/100
    of 1 + |u| and of Y/theta; NaN terms are not."""
    return (max(map(abs, zu[-2:])) <= 0.01 * tol * (1.0 + abs(sum(zu)))
            and max(map(abs, zy[-2:])) <= 0.01 * tol * abs(sum(zy)))


def manifold_orders(chart: Chart, start: int = 4):
    """Yield the chart's manifold coefficients (u, y) = ((u_j), (y_j)),
    j = 0..N, at each order N >= start, in steps of 4 up to the ceiling ORDER.

    Each caller sums the terms at its own theta and stops at the least order
    whose last two terms of u and of Y/theta are below tol/100 of what they
    enter (_settled), as Taylor methods stop (Jorba & Zou, Exp. Math. 14,
    2005); at the ceiling the caller decides.
    """
    p = chart.params
    m, beta, A, lam, mu = (float(x) for x in (p.m, p.beta, chart.A, chart.lam, chart.mu))
    us, ys = [], []   # u_1.., y_1..; each holds j - 1 terms at step j
    for order in range(max(4, min(start, ORDER)), ORDER + 1, 4):
        for j in range(len(us) + 1, order + 1):
            uy = sum(map(mul, us, reversed(ys)))
            ys.append((1.0 - m) * uy / (lam * (j - 1)) if j > 1 else 1.0)
            us.append(-(m * sum(map(mul, us, reversed(us))) + A * ys[-1] + beta * uy)
                      / (lam * j - mu))
        yield [0.0, *us], [0.0, *ys]


@np.errstate(divide="ignore", over="ignore")   # an inf bound does not bind
def _node_taus(zu: np.ndarray, chart: Chart, tol: float,
               log_depth: float) -> np.ndarray:
    """ln z at the nodes, z = theta/theta_seam from 1 down to e^log_depth.

    The log-radius gap at z is the lesser of two.  Cubic Hermite of ln v in
    ln x misses v by gap^4 |K(z)|/384 relative, with K = D^4 ln v: for
    D = x d/dx, D z = |lam| z and D ln v = sign(lam) sum zu_j z^j, so
    K = sign(lam) sum (|lam| j)^3 zu_j z^j; d0 z^{-1/4} holds that to tol/20
    for K* = sup |K(z)|/z.  The residual's 7-node stencil misses the term c_j z^j
    x^g of the flux P = x^gamma sum_j c_j z^j, g = gamma + |lam| j, by
    gap^6 prod_{k<=6} |g - k|/140 of P'; the second gap holds the sum of
    those to 10 tol, a tenth of the residual bar.  The nodes split evenly
    the node count, the integral of 1/(|lam| gap) over ln z, taken on 128
    points.
    """
    if not zu[1]:   # theta underflows at the seam: the series is flat there
        return np.zeros(1)
    lam, p = chart.lam, chart.params
    e, tol = abs(lam), max(tol, 1e-15)   # below it, rounding sets the error
    order = len(zu) - 1
    j = np.arange(order + 1)
    k_over_z = ((e * j) ** 3 * zu)[1:]
    # P ~ x^{n-2+|lam|} R(z) U(z)/z with R = (v/b)^m, so D R = m R D ln v; R keeps
    # as many terms as u: they share v's radius, so they settle at the seam with u's
    dl, r = math.copysign(p.m, lam) * zu[1:] / e, np.ones(order)
    for i in range(1, order):
        r[i] = dl[:i] @ r[i - 1::-1] / i
    g = p.n - 2.0 + e * (1.0 + j[:-1])
    c = np.abs((g - 1.0) * (g - 2.0) * (g - 3.0) * (g - 4.0) * (g - 5.0) * (g - 6.0)
               * np.convolve(r, zu[1:])[:order] / zu[1])
    t = -np.expm1(np.linspace(0.0, math.log1p(-log_depth), 128))   # dense near 0
    z = np.exp(np.outer(t, j[:-1]))   # z^j at the sample points
    d0 = (19.2 * tol / np.max(np.abs(z @ k_over_z))) ** 0.25
    gap = np.minimum(d0 * np.exp(-t / 4.0), (1400.0 * tol / (z @ c)) ** (1 / 6))
    count = np.concatenate([[0.0], np.cumsum((t[:-1] - t[1:]) / (e * gap[:-1]))])
    nodes = max(7, math.ceil(count[-1]) + 1)   # the residual stencil's, at least
    return np.interp(np.linspace(0.0, count[-1], nodes), count, t)


@dataclass(frozen=True)
class Seam:
    """The manifold series at its seam, in z = theta/theta_seam."""
    eps: float                # seam radius
    u: float                  # reduced state (u, Z = ln Y) at the seam
    Z: float
    zu: np.ndarray            # u = sum zu_j z^j
    zy: np.ndarray            # Y = theta sum zy_j z^j


def check_datum(chart: Chart, b: float) -> None:
    """Refuse a beta outside the chart's window, or a datum b (eta0 or eta)
    the manifold series cannot take: the one gate of every solve and gap."""
    origin = chart.kind is ProfileKind.ORIGIN
    if origin:
        require_origin_admissible(chart.params)
    else:
        require_farfield_admissible(chart.params)
    require_positive(**{"eta0" if origin else "eta": b})


@np.errstate(over="ignore")   # theta past the doubles is inf, its terms inf or NaN
def series_seam(chart: Chart, b: float, x_cap: float, fraction: float,
                tol: float) -> Seam:
    """The chart's manifold series for a datum b that check_datum admits,
    summed at its seam to the least order manifold_orders yields that settles.

    At each order the seam sits at fraction of the root-test radius in
    theta, 1/rho with rho the greatest |c_j|^{1/j} of u and y over the last
    quarter of the coefficients, and never beyond x_cap in the chart radius
    x; the order starts where fraction^N is below tol/100.  Where the last
    terms have not settled at the ceiling, the seam moves in, halving the
    last term per step.  A coefficient or term that overflows, or a seam
    radius that under- or overflows a float, is a LocalStageFailed.
    """
    p, kind, e = chart.params, chart.kind, abs(chart.lam)
    one_m = 1.0 - p.m
    for u, y in manifold_orders(chart, math.ceil(math.log(0.01 * tol) / math.log(fraction))):
        if not all(map(math.isfinite, u + y)):
            raise LocalStageFailed(
                f"{kind.value} series coefficients overflow at sigma={p.sigma:.3g}")
        n = len(u)
        rho = max(abs(c) ** (1.0 / j) for j in range(3 * n // 4, n) for c in (u[j], y[j]))
        ln_eps = (math.log(fraction / rho) - one_m * math.log(b)) / e if rho else math.inf
        # exp overflows past e^709.78, where the cap binds anyway
        eps = min(math.exp(ln_eps), x_cap) if ln_eps < 709.0 else x_cap
        if not 0.0 < eps < math.inf:
            raise LocalStageFailed(f"{kind.value} series seam radius {eps:.3g} "
                                   f"underflows or overflows (sigma={p.sigma:.3g})")
        zu, zy = series_terms(u, y, float(b ** one_m * np.float64(eps) ** e))
        if _settled(zu, zy, tol):
            break
    if not all(map(math.isfinite, zu + zy)):
        raise LocalStageFailed(
            f"{kind.value} series terms overflow at the seam (sigma={p.sigma:.3g})")
    while not _settled(zu, zy, tol):   # the ceiling: halve the last term per step
        eps *= 0.5 ** (1.0 / (e * (len(u) - 1)))
        zu, zy = series_terms(u, y, b ** one_m * eps ** e)
    # fsum: the correctly rounded sum of the terms
    return Seam(eps, math.fsum(zu), one_m * math.log(b) + e * math.log(eps)
                + math.log(math.fsum(zy)), np.array(zu), np.array(zy))


@np.errstate(all="ignore")   # each node is checked below, in order
def _local(chart: Chart, b: float, tol: float, r_max: float) -> LocalSolution:
    """Series nodes from below the seam up to it, graded in theta by tol.

    The nodes reach down to theta_seam * 1e-7 at the origin; in the far field
    to theta_seam * 5e-5 and at least to s_seam * 4e-3, where criterion 7's
    ladder and test_g_singular_kind_and_slope read g_r ~ c s^{-delta1}.  A
    LocalStageFailed refuses a seam term u_1 theta that is not a normal
    float, and the first node Chart.first_unstorable refuses.
    """
    p, kind, e = chart.params, chart.kind, abs(chart.lam)
    check_datum(chart, b)
    seam = series_seam(chart, b, min(chart.datum_length(b), r_max), 0.25, tol)
    depth = 1e-7 if kind is ProfileKind.ORIGIN else min(5e-5, 4e-3 ** e)
    if not depth > 0.0:
        raise LocalStageFailed(
            f"{kind.value} series node depth underflows (sigma={p.sigma:.3g})")
    tau = _node_taus(seam.zu, chart, tol, math.log(depth))
    grid = seam.eps * np.exp(tau[::-1] / e)
    z = np.exp(np.outer(tau[::-1], np.arange(len(seam.zu))))   # z^j at the nodes
    value = b * (z[:, :-1] @ seam.zy) ** (1.0 / (1.0 - p.m))
    u = z @ seam.zu
    deriv = math.copysign(1.0, chart.lam) * u * value / grid
    bad = chart.first_unstorable(grid, value, deriv, u)
    if bad or not abs(seam.zu[1]) >= np.finfo(float).tiny:   # X's first term underflows
        i, what = bad or (0, "nodes' f-side image underflows")
        raise LocalStageFailed(f"{kind.value} series {what} at the datum {b:.3g} (sigma="
                               f"{p.sigma:.3g}) at x={grid[i]:.3g}")
    return LocalSolution(eps=float(grid[-1]), grid=grid, value=value,
                         deriv=deriv, boundary_value=b, kind=kind,
                         iterations=len(seam.zu) - 1)


def picard_f_origin(p: ProfileParams, eta0: float, tol: float = 1e-9,
                    r_max: float = math.inf) -> LocalSolution:
    """Origin profile near r = 0 from f(0) = eta0, f_r(0) = 0.

    Both names date from the Picard stage the series replaced; perfbench
    traces them, so they are kept until its next change.
    """
    return _local(Chart.of(p, ProfileKind.ORIGIN), eta0, tol, r_max)


def picard_g_origin(p: ProfileParams, eta: float, tol: float = 1e-9,
                    r_max: float = math.inf) -> LocalSolution:
    """Far-field profile g(s) = s^{-k} f(1/s) near s = 0 from g(0) = eta."""
    return _local(Chart.of(p, ProfileKind.FARFIELD), eta, tol, r_max)


def singular_slope_limit(p: ProfileParams, eta: float) -> float:
    """Leading coefficient c = -u_1 eta^{2-m} of g_r ~ c r^{-delta1} at s = 0,
    with u_1 = alpha_tilde / (n-2+sigma) = m alpha_tilde / (n-2-2m)."""
    return -p.m * p.alpha_tilde * eta ** (2.0 - p.m) / (p.n - 2.0 - 2.0 * p.m)
