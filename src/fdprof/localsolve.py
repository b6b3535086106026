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
series_seam places the seam at a fraction of the root-test radius and sums
the series there; on top of it _local places the nodes below the seam for
the dense output's cubic Hermite of ln v in ln x.  kernels continues the
same (u, ln Y) state outward from the seam, for a solve or for a beta* gap,
which needs no nodes.  A solve sums ORDER terms at a quarter of the radius,
capped at min(1, b^{(m-1)/2}, r_max) in x; a gap, which keeps no series
node, sums gap_order(tol) terms at GAP_SEAM of the radius with no such cap,
so its stepper starts farther out (order set by tol and step by the root
test, as for Taylor methods; Jorba & Zou, Exp. Math. 14, 2005).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (DomainError, ProfileParams, require_farfield_admissible,
                     require_origin_admissible)
from .profile import Chart, ProfileKind

ORDER = 60      # a solve's series terms; at its seam the tail is below 4^-ORDER
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


def manifold_series(p: ProfileParams, kind: ProfileKind, order: int | None = None):
    """Coefficients (u_j, y_j), j = 0..order (default ORDER), of the chart's
    manifold."""
    order = ORDER if order is None else order
    c = Chart.of(p, kind)
    u = np.zeros(order + 1)
    y = np.zeros(order + 1)
    y[1] = 1.0
    for j in range(1, order + 1):
        uy = u[1:j] @ y[j - 1:0:-1]
        if j > 1:
            y[j] = (1.0 - p.m) * uy / (c.lam * (j - 1))
        u[j] = -(p.m * (u[1:j] @ u[j - 1:0:-1]) + c.A * y[j] + p.beta * uy) / (
            c.lam * j - c.mu)
    return u, y


def gap_order(tol: float) -> int:
    """Series order of a gap: the least N in [4, ORDER] whose root-test tail
    at the seam, sum_{j>N} GAP_SEAM^j, is below tol/100.

    The target is tol/10 with a tenfold margin: at low order the root test
    can overrate the radius, where |c_j|^{1/j} still grows past j = N (the
    far-field series at small sigma)."""
    n = math.log(0.01 * tol * (1.0 - GAP_SEAM)) / math.log(GAP_SEAM)
    return min(ORDER, max(4, math.ceil(n) - 1))


def _node_taus(zu: np.ndarray, lam: float, p: ProfileParams, tol: float,
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
    e, tol = abs(lam), max(tol, 1e-15)   # below it, rounding sets the error
    order = len(zu) - 1
    j = np.arange(order + 1)
    k_over_z = ((e * j) ** 3 * zu)[1:]
    # P ~ x^{n-2+|lam|} R(z) U(z)/z with R = (v/b)^m, so D R = m R D ln v; R keeps
    # order/2 terms, as the seam's quarter radius puts later ones below 4^{-order/2}
    dl, r = math.copysign(p.m, lam) * zu[1:] / e, np.ones(order // 2)
    for i in range(1, order // 2):
        r[i] = dl[:i] @ r[i - 1::-1] / i
    g = p.n - 2.0 + e * (1.0 + j[:-1])
    c = np.abs((g - 1.0) * (g - 2.0) * (g - 3.0) * (g - 4.0) * (g - 5.0) * (g - 6.0)
               * np.convolve(r, zu[1:])[:order] / zu[1])
    t = -np.expm1(np.linspace(0.0, math.log1p(-log_depth), 128))   # dense near 0
    z = np.exp(np.outer(t, j[:-1]))   # z^j at the sample points
    d0 = (19.2 * tol / np.max(np.abs(z @ k_over_z))) ** 0.25
    gap = np.minimum(d0 * np.exp(-t / 4.0), (1400.0 * tol / (z @ c)) ** (1 / 6))
    count = np.concatenate([[0.0], np.cumsum((t[:-1] - t[1:]) / (e * gap[:-1]))])
    return np.interp(np.linspace(0.0, count[-1], math.ceil(count[-1]) + 1), count, t)


@dataclass(frozen=True)
class Seam:
    """The manifold series at its seam, in z = theta/theta_seam."""
    eps: float                # seam radius
    u: float                  # reduced state (u, Z = ln Y) at the seam
    Z: float
    zu: np.ndarray            # u = sum zu_j z^j
    zy: np.ndarray            # Y = theta sum zy_j z^j


def check_datum(p: ProfileParams, kind: ProfileKind, b: float) -> None:
    """Refuse a beta outside the chart's window, or a datum b (eta0 or eta)
    the manifold series cannot take: the one gate of every solve and gap."""
    if kind is ProfileKind.ORIGIN:
        require_origin_admissible(p)
    else:
        require_farfield_admissible(p)
    if not 0.0 < b < math.inf:
        name = "eta0" if kind is ProfileKind.ORIGIN else "eta"
        raise DomainError(f"{name} must be positive and finite, got {b}")


def series_seam(p: ProfileParams, kind: ProfileKind, b: float, x_cap: float,
                order: int, fraction: float) -> Seam:
    """The seam of the chart's order-term manifold series for a datum b that
    check_datum admits.

    The seam sits at fraction of the root-test radius in theta, the least
    |c_j|^{-1/j} over the upper half of the coefficients, and never beyond
    x_cap in the chart radius x.
    """
    u, y = manifold_series(p, kind, order)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise LocalStageFailed(
            f"{kind.value} series coefficients overflow at sigma={p.sigma:.3g}")
    j = np.arange(order // 2, order + 1)
    tail = np.concatenate([np.abs(u[j]) ** (1.0 / j), np.abs(y[j]) ** (1.0 / j)])
    theta = fraction / tail.max() if tail.max() > 0.0 else math.inf
    e, one_m = abs(Chart.of(p, kind).lam), 1.0 - p.m
    eps = min(math.exp((math.log(theta) - one_m * math.log(b)) / e), x_cap)
    powers = (b ** one_m * eps ** e) ** np.arange(order + 1)
    zu, zy = u * powers, y[1:] * powers[:-1]
    if not (np.all(np.isfinite(zu)) and np.all(np.isfinite(zy))):
        raise LocalStageFailed(
            f"{kind.value} series terms overflow at the seam (sigma={p.sigma:.3g})")
    return Seam(eps, float(zu.sum()),
                one_m * math.log(b) + e * math.log(eps) + math.log(zy.sum()), zu, zy)


def _local(p: ProfileParams, kind: ProfileKind, b: float, tol: float,
           r_max: float) -> LocalSolution:
    """Series nodes from below the seam up to it, graded in theta by tol.

    The nodes reach down to theta_seam * 1e-7 at the origin; in the far
    field to theta_seam * 5e-5 (the Kelvin map loses about 1/theta in
    k g + s g_r), and at least to s_seam * 4e-3.  No check needs that
    floor; tests pin the depth, so it goes in a change of its own.
    """
    check_datum(p, kind, b)
    # min(1, b^{(m-1)/2}) in this form keeps the seam's last bit
    cap = math.exp(min(0.0, (p.m - 1.0) / 2.0 * math.log(b)))
    seam = series_seam(p, kind, b, min(cap, r_max), ORDER, 0.25)
    lam = Chart.of(p, kind).lam
    e, one_m = abs(lam), 1.0 - p.m
    depth = 1e-7 if kind is ProfileKind.ORIGIN else min(5e-5, 4e-3 ** e)
    if not depth > 0.0:
        raise LocalStageFailed(
            f"{kind.value} series node depth underflows (sigma={p.sigma:.3g})")
    tau = _node_taus(seam.zu, lam, p, tol, math.log(depth))
    grid = seam.eps * np.exp(tau[::-1] / e)
    # a far-field node's Kelvin image carries s^{k+1}
    image = grid[0] if kind is ProfileKind.ORIGIN else grid[0] ** (p.k + 1.0)
    if not image > 1e-300:
        raise LocalStageFailed(
            f"{kind.value} series nodes reach radius {grid[0]:.3g}, whose "
            f"f-side image underflows (sigma={p.sigma:.3g})")
    z = np.exp(np.outer(tau[::-1], np.arange(len(seam.zu))))   # z^j at the nodes
    value = b * (z[:, :-1] @ seam.zy) ** (1.0 / one_m)
    deriv = math.copysign(1.0, lam) * (z @ seam.zu) * value / grid
    return LocalSolution(eps=float(grid[-1]), grid=grid, value=value,
                         deriv=deriv, boundary_value=b, kind=kind,
                         iterations=len(seam.zu) - 1)


def picard_f_origin(p: ProfileParams, eta0: float, tol: float = 1e-9,
                    r_max: float = math.inf) -> LocalSolution:
    """Origin profile near r = 0 from f(0) = eta0, f_r(0) = 0.

    Both names date from the Picard stage the series replaced; perfbench
    traces them, so they are kept until its next change.
    """
    return _local(p, ProfileKind.ORIGIN, eta0, tol, r_max)


def picard_g_origin(p: ProfileParams, eta: float, tol: float = 1e-9,
                    r_max: float = math.inf) -> LocalSolution:
    """Far-field profile g(s) = s^{-k} f(1/s) near s = 0 from g(0) = eta."""
    return _local(p, ProfileKind.FARFIELD, eta, tol, r_max)


def singular_slope_limit(p: ProfileParams, eta: float) -> float:
    """Leading coefficient c = -u_1 eta^{2-m} of g_r ~ c r^{-delta1} at s = 0,
    with u_1 = alpha_tilde / (n-2+sigma) = m alpha_tilde / (n-2-2m)."""
    return -p.m * p.alpha_tilde * eta ** (2.0 - p.m) / (p.n - 2.0 - 2.0 * p.m)
