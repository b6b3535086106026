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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial

from .params import DomainError, ProfileParams, classify_regime
from .profile import Chart, ProfileKind

ORDER = 60      # series terms; at the seam the tail is below 4^-ORDER
SPACING = 1.01  # neighbour ratio of the local nodes in the chart radius


class LocalStageFailed(RuntimeError):
    """The manifold series gives no usable local solution."""


@dataclass(frozen=True)
class LocalSolution:
    eps: float                # seam radius, the last grid node
    grid: np.ndarray          # geometric radii in (0, eps], ratio SPACING
    value: np.ndarray
    deriv: np.ndarray
    boundary_value: float
    kind: ProfileKind
    iterations: int           # series order


def manifold_series(p: ProfileParams, kind: ProfileKind):
    """Coefficients (u_j, y_j), j = 0..ORDER, of the chart's manifold."""
    c = Chart.of(p, kind)
    u = np.zeros(ORDER + 1)
    y = np.zeros(ORDER + 1)
    y[1] = 1.0
    for j in range(1, ORDER + 1):
        uy = u[1:j] @ y[j - 1:0:-1]
        if j > 1:
            y[j] = (1.0 - p.m) * uy / (c.lam * (j - 1))
        u[j] = -(p.m * (u[1:j] @ u[j - 1:0:-1]) + c.A * y[j] + p.beta * uy) / (
            c.lam * j - c.mu)
    return u, y


def _local(p: ProfileParams, kind: ProfileKind, b: float, name: str) -> LocalSolution:
    """Series nodes from below the seam up to it, geometric in the radius.

    The seam sits at a quarter of the root-test radius in theta, and never
    beyond min(1, b^{(m-1)/2}).  The nodes reach down to theta_seam * 1e-7 at
    the origin; in the far field to theta_seam * 5e-5 (the Kelvin map loses
    about 1/theta in k g + s g_r), and at least to s_seam * 4e-3 so the far
    ladder has room.
    """
    if not 0.0 < b < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {b}")
    # the same condition twice over: alpha_tilde > 0 iff beta < beta_threshold
    if not (classify_regime(p).farfield_admissible and p.alpha_tilde > 0.0):
        raise DomainError(
            f"beta={p.beta:.17g} must lie below beta_threshold={p.beta_threshold:.17g}"
            f" (alpha_tilde = {p.alpha_tilde:.17g} must be positive)")
    u, y = manifold_series(p, kind)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
        raise LocalStageFailed(
            f"{kind.value} series coefficients overflow at sigma={p.sigma:.3g}")
    j = np.arange(ORDER // 2, ORDER + 1)
    tail = np.concatenate([np.abs(u[j]) ** (1.0 / j), np.abs(y[j]) ** (1.0 / j)])
    theta_seam = 0.25 / tail.max() if tail.max() > 0.0 else math.inf
    lam = Chart.of(p, kind).lam
    e, one_m = abs(lam), 1.0 - p.m
    log_eps = min((math.log(theta_seam) - one_m * math.log(b)) / e, 0.0,
                  -one_m / 2.0 * math.log(b))
    depth = 1e-7 if kind is ProfileKind.ORIGIN else min(5e-5, 4e-3 ** e)
    if not depth > 0.0:
        raise LocalStageFailed(
            f"{kind.value} series node depth underflows (sigma={p.sigma:.3g})")
    count = math.ceil(-math.log(depth) / (e * math.log(SPACING)))
    grid = math.exp(log_eps) * SPACING ** -np.arange(count, -1, -1.0)
    # a far-field node's Kelvin image carries s^{k+1}
    image = grid[0] if kind is ProfileKind.ORIGIN else grid[0] ** (p.k + 1.0)
    if not image > 1e-300:
        raise LocalStageFailed(
            f"{kind.value} series nodes reach radius {grid[0]:.3g}, whose "
            f"f-side image underflows (sigma={p.sigma:.3g})")
    theta = b ** one_m * grid ** e
    value = b * polynomial.polyval(theta, y[1:]) ** (1.0 / one_m)
    deriv = math.copysign(1.0, lam) * polynomial.polyval(theta, u) * value / grid
    return LocalSolution(eps=float(grid[-1]), grid=grid, value=value,
                         deriv=deriv, boundary_value=b, kind=kind,
                         iterations=ORDER)


def picard_f_origin(p: ProfileParams, eta0: float) -> LocalSolution:
    """Origin profile near r = 0 from f(0) = eta0, f_r(0) = 0.

    Both names date from the Picard stage the series replaced; perfbench
    traces them, so they are kept until its next change.
    """
    return _local(p, ProfileKind.ORIGIN, eta0, "eta0")


def picard_g_origin(p: ProfileParams, eta: float) -> LocalSolution:
    """Far-field profile g(s) = s^{-k} f(1/s) near s = 0 from g(0) = eta."""
    return _local(p, ProfileKind.FARFIELD, eta, "eta")


def singular_slope_limit(p: ProfileParams, eta: float) -> float:
    """Leading coefficient c = -u_1 eta^{2-m} of g_r ~ c r^{-delta1} at s = 0,
    with u_1 = alpha_tilde / (n-2+sigma) = m alpha_tilde / (n-2-2m)."""
    return -p.m * p.alpha_tilde * eta ** (2.0 - p.m) / (p.n - 2.0 - 2.0 * p.m)
