"""Certified local solutions on (0, eps] by Picard iteration.

Both origin problems are solved on a graded grid with composite trapezoid
quadrature; the first cell integrates the power weight analytically against a
constant so the origin cell contributes no O(h) error.  The iteration is run
inside a contraction ball and eps is halved until it contracts.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .params import DomainError, ProfileParams, classify_regime
from .profile import Chart, ProfileKind

MAX_ITER = 200
MAX_HALVINGS = 40


class NoContraction(RuntimeError):
    """Picard iteration failed to contract down to the eps floor."""


class ProblemKind(enum.Enum):
    F_ORIGIN = "f-origin"
    G_REGULAR = "g-regular"
    G_SINGULAR = "g-singular"


@dataclass(frozen=True)
class LocalSolution:
    eps: float
    grid: np.ndarray          # strictly increasing radii in (0, eps]
    value: np.ndarray
    deriv: np.ndarray
    boundary_value: float
    problem_kind: ProblemKind
    iterations: int
    contraction_estimate: float
    residual: float           # sup defect of the integral equation at the nodes


def _grid_count(tol: float) -> int:
    # Trapezoid truncation at node j is ~(gamma/j)^2 relative, so the global
    # error is ~1/J^2 and the retained outer nodes (index above lead*gamma,
    # see profile.Chart) are consistent to ~1e-7.  The dense floor
    # keeps those retained nodes starting well inside r < 1e-3.
    J = 8 * int(np.sqrt(1.0 / max(tol, 1e-16)))
    J = 1 << int(np.ceil(np.log2(max(J, 1 << 17))))
    return min(J, 1 << 18)


def _graded_grid(eps: float, gamma: float, J: int) -> np.ndarray:
    j = np.arange(J + 1, dtype=np.float64)
    return eps * (j / J) ** gamma


def _cumtrap(u: np.ndarray, r: np.ndarray, first: float) -> np.ndarray:
    """Cumulative trapezoid over nodes with a supplied first-cell integral."""
    out = np.empty_like(u)
    out[0] = 0.0
    out[1] = first
    np.cumsum(0.5 * (u[2:] + u[1:-1]) * np.diff(r[1:]), out=out[2:])
    out[2:] += first
    return out


def _picard(p: ProfileParams, boundary: float, tol: float, gamma: float,
            kind: ProblemKind, start, apply, in_ball, what: str) -> LocalSolution:
    """Largest eps, halving from the scale set by the datum, on which Picard contracts.

    The iterate is a tuple of arrays on the graded grid, starting from the
    constants in `start`; apply(r, u) returns the next iterate and the
    derivative that u itself implies.  Iteration stops on leaving the ball
    (in_ball false, eps is halved) or once a step moves it by less than
    tol/10.  The reported defect is one more application of the map; `what`
    names the problem and its datum in the NoContraction message.
    """
    J = _grid_count(tol)
    eps = min(1.0, boundary ** ((p.m - 1.0) / 2.0))
    for _ in range(MAX_HALVINGS):
        r = _graded_grid(eps, gamma, J)
        u = tuple(np.full(J + 1, c) for c in start)
        prev_diff = np.inf
        contraction = np.inf
        for it in range(1, MAX_ITER + 1):
            u_new, _ = apply(r, u)
            diff = _sup_change(u_new, u)
            u = u_new
            if not in_ball(u):
                break
            if np.isfinite(prev_diff) and prev_diff > 0.0:
                contraction = diff / prev_diff
            prev_diff = diff
            if diff < tol / 10.0:
                u_next, deriv = apply(r, u)
                return LocalSolution(
                    eps=eps, grid=r[1:], value=u[0][1:], deriv=deriv[1:],
                    boundary_value=boundary, problem_kind=kind,
                    iterations=it,
                    contraction_estimate=min(contraction, 1.0),
                    residual=_sup_change(u_next, u),
                )
        eps /= 2.0
    raise NoContraction(
        f"{what}={boundary} after {MAX_HALVINGS} halvings")


def _sup_change(a, b) -> float:
    return max(np.max(np.abs(x - y)) for x, y in zip(a, b))


def picard_f_origin(p: ProfileParams, eta0: float, tol: float) -> LocalSolution:
    """Fixed point of (f, h) -> (eta0 + int h, -f^{1-m} r^{1-n} int r^{n-1}(af + b r h)).

    Returns the largest eps from the geometric trial sequence on which the
    iteration stays in the ball ||(f,h)-(eta0,0)|| <= eta0/2 and contracts.
    """
    if eta0 <= 0.0:
        raise DomainError(f"eta0 must be positive, got {eta0}")
    if not classify_regime(p).farfield_admissible:
        raise DomainError(
            f"beta={p.beta:.17g} must lie below beta_threshold={p.beta_threshold:.17g}"
        )
    chart = Chart.of(p, ProfileKind.ORIGIN)
    n, m, al, be = p.n, p.m, chart.A, chart.B

    def apply(r, u):
        f, h = u
        integrand = r ** (n - 1) * (al * f + be * r * h)
        # first cell: integrand ~ (al*eta0) * rho^{n-1}
        first = al * eta0 * r[1] ** n / n
        inner = _cumtrap(integrand, r, first)
        h_new = np.zeros(len(r))
        h_new[1:] = -(f[1:] ** (1.0 - m) / r[1:] ** (n - 1)) * inner[1:]
        # outer: h ~ h'(0)*rho on the first cell, h(0)=0
        f_new = eta0 + _cumtrap(h_new, r, 0.5 * h_new[1] * r[1])
        return (f_new, h_new), h

    def in_ball(u):
        f, h = u
        return (np.max(np.abs(f - eta0)) <= eta0 / 2.0
                and np.max(np.abs(h)) <= eta0 / 2.0)

    return _picard(p, eta0, tol, chart.gamma, ProblemKind.F_ORIGIN,
                   (eta0, 0.0), apply, in_ball,
                   "f-origin Picard failed to contract for eta0")


def picard_g_origin(p: ProfileParams, eta: float, tol: float) -> LocalSolution:
    """Picard for the inverted problem: g(0) = eta, singular or regular origin.

    Iterates the single integral representation

        g(r) = eta + int_0^r G[g],
        G[g](rho) = g^{1-m} rho^{1-n} ( -bt rho^{q+1} g + (bt (q+1) - at) I(rho) ),
        I(rho) = int_0^rho s^q g(s) ds,  q = (n-2)/m - 3,

    which is regular in both origin regimes because q > -1.
    """
    if eta <= 0.0:
        raise DomainError(f"eta must be positive, got {eta}")
    if not p.alpha_tilde > 0.0:
        raise DomainError(
            f"alpha_tilde = {p.alpha_tilde:.17g} must be positive for the g-problem"
        )
    chart = Chart.of(p, ProfileKind.FARFIELD)
    n, m, at, bt = p.n, p.m, chart.A, chart.B
    q = (n - 2.0) / m - 3.0
    delta1 = p.delta1
    singular = classify_regime(p).singular_g_origin
    kind = ProblemKind.G_SINGULAR if singular else ProblemKind.G_REGULAR

    def apply(r, u):
        g, = u
        G = _g_operator(r, g, m, n, at, bt, q, eta)
        # G ~ c * rho^{-delta1}: integrable power, weight on the first cell
        return (eta + _cumtrap(G, r, G[1] * r[1] / (1.0 - delta1)),), G

    def in_ball(u):
        g, = u
        return np.min(g) > eta / 2.0 and np.max(g) < 1.5 * eta

    return _picard(p, eta, tol, chart.gamma, kind, (eta,), apply, in_ball,
                   "g-origin Picard failed to contract for eta")


def _g_operator(r, g, m, n, at, bt, q, eta):
    inner = _cumtrap(r ** q * g, r, eta * r[1] ** (q + 1.0) / (q + 1.0))
    G = np.zeros_like(g)
    G[1:] = (g[1:] ** (1.0 - m) / r[1:] ** (n - 1)) * (
        -bt * r[1:] ** (q + 1.0) * g[1:] + (bt * (q + 1.0) - at) * inner[1:]
    )
    return G


def singular_slope_limit(p: ProfileParams, eta: float) -> float:
    """Leading coefficient of g_r ~ c * r^{-delta1} at the origin.

    Balancing the flux integral of the g-equation at leading order gives
    c = -m * alpha_tilde * eta^{2-m} / (n - 2 - 2m).
    """
    return -p.m * p.alpha_tilde * eta ** (2.0 - p.m) / (p.n - 2.0 - 2.0 * p.m)
