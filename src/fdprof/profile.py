"""Stitched profile representation shared by the solvers and the checks.

A Profile concatenates the local nodes of the manifold series (spaced by
tol, widest deep below the seam) with the accepted steps of the outward
integration.  A node is (r, v, v_r); the flux P = r^{n-1} v^{m-1} v_r and
its slope come from Chart when a check needs them.  Dense evaluation is C1
cubic Hermite of ln v in ln x with the nodal log-slopes x v_x / v, the
chart's own variables, and never re-differences values.
"""
from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .params import ProfileParams


class ProfileKind(enum.Enum):
    ORIGIN = "origin"       # f-problem: f(0) = eta0, f_r(0) = 0
    FARFIELD = "farfield"   # g-problem: g(0) = eta, samples are g(r)


class TerminalEvent(enum.Enum):
    REACHED_RMAX = "ReachedRmax"
    VALUE_FLOOR = "ValueFloor"
    DERIV_BLOWUP = "DerivBlowup"
    STEP_UNDERFLOW = "StepUnderflow"
    NODE_OVERFLOW = "NodeOverflow"      # MAX_NODES accepted steps before r_max


@dataclass(frozen=True)
class Chart:
    """Everything that differs between the origin and the far-field chart.

    In the native variable x of its chart each profile equation has the flux
    form P' = -x^w (A v + B x v_x), P = x^{n-1} v^{m-1} v_x, which the
    residual checks.  The chart's datum is an invariant manifold of a fixed
    point X* of the reduced system in u = X - X*, Z = ln Y (see localsolve
    and kernels): lam is the fixed point's eigenvalue along the manifold, mu
    the other one, and Y = x^|lam| v^{1-m}, x v_x / v = sign(lam) u.
    """
    params: ProfileParams
    w: float
    A: float
    B: float
    lam: float
    mu: float

    @classmethod
    def of(cls, params: ProfileParams, kind: ProfileKind) -> Chart:
        p = params
        if kind is ProfileKind.ORIGIN:
            return cls(p, p.n - 1.0, p.alpha, p.beta, 2.0, 2.0 - p.n)
        return cls(p, p.n + p.sigma - 3.0, p.alpha_tilde, p.beta_tilde,
                   -p.sigma, p.n - 2.0)

    def flux(self, r, v, vr):
        """P = r^{n-1} v^{m-1} v_r."""
        return r ** (self.params.n - 1) * v ** (self.params.m - 1.0) * vr

    def dflux(self, r, v, vr):
        """P' = -r^w (A v + B r v_r)."""
        return -r ** self.w * (self.A * v + self.B * r * vr)

    def reduced(self, x, v, vr):
        """(u, Z) at chart radius x from the value and the slope."""
        return (np.sign(self.lam) * x * vr / v,
                abs(self.lam) * np.log(x) + (1.0 - self.params.m) * np.log(v))

    def native(self, x, u, Z):
        """(v, v_x) at chart radius x from the reduced state (u, Z)."""
        v = np.exp((Z - abs(self.lam) * np.log(x)) / (1.0 - self.params.m))
        return v, np.sign(self.lam) * u * v / x


def _hermite(rs, ys, dys, x):
    """Piecewise cubic Hermite through (rs, ys) with nodal slopes dys, and
    its slope."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(rs, x) - 1, 0, len(rs) - 2)
    r0, r1 = rs[idx], rs[idx + 1]
    h = r1 - r0
    t = np.clip((x - r0) / h, 0.0, 1.0)
    u = 1.0 - t
    y0, y1, d0, d1 = ys[idx], ys[idx + 1], dys[idx], dys[idx + 1]
    value = (u * u * (1.0 + 2.0 * t) * y0 + t * u * u * h * d0
             + t * t * (3.0 - 2.0 * t) * y1 + t * t * (t - 1.0) * h * d1)
    slope = (6.0 * t * u * (y1 - y0) / h + u * (1.0 - 3.0 * t) * d0
             + t * (3.0 * t - 2.0) * d1)
    return value, slope


def hermite_many(rs, ys, dys, x):
    """Piecewise cubic Hermite through (rs, ys) with nodal slopes dys."""
    return _hermite(rs, ys, dys, x)[0]


@dataclass(frozen=True)
class Profile:
    kind: ProfileKind
    params: ProfileParams
    boundary: float               # eta0 for ORIGIN, eta for FARFIELD
    r: np.ndarray                 # strictly increasing, > 0
    v: np.ndarray
    vr: np.ndarray
    n_local: int                  # nodes taken from the series
    terminal: TerminalEvent
    tol: float

    @property
    def eps(self) -> float:
        """Series/stepper seam radius, the first node of the stepper."""
        return float(self.r[self.n_local])

    @property
    def r_end(self) -> float:
        return float(self.r[-1])

    @property
    def chart(self) -> Chart:
        return Chart.of(self.params, self.kind)

    @property
    def fside_span(self) -> tuple[float, float]:
        """(lowest, highest) f-side radius the stored nodes represent."""
        if self.kind is ProfileKind.ORIGIN:
            return float(self.r[0]), self.r_end
        return 1.0 / self.r_end, 1.0 / float(self.r[0])

    @functools.cached_property
    def _log_nodes(self):
        """(ln x, ln v, x v_x / v) at the nodes: the dense output's knots."""
        return np.log(self.r), np.log(self.v), self.r * self.vr / self.v

    def _dense(self, x):
        x = np.asarray(x, dtype=np.float64)
        lnv, w = _hermite(*self._log_nodes, np.log(x))
        v = np.exp(lnv)
        return v, v * w / x

    def value_at(self, x):
        return self._dense(x)[0]

    def deriv_at(self, x):
        return self._dense(x)[1]
