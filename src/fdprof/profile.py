"""Stitched profile representation shared by the solvers and the checks.

A Profile concatenates the local nodes of the manifold series (1% radial
spacing below the seam) with the accepted steps of the outward integration.
Nodes carry value, derivative, flux P = r^{n-1} v^{m-1} v_r and the flux
derivative, so dense evaluation is C1 cubic Hermite and never re-differences
values.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Chart:
    """Everything that differs between the origin and the far-field chart.

    Both profile equations reduce to the flux system

        v_r = v^{1-m} P / r^{n-1},    P' = -r^w (A v + B r v_r)

    in the native variable of their chart.  The chart's datum is an invariant
    manifold of a fixed point of the reduced system (see localsolve): lam is
    the fixed point's eigenvalue along the manifold, mu the other one.
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


def hermite_many(rs, ys, dys, x):
    """Piecewise cubic Hermite through (rs, ys) with nodal slopes dys."""
    x = np.asarray(x, dtype=np.float64)
    idx = np.clip(np.searchsorted(rs, x) - 1, 0, len(rs) - 2)
    r0, r1 = rs[idx], rs[idx + 1]
    h = r1 - r0
    t = np.clip((x - r0) / h, 0.0, 1.0)
    u = 1.0 - t
    return (u * u * (1.0 + 2.0 * t) * ys[idx] + t * u * u * h * dys[idx]
            + t * t * (3.0 - 2.0 * t) * ys[idx + 1] + t * t * (t - 1.0) * h * dys[idx + 1])


@dataclass(frozen=True)
class Profile:
    kind: ProfileKind
    params: ProfileParams
    boundary: float               # eta0 for ORIGIN, eta for FARFIELD
    r: np.ndarray                 # strictly increasing, > 0
    v: np.ndarray
    vr: np.ndarray
    flux: np.ndarray
    dflux: np.ndarray
    eps: float                    # series/stepper seam radius
    n_local: int                  # nodes taken from the series
    terminal: TerminalEvent
    tol: float
    step_errors: np.ndarray = field(repr=False, default=None)

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

    def value_at(self, x):
        return hermite_many(self.r, self.v, self.vr, x)

    def deriv_at(self, x):
        # v_r recovered through the flux relation keeps derivative evaluation
        # consistent with the stored state
        P = hermite_many(self.r, self.flux, self.dflux, x)
        v = self.value_at(x)
        n1 = self.params.n - 1
        return v ** (1.0 - self.params.m) * P / np.asarray(x, dtype=float) ** n1

    def in_range(self, x) -> bool:
        return bool(np.all((x >= self.r[0]) & (x <= self.r[-1])))
