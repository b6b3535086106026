"""Adaptive outward continuation in the reduced chart of the series.

A solve starts from the seam state of the manifold series (localsolve) and
keeps the series nodes below the seam.  Outward of it, kernels advances the
series' own state (u, Z = ln Y) in tau = ln x with an embedded 5(4) pair
(FSAL, PI step control, steps capped at kernels.HMAX in tau), and each
accepted step maps back to (v, v_x) through profile.Chart.native.  Dense
output is cubic Hermite of ln v in ln x (profile.Profile.value_at).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .localsolve import LocalSolution, picard_f_origin, picard_g_origin
from .params import DomainError, ProfileParams
from .profile import Chart, Profile, ProfileKind, TerminalEvent

_TAG_TO_EVENT = {
    kernels.TAG_RMAX: TerminalEvent.REACHED_RMAX,
    kernels.TAG_VALUE_FLOOR: TerminalEvent.VALUE_FLOOR,
    kernels.TAG_DERIV_BLOWUP: TerminalEvent.DERIV_BLOWUP,
    kernels.TAG_STEP_UNDERFLOW: TerminalEvent.STEP_UNDERFLOW,
    kernels.TAG_OVERFLOW: TerminalEvent.NODE_OVERFLOW,
}


@dataclass(frozen=True)
class OdeState:
    """Value and flux P = r^{n-1} v^{m-1} v_r at one radius."""
    r: float
    v: float
    flux: float


@dataclass(frozen=True)
class Trajectory:
    """Accepted steps of one outward integration run."""
    r: np.ndarray
    v: np.ndarray
    vr: np.ndarray
    flux: np.ndarray
    dflux: np.ndarray
    step_errors: np.ndarray
    terminal: TerminalEvent

    @property
    def end(self) -> OdeState:
        return OdeState(float(self.r[-1]), float(self.v[-1]), float(self.flux[-1]))


class ContinuationFailed(RuntimeError):
    """Outward integration ended on an event before reaching r_max.

    Carries the terminal event and whatever profile was built up to the
    stopping radius, so callers can still inspect the partial solution.
    """

    def __init__(self, terminal: TerminalEvent, partial: Profile | None = None):
        super().__init__(f"integration terminated by {terminal.value}")
        self.terminal = terminal
        self.partial = partial


def _advance(chart: Chart, state: OdeState, r_max: float,
             tol: float) -> Trajectory:
    if r_max < state.r:
        raise DomainError(
            f"r_max={r_max} is below the start radius {state.r} "
            f"(a solve starts at the series seam eps)")
    p = chart.params
    x0, v0 = state.r, state.v
    vr0 = state.flux * v0 ** (1.0 - p.m) / x0 ** (p.n - 1)
    x, u, Z, errs, tag = kernels.integrate_flux_system(
        chart.lam, chart.mu, chart.A, p.m, p.beta, x0,
        *chart.reduced(x0, v0, vr0), r_max, tol)
    v, vr = chart.native(x, u, Z)
    # the first node is the start state as given, not its image through (u, Z)
    v[0], vr[0] = v0, vr0
    P = chart.flux(x, v, vr)
    P[0] = state.flux
    return Trajectory(x, v, vr, P, chart.dflux(x, v, vr), errs,
                      _TAG_TO_EVENT[int(tag)])


def advance_f(params: ProfileParams, state: OdeState, r_max: float,
              tol: float = 1e-9) -> Trajectory:
    """Continue the origin profile outward to r_max or a terminal event."""
    return _advance(Chart.of(params, ProfileKind.ORIGIN), state, r_max, tol)


def advance_g(params: ProfileParams, state: OdeState, r_max: float,
              tol: float = 1e-9) -> Trajectory:
    """Continue the far-field profile outward to r_max or a terminal event."""
    return _advance(Chart.of(params, ProfileKind.FARFIELD), state, r_max, tol)


def thin_local_nodes(grid: np.ndarray) -> np.ndarray:
    """Indices of the local nodes strictly below the seam, the grid's last node.

    A separate function only because perfbench traces it as a layer boundary.
    """
    return np.flatnonzero(grid < grid[-1])


def continue_profile(params: ProfileParams, loc: LocalSolution, r_max: float,
                     tol: float = 1e-9) -> Profile:
    """Stitch the series nodes to the adaptive outward integration.

    The series state at the seam eps becomes the first node of the outward
    trajectory, so the stitched dense representation is C^1 at the seam by
    construction.  Raises ContinuationFailed, carrying the partial profile,
    if an event fires before r_max.
    """
    kind = loc.kind
    chart = Chart.of(params, kind)
    eps = loc.eps
    v_eps = float(loc.value[-1])
    vr_eps = float(loc.deriv[-1])
    traj = _advance(chart, OdeState(eps, v_eps, chart.flux(eps, v_eps, vr_eps)),
                    r_max, tol)

    keep = thin_local_nodes(loc.grid)
    rl = loc.grid[keep]
    vl = loc.value[keep]
    vrl = loc.deriv[keep]

    r = np.concatenate([rl, traj.r])
    v = np.concatenate([vl, traj.v])
    vr = np.concatenate([vrl, traj.vr])
    P = np.concatenate([chart.flux(rl, vl, vrl), traj.flux])
    dP = np.concatenate([chart.dflux(rl, vl, vrl), traj.dflux])
    errs = np.concatenate([np.zeros(len(rl)), traj.step_errors])

    prof = Profile(kind=kind, params=params, boundary=loc.boundary_value,
                   r=r, v=v, vr=vr, flux=P, dflux=dP, eps=eps,
                   n_local=len(rl), terminal=traj.terminal, tol=tol,
                   step_errors=errs)

    # the merged node set must be strictly increasing or the dense
    # representation (and every downstream stencil) is corrupt
    if (np.any(np.diff(r) <= 0.0)
            or traj.terminal is not TerminalEvent.REACHED_RMAX):
        raise ContinuationFailed(traj.terminal, prof)
    return prof


def _require_run_settings(r_max: float, tol: float, **more: float) -> None:
    for name, x in (("r_max", r_max), ("tol", tol), *more.items()):
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"{name}={x} violates 0 < {name} < inf")


def solve_origin_profile(params: ProfileParams, eta0: float, r_max: float,
                         tol: float = 1e-9) -> Profile:
    """Full origin profile: series near r = 0, then adaptive continuation."""
    _require_run_settings(r_max, tol)
    loc = picard_f_origin(params, eta0, tol, r_max)
    return continue_profile(params, loc, r_max, tol=tol)


def solve_farfield_profile(params: ProfileParams, eta: float, r_max: float,
                           tol: float = 1e-9) -> Profile:
    """Full far-field profile in the inverted variable, from g(0) = eta."""
    _require_run_settings(r_max, tol)
    loc = picard_g_origin(params, eta, tol, r_max)
    return continue_profile(params, loc, r_max, tol=tol)
