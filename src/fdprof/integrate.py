"""Adaptive outward continuation in the reduced chart of the series.

A solve starts from the seam state of the manifold series (localsolve) and
keeps the series nodes below the seam.  Outward of it, kernels advances the
series' own state (u, Z = ln Y) in tau = ln x with an embedded 5(4) pair
(FSAL, PI step control, steps capped at kernels.HMAX in tau), and each
accepted step maps back to (v, v_x) through profile.Chart.native.  A
touchdown ends on a last node where v meets kernels.VALUE_FLOOR, placed by
the closed form of the pole once the Y terms are below tol.  Dense output
is cubic Hermite of ln v in ln x (profile.Profile.value_at).

section_Y, for the beta* gap, runs the same integration from the series'
seam state until its first step across the section X = -2/(1-m), the
nullcline of Y, and reads Y there as the peak of the cubic Hermite of
ln Y in tau; it builds no nodes and no Profile.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .localsolve import (GAP_SEAM, LocalSolution, check_datum, gap_order,
                         picard_f_origin, picard_g_origin, series_seam)
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
    terminal: TerminalEvent


class ContinuationFailed(RuntimeError):
    """Outward integration ended on an event before reaching r_max.

    Carries the terminal event and whatever profile was built up to the
    stopping radius, so callers can still inspect the partial solution.
    """

    def __init__(self, terminal: TerminalEvent, partial: Profile | None = None):
        super().__init__(f"integration terminated by {terminal.value}")
        self.terminal = terminal
        self.partial = partial


def _advance(chart: Chart, x0: float, v0: float, vr0: float, r_max: float,
             tol: float) -> Trajectory:
    if r_max < x0:
        raise DomainError(
            f"r_max={r_max} is below the start radius {x0} "
            f"(a solve starts at the series seam eps)")
    p = chart.params
    x, u, Z, tag = kernels.integrate_flux_system(
        chart.lam, chart.mu, chart.A, p.m, p.beta, x0,
        *chart.reduced(x0, v0, vr0), r_max, tol)
    v, vr = chart.native(x, u, Z)
    # the first node is the start state as given, not its image through (u, Z)
    v[0], vr[0] = v0, vr0
    return Trajectory(x, v, vr, _TAG_TO_EVENT[int(tag)])


def _advance_state(kind: ProfileKind, p: ProfileParams, state: OdeState,
                   r_max: float, tol: float) -> Trajectory:
    """_advance from a flux-form state, for advance_f and advance_g."""
    vr = state.flux * state.v ** (1.0 - p.m) / state.r ** (p.n - 1)
    return _advance(Chart.of(p, kind), state.r, state.v, vr, r_max, tol)


def advance_f(params: ProfileParams, state: OdeState, r_max: float,
              tol: float = 1e-9) -> Trajectory:
    """Continue the origin profile outward to r_max or a terminal event."""
    return _advance_state(ProfileKind.ORIGIN, params, state, r_max, tol)


def advance_g(params: ProfileParams, state: OdeState, r_max: float,
              tol: float = 1e-9) -> Trajectory:
    """Continue the far-field profile outward to r_max or a terminal event."""
    return _advance_state(ProfileKind.FARFIELD, params, state, r_max, tol)


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
    traj = _advance(Chart.of(params, loc.kind), loc.eps, float(loc.value[-1]),
                    float(loc.deriv[-1]), r_max, tol)
    keep = thin_local_nodes(loc.grid)
    r = np.concatenate([loc.grid[keep], traj.r])
    prof = Profile(kind=loc.kind, params=params, boundary=loc.boundary_value,
                   r=r, v=np.concatenate([loc.value[keep], traj.v]),
                   vr=np.concatenate([loc.deriv[keep], traj.vr]),
                   n_local=len(keep), terminal=traj.terminal, tol=tol)

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


SECTION_REACH = 8.0 ** 4   # a gap's reach, in units of a solve's seam cap b^{(m-1)/2}


def _hermite_peak(z0, z1, d0, d1):
    """Extremum of the cubic Hermite from (z0, d0) to (z1, d1), slopes per
    unit s in [0, 1] of opposite signs.  Its slope d0 (1-s)^2 + 2c s(1-s) +
    d1 s^2, c = 3 (z1 - z0) - d0 - d1, vanishes once in [0, 1]; that root is
    a ratio of sums of nonnegative terms, so it needs no clamp."""
    c = 3.0 * (z1 - z0) - d0 - d1
    q = math.sqrt(c * c - d0 * d1) + abs(c)
    s = abs(d0) / (q + abs(d0)) if c * d1 > 0.0 else q / (q + abs(d1))
    t = 1.0 - s
    return z0 + s * s * (3.0 - 2.0 * s) * (z1 - z0) + s * t * (t * d0 - s * d1)


def section_Y(p: ProfileParams, kind: ProfileKind, boundary: float, tol: float):
    """Y = r^2 f^{1-m} where the chart's manifold first crosses X = -2/(1-m).

    In either chart that section is u = u_sec = -lam/(1-m), where
    Z_tau = |lam| + sign(lam) (1-m) u vanishes, so Y peaks there.  The
    series (localsolve.gap_order(tol) terms) has its seam at GAP_SEAM of its
    root-test radius, capped only by the reach, SECTION_REACH times b^{(m-1)/2};
    the stepper runs from there to the reach, stops on the first step across
    the section and reads Y as the peak of the cubic Hermite of Z = ln Y in
    tau over that step, with end slopes h Z_tau = h (1-m) sign(lam) (u - u_sec).
    Returns (Y, None), or (None, why no step crosses the section): the seam
    already lies on or past it, or the run ends on an event.
    """
    check_datum(p, kind, boundary)
    reach = SECTION_REACH * boundary ** ((p.m - 1.0) / 2.0)
    _require_run_settings(reach, tol)
    seam = series_seam(p, kind, boundary, reach, gap_order(tol), GAP_SEAM)
    c = Chart.of(p, kind)
    u_sec = -c.lam / (1.0 - p.m)
    if (seam.u - u_sec) * u_sec >= 0.0:   # not on the fixed point's side, u = 0
        return None, f"its series seam at x={seam.eps:.6g} already lies on or past it"
    x, u, Z, tag = kernels.integrate_flux_system(
        c.lam, c.mu, c.A, p.m, p.beta, seam.eps, seam.u, seam.Z, reach, tol, u_sec)
    if tag != kernels.TAG_SECTION:
        return None, f"it ends on {_TAG_TO_EVENT[int(tag)].value}"
    g = math.copysign((1.0 - p.m) * math.log(x[-1] / x[-2]), c.lam)
    d0, d1 = (g * (u[-2:] - u_sec)).tolist()
    return math.exp(_hermite_peak(float(Z[-2]), float(Z[-1]), d0, d1)), None
