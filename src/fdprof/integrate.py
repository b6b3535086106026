"""Outward continuation in the reduced chart of the series.

A solve starts from the seam state of the manifold series (localsolve) and
keeps the series nodes below the seam.  Outward of it, kernels advances the
series' own state (u, Z = ln Y) in tau = ln x by Taylor steps, with nodes
at most kernels.HMAX apart in tau, and each node maps back to (v, v_x)
through profile.Chart.native; a node that Chart.first_unstorable refuses
ends the solve.  A touchdown ends on a last node where v has fallen by
kernels.VALUE_FLOOR, placed by the closed form of the pole once the Y
terms are below tol.  Dense output is cubic Hermite of ln v in ln x.

section_Y, for the beta* gap, runs the same integration from the series'
seam state to the section X = -2/(1-m), the nullcline of Y, whose
crossing is the run's last node, and reads Y there; it builds no Profile
and builds its chart once (a solve builds one per stage).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .localsolve import (GAP_SEAM, LocalSolution, check_datum, picard_f_origin,
                         picard_g_origin, series_seam)
from .params import DomainError, ProfileParams, require_positive
from .profile import Chart, Profile, ProfileKind, TerminalEvent

@dataclass(frozen=True)
class OdeState:
    """Value and flux P = r^{n-1} v^{m-1} v_r at one radius."""
    r: float
    v: float
    flux: float


@dataclass(frozen=True)
class Trajectory:
    """Nodes of one outward integration run."""
    r: np.ndarray
    v: np.ndarray
    vr: np.ndarray
    terminal: TerminalEvent


class ContinuationFailed(RuntimeError):
    """Outward integration ended on an event before reaching r_max.

    Carries the terminal event and whatever profile was built up to the
    stopping radius, so callers can still inspect the partial solution.  A
    node that does not fit a float raises it with a message and no partial.
    """

    def __init__(self, terminal: TerminalEvent, partial: Profile | None = None,
                 why: str | None = None):
        super().__init__(why or f"integration terminated by {terminal.value}")
        self.terminal = terminal
        self.partial = partial


def _advance(chart: Chart, x0: float, v0: float, vr0: float, r_max: float,
             tol: float) -> Trajectory:
    if r_max < x0:
        raise DomainError(
            f"r_max={r_max} is below the start radius {x0} "
            f"(a solve starts at the series seam eps)")
    p = chart.params
    x, u, Z, event = kernels.integrate_flux_system(
        chart.lam, chart.mu, chart.A, p.m, p.beta, x0,
        *chart.reduced(np.log(x0), np.log(v0), x0 * vr0 / v0), r_max, tol)
    with np.errstate(all="ignore"):   # refused just below
        v, vr = chart.native(x, u, Z)
        v[0], vr[0] = v0, vr0   # the start state as given, not its image in (u, Z)
    if bad := chart.first_unstorable(x, v, vr, u):
        raise ContinuationFailed(event, why=f"{chart.kind.value} stepper {bad[1]} at "
                                 f"x={x[bad[0]]:.3g} (sigma={p.sigma:.3g})")
    return Trajectory(x, v, vr, event)


def advance_f(params: ProfileParams, state: OdeState, r_max: float,
              tol: float = 1e-9) -> Trajectory:
    """Continue the origin profile from a flux-form state outward to r_max or
    a terminal event."""
    vr = state.flux * state.v ** (1.0 - params.m) / state.r ** (params.n - 1)
    return _advance(Chart.of(params, ProfileKind.ORIGIN), state.r, state.v, vr,
                    r_max, tol)


def thin_local_nodes(grid: np.ndarray) -> np.ndarray:
    """Indices of the local nodes strictly below the seam, the grid's last node.

    A separate function only because perfbench traces it as a layer boundary.
    """
    return np.flatnonzero(grid < grid[-1])


def continue_profile(params: ProfileParams, loc: LocalSolution, r_max: float,
                     tol: float = 1e-9) -> Profile:
    """Stitch the series nodes to the outward integration.

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


def solve_origin_profile(params: ProfileParams, eta0: float, r_max: float,
                         tol: float = 1e-9) -> Profile:
    """Full origin profile: series near r = 0, then Taylor continuation."""
    require_positive(r_max=r_max, tol=tol)
    loc = picard_f_origin(params, eta0, tol, r_max)
    return continue_profile(params, loc, r_max, tol=tol)


def solve_farfield_profile(params: ProfileParams, eta: float, r_max: float,
                           tol: float = 1e-9) -> Profile:
    """Full far-field profile in the inverted variable, from g(0) = eta."""
    require_positive(r_max=r_max, tol=tol)
    loc = picard_g_origin(params, eta, tol, r_max)
    return continue_profile(params, loc, r_max, tol=tol)


SECTION_REACH = 8.0 ** 4   # a gap's reach, in units of the datum's length


def section_Y(p: ProfileParams, kind: ProfileKind, boundary: float, tol: float):
    """Y = r^2 f^{1-m} where the chart's manifold first crosses X = -2/(1-m).

    In either chart that section is u = u_sec = -lam/(1-m), where
    Z_tau = |lam| + sign(lam) (1-m) u vanishes, so Y peaks there.  The
    series seam sits at GAP_SEAM of the root-test radius, capped only by the
    reach SECTION_REACH datum_length(b); the stepper runs from there to the
    reach and ends on a last node at the section's first crossing, where
    Y = e^Z.  Returns (Y, None), or (None, why no step crosses the section):
    the seam already lies on or past it, or the run ends on an event.
    """
    c = Chart.of(p, kind)
    check_datum(c, boundary)
    reach = SECTION_REACH * c.datum_length(boundary)
    require_positive(r_max=reach, tol=tol)
    seam = series_seam(c, boundary, reach, GAP_SEAM, tol)
    u_sec = -c.lam / (1.0 - p.m)
    if (seam.u - u_sec) * u_sec >= 0.0:   # not on the fixed point's side, u = 0
        return None, f"its series seam at x={seam.eps:.6g} already lies on or past it"
    _, _, Z, event = kernels.integrate_flux_system(
        c.lam, c.mu, c.A, p.m, p.beta, seam.eps, seam.u, seam.Z, reach, tol, u_sec)
    if event is not TerminalEvent.SECTION:
        return None, f"it ends on {event.value}"
    return math.exp(Z[-1]), None
