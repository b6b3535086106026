"""Taylor stepper for the reduced system of both charts.

The state is the one the manifold series solves for (see localsolve):
u = X - X* and Z = ln Y, with X = r f_r / f, Y = r^2 f^{1-m}, advanced in
tau = ln x for the chart radius x (r, or s = 1/r):

    u_tau = sgn (mu u - m u^2 - A Y - beta u Y),   Z_tau = |lam| + sgn (1-m) u

with sgn = sign(lam) and (lam, mu, A) from profile.Chart.  The system is
polynomial in (u, Y), so the Cauchy-product recursion of the manifold
series also gives its Taylor coefficients in tau at any state, and both
run on plain floats.  Each step sums them to an order and over a step set
by tol and the root test (Jorba & Zou, Exp. Math. 14, 2005); a solve's
nodes lie at most HMAX apart, and a beta* gap run, read only at its last
node, takes two terms fewer.

A zero of the profile (a touchdown) is a pole of u.  Without its Y terms
the equation, u_tau = sgn u (mu - m u), is linear in 1/u, has its fixed
point at u* = mu/m (x v_x / v = -k in both charts) and keeps v^m (u* - u)
fixed.  Past u*, once the Y terms are below tol of the rest, a run is
closed by that law instead of stepped into the pole: its last node is
where v has fallen by VALUE_FLOOR from the closing node, or at x_max if
that comes first.  No test in the loop reads the size of v or v_x: (u, Y)
and the steps are those of any image of the run under the profiles'
scaling family, up to rounding.  A run ends on a profile.TerminalEvent;
SECTION ends a beta* gap run where its step's polynomial first crosses a
given u.
"""
from __future__ import annotations

import math
from operator import mul

import numpy as np

from .profile import TerminalEvent

MAX_NODES = 250_000      # trajectory node capacity; a full store ends the run
VALUE_FLOOR = 1e-30      # a touchdown's last node: v fallen by this from the closure
STEP_FLOOR = 1e-14       # least step in tau, relative to 1 + |tau|
HMAX = 0.025             # largest node gap in tau: dense output, residual stencil
_REACH = math.exp(-2.0)  # a step, as a fraction of the root-test radius

# fdprof has one backend, this interpreted one; perfbench is the only reader
NUMBA_ENABLED = False


def integrate_flux_system(lam, mu, A, m, beta, x0, u0, Z0, x_max, tol,
                          u_sec=math.inf):
    """Advance (u, Z) from x0 to x_max recording every emitted node.

    Returns (x, u, Z, event): node radii, states and the TerminalEvent.
    x[0] is x0 and, when the run reaches it, x[-1] is x_max, both exactly.
    Each step sums N = ceil(-ln(tol)/2) + 3 Taylor terms of u and of
    y = Y/Y0 from its start (ceil(-ln(tol)/2) + 1 in a gap run, which is
    read only at its last node), takes Z as Z0 plus the integral of Z_tau, and
    spans e^-2 of the least root-test radius |c_j / scale|^{-1/j}, j = N-1
    and N, with scale 1 + |u| for u and 1 for y; a non-finite coefficient,
    or a step below STEP_FLOOR, ends the run on STEP_UNDERFLOW.  A solve's
    step emits nodes that split it evenly, at most HMAX apart, and every
    test below runs at each emitted node.  Past u*, the first node with
    Y (|c| + |d u|) <= tol |u (a + b u)| closes the run by the Y-free
    flow's closed form, on a last node where v has fallen by VALUE_FLOOR,
    or at x_max if that comes first; the test takes absolute values because
    a signed Y term also passes where c + d u changes sign, far from the
    pole.  A finite u_sec makes a gap run, one node per step, which ends on
    SECTION where the step's polynomial first crosses u = u_sec: Newton on
    that polynomial places the last node, with u = u_sec; solves keep the
    default, never crossed.  A run with no room left under MAX_NODES for
    two more nodes ends on NODE_OVERFLOW.  The recursion is written out in
    the loop, as u_tau = u (a + b u) + Y (c + d u) and Z_tau = e + g u: a
    call per Cauchy product would cost the step 2-5%.  The name dates from
    the flux-form stepper this one replaced; perfbench counts steps by
    len(x), which here counts nodes.
    """
    # plain floats: numpy scalars would make the loop several times slower
    e, sgn = abs(lam), math.copysign(1.0, lam)
    mu, A, m, beta = float(mu), float(A), float(m), float(beta)
    tau, u, Z = math.log(x0), float(u0), float(Z0)
    tau_max, tol, u_sec = math.log(x_max), float(tol), float(u_sec)
    one_m = 1.0 - m
    a, b, c, d, g = sgn * mu, -sgn * m, -sgn * A, -sgn * beta, sgn * one_m
    # the Y-free flow u_tau = u (a + b u) has its fixed point at u* = -a/b;
    # past it, x v_x / v = sgn u < a/m, it runs into the pole when a < 0
    # (both charts)
    u_fix, w_fix = -a / b, a / m if a < 0.0 else -math.inf
    # a solve's step truncation, e^{-2(N+1)} of its scale, is below tol e^{-8}:
    # on far tails, where the flux is nearly constant, the residual check
    # reads the kinks between steps amplified up to ~5e4.  A gap run keeps
    # only its last node, read at the section: one node per step, and
    # tol e^{-4} is enough there
    solve = u_sec == math.inf
    order = max(4, math.ceil(-math.log(tol) / 2.0) + (3 if solve else 1))
    inv = [1.0 / (j + 1) for j in range(order + 1)]
    spacing = HMAX if solve else math.inf
    taus, us, Zs = [tau], [u], [Z]
    event = None
    while event is None:
        if tau >= tau_max:
            event = TerminalEvent.REACHED_RMAX
            break
        # (j+1) u_{j+1} = a u_j + b [u^2]_j + Y0 (c y_j + d [uy]_j),
        # (j+1) y_{j+1} = e y_j + g [uy]_j, from y_0 = 1
        Y0 = math.exp(Z)
        Yc, Yd = Y0 * c, Y0 * d
        uc, yc = [u], [1.0]
        for j in range(order):
            uy = sum(map(mul, uc, reversed(yc)))
            uj, yj = uc[j], yc[j]
            uc.append((a * uj + b * sum(map(mul, uc, reversed(uc)))
                       + Yc * yj + Yd * uy) * inv[j])
            yc.append((e * yj + g * uy) * inv[j])
        su = 1.0 + abs(u)
        rho = max((abs(uc[-2]) / su) ** inv[order - 2], abs(yc[-2]) ** inv[order - 2],
                  (abs(uc[-1]) / su) ** inv[order - 1], abs(yc[-1]) ** inv[order - 1])
        h = _REACH / rho if rho > 0.0 else math.inf
        if not (math.isfinite(uc[-1] + yc[-1])
                and h >= STEP_FLOOR * (1.0 + abs(tau))):
            event = TerminalEvent.STEP_UNDERFLOW
            break
        last = tau + h >= tau_max
        if last:
            h = tau_max - tau
        # u(t) and Z(t) = Z + t z(t): Horner pairs, highest degree first
        zc = [g * uj * q for uj, q in zip(uc, inv)]
        zc[0] += e
        coef = list(zip(reversed(uc), reversed(zc)))
        k = math.ceil(h / spacing) or 1
        t_prev, u_prev = 0.0, u
        for i in range(1, k + 1):
            t = h if i == k else h * i / k
            un = zz = 0.0
            for cu, cz in coef:
                un = un * t + cu
                zz = zz * t + cz
            tn = tau_max if last and i == k else tau + t
            Zn = Z + t * zz
            if len(taus) + 2 > MAX_NODES:  # room for this node and a closing one
                event = TerminalEvent.NODE_OVERFLOW
                break
            if (un - u_sec) * (u_prev - u_sec) <= 0.0:
                # Newton on the step's polynomial, from the secant
                s = t if un == u_prev else (
                    t_prev + (t - t_prev) * (u_prev - u_sec) / (u_prev - un))
                for _ in range(20):
                    pu = du = 0.0
                    for cu, _ in coef:
                        du = du * s + pu
                        pu = pu * s + cu
                    ds = (pu - u_sec) / du if du else 0.0
                    s = min(max(s - ds, t_prev), t)
                    if not abs(ds) > 1e-15 * (1.0 + s):
                        break
                zz = 0.0
                for _, cz in coef:
                    zz = zz * s + cz
                taus.append(tau + s); us.append(u_sec); Zs.append(Z + s * zz)
                event = TerminalEvent.SECTION
                break
            if sgn * un < w_fix and (math.exp(Zn) * (abs(c) + abs(d * un))
                                     <= tol * abs(un * (a + b * un))):
                # the Y terms are below tol: what is left is linear in 1/u and
                # keeps v^m (u* - u) fixed, so ln v falls by L/m over
                # a s = ln(1 + (u*/u) (e^{-L} - 1)); the last node is where v
                # has fallen by VALUE_FLOOR, or at x_max if that comes first
                event, el = TerminalEvent.VALUE_FLOOR, -m * math.log(VALUE_FLOOR)
                tf = tn + math.log1p(u_fix / un * math.expm1(-el)) / a
                if tf > tau_max:
                    event, tf = TerminalEvent.REACHED_RMAX, tau_max
                    el = -math.log1p(un / u_fix * math.expm1(a * (tf - tn)))
                if tf > tn:   # else the closing node replaces this one
                    taus.append(tn); us.append(un); Zs.append(Zn)
                taus.append(tf); us.append(un * math.exp(el + a * (tf - tn)))
                Zs.append(e * tf + one_m * ((Zn - e * tn) / one_m - el / m))
                break
            taus.append(tn); us.append(un); Zs.append(Zn)
            t_prev, u_prev = t, un
        tau, u, Z = tn, un, Zn
    x = np.exp(taus)
    x[0] = x0
    if event is TerminalEvent.REACHED_RMAX and len(x) > 1:
        x[-1] = x_max
    return x, np.array(us), np.array(Zs), event
