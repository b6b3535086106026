"""Dormand-Prince 5(4) stepper for the reduced system of both charts.

The state is the one the manifold series solves for (see localsolve):
u = X - X* and Z = ln Y, with X = r f_r / f, Y = r^2 f^{1-m}, advanced in
tau = ln x for the chart radius x (r, or s = 1/r):

    u_tau = sgn (mu u - m u^2 - A Y - beta u Y),   Z_tau = |lam| + sgn (1-m) u

with sgn = sign(lam) and (lam, mu, A) from profile.Chart.  A zero of the
profile (a touchdown) is a pole of u.  Without its Y terms the equation,
u_tau = sgn u (mu - m u), is linear in 1/u, has its fixed point at u* = mu/m
(x v_x / v = -k in both charts) and keeps v^m (u* - u) fixed.  Past u*,
once the Y terms are below tol of the rest, a run is closed by that law
instead of stepped into the pole: it places the node where v meets
VALUE_FLOOR.
"""
from __future__ import annotations

import math

import numpy as np

# Butcher tableau, Dormand-Prince 5(4), FSAL (no abscissae: the system is autonomous)
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0,
                                49.0 / 176.0, -5103.0 / 18656.0)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0,
                                -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0)

TAG_RMAX = 0
TAG_VALUE_FLOOR = 1
TAG_DERIV_BLOWUP = 2
TAG_STEP_UNDERFLOW = 3
TAG_OVERFLOW = 4
TAG_SECTION = 5

MAX_NODES = 250_000      # trajectory node capacity; a full store ends the run
VALUE_FLOOR = 1e-30
DERIV_CAP = 1e30
STEP_FLOOR = 1e-14       # least step in tau, relative to 1 + |tau|
HMAX = 0.025             # step cap in tau, for the dense output and the residual stencil
_SAFETY = 0.9
_LN_FLOOR = math.log(VALUE_FLOOR)
_LN_CAP = math.log(DERIV_CAP)

# fdprof has one backend, this interpreted one; perfbench is the only reader
NUMBA_ENABLED = False




def integrate_flux_system(lam, mu, A, m, beta, x0, u0, Z0, x_max, tol,
                          u_sec=math.inf):
    """Advance (u, Z) from x0 to x_max recording every accepted step.

    Returns (x, u, Z, tag): node radii, states and terminal tag.  x[0] is
    x0 and, when the run reaches it, x[-1] is x_max, both exactly; on a
    touchdown the last node is the point where v = VALUE_FLOOR.  Past u*,
    the first accepted step with Y (|c| + |d u|) <= tol |u (a + b u)| places
    it by the closed form of the Y-free flow, unless that lies past x_max;
    otherwise a step that lands below the floor places it by the leading
    order of the pole, v ~ (tau_v - tau)^{1/m}.  The test takes absolute
    values because a signed Y term also passes where c + d u changes sign,
    far from the pole.  A finite u_sec ends the run on TAG_SECTION at the
    first accepted step that reaches or crosses u = u_sec, its node the
    last; solves keep the default, never crossed.  A run with no room left
    under MAX_NODES for two more nodes ends on TAG_OVERFLOW.  A step is
    accepted when its error estimate for Z is within tol (1-m), which is tol
    relative in v, and that for u within tol (1 + |u|).  The stages are
    written out, as u_tau = u (a + b u) + Y (c + d u) and Z_tau = e + g u:
    a call per stage costs the interpreter a fifth more time per step.  The
    name dates from the flux-form stepper this one replaced; perfbench
    counts steps by len(x).
    """
    # plain floats: numpy scalars would make the loop several times slower
    e, sgn = abs(lam), math.copysign(1.0, lam)
    mu, A, m, beta = float(mu), float(A), float(m), float(beta)
    tau, u, Z = math.log(x0), float(u0), float(Z0)
    tau_max, tol, u_sec = math.log(x_max), float(tol), float(u_sec)
    one_m = 1.0 - m
    a, b, c, d, g = sgn * mu, -sgn * m, -sgn * A, -sgn * beta, sgn * one_m
    # the Y-free flow u_tau = u (a + b u) has its fixed point at u* = -a/b;
    # past it, w < a/m, it runs into the pole when a < 0 (both charts)
    u_fix, w_fix = -a / b, a / m if a < 0.0 else -math.inf
    cap = MAX_NODES
    taus, us, Zs = [tau], [u], [Z]
    tag = TAG_RMAX
    if tau_max > tau:
        k1u = u * (a + b * u) + math.exp(Z) * (c + d * u)
        k1z = e + g * u
        h = min(1e-3, tau_max - tau)
        err_prev = 1.0
        while True:
            if h < STEP_FLOOR * (1.0 + abs(tau)):
                tag = TAG_STEP_UNDERFLOW
                break
            last = tau + h >= tau_max
            if last:
                h = tau_max - tau
            s = u + h * _A21 * k1u
            k2u = s * (a + b * s) + math.exp(Z + h * _A21 * k1z) * (c + d * s)
            k2z = e + g * s
            s = u + h * (_A31 * k1u + _A32 * k2u)
            k3u = s * (a + b * s) + math.exp(Z + h * (_A31 * k1z + _A32 * k2z)) * (c + d * s)
            k3z = e + g * s
            s = u + h * (_A41 * k1u + _A42 * k2u + _A43 * k3u)
            k4u = s * (a + b * s) + math.exp(
                Z + h * (_A41 * k1z + _A42 * k2z + _A43 * k3z)) * (c + d * s)
            k4z = e + g * s
            s = u + h * (_A51 * k1u + _A52 * k2u + _A53 * k3u + _A54 * k4u)
            k5u = s * (a + b * s) + math.exp(
                Z + h * (_A51 * k1z + _A52 * k2z + _A53 * k3z + _A54 * k4z)) * (c + d * s)
            k5z = e + g * s
            s = u + h * (_A61 * k1u + _A62 * k2u + _A63 * k3u + _A64 * k4u + _A65 * k5u)
            k6u = s * (a + b * s) + math.exp(
                Z + h * (_A61 * k1z + _A62 * k2z + _A63 * k3z + _A64 * k4z
                         + _A65 * k5z)) * (c + d * s)
            k6z = e + g * s
            un = u + h * (_B1 * k1u + _B3 * k3u + _B4 * k4u + _B5 * k5u + _B6 * k6u)
            Zn = Z + h * (_B1 * k1z + _B3 * k3z + _B4 * k4z + _B5 * k5z + _B6 * k6z)
            k7u = un * (a + b * un) + math.exp(Zn) * (c + d * un)
            k7z = e + g * un
            eu = h * (_E1 * k1u + _E3 * k3u + _E4 * k4u + _E5 * k5u + _E6 * k6u + _E7 * k7u)
            ez = h * (_E1 * k1z + _E3 * k3z + _E4 * k4z + _E5 * k5z + _E6 * k6z + _E7 * k7z)
            err = max(abs(eu) / (tol * (1.0 + max(abs(u), abs(un)))),
                      abs(ez) / (tol * one_m))
            if not err <= 1.0:       # also catches a NaN or infinite stage
                h *= max(_SAFETY * err ** (-0.2), 0.2) if err < math.inf else 0.2
                continue
            # accepted
            if len(taus) + 2 > cap:  # room for this node and an extrapolated one
                tag = TAG_OVERFLOW
                break
            tn = tau_max if last else tau + h
            if (un - u_sec) * (u - u_sec) <= 0.0:
                taus.append(tn); us.append(un); Zs.append(Zn)
                tag = TAG_SECTION
                break
            lnv = (Zn - e * tn) / one_m
            floor_hit = lnv <= _LN_FLOOR
            w = sgn * un             # x v_x / v
            tf = tau                 # no floor node
            if w < w_fix and (math.exp(Zn) * (abs(c) + abs(d * un))
                              <= tol * abs(un * (a + b * un))):
                # the Y terms are below tol: what is left is linear in 1/u and
                # keeps v^m (u* - u) fixed, so v meets the floor after
                # a s = ln(1 + (u*/u) (e^{-L} - 1)), L = m ln(v / FLOOR)
                el = m * (lnv - _LN_FLOOR)
                gs = math.log1p(u_fix / un * math.expm1(-el))
                if tn + gs / a <= tau_max:
                    tf, uf = tn + gs / a, un * math.exp(el + gs)
            elif w < 0.0 and floor_hit:
                # not closed: v ~ (tau_v - tau)^{1/m} with tau_v = tn - 1/(m w)
                rest = -math.exp(m * (_LN_FLOOR - lnv)) / (m * w)
                tf, uf = tn - 1.0 / (m * w) - rest, -sgn / (m * rest)
            # the floor node replaces this one when the floor lies inside the step
            if not (floor_hit and tf > tau):
                taus.append(tn); us.append(un); Zs.append(Zn)
            if tf > tau:
                taus.append(tf); us.append(uf)
                Zs.append(e * tf + one_m * _LN_FLOOR)
                tag = TAG_VALUE_FLOOR
                break
            if floor_hit:
                tag = TAG_VALUE_FLOOR
                break
            if math.log(abs(un) + 1e-300) + lnv - tn >= _LN_CAP:
                tag = TAG_DERIV_BLOWUP
                break
            if last:
                break
            tau = tn; u = un; Z = Zn
            k1u = k7u; k1z = k7z
            if err == 0.0:
                # an exact step (e.g. a constant solution) gives the PI
                # controller nothing to work from: grow at the cap
                fac = 5.0
            else:
                fac = min(max(_SAFETY * err ** (-0.14) * err_prev ** 0.08, 0.2), 5.0)
                err_prev = err
            h = min(h * fac, HMAX)
    x = np.exp(taus)
    x[0] = x0
    if tag == TAG_RMAX and len(x) > 1:
        x[-1] = x_max
    return x, np.array(us), np.array(Zs), tag
