"""Dormand-Prince 5(4) core used by both profile ODE systems.

The whole trajectory loop lives in one function so numba can compile it as a
unit; set FDPROF_NO_NUMBA=1 to force the plain interpreter path (same code,
undecorated).  Both ODE systems share the form

    v'(r) = v^{1-m} P / r^{n-1}
    P'(r) = -r^w (A v + B r v')

and profile.Chart supplies (w, A, B) for each chart.
"""
from __future__ import annotations

import os

import numpy as np

# Butcher tableau, Dormand-Prince 5(4), FSAL
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
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

MAX_NODES = 250_000      # trajectory node capacity; a full store ends the run
VALUE_FLOOR = 1e-30
DERIV_CAP = 1e30
STEP_FLOOR_REL = 1e-14
HMAX_REL = 0.05          # keeps cubic Hermite dense output at full quality
_SAFETY = 0.9
_EVENT_TOL_R = 1e-12


def _hermite(r0, h, y0, d0, y1, d1, x):
    t = (x - r0) / h
    u = 1.0 - t
    return (u * u * (1.0 + 2.0 * t) * y0 + t * u * u * h * d0
            + t * t * (3.0 - 2.0 * t) * y1 + t * t * (t - 1.0) * h * d1)


def _vr_of(v, P, r, one_m, n1):
    return v ** one_m * P / r ** n1


def _rhs_P(r, v, vr, w, A, B):
    return -(r ** w) * (A * v + B * r * vr)


def _refine_crossing(r0, h, v0, d0, v1, d1, P0, dP0, P1, dP1,
                     one_m, n1, target, deriv_mode):
    """Bisect the event radius inside an accepted step to 1e-12 absolute in r."""
    a, b = r0, r0 + h
    for _ in range(200):
        if b - a <= _EVENT_TOL_R:
            break
        mid = 0.5 * (a + b)
        v = _hermite(r0, h, v0, d0, v1, d1, mid)
        if deriv_mode:
            P = _hermite(r0, h, P0, dP0, P1, dP1, mid)
            crossed = v <= 0.0 or abs(_vr_of(max(v, 1e-300), P, mid, one_m, n1)) >= target
        else:
            crossed = v <= target
        if crossed:
            b = mid
        else:
            a = mid
    return b


def _integrate_core(one_m, n1, w, A, B, r0, v0, P0, r_max, tol,
                    rs, vs, vrs, Ps, dPs, errs):
    """Advance (v, P) from r0 to r_max recording every accepted step.

    Returns (node_count, tag).  rs[0] is the start state; on an event the last
    node is the refined crossing.  errs holds the scaled local error estimate
    of the step that produced each node.

    The error scale is relative: tol*|v| for the value (v stays positive up
    to the floor event, and tail amplitudes many orders below the boundary
    value still have to be resolved, or decay-rate reads are noise), and
    tol*(|P_seam| + |P|) for the flux, whose magnitude is set by the seam
    state and which may pass through zero on non-monotone profiles.
    """
    cap = rs.shape[0]
    r = r0
    v = v0
    P = P0
    pc = abs(P0)
    if pc == 0.0:
        pc = 1.0
    vr = _vr_of(v, P, r, one_m, n1)
    dP = _rhs_P(r, v, vr, w, A, B)
    rs[0] = r; vs[0] = v; vrs[0] = vr; Ps[0] = P; dPs[0] = dP; errs[0] = 0.0
    count = 1
    if r_max <= r0:
        return count, TAG_RMAX
    k1v = vr
    k1p = dP
    h = min(1e-3 * r, r_max - r)
    err_prev = 1.0
    while True:
        if h < STEP_FLOOR_REL * r:
            return count, TAG_STEP_UNDERFLOW
        bad = False
        err = 2.0
        # stage 2
        v2 = v + h * _A21 * k1v
        P2 = P + h * _A21 * k1p
        if v2 <= 0.0:
            bad = True
        else:
            r2 = r + _C2 * h
            k2v = _vr_of(v2, P2, r2, one_m, n1)
            k2p = _rhs_P(r2, v2, k2v, w, A, B)
        if not bad:
            v3 = v + h * (_A31 * k1v + _A32 * k2v)
            P3 = P + h * (_A31 * k1p + _A32 * k2p)
            if v3 <= 0.0:
                bad = True
            else:
                r3 = r + _C3 * h
                k3v = _vr_of(v3, P3, r3, one_m, n1)
                k3p = _rhs_P(r3, v3, k3v, w, A, B)
        if not bad:
            v4 = v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v)
            P4 = P + h * (_A41 * k1p + _A42 * k2p + _A43 * k3p)
            if v4 <= 0.0:
                bad = True
            else:
                r4 = r + _C4 * h
                k4v = _vr_of(v4, P4, r4, one_m, n1)
                k4p = _rhs_P(r4, v4, k4v, w, A, B)
        if not bad:
            v5 = v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v)
            P5 = P + h * (_A51 * k1p + _A52 * k2p + _A53 * k3p + _A54 * k4p)
            if v5 <= 0.0:
                bad = True
            else:
                r5 = r + _C5 * h
                k5v = _vr_of(v5, P5, r5, one_m, n1)
                k5p = _rhs_P(r5, v5, k5v, w, A, B)
        if not bad:
            v6 = v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v)
            P6 = P + h * (_A61 * k1p + _A62 * k2p + _A63 * k3p + _A64 * k4p + _A65 * k5p)
            if v6 <= 0.0:
                bad = True
            else:
                r6 = r + h
                k6v = _vr_of(v6, P6, r6, one_m, n1)
                k6p = _rhs_P(r6, v6, k6v, w, A, B)
        if not bad:
            vn = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            Pn = P + h * (_B1 * k1p + _B3 * k3p + _B4 * k4p + _B5 * k5p + _B6 * k6p)
            if vn <= 0.0:
                bad = True
        if not bad:
            rn = r + h
            k7v = _vr_of(vn, Pn, rn, one_m, n1)
            k7p = _rhs_P(rn, vn, k7v, w, A, B)
            ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * k7v)
            ep = h * (_E1 * k1p + _E3 * k3p + _E4 * k4p + _E5 * k5p + _E6 * k6p + _E7 * k7p)
            vref = v if v > vn else vn
            err = abs(ev) / (tol * vref)
            errp = abs(ep) / (tol * (pc + abs(Pn)))
            if errp > err:
                err = errp
            if not np.isfinite(err):
                bad = True
        if bad or err > 1.0:
            if bad:
                h *= 0.2
            else:
                fac = _SAFETY * err ** (-0.2)
                if fac < 0.2:
                    fac = 0.2
                h *= fac
            continue
        # accepted
        floor_hit = vn <= VALUE_FLOOR
        blow_hit = abs(k7v) >= DERIV_CAP
        if floor_hit or blow_hit:
            target = DERIV_CAP if blow_hit and not floor_hit else VALUE_FLOOR
            r_ev = _refine_crossing(r, h, v, k1v, vn, k7v, P, k1p, Pn, k7p,
                                    one_m, n1, target, blow_hit and not floor_hit)
            v_ev = _hermite(r, h, v, k1v, vn, k7v, r_ev)
            P_ev = _hermite(r, h, P, k1p, Pn, k7p, r_ev)
            if v_ev <= 0.0:
                v_ev = VALUE_FLOOR
            vr_ev = _vr_of(v_ev, P_ev, r_ev, one_m, n1)
            rs[count] = r_ev; vs[count] = v_ev; vrs[count] = vr_ev
            Ps[count] = P_ev; dPs[count] = _rhs_P(r_ev, v_ev, vr_ev, w, A, B)
            errs[count] = err
            count += 1
            return count, (TAG_VALUE_FLOOR if floor_hit else TAG_DERIV_BLOWUP)
        if count >= cap:
            return count, TAG_OVERFLOW
        r = rn; v = vn; P = Pn
        k1v = k7v; k1p = k7p
        rs[count] = r; vs[count] = v; vrs[count] = k7v; Ps[count] = P; dPs[count] = k7p
        errs[count] = err
        count += 1
        if r >= r_max:
            return count, TAG_RMAX
        if err == 0.0:
            # an exact step (e.g. a constant solution) gives the PI
            # controller nothing to work from: grow at the cap
            fac = 5.0
        else:
            fac = _SAFETY * err ** (-0.14) * err_prev ** 0.08
            if fac < 0.2:
                fac = 0.2
            elif fac > 5.0:
                fac = 5.0
            err_prev = err
        h *= fac
        hcap = HMAX_REL * r
        if h > hcap:
            h = hcap
        if r + h > r_max:
            h = r_max - r


NUMBA_ENABLED = False
if os.environ.get("FDPROF_NO_NUMBA", "") != "1":
    try:
        from numba import njit as _njit

        _hermite = _njit(cache=True, nogil=True)(_hermite)
        _vr_of = _njit(cache=True, nogil=True)(_vr_of)
        _rhs_P = _njit(cache=True, nogil=True)(_rhs_P)
        _refine_crossing = _njit(cache=True, nogil=True)(_refine_crossing)
        _integrate_core = _njit(cache=True, nogil=True)(_integrate_core)
        NUMBA_ENABLED = True
    except ImportError:
        pass


def integrate_flux_system(one_m, n1, w, A, B, r0, v0, P0, r_max, tol):
    """Driver: allocates node storage and runs the compiled (or plain) core."""
    # six arrays: one (6, MAX_NODES) block raised peak RSS by about 9 MiB
    rs = np.empty(MAX_NODES)
    vs = np.empty(MAX_NODES)
    vrs = np.empty(MAX_NODES)
    Ps = np.empty(MAX_NODES)
    dPs = np.empty(MAX_NODES)
    errs = np.empty(MAX_NODES)
    cnt, tag = _integrate_core(one_m, n1, w, A, B, r0, v0, P0, r_max, float(tol),
                               rs, vs, vrs, Ps, dPs, errs)
    return (rs[:cnt].copy(), vs[:cnt].copy(), vrs[:cnt].copy(),
            Ps[:cnt].copy(), dPs[:cnt].copy(), errs[:cnt].copy(), tag)
