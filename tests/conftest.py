"""Shared fixtures: solve caches, the standard sweep, and closed-form oracles.

The closed-form anchor used throughout is the n=4, m=1/3, beta=0 profile
f(r) = (1 + r^2/16)^(-3) with eta0 = 1, whose far-field image under the
inversion is g(s) = (s^2 + 1/16)^(-3) with g(0) = 4096.
"""
import time

import numpy as np
import pytest

from fdprof import (ContinuationFailed, derive_params, solve_farfield_profile,
                    solve_origin_profile)

RMAX = 100.0
TOL = 1e-9

# Standard test sweep: three admissible m per n, five admissible beta per
# (n, m).  One regular-g m per dimension, two in the singular-g range.  The
# beta lists sit inside the band where both the origin solve and the
# far-field solve continue to RMAX (outside those bands the far-field
# trajectory reaches the touchdown radius first, at every eta).
SWEEP = {
    (3, 0.2):  [0.05, 0.15, 0.25, 0.35, 0.44],
    (3, 0.28): [1.15, 1.3, 1.45, 1.55, 1.68],
    (3, 0.3):  [1.85, 2.1, 2.35, 2.6, 2.85],
    (4, 1 / 3): [0.05, 0.15, 0.25, 0.35, 0.44],
    (4, 0.42): [0.98, 1.05, 1.12, 1.19, 1.25],
    (4, 0.45): [1.9, 1.97, 2.04, 2.11, 2.18],
    (5, 0.45): [0.18, 0.27, 0.36, 0.45, 0.54],
    (5, 0.52): [0.98, 1.05, 1.12, 1.19, 1.25],
    (5, 0.55): [1.92, 1.98, 2.04, 2.1, 2.15],
}

SWEEP_TUPLES = tuple((n, m, b) for (n, m), bs in sorted(SWEEP.items())
                     for b in bs)


def closed_form_params():
    return derive_params(4, 1 / 3, rho1=1.0, beta=0.0)


def f_exact(r):
    return (1.0 + np.asarray(r, float) ** 2 / 16.0) ** -3.0


def fr_exact(r):
    r = np.asarray(r, float)
    return -3.0 / 8.0 * r * (1.0 + r ** 2 / 16.0) ** -4.0


def g_exact(s):
    return (np.asarray(s, float) ** 2 + 1.0 / 16.0) ** -3.0


def gr_exact(s):
    s = np.asarray(s, float)
    return -6.0 * s * (s ** 2 + 1.0 / 16.0) ** -4.0


def farfield_eta(p, tol=TOL, r_max=RMAX):
    """Boundary value whose solve spans [r0, r_max], by the scaling symmetry.

    g_lam(s) = lam^{sigma/(1-m)} g(lam s) solves the inverted equation, so a
    touchdown observed at s0 for eta = 1 moves out to 2*r_max after shrinking
    eta to (s0 / (2 r_max))^{sigma/(1-m)}.
    """
    try:
        solve_farfield_profile(p, 1.0, r_max, tol=tol)
        return 1.0
    except ContinuationFailed as e:
        s0 = float(e.partial.r[-1])
        return (s0 / (2.0 * r_max)) ** (p.sigma / (1.0 - p.m))


def _flux(p, r):
    return float(r ** (p.n - 1) * f_exact(r) ** (p.m - 1.0) * fr_exact(r))


def _gflux(p, s):
    return float(s ** (p.n - 1) * g_exact(s) ** (p.m - 1.0) * gr_exact(s))


class SolveCache:
    """Session store of solved profiles keyed by (n, m, beta, tol, kind)."""

    def __init__(self):
        self.profiles = {}
        self.origin_sweep_seconds = None
        self.etas = {}

    def origin(self, n, m, beta, tol=TOL):
        key = (n, m, beta, tol, "origin")
        if key not in self.profiles:
            p = derive_params(n, m, rho1=1.0, beta=beta)
            self.profiles[key] = solve_origin_profile(p, 1.0, RMAX, tol=tol)
        return self.profiles[key]

    def farfield(self, n, m, beta, tol=TOL):
        key = (n, m, beta, tol, "farfield")
        if key not in self.profiles:
            p = derive_params(n, m, rho1=1.0, beta=beta)
            ekey = (n, m, beta)
            if ekey not in self.etas:
                self.etas[ekey] = farfield_eta(p, tol=tol)
            self.profiles[key] = solve_farfield_profile(
                p, self.etas[ekey], RMAX, tol=tol)
        return self.profiles[key]

    def origin_sweep(self, tol=TOL):
        if self.origin_sweep_seconds is None:
            t0 = time.perf_counter()
            out = [self.origin(n, m, b, tol) for n, m, b in SWEEP_TUPLES]
            self.origin_sweep_seconds = time.perf_counter() - t0
            return out
        return [self.origin(n, m, b, tol) for n, m, b in SWEEP_TUPLES]

    def farfield_sweep(self, tol=TOL):
        return [self.farfield(n, m, b, tol) for n, m, b in SWEEP_TUPLES]


@pytest.fixture(scope="session")
def cache():
    return SolveCache()


@pytest.fixture(scope="session")
def closed_form_origin(cache):
    """The anchor profile solved to the standard radius."""
    return cache.origin(4, 1 / 3, 0.0)


def rk4_oracle(p, w, A, B, r0, v0, P0, targets, h=1e-4):
    """Classical fixed-step integration of the flux system.

    Walks the target radii in ascending order, shortening the final step of
    each leg to land exactly; returns (v, P) arrays at the targets.
    """
    one_m = 1.0 - p.m
    n1 = p.n - 1

    def rhs(r, v, P):
        vr = v ** one_m * P / r ** n1
        return vr, -(r ** w) * (A * v + B * r * vr)

    r, v, P = float(r0), float(v0), float(P0)
    out_v, out_P = [], []
    for target in targets:
        while r < target - 1e-15:
            step = min(h, target - r)
            k1v, k1p = rhs(r, v, P)
            k2v, k2p = rhs(r + step / 2, v + step / 2 * k1v, P + step / 2 * k1p)
            k3v, k3p = rhs(r + step / 2, v + step / 2 * k2v, P + step / 2 * k2p)
            k4v, k4p = rhs(r + step, v + step * k3v, P + step * k3p)
            v += step / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
            P += step / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
            r += step
        out_v.append(v)
        out_P.append(P)
    return np.array(out_v), np.array(out_P)
