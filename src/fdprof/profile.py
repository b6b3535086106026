"""Stitched profile representation shared by the solvers and the checks.

A Profile concatenates the local nodes of the manifold series (spaced by
tol, widest deep below the seam) with the nodes of the outward integration,
each one that Chart.first_unstorable admits.  A node is (r, v, v_r); the
checks and the dense output read it as (ln x, ln v, x v_x / v), the chart's
own variables, which Chart maps both ways to the reduced state (u, ln Y).
Dense evaluation is C1 cubic Hermite of ln v in ln x with the nodal
log-slopes, and never re-differences values.

The Kelvin-type map f(r) = r^{-(n-2)/m} g(1/r) (kelvin) links the origin
and the far-field profile; invert_pointwise applies it to samples,
fside_samples and fside_nodes to a Profile.  It is an involution on positive
sample sets.  Derivatives transport by the chain rule, never by
differencing, so inequality checks on mapped samples stay exact
consequences of the input.
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

from .params import DomainError, ProfileParams


class ProfileKind(enum.Enum):
    ORIGIN = "origin"       # f-problem: f(0) = eta0, f_r(0) = 0
    FARFIELD = "farfield"   # g-problem: g(0) = eta, samples are g(r)


class TerminalEvent(enum.Enum):
    REACHED_RMAX = "ReachedRmax"
    VALUE_FLOOR = "ValueFloor"          # a touchdown, closed at its pole
    STEP_UNDERFLOW = "StepUnderflow"    # a step below kernels.STEP_FLOOR
    NODE_OVERFLOW = "NodeOverflow"      # MAX_NODES nodes before r_max
    SECTION = "Section"                 # a gap run's crossing of X = -2/(1-m)


@dataclass(frozen=True)
class Chart:
    """Everything that differs between the origin and the far-field chart.

    In the native variable x of its chart each profile equation has the flux
    form P' = -x^{n-3+|lam|} (A v + B x v_x), P = x^{n-1} v^{m-1} v_x, which
    the residual checks.  The chart's datum is an invariant manifold of a fixed
    point X* of the reduced system in u = X - X*, Z = ln Y (see localsolve
    and kernels): lam is the fixed point's eigenvalue along the manifold, mu
    the other one, and Y = x^|lam| v^{1-m}, x v_x / v = sign(lam) u: reduced
    maps a node to (u, Z = ln Y), native maps back.  A datum b has one
    length, datum_length(b), where theta = b^{1-m} x^|lam| is 1.  section_Y
    builds its chart once; a solve builds one in picard_*, one in
    continue_profile and one on its Profile, the decay read a far-field one.
    """
    params: ProfileParams
    kind: ProfileKind
    A: float
    B: float
    lam: float
    mu: float

    @classmethod
    def of(cls, params: ProfileParams, kind: ProfileKind) -> Chart:
        p = params
        if kind is ProfileKind.ORIGIN:
            return cls(p, kind, p.alpha, p.beta, 2.0, 2.0 - p.n)
        return cls(p, kind, p.alpha_tilde, p.beta_tilde, -p.sigma, p.n - 2.0)

    def datum_length(self, b: float) -> float:
        """x_b = b^{-(1-m)/|lam|}, or inf where that leaves the doubles."""
        ln_x = -(1.0 - self.params.m) / abs(self.lam) * math.log(b)
        return math.exp(ln_x) if ln_x < 709.78 else math.inf

    def reduced(self, ln_x, ln_v, s):
        """The reduced state (u, Z) of nodes (ln x, ln v, s = x v_x / v)."""
        return np.sign(self.lam) * s, abs(self.lam) * ln_x + (1.0 - self.params.m) * ln_v

    def native(self, x, u, Z):
        """(v, v_x) at chart radius x from the reduced state (u, Z)."""
        v = np.exp((Z - abs(self.lam) * np.log(x)) / (1.0 - self.params.m))
        return v, np.sign(self.lam) * u * v / x

    @np.errstate(all="ignore")   # a refused node's image is formed too
    def first_unstorable(self, x, v, vr, u) -> tuple[int, str] | None:
        """(index, what fails) of the first node (x, v, v_x), u = sign(lam) x v_x / v,
        refused by first_unrepresentable in the chart or, named first, in its kelvin image."""
        i = first_unrepresentable(v, vr, u)
        if self.kind is ProfileKind.FARFIELD:
            f, fr = kelvin(1.0 / x, x, v, vr, self.params.k)
            j = first_unrepresentable(f, fr, u - self.params.k)
            if j is not None and (i is None or j <= i):
                fault = "overflows" if np.isinf([f[j], fr[j]]).any() else "underflows"
                return j, f"nodes' f-side image {'is negative' if f[j] < 0 else fault}"
        return None if i is None else (i, "node slopes overflow" if np.isinf(vr[i])
                                       else "nodes leave the positive normal floats")


def kelvin(r, s, g, gs, k):
    """(f, f_r) at r from (g, g_s) at s = 1/r: f = r^{-k} g, f_r = -(k + s g_s/g) f / r.
    f is (g r^{-k/2}) r^{-k/2}: the middle term is the geometric mean of g and f, and
    r^{-k/2} that of 1 and f/g, so no factor leaves the doubles where g and f do not."""
    half = r ** (-0.5 * k)
    f = g * half * half
    return f, -(k + s * gs / g) * f / r


def first_unrepresentable(v, vr, u) -> int | None:
    """Index of the first node with v not a positive normal float, v_x not
    finite or, where u is not 0, v_x = 0; else None."""
    ok = ((v >= np.finfo(float).tiny) & (v < np.inf) & np.isfinite(vr)
          & ((vr != 0.0) | (u == 0.0)))
    return None if ok.all() else int(np.argmin(ok))


def hermite(rs, ys, dys, x):
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

    @functools.cached_property
    def chart(self) -> Chart:
        return Chart.of(self.params, self.kind)

    @functools.cached_property
    @np.errstate(all="ignore")   # a NaN node reads NaN
    def _log_nodes(self):
        """(ln x, ln v, x v_x / v) at the nodes: the dense output's knots."""
        return np.log(self.r), np.log(self.v), self.r * self.vr / self.v

    @functools.cached_property
    def fside_slope(self):
        """(r, u, X*) at the nodes, in stored order: the f-side radius (r, or
        1/s), the chart's own u = sign(lam) x v_x / v and its fixed point X*
        (0, or -k in the far field), so that X = r f_r / f = X* + u."""
        u, _ = self.chart.reduced(*self._log_nodes)
        if self.kind is ProfileKind.ORIGIN:
            return self.r, u, 0.0
        return 1.0 / self.r, u, -self.params.k

    def dense(self, x):
        """(v, v_x) at chart radii x from one Hermite evaluation."""
        x = np.asarray(x, dtype=np.float64)
        lnv, w = hermite(*self._log_nodes, np.log(x))
        v = np.exp(lnv)
        return v, v * w / x


def invert_pointwise(radii, values, derivs, p: ProfileParams):
    """Map g-samples on (0, R] to f-samples on [1/R, inf), ascending in r.

    f(r) = r^{-k} g(1/r) with k = (n-2)/m, and
    f_r(r) = -r^{-k-1} [ k g(1/r) + (1/r) g_r(1/r) ].
    """
    radii = np.asarray(radii, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    derivs = np.asarray(derivs, dtype=np.float64)
    if radii.size == 0:
        raise DomainError("empty sample set")
    if np.any(radii <= 0.0):
        raise DomainError("sample radii must satisfy r > 0")
    r_out = 1.0 / radii
    with np.errstate(all="ignore"):   # refused just below
        v_out, d_out = kelvin(r_out, radii, values, derivs, p.k)
    if (i := first_unrepresentable(v_out, d_out, 0.0)) is not None:   # f = 0 at r_out = inf
        raise DomainError(f"the Kelvin image of sample {i} is not finite or underflows")
    order = np.argsort(r_out)
    return r_out[order], v_out[order], d_out[order]


def roundtrip(radii, values, derivs, p: ProfileParams):
    """Apply the transform twice; returns the input up to rounding."""
    r1, v1, d1 = invert_pointwise(radii, values, derivs, p)
    return invert_pointwise(r1, v1, d1, p)


def fside_samples(profile: Profile, r):
    """Value and derivative of the f-side representation at f-radii r.

    Identity for origin profiles; the Kelvin map of the stored g-samples
    for far-field ones.  Radii must map into the stored range.
    """
    r = np.asarray(r, dtype=np.float64)
    if np.any(r <= 0.0):
        raise DomainError("sample radii must satisfy r > 0")
    if profile.kind is ProfileKind.ORIGIN:
        return profile.dense(r)
    s = 1.0 / r
    return kelvin(r, s, *profile.dense(s), profile.params.k)


def fside_nodes(profile: Profile):
    """Mapped node set (r, f, f_r) of a far-field profile, ascending in r.

    For origin profiles this is just the stored node data.  No resampling:
    the output grid is the image of the stored grid.
    """
    if profile.kind is ProfileKind.ORIGIN:
        return profile.r.copy(), profile.v.copy(), profile.vr.copy()
    return invert_pointwise(profile.r, profile.v, profile.vr, profile.params)
