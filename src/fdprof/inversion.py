"""Kelvin-type transform between origin and far-field profiles.

The map f(r) = r^{-(n-2)/m} g(1/r) is an involution on positive sample
sets.  Derivatives transport by the chain rule, never by differencing, so
inequality checks on mapped samples stay exact consequences of the input.
"""
from __future__ import annotations

import numpy as np

from .params import DomainError, ProfileParams
from .profile import Profile, ProfileKind


def _kelvin(r, s, g, gs, k):
    """(f, f_r) at r from (g, g_s) at s = 1/r: f = r^{-k} g and
    f_r = -r^{-k-1} (k g + s g_s)."""
    return r ** (-k) * g, -r ** (-k - 1.0) * (k * g + s * gs)


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
    v_out, d_out = _kelvin(r_out, radii, values, derivs, p.k)
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
        return profile.value_at(r), profile.deriv_at(r)
    s = 1.0 / r
    return _kelvin(r, s, profile.value_at(s), profile.deriv_at(s), profile.params.k)


def fside_nodes(profile: Profile):
    """Mapped node set (r, f, f_r) of a far-field profile, ascending in r.

    For origin profiles this is just the stored node data.  No resampling:
    the output grid is the image of the stored grid.
    """
    if profile.kind is ProfileKind.ORIGIN:
        return profile.r.copy(), profile.v.copy(), profile.vr.copy()
    return invert_pointwise(profile.r, profile.v, profile.vr, profile.params)
