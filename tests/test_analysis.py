"""Residuals, limits, inequality verdicts, classification, exponent search."""
import dataclasses
import functools
import json
import math
import os

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from conftest import (RMAX, SWEEP_TUPLES, TOL, f_exact, flux, fr_exact, g_exact,
                      gr_exact, manifold_series, stencil_slope)
from fdprof import (BadBracket, ContinuationFailed, DecayLabel, DomainError,
                    ProfileKind, ProfileParams, RangeError,
                    TerminalEvent, Verdict, asymptotic_limits, build_report,
                    classify_decay, classify_shape, derive_params,
                    find_anomalous_beta, ode_residual, pde_residual_V,
                    selfsimilar_eval, solve_farfield_profile,
                    solve_origin_profile, verify_inequalities)
from fdprof import analysis, integrate, kernels
from fdprof.analysis import l3_reference, saddle_gap
from fdprof.integrate import section_Y
from fdprof.kernels import integrate_flux_system
from fdprof.localsolve import series_terms
from fdprof.profile import Profile, first_unrepresentable, fside_nodes, fside_samples

CF = derive_params(4, 1 / 3, 1.0, 0.0)
# perfbench's pinned standard tuples, read only
PINNED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "data", "inputs.json")


def synthetic_origin(params, r, value, deriv):
    """Wrap exact samples of an origin profile in the container type."""
    r = np.asarray(r, float)
    v = np.asarray(value(r), float)
    vr = np.asarray(deriv(r), float)
    return Profile(kind=ProfileKind.ORIGIN, params=params, boundary=float(v[0]),
                   r=r, v=v, vr=vr, n_local=0,
                   terminal=TerminalEvent.REACHED_RMAX, tol=1e-9)


def test_stencil_differentiates_polynomials_exactly():
    # 7 nodes: one interior node, exact to degree 6; 5 and 6 nodes use the
    # half-width-2 stencil, exact to degree 4
    x = np.array([0.3, 0.45, 0.7, 1.0, 1.5, 2.1, 3.0])
    for N, degree in ((7, 6), (6, 4), (5, 4)):
        r = x[:N]
        for k in range(degree + 1):
            inner, d = stencil_slope(r, r ** k)
            assert len(d) == N - 2 * (3 if N == 7 else 2)
            assert np.max(np.abs(d - k * r[inner] ** (k - 1))) <= 1e-10


def _lagrange_slope_mp(r, P, inner):
    """P' at the interior nodes by 30-digit Lagrange weights in absolute
    radii."""
    h = inner.start
    out = []
    with mpmath.workdps(30):
        for i in range(inner.start, inner.stop):
            xs = [mpmath.mpf(float(t)) for t in r[i - h:i + h + 1]]
            ps = [mpmath.mpf(float(t)) for t in P[i - h:i + h + 1]]
            terms = []
            for j in range(2 * h + 1):
                if j == h:
                    wj = mpmath.fsum(1 / (xs[h] - xs[l])
                                     for l in range(2 * h + 1) if l != h)
                else:
                    wj = 1 / (xs[j] - xs[h])
                    for l in range(2 * h + 1):
                        if l not in (j, h):
                            wj *= (xs[h] - xs[l]) / (xs[j] - xs[l])
                terms.append(wj * ps[j])
            out.append(float(mpmath.fsum(terms)))
    return np.array(out)


@pytest.mark.parametrize("solve, n, m, beta, boundary", [
    (solve_origin_profile, 4, 1 / 3, 0.25, 1.0),
    (solve_farfield_profile, 3, 0.2, 0.05, 1.0),
])
def test_stencil_matches_mpmath_on_solved_nodes(solve, n, m, beta, boundary):
    """The double-precision stencil against the same interpolant at 30
    digits, on every interior node of a solved profile.  On the far-field
    tail here P is nearly constant and r P' is some 3,000 times smaller than
    P; a sum of weight times P, centre weight included, loses 4e-10 of P'
    there."""
    p = derive_params(n, m, 1.0, beta)
    prof = solve(p, boundary, RMAX, tol=TOL)
    P = flux(prof.chart, prof.r, prof.v, prof.vr)[0]
    inner, d = stencil_slope(prof.r, P)
    exact = _lagrange_slope_mp(prof.r, P, inner)
    assert np.max(np.abs(d - exact) / np.abs(exact)) <= 1e-12


def test_ode_residual_on_exact_samples():
    prof = synthetic_origin(CF, np.geomspace(0.05, 50.0, 2000),
                            f_exact, fr_exact)
    assert ode_residual(prof) <= 1e-8


def test_ode_residual_flags_tampered_values():
    prof = synthetic_origin(CF, np.geomspace(0.05, 50.0, 2000),
                            f_exact, fr_exact)
    bad = Profile(kind=prof.kind, params=prof.params, boundary=prof.boundary,
                  r=prof.r, v=prof.v * 1.01, vr=prof.vr, n_local=0,
                  terminal=prof.terminal, tol=prof.tol)
    assert ode_residual(bad) > 1e-3


def test_ode_residual_is_nan_when_a_value_is_nan():
    prof = synthetic_origin(CF, np.geomspace(0.05, 50.0, 2000),
                            f_exact, fr_exact)
    v = prof.v.copy()
    v[1000] = np.nan
    assert np.isnan(ode_residual(dataclasses.replace(prof, v=v)))


def test_ode_residual_needs_five_nodes():
    prof = synthetic_origin(CF, np.geomspace(0.5, 1.0, 4), f_exact, fr_exact)
    with pytest.raises(DomainError, match="at least 5"):
        ode_residual(prof)


def test_residual_of_scaled_node_sets(cache):
    """The family f -> lam^{2/(1-m)} f(lam r) maps a node set to one of
    another solution: ln x moves by d, ln v by -|lam| d/(1-m) (Y is fixed),
    s = x v_x / v not at all.  Formed in logs at d = ln 1e+-20, 1e+-75 and
    1e+-150, wherever every image node is a normal double, the image's
    residual is its base's within 2%: forming the image moves each node by a
    few ulps, and the residual reads rounding on the far tails.  Every
    fourth standard tuple, both charts; no image is solved."""
    tiny, bad, checked = np.finfo(float).tiny, [], set()
    for kind in ("origin", "farfield"):
        for t in SWEEP_TUPLES[::4]:
            prof = getattr(cache, kind)(*t)
            base = ode_residual(prof)
            ln_x, ln_v, s = prof._log_nodes
            e = abs(prof.chart.lam) / (1.0 - prof.params.m)
            for decades in (20, 75, 150, -20, -75, -150):
                d = decades * math.log(10.0)
                with np.errstate(over="ignore", under="ignore"):
                    x, v = np.exp(ln_x + d), np.exp(ln_v - e * d)
                    vr = s * v / x
                if (np.any((x < tiny) | (x == np.inf))
                        or first_unrepresentable(v, vr, s) is not None):
                    continue
                checked.add(decades)
                image = dataclasses.replace(prof, r=x, v=v, vr=vr)
                if not abs(ode_residual(image) / base - 1.0) <= 0.02:
                    bad.append((kind, t, decades, base, ode_residual(image)))
    assert bad == [] and checked == {20, 75, 150, -20, -75, -150}


def test_limits_on_closed_form_farfield():
    prof = solve_farfield_profile(CF, 4096.0, RMAX, tol=TOL)
    lim = asymptotic_limits(prof)
    assert lim.l1.value == pytest.approx(4096.0, rel=1e-6)
    assert lim.l2.value == pytest.approx(-24576.0, rel=1e-6)
    assert lim.l1.error <= 1e-4 * 4096.0
    assert lim.l2.value / lim.l1.value == pytest.approx(-6.0, rel=1e-6)


def test_origin_slope_vanishes_for_centered_profile(closed_form_origin):
    lim = asymptotic_limits(closed_form_origin)
    assert lim.slope_origin is not None
    assert abs(lim.slope_origin.value) <= 1e-4
    assert lim.slope_far.value == pytest.approx(-6.0, rel=1e-3)


def test_limits_exist_at_short_range():
    """The read needs one state, so a solve to r = 40 has limits: the
    bubble's L1 = 4096 within its bar, and the report carries them."""
    prof = solve_origin_profile(CF, 1.0, 40.0, tol=1e-8)
    lim = asymptotic_limits(prof)
    assert abs(lim.l1.value - 4096.0) <= lim.l1.error <= 1e-7 * 4096.0
    assert build_report(prof).to_dict()["limits"]["L1"] == {
        "value": lim.l1.value, "error": lim.l1.error}


# the critical bubbles: the worst relative node error of each solve at
# r_max 100, tol 1e-9 (n = 3..8), measured against the closed form
BUBBLE_NODE_ERROR = {3: 5.4e-10, 4: 2.8e-9, 5: 2.2e-9, 6: 1.5e-7, 7: 7.8e-7,
                     8: 4.0e-6}


@pytest.mark.parametrize("n", sorted(BUBBLE_NODE_ERROR))
def test_bubble_limits_match_closed_form(n):
    """At m = (n-2)/(n+2), beta = 0 the origin profile from eta0 = 1 is the
    bubble (1 + r^2/A)^{-k/2}, A = n(n-2)(1-m)/(m rho1), so
    L1 = A^{k/2} and L2 = -k L1.  The read adds no error of its own: it
    holds to a few times the solve's own node error, and its bar covers
    that error without exceeding it tenfold."""
    m = (n - 2) / (n + 2)
    p = derive_params(n, m, 1.0, 0.0)
    exact = (n * (n - 2) * (1 - m) / (m * p.rho1)) ** (p.k / 2)
    prof = solve_origin_profile(p, 1.0, RMAX, tol=TOL)
    assert classify_decay(prof).label is DecayLabel.FAST
    lim = asymptotic_limits(prof)
    for est, ref in ((lim.l1, exact), (lim.l2, -p.k * exact)):
        err = abs(est.value - ref)
        assert err <= 3.0 * BUBBLE_NODE_ERROR[n] * abs(ref)
        assert err <= est.error <= 10.0 * max(err, TOL * abs(ref))


def test_slow_limits_are_the_slow_point(cache):
    """At (4, 1/3, 0.4) the slow point attracts: its Jacobian has
    eigenvalues -0.4 +- 1.357i, so the state spirals in like r^{-0.4}.  L3
    and slope_far are that point's Y* = 2 and X* = -3, each with the
    state's distance from it as the bar; r^k f diverges, so L1 and L2 are
    null."""
    prof = cache.origin(4, 1 / 3, 0.4)
    assert classify_decay(prof).label is DecayLabel.SLOW
    lim = asymptotic_limits(prof)
    assert lim.l3.value == l3_reference(prof.params) == pytest.approx(2.0, rel=1e-12)
    assert lim.slope_far.value == pytest.approx(-3.0, rel=1e-15)
    assert 0.0 < lim.l3.error == lim.slope_far.error < 0.5
    limits = json.loads(json.dumps(build_report(prof).to_dict()))["limits"]
    assert limits["L1"] is None and limits["L2"] is None
    assert limits["L3"]["value"] == lim.l3.value


def test_attracting_slow_point_reads_slow(cache):
    """(4, 1/3, 0.2) ends 0.90 from the slow point and 4.06 from the fast
    one, and the slow point attracts (trace -0.4)."""
    assert classify_decay(cache.origin(4, 1 / 3, 0.2)).label is DecayLabel.SLOW


def test_far_end_reads_warm_start_each_order(monkeypatch):
    """_read starts each order's Newton from the last order's root.  Over the
    90 standard far-end reads (perfbench's 45 tuples, origin at eta0 = 1 and
    far field at the tuple's eta) Newton takes 570 steps; restarting every
    order from Y takes 817."""
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    profiles = []
    for t in pinned["tuples"]:
        p = derive_params(t["n"], t["m"], 1.0, t["beta"])
        profiles += [solve_origin_profile(p, 1.0, pinned["rmax"], tol=pinned["tol"]),
                     solve_farfield_profile(p, t["eta"], pinned["rmax"], tol=pinned["tol"])]
    steps = 0

    def counted(u, y, theta):
        nonlocal steps
        steps += u is y   # a Newton step sums y against itself
        return series_terms(u, y, theta)

    monkeypatch.setattr(analysis, "series_terms", counted)
    for prof in profiles:
        analysis._read.cache_clear()
        analysis._read(prof.params, prof.tol, *analysis._far_end(prof)[1:])
    analysis._read.cache_clear()
    assert (len(profiles), steps) == (90, 570)


def test_repelling_slow_point_reads_undetermined(cache):
    """At (3, 0.3, 2.1) the slow point repels (trace +0.11), so Slow cannot
    be the limit, and the state lies about 1 off the fast manifold: no
    label fits.  L1 is still read, with a bar as large as itself."""
    prof = cache.origin(3, 0.3, 2.1)
    assert classify_decay(prof).label is DecayLabel.UNDETERMINED
    lim = asymptotic_limits(prof)
    assert lim.l1.error > lim.l1.value > 0.0


def test_farfield_series_kelvin_and_hermite_agree(cache):
    """On every far-field profile the f-side values at a few radii inside
    the series nodes are the same three ways: the far-field manifold's
    series summed directly, the Kelvin map of it, and the Kelvin map of the
    dense Hermite output.  The nodes hold the Hermite value to tol/10; its
    slope, which no node spacing targets, stays within 10 tol."""
    for prof in cache.farfield_sweep():
        p = prof.params
        s = np.geomspace(prof.r[0], prof.r[prof.n_local - 1], 6)[1:-1]
        u, y = manifold_series(p, ProfileKind.FARFIELD)
        theta = prof.boundary ** (1.0 - p.m) * s ** p.sigma
        g = prof.boundary * (np.polynomial.polynomial.polyval(theta, y)
                             / theta) ** (1.0 / (1.0 - p.m))
        gs = -np.polynomial.polynomial.polyval(theta, u) * g / s
        r = 1.0 / s
        f_series = r ** -p.k * g
        fr_series = -r ** (-p.k - 1.0) * (p.k * g + s * gs)
        f, fr = fside_samples(prof, r)
        assert np.max(np.abs(f / f_series - 1.0)) <= TOL / 10
        assert np.max(np.abs(fr / fr_series - 1.0)) <= 10 * TOL


def test_inequalities_on_closed_form_farfield():
    prof = solve_farfield_profile(CF, 4096.0, RMAX, tol=TOL)
    v = verify_inequalities(prof)
    assert v["mass_monotonicity"].status == "holds"
    assert v["eta_upper_bound"].status == "holds"
    assert v["eta_upper_bound"].margin > 0.0
    assert v["drift_positivity_f"].status == "not-applicable"
    assert v["drift_positivity_g"].status == "not-applicable"
    assert v["monotone_decreasing"].status == "holds"


def test_inequalities_on_drifted_origin(cache):
    v = verify_inequalities(cache.origin(4, 1 / 3, 0.25))
    assert v["mass_monotonicity"].status == "holds"
    assert v["eta_upper_bound"].status == "not-applicable"
    assert v["drift_positivity_f"].status == "holds"
    assert v["drift_positivity_f"].margin > 0.0
    assert v["drift_positivity_g"].status == "not-applicable"
    assert v["monotone_decreasing"].status == "holds"


def test_decay_fast_at_zero_drift(closed_form_origin):
    dc = classify_decay(closed_form_origin)
    assert dc.label is DecayLabel.FAST
    # the log-slope of the closed form at the last node, r_max = 100
    assert dc.measured_slope == pytest.approx(-6.0 * 625.0 / 626.0, rel=1e-8)
    assert dc.target_fast == -6.0
    assert dc.target_slow == pytest.approx(-3.0, rel=1e-15)


def test_decay_slow_at_large_drift(cache):
    prof = cache.origin(4, 1 / 3, 0.4)
    dc = classify_decay(prof)
    assert dc.label is DecayLabel.SLOW
    assert dc.measured_slope == prof.r[-1] * prof.vr[-1] / prof.v[-1]
    assert dc.measured_slope == pytest.approx(-2.74, abs=0.01)


def test_negative_drift_vanishes_instead_of_decaying_slow():
    # below the anomalous exponent there is no global profile to classify:
    # the continuation ends on the value floor at a finite radius
    p = derive_params(4, 1 / 3, 1.0, -0.4)
    with pytest.raises(ContinuationFailed) as exc:
        solve_origin_profile(p, 1.0, RMAX, tol=TOL)
    assert exc.value.terminal is TerminalEvent.VALUE_FLOOR
    assert exc.value.partial.r[-1] == pytest.approx(8.627, rel=1e-3)


def test_shape_monotone_on_origin(closed_form_origin):
    s = classify_shape(closed_form_origin)
    assert s.label == "monotone-decreasing"
    assert s.r_max is None


@pytest.mark.parametrize("value, deriv", [
    (lambda r: 2.0 + np.sin(r), np.cos),   # X changes sign twice, at pi/2 and 3 pi/2
    (lambda r: 1.0 + (r - 2.0) ** 2, lambda r: 2.0 * (r - 2.0)),   # rises after falling
], ids=["two-sign-changes", "rises-after-falling"])
def test_shape_irregular_on_node_sets(value, deriv):
    s = classify_shape(synthetic_origin(CF, np.linspace(0.5, 7.0, 40), value, deriv))
    assert s.label == "irregular"
    assert s.r_max is None


def test_shape_interior_maximum_on_small_eta_farfield(cache):
    s = classify_shape(cache.farfield(4, 1 / 3, 0.05))
    assert s.label == "interior-maximum"
    assert 0.005 < s.r_max < 0.05


def test_shape_monotone_on_closed_form_farfield():
    prof = solve_farfield_profile(CF, 4096.0, RMAX, tol=TOL)
    assert classify_shape(prof).label == "monotone-decreasing"


def _dense_maximum(prof):
    """The f-side radius of the dense output's largest f, as the zero of the
    dense f_r next to the largest f on a fine grid; None at a span end."""
    r = np.geomspace(*sorted(prof.fside_slope[0][[0, -1]]), 20001)
    i = int(np.argmax(fside_samples(prof, r)[0]))
    if i in (0, len(r) - 1):
        return None
    return brentq(lambda x: float(fside_samples(prof, x)[1]), r[i - 1], r[i + 1],
                  xtol=1e-300, rtol=1e-13)


@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_shape_finds_a_shallow_farfield_maximum_at_loose_tol(tol):
    """The maximum sits where X = r f_r / f crosses zero as a difference
    -k + u of like-size terms; a noise band around that zero read the
    profile as monotone at tol 1e-6."""
    p = derive_params(4, 0.3333333333333333, 1.0, 0.05)
    prof = solve_farfield_profile(p, 0.0044677437736606, RMAX, tol=tol)
    s = classify_shape(prof)
    assert s.label == "interior-maximum"
    assert s.r_max == pytest.approx(_dense_maximum(prof), rel=1e-3)


def test_shape_maxima_sit_at_the_dense_maxima(cache):
    found = 0
    for prof in cache.farfield_sweep():
        s = classify_shape(prof)
        dense = _dense_maximum(prof)
        assert (s.label == "interior-maximum") == (dense is not None)
        if dense is not None:
            found += 1
            assert s.r_max == pytest.approx(dense, rel=5e-4)
    assert found == 17


def test_l2_over_l1_matches_decay_exponent(cache):
    """L2 = -k L1 whenever the fast rate is attained; holds across the
    whole far-field sweep."""
    for prof in cache.farfield_sweep():
        lim = asymptotic_limits(prof)
        k = prof.params.k
        assert abs(lim.l2.value / lim.l1.value + k) <= 1e-3 * k


def test_decay_slope_is_the_far_limit_slope(cache):
    """classify_decay measures X at the far end, and asymptotic_limits takes
    slope_far as the X of the fixed point the label names (the fast one
    unless Slow), with the state's distance from it as the bar: the
    measured slope lies within that bar on all 90 standard solves."""
    for prof in cache.origin_sweep() + cache.farfield_sweep():
        dc, lim = classify_decay(prof), asymptotic_limits(prof)
        target = dc.target_slow if dc.label is DecayLabel.SLOW else dc.target_fast
        assert lim.slope_far.value == target
        assert abs(dc.measured_slope - target) <= lim.slope_far.error


@pytest.mark.parametrize("kind, value, deriv", [
    (ProfileKind.ORIGIN, f_exact, fr_exact),
    (ProfileKind.FARFIELD, g_exact, gr_exact)])
def test_decay_slope_on_a_short_span_is_the_far_end_slope(kind, value, deriv):
    """A node set spanning 3x, as a stored CSV may: classify_decay reads the
    log-slope r f_r / f at the f-side far end, the last origin node or the
    Kelvin image of the first g node, and the limits are read from the same
    state."""
    r = np.geomspace(1.0, 3.0, 9)
    v, vr = value(r), deriv(r)
    # built as verify builds a profile from a CSV
    prof = Profile(kind=kind, params=CF, boundary=float(v[0]), r=r, v=v, vr=vr,
                   n_local=0, terminal=TerminalEvent.REACHED_RMAX, tol=TOL)
    rf, f, fr = fside_nodes(prof)
    slope = classify_decay(prof).measured_slope
    lim = asymptotic_limits(prof)
    assert abs(slope - lim.slope_far.value) <= lim.slope_far.error
    assert slope == pytest.approx(rf[-1] * fr[-1] / f[-1], rel=1e-14)
    # the closed form at the far end, f-radius 3 or 1
    far = r[-1] if kind is ProfileKind.ORIGIN else 1.0 / r[0]
    assert slope == pytest.approx(far * fr_exact(far) / f_exact(far), rel=1e-12)


def test_farfield_drift_verdicts_are_one_check():
    """On a far-field profile drift_positivity_f and drift_positivity_g read
    the same node-wise form: alpha + beta X* is alpha~ at X* = -k.  Across
    the 90 far-field solves of perfbench's 45 standard tuples (beta > 0 in
    all), at eta and eta/4, both apply, with equal status and bit-equal
    margins."""
    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    assert len(pinned["tuples"]) == 45
    for t in pinned["tuples"]:
        p = derive_params(t["n"], t["m"], 1.0, t["beta"])
        assert p.beta > 0.0
        for eta in (t["eta"], t["eta"] / 4.0):
            prof = solve_farfield_profile(p, eta, pinned["rmax"], tol=pinned["tol"])
            f, g = (verify_inequalities(prof)[f"drift_positivity_{c}"] for c in "fg")
            assert f.status == g.status != "not-applicable", (t, eta)
            assert f.margin.hex() == g.margin.hex(), (t, eta)


@pytest.fixture(scope="module")
def found():
    return find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4))


# Sobolev-critical m = (n-2)/(n+2): at beta = 0 the profile equation is
# Lane-Emden for f^m, whose bubble decays at the fast rate, so beta* = 0
CRITICAL = [(3, 0.2), (4, 1 / 3), (5, 3 / 7), (6, 0.5)]


@functools.cache
def oracle_section_Y(p, kind):
    """Y where the manifold of the chart first crosses X = -2/(1-m).

    scipy DOP853 on the reduced system in t = ln r, seeded from the
    manifold series at theta = 1e-6: forward in t on the origin manifold,
    backward on the stable manifold of the fast-decay point.
    """
    u, y = manifold_series(p, kind)
    origin = kind is ProfileKind.ORIGIN
    theta = 1e-6
    X0 = (0.0 if origin else -p.k) + np.polynomial.polynomial.polyval(theta, u)
    Y0 = np.polynomial.polynomial.polyval(theta, y)

    def rhs(t, z):
        X, Y = z
        return [-X * (p.n - 2 + p.m * X) - Y * (p.alpha + p.beta * X),
                Y * (2.0 + (1.0 - p.m) * X)]

    def section(t, z):
        return z[0] + 2.0 / (1.0 - p.m)
    section.terminal = True
    sol = solve_ivp(rhs, (0.0, 200.0 if origin else -200.0), [X0, Y0],
                    method="DOP853", rtol=1e-13, atol=1e-15, events=section)
    return sol.y_events[0][0][1]


# the last two are where moving the gap's seam out moved the gap most
ORACLE_GAPS = [(5, 0.45, 0.1), (5, 0.45, 0.2), (4, 1 / 3, 0.1), (3, 0.2, -0.2),
               (8, 0.0375, 0.0), (4, 0.385, -0.4), (5, 0.354, -0.25556)]


def oracle_gap(n, m, beta):
    """The reciprocal gap G = 1/Y_fast - 1/Y_origin that saddle_gap reads."""
    p = derive_params(n, m, 1.0, beta)
    return p, (1.0 / oracle_section_Y(p, ProfileKind.FARFIELD)
               - 1.0 / oracle_section_Y(p, ProfileKind.ORIGIN))


@pytest.mark.parametrize("n, m, beta", ORACLE_GAPS)
def test_gap_matches_reduced_system_oracle(n, m, beta):
    p, ref = oracle_gap(n, m, beta)
    assert saddle_gap(p, 1.0, 1e-9) == pytest.approx(ref, rel=1e-6)


@pytest.mark.parametrize("n, m, beta", ORACLE_GAPS)
def test_gap_at_fine_tol_matches_reduced_system_oracle(n, m, beta):
    """The series order and the stepper both follow tol: at 1e-11 the gap
    is a hundred times closer to the oracle than the 1e-9 bar."""
    p, ref = oracle_gap(n, m, beta)
    assert saddle_gap(p, 1.0, 1e-11) == pytest.approx(ref, rel=1e-8)


def test_seam_past_the_section_is_refused(monkeypatch):
    """At 0.7 of the root-test radius the origin seam at (4, 1/3, -0.4) lies
    past X = -2/(1-m) (at 0.4 it is halfway there): no step can cross the
    section, so the gap is refused by name, never read off the wrong side
    (tests/test_cli.py checks that beta-find exits 2 on it)."""
    monkeypatch.setattr(integrate, "GAP_SEAM", 0.7)
    p = derive_params(4, 1 / 3, 1.0, -0.4)
    y, why = section_Y(p, ProfileKind.ORIGIN, 1.0, 1e-9)
    assert y is None and "already lies on or past it" in why
    with pytest.raises(BadBracket, match="origin solve at beta=-0.4 never "
                       r"reaches the section .*series seam at x=.* past it"):
        saddle_gap(p, 1.0)


def test_seam_at_the_reach_is_refused(monkeypatch):
    """A gap's seam is capped only by the reach; a seam held there has no
    room to step and the gap is refused with the event."""
    monkeypatch.setattr(integrate, "SECTION_REACH", 1e-3)
    with pytest.raises(BadBracket, match="never reaches the section .*"
                       "it ends on ReachedRmax"):
        saddle_gap(derive_params(4, 1 / 3, 1.0, 0.1), 1.0)


@pytest.mark.parametrize("n, m, beta", [(5, 0.45, 0.1), (4, 1 / 3, 0.1),
                                        (4, 1 / 3, -0.2), (3, 0.2, 0.3)])
def test_one_farfield_solve_per_regular_gap(monkeypatch, n, m, beta):
    """A gap evaluation integrates the far-field manifold once, far enough
    out that a regular gap reaches the section."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return integrate_flux_system(*args, **kwargs)

    monkeypatch.setattr(kernels, "integrate_flux_system", counted)
    saddle_gap(derive_params(n, m, 1.0, beta), 1.0)
    assert len([lam for lam in calls if lam < 0.0]) == 1


@pytest.mark.parametrize("n, m, beta", [(5, 0.45, 0.1), (4, 1 / 3, -0.2),
                                        (3, 0.2, 0.3)])
def test_gap_integration_stops_at_the_section(monkeypatch, n, m, beta):
    """Each integration of a gap ends on a last node that lies on the
    section, after nodes all on one side of it, and the Y read there is the
    run's peak: at least Y at every node.  Y is read with math.exp, the
    function section_Y calls; np.exp can differ from it by an ulp."""
    runs, ys = [], []

    def recorded(*args, **kwargs):
        out = integrate_flux_system(*args, **kwargs)
        runs.append((args[10], out))
        return out

    def read(*args):
        out = section_Y(*args)
        ys.append(out[0])
        return out

    monkeypatch.setattr(kernels, "integrate_flux_system", recorded)
    monkeypatch.setattr(analysis, "section_Y", read)
    saddle_gap(derive_params(n, m, 1.0, beta), 1.0)
    assert len(runs) == 2 == len(ys)
    for (u_sec, (x, u, Z, tag)), y in zip(runs, ys):
        assert tag == TerminalEvent.SECTION
        side = np.sign(u - u_sec)
        assert len(x) > 2 and np.all(side[:-1] == side[0]) and u[-1] == u_sec
        assert y == math.exp(Z[-1]) and y >= math.exp(Z.max())


@pytest.mark.parametrize("kind", list(ProfileKind))
def test_section_Y_of_the_critical_bubble(kind):
    """At (4, 1/3, 0) the bubble f = (1 + r^2/16)^-3 crosses X = -3 at
    r = 4, where Y = r^2 f^{2/3} = 4 exactly; both charts read it to tol."""
    p = derive_params(4, 1 / 3, 1.0, 0.0)
    y, why = section_Y(p, kind, 1.0, 1e-9)
    assert why is None
    assert y == pytest.approx(4.0, rel=1e-9)


@pytest.mark.parametrize("n, m", CRITICAL)
def test_critical_exponent_is_zero(n, m):
    found = {eta0: find_anomalous_beta(n, m, 1.0, eta0, (-0.4, 0.4),
                                       tol_beta=1e-9)
             for eta0 in (0.5, 1.0, 2.0)}
    for r in found.values():
        lo, hi = r.bracket
        assert lo <= r.beta_star <= hi and hi - lo <= 1e-9
        assert abs(r.beta_star) <= 1e-8
    stars = [r.beta_star for r in found.values()]
    assert max(stars) - min(stars) <= 1e-8
    assert find_anomalous_beta(n, m, 1.0, 1.0, (-0.4, 0.4)).probes <= 12


def test_off_critical_exponent():
    # scipy's root of the reduced-system gap is 0.1189038
    stars = []
    for eta0 in (0.5, 1.0, 2.0):
        r = find_anomalous_beta(5, 0.45, 1.0, eta0, (-0.4, 0.4), tol_beta=1e-9)
        assert r.beta_star == pytest.approx(0.1189038, abs=1e-6)
        assert r.probes <= 12
        stars.append(r.beta_star)
    assert max(stars) - min(stars) <= 1e-8
    assert find_anomalous_beta(5, 0.45, 1.0, 1.0, (-0.4, 0.4)).probes <= 12


@pytest.mark.parametrize("n, m, probes, star", [(4, 1 / 3, 4, 0.0),
                                                (5, 0.45, 5, 0.1189037960)])
def test_beta_search_probe_counts(n, m, probes, star):
    """The searches perfbench's beta-search times (bracket (-0.45, 0.45),
    tol_beta 1e-3) take at most 4 probes at (4, 1/3) and 5 at (5, 0.45)
    (8 by Illinois false position), and land within 1e-9 of the root, at
    each eta0: their cost is these probes' gap evaluations."""
    for eta0 in (0.5, 1.0, 2.0):
        r = find_anomalous_beta(n, m, 1.0, eta0, (-0.45, 0.45), tol_beta=1e-3)
        assert r.probes <= probes
        assert abs(r.beta_star - star) <= 1e-9


# The probe census: (n, m) at m = f (n-2)/n for f in 0.3, 0.5, 0.7, 0.85,
# and three pinned points, each over the brackets
# (-0.45, min(0.45, 0.95 beta_threshold)) and (-0.4, min(0.4, 0.9 beta_threshold)),
# with the most probes each search may take (None where the ends do not
# straddle beta*; no f = 0.3 pair straddles it).  The comments give the
# counts of Illinois false position, which this search replaced: 228 in all,
# now 167.
PROBE_CENSUS = [(3, 0.5, (6, 6)),       # 8, 8
                (3, 0.7, (5, 5)),       # 8, 7
                (4, 0.5, (7, 6)),       # 8, 8
                (4, 0.7, (5, 5)),       # 9, 9
                (5, 0.5, (6, 5)),       # 8, 8
                (5, 0.7, (4, 5)),       # 9, 9
                (6, 0.5, (6, None)),    # 8
                (6, 0.7, (7, 6)),       # 7, 7
                (7, 0.5, (6, None)),    # 8
                (7, 0.7, (7, 6)),       # 8, 8
                (7, 0.85, (5, 5)),      # 6, 7
                (8, 0.5, (5, None)),    # 9
                (8, 0.7, (7, 6)),       # 8, 8
                (8, 0.85, (5, 5)),      # 6, 7
                (4, None, (4, 4)),      # 4, 4  (m = 1/3)
                (5, None, (5, 5)),      # 8, 8  (m = 0.45)
                (3, None, (4, 4))]      # 4, 4  (m = 0.2)


@pytest.mark.parametrize("n, f, pins", PROBE_CENSUS)
def test_probe_census(n, f, pins):
    m = {4: 1 / 3, 5: 0.45, 3: 0.2}[n] if f is None else f * (n - 2) / n
    threshold = derive_params(n, m, 1.0, 0.0).beta_threshold
    for (a, c), most in zip(((0.45, 0.95), (0.4, 0.9)), pins):
        bracket = (-a, min(a, c * threshold))
        if most is None:
            with pytest.raises(BadBracket, match="same side"):
                find_anomalous_beta(n, m, 1.0, 1.0, bracket)
            continue
        r = find_anomalous_beta(n, m, 1.0, 1.0, bracket, tol_beta=1e-3)
        lo, hi = r.bracket
        assert r.probes <= most and hi - lo <= 1e-3 and lo <= r.beta_star <= hi


@pytest.mark.parametrize("n", range(3, 9))
def test_lane_emden_oracle_at_beta_zero(n):
    """At beta = 0 the profile equation is Lane-Emden for w = f^m,
    Delta w + m alpha w^{1/m} = 0, whose power 1/m is critical for Sobolev
    at m_c = (n-2)/(n+2).  Above m_c no positive entire solution exists (Gidas &
    Spruck, Comm. Pure Appl. Math. 34, 1981), so the origin solve touches
    down; below it the regular solution stays positive (Joseph & Lundgren,
    Arch. Rational Mech. Anal. 49, 1973) and spirals into the slow point.
    The weak focus at (4, 0.99 m_c), next to the Hopf point m_c, reads
    Undetermined at r_max 1e4.  beta* has the sign of m - m_c, and it lies
    above -rho1/2: below beta* the origin solution is not positive, though
    the whole window (-rho1/2, beta_threshold) admits the solve."""
    m_c = (n - 2) / (n + 2)
    for m in (f * m_c for f in (0.5, 0.9, 0.99, 1.01, 1.1, 1.3)):
        if not m < (n - 2) / n:
            continue
        p = derive_params(n, m, 1.0, 0.0)
        if m > m_c:
            with pytest.raises(ContinuationFailed) as e:
                solve_origin_profile(p, 1.0, 1e4)
            assert e.value.terminal is TerminalEvent.VALUE_FLOOR
            continue
        prof = solve_origin_profile(p, 1.0, 1e4)
        hopf = (n, m) == (4, 0.99 * m_c)
        assert prof.terminal is TerminalEvent.REACHED_RMAX
        assert classify_decay(prof).label is (DecayLabel.UNDETERMINED if hopf
                                              else DecayLabel.SLOW)
    for f, sign in ((0.9, -1.0), (1.05, 1.0)):
        p = derive_params(n, f * m_c, 1.0, 0.0)
        r = find_anomalous_beta(n, p.m, 1.0, 1.0,
                                (-0.45, min(0.45, 0.9 * p.beta_threshold)),
                                tol_beta=1e-6)
        assert math.copysign(1.0, r.beta_star) == sign
        assert r.beta_star > -0.5


def test_verdict_fails_at_a_nan_node():
    v = Verdict.check(np.array([1.0, np.nan, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert v.status == "fails-at"
    assert v.at_r == 2.0


def _checked_forms(monkeypatch, prof):
    """{name: the node-wise form that verdict checked} for each applicable
    verdict of verify_inequalities(prof)."""
    calls = []
    check = Verdict.check

    def spy(lhs, r, tie_sign=0.0):
        calls.append((check(lhs, r, tie_sign), np.asarray(lhs)))
        return calls[-1][0]

    with monkeypatch.context() as mp:
        mp.setattr(Verdict, "check", staticmethod(spy))
        verdicts = verify_inequalities(prof)
    return {name: next(lhs for w, lhs in calls if w is v)
            for name, v in verdicts.items() if v.status != "not-applicable"}


def _chart_references(prof):
    """The per-chart expressions the verdicts were once checked on, each
    with the positive multiple of its verdict's form that it equals."""
    p, r, v, vr = prof.params, prof.r, prof.v, prof.vr
    cm = p.m / (p.n - 2.0)
    with np.errstate(all="ignore"):
        if prof.kind is ProfileKind.ORIGIN:
            return {"mass_monotonicity": (v + cm * r * vr, cm * v),
                    "drift_positivity_f": (p.alpha * v + p.beta * r * vr, v)}
        sk = r ** p.k
        return {"mass_monotonicity": (cm * sk * r * (-vr), cm * sk * v),
                "drift_positivity_f": (sk * (p.alpha_tilde * v - p.beta * r * vr), sk * v),
                "drift_positivity_g": (p.alpha_tilde * v + p.beta_tilde * r * vr, v)}


def test_verdict_forms_hold_where_the_chart_expressions_are_positive(cache,
                                                                     monkeypatch):
    compared = 0
    for prof in cache.origin_sweep() + cache.farfield_sweep():
        forms = _checked_forms(monkeypatch, prof)
        for name, (ref, multiple) in _chart_references(prof).items():
            if name not in forms:
                continue
            known = np.isfinite(ref) & (ref != 0.0)
            assert np.array_equal(forms[name][known] > 0.0, ref[known] > 0.0), name
            known &= np.isfinite(multiple) & (multiple > 1e-300)
            np.testing.assert_allclose(forms[name][known], ref[known] / multiple[known],
                                       rtol=1e-9, atol=1e-9, err_msg=name)
            compared += int(known.sum())
    assert compared > 50000


class TestBetaSearch:
    def test_exponent_near_zero(self, found):
        assert abs(found.beta_star) <= 1e-8
        assert found.probes <= 12
        assert len(found.history) == found.probes
        lo, hi = found.bracket
        assert lo <= found.beta_star <= hi
        assert hi - lo <= 1e-3

    def test_history_sides_are_ordered(self, found):
        vanishing = [b for b, _, s in found.history if s == -1]
        surviving = [b for b, _, s in found.history if s == +1]
        assert max(vanishing) < min(surviving)

    def test_bracket_certifies(self, found):
        # the signs of the gap at the final ends certify the bracket
        gap = {b: (d, side) for b, d, side in found.history}
        lo, hi = found.bracket
        assert gap[lo][0] > 0.0 and gap[lo][1] == -1
        assert gap[hi][0] <= 0.0 and gap[hi][1] == 1

    def test_reversed_bracket_is_identical(self, found):
        rev = find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (0.4, -0.4))
        assert rev.beta_star == found.beta_star
        assert rev.bracket == found.bracket

    def test_stable_under_boundary_value(self, found):
        for eta0 in (0.5, 2.0):
            r = find_anomalous_beta(4, 1 / 3, 1.0, eta0, (-0.4, 0.4))
            assert abs(r.beta_star - found.beta_star) <= 2e-3

    def test_same_side_bracket_rejected(self):
        with pytest.raises(BadBracket, match="same side"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (0.1, 0.4))

    def test_flat_root_still_brackets_quickly(self, monkeypatch):
        # at a triple root interpolation crawls; the bisection after a step
        # that halves neither the bracket nor the gap eightfold keeps the
        # count at 9 (28 with Brent's own test in its place)
        monkeypatch.setattr(analysis, "saddle_gap",
                            lambda p, eta0, tol: (0.1234 - p.beta) ** 3)
        r = find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4))
        lo, hi = r.bracket
        assert lo <= 0.1234 <= hi and hi - lo <= 1e-3
        assert r.probes <= 12

    def test_rising_gap_rejected(self, monkeypatch):
        # the gap falls through beta*; a bracket where it rises is refused
        monkeypatch.setattr(analysis, "saddle_gap", lambda p, eta0, tol: p.beta)
        with pytest.raises(BadBracket, match="swapped sides"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4))

    def test_missed_section_rejected(self, monkeypatch):
        monkeypatch.setattr(analysis, "section_Y",
                            lambda p, kind, boundary, tol:
                            (None, TerminalEvent.REACHED_RMAX))
        with pytest.raises(BadBracket, match="beta=-0.4 never reaches the section"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4))

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DomainError, match="zero width"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (0.2, 0.2))
        with pytest.raises(DomainError, match="tol_beta"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4), tol_beta=0.0)
        # below a few ulps of beta no trial point fits inside the bracket,
        # and the search would never end
        with pytest.raises(DomainError, match="tol_beta=1e-20"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.4, 0.4), tol_beta=1e-20)
        with pytest.raises(DomainError, match="origin-problem window"):
            find_anomalous_beta(4, 1 / 3, 1.0, 1.0, (-0.6, 0.4))

    def test_three_dimensional_case(self):
        vals = {}
        for eta0 in (0.5, 1.0, 2.0):
            r = find_anomalous_beta(3, 0.2, 1.0, eta0, (-0.3, 0.3),
                                    tol_beta=2e-3)
            vals[eta0] = r.beta_star
        # (3, 0.2) is Sobolev-critical: beta* = 0 for every eta0
        assert all(abs(v) <= 1e-8 for v in vals.values())
        assert abs(vals[0.5] - vals[1.0]) <= 1e-8
        assert abs(vals[2.0] - vals[1.0]) <= 1e-8


class TestSelfSimilarEval:
    def test_unit_time_offset_recovers_the_profile(self, closed_form_origin):
        for x in (0.25, 1.0, 7.0, 60.0):
            v = selfsimilar_eval(closed_form_origin, 2.0, x, 1.0)
            assert v == pytest.approx(float(f_exact(x)), rel=1e-7)

    def test_time_scaling_factor(self, closed_form_origin):
        # beta = 0 freezes the radial rescale, so time only scales amplitude
        v = selfsimilar_eval(closed_form_origin, 2.0, 1.0, 1.5)
        assert v == pytest.approx(0.5 ** 1.5 * (1.0 + 1.0 / 16.0) ** -3.0,
                                  rel=1e-9)

    def test_rejects_times_at_or_past_blowup(self, closed_form_origin):
        with pytest.raises(DomainError, match="t=2.0 violates t < T"):
            selfsimilar_eval(closed_form_origin, 2.0, 1.0, 2.0)

    def test_rejects_radii_outside_stored_range(self, closed_form_origin):
        with pytest.raises(RangeError, match="outside the stored range"):
            selfsimilar_eval(closed_form_origin, 2.0, 1000.0, 1.0)

    def test_arrays_broadcast_to_the_scalar_values(self, closed_form_origin):
        xs, ts = np.array([[0.25], [7.0], [60.0]]), np.array([0.5, 1.0, 1.5])
        got = selfsimilar_eval(closed_form_origin, 2.0, xs, ts)
        assert got.shape == (3, 3)
        for (i, j), v in np.ndenumerate(got):
            assert v == pytest.approx(
                selfsimilar_eval(closed_form_origin, 2.0, float(xs[i, 0]), float(ts[j])),
                rel=1e-14)

    def test_array_refusals_name_the_first_bad_point(self, closed_form_origin):
        with pytest.raises(DomainError, match=r"^t=2.5 violates t < T=2.0$"):
            selfsimilar_eval(closed_form_origin, 2.0, 1.0, [1.0, 2.5, 3.0])
        with pytest.raises(RangeError, match="rescaled radius 1000 outside"):
            selfsimilar_eval(closed_form_origin, 2.0, [1.0, 1000.0, 2000.0], 1.0)


class TestPdeResidual:
    def test_static_params_reduce_to_the_stationary_defect(self):
        """With both exponents zeroed the evaluation is time independent,
        so the space-time defect must equal the stationary one computed
        directly from the same samples."""
        params = ProfileParams(n=4, m=1 / 3, rho1=1.0, beta=0.0, alpha=0.0,
                               alpha_tilde=0.0, beta_tilde=0.0, delta1=-1.0,
                               delta0=1.0, beta_threshold=0.5)
        prof = synthetic_origin(params, np.geomspace(0.3, 4.0, 4000),
                                f_exact, fr_exact)
        h = 1e-3
        xs = np.linspace(1.0, 2.0, 4)
        ts = np.linspace(1.2, 1.8, 3)
        got = pde_residual_V(prof, 2.0, xs, ts, h)
        worst = 0.0
        for x in xs:
            w0 = float(prof.dense(x)[0]) ** params.m / params.m
            wp = float(prof.dense(x + h)[0]) ** params.m / params.m
            wm = float(prof.dense(x - h)[0]) ** params.m / params.m
            wxx = (wp - 2.0 * w0 + wm) / h ** 2
            wx1 = 3.0 / x * (wp - wm) / (2.0 * h)
            worst = max(worst, abs(wxx + wx1) / (abs(wxx) + abs(wx1)))
        assert got == pytest.approx(worst, rel=1e-9)

    def test_solved_annulus_is_small(self):
        p = derive_params(4, 1 / 3, 1.0, 0.25)
        prof = solve_origin_profile(p, 1.0, 40.0, tol=1e-10)
        resid = pde_residual_V(prof, 2.0, np.linspace(1.0, 2.0, 4),
                               np.linspace(1.2, 1.8, 3), 1e-3)
        assert resid <= 1e-4

    @pytest.mark.parametrize("kind, n, m, beta", [("origin", 5, 0.45, 0.2),
                                                  ("farfield", 4, 1 / 3, 0.1)])
    def test_grid_defect_is_the_pointwise_loops(self, cache, kind, n, m, beta):
        """The whole-grid defect against the loop over single points it
        replaced.  The arithmetic is the same up to the rounding of each
        power, which the second difference scales by 1/h^2."""
        prof = getattr(cache, kind)(n, m, beta)
        h, xs, ts = 1e-3, np.linspace(1.0, 2.0, 5), np.linspace(1.2, 1.8, 4)
        V = functools.partial(selfsimilar_eval, prof, 2.0)
        worst = 0.0
        for x in xs:
            for t in ts:
                Vt = (V(x, t + h) - V(x, t - h)) / (2.0 * h)
                w0, wp, wm = (V(y, t) ** m / m for y in (x, x + h, x - h))
                wxx = (wp - 2.0 * w0 + wm) / h ** 2
                wx1 = (n - 1.0) / x * (wp - wm) / (2.0 * h)
                den = abs(Vt) + abs(wxx) + abs(wx1)
                if den != 0.0:
                    worst = max(worst, abs(Vt - wxx - wx1) / den)
        assert worst > 0.0
        assert pde_residual_V(prof, 2.0, xs, ts, h) == pytest.approx(
            worst, rel=0.0, abs=100.0 * np.finfo(float).eps / h ** 2)

    def test_nan_values_read_nan(self):
        """A NaN V reads NaN, as in ode_residual, and so does a grid with no
        point left; skipping NaN defects read 0.0 and 5.2e-7 here."""
        prof = synthetic_origin(CF, np.linspace(0.3, 4.0, 400), f_exact, fr_exact)
        prof.v[200:] = np.nan
        ts = np.linspace(1.2, 1.8, 3)
        assert math.isnan(pde_residual_V(prof, 2.0, np.linspace(2.5, 3.0, 4), ts, 1e-3))
        assert math.isnan(pde_residual_V(prof, 2.0, np.linspace(2.0, 3.0, 4), ts, 1e-3))
        assert math.isnan(pde_residual_V(prof, 2.0, np.linspace(2.0, 3.0, 4), [], 1e-3))
        assert math.isnan(ode_residual(prof))

    def test_stencil_must_stay_positive(self, closed_form_origin):
        with pytest.raises(RangeError, match="reaches r <= 0"):
            pde_residual_V(closed_form_origin, 2.0, [5e-4], [1.0], 1e-3)


def test_report_structure(closed_form_origin):
    rep = build_report(closed_form_origin).to_dict()
    assert sorted(rep.keys()) == ["decay_class", "inequalities", "limits",
                                  "params", "regime", "residual", "shape",
                                  "terminal_event"]
    assert rep["terminal_event"] == "ReachedRmax"
    assert rep["residual"] <= 1e-6
    assert rep["params"]["k"] == 6.0
    assert rep["regime"]["origin_admissible"] is True
    assert sorted(rep["limits"]["L3"]) == ["error", "value"]
    assert rep["decay_class"]["class"] == "Fast"
    assert rep["shape"]["label"] == "monotone-decreasing"
    json.dumps(rep)   # must round-trip through plain JSON
